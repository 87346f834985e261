//! Offline trace analysis: conservation, reordering, latency.
//!
//! The reordering metric follows Wu et al.'s diagnostic ("Why Does Flow
//! Director Cause Packet Reordering?"): within a flow, walk packets in
//! NF-completion order and count, for each packet, how many packets
//! that arrived *later* completed *earlier* — the packet's **reordering
//! depth** (the number of inversions it participates in as the late
//! element). RSS dispatch keeps a flow on one core and must show depth
//! 0 everywhere; spraying trades nonzero depth for load balance, which
//! is exactly the paper's Fig. 8–9 tension made measurable.

use crate::event::{DropKind, EventKind};
use crate::ring::Trace;
use std::collections::HashMap;

/// Trace-derived event counts checked against the runtime's own
/// aggregate counters ([`crate::ExpectedCounts`]).
#[derive(Debug, Clone, Default)]
pub struct Conservation {
    /// Packets admitted to a receive queue.
    pub ingress_enqueued: u64,
    /// NF completions.
    pub nf_done: u64,
    /// Of those, Forward verdicts.
    pub forwarded: u64,
    /// Of those, Drop verdicts.
    pub nf_drops: u64,
    /// NIC Flow Director cap drops.
    pub nic_cap_drops: u64,
    /// Receive-queue overflow drops.
    pub queue_drops: u64,
    /// Ring overflow drops.
    pub ring_drops: u64,
    /// Packets steered to a failed core's queue: never enqueued, part
    /// of the runtime's `lost_packets`.
    pub dead_core_drops: u64,
    /// Redirect sends / pickups.
    pub redirect_out: u64,
    /// Redirect pickups.
    pub redirect_in: u64,
    /// Events lost to full trace rings. When nonzero, violations are
    /// reported as warnings only — the trace is a prefix sample.
    pub events_dropped: u64,
    /// Human-readable descriptions of every violated identity.
    pub violations: Vec<String>,
}

impl Conservation {
    /// True when every checked identity held (always true for a trace
    /// with `events_dropped > 0`, where checks are advisory).
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Per-flow reordering summary.
#[derive(Debug, Clone)]
pub struct FlowReport {
    /// Stable flow hash (from the trace events).
    pub flow: u64,
    /// NF completions observed for this flow.
    pub packets: u64,
    /// Packets with nonzero reordering depth.
    pub reordered: u64,
    /// Largest per-packet depth.
    pub max_depth: u64,
    /// Sum of per-packet depths (total inversions).
    pub total_depth: u64,
}

impl FlowReport {
    /// Fraction of this flow's packets that completed out of order.
    pub fn reorder_rate(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.reordered as f64 / self.packets as f64
        }
    }

    /// Mean depth over reordered packets.
    pub fn mean_depth(&self) -> f64 {
        if self.reordered == 0 {
            0.0
        } else {
            self.total_depth as f64 / self.reordered as f64
        }
    }
}

/// Latency percentiles (µs) computed from exact per-packet samples.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: u64,
    /// Median, µs.
    pub p50_us: f64,
    /// 99th percentile, µs.
    pub p99_us: f64,
    /// 99.9th percentile, µs.
    pub p999_us: f64,
    /// Mean, µs.
    pub mean_us: f64,
    /// Maximum, µs.
    pub max_us: f64,
}

impl LatencySummary {
    fn from_samples(mut samples: Vec<f64>) -> LatencySummary {
        if samples.is_empty() {
            return LatencySummary::default();
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("latency samples are finite"));
        let pick = |q: f64| samples[((samples.len() - 1) as f64 * q).round() as usize];
        LatencySummary {
            count: samples.len() as u64,
            p50_us: pick(0.50),
            p99_us: pick(0.99),
            p999_us: pick(0.999),
            mean_us: samples.iter().sum::<f64>() / samples.len() as f64,
            max_us: *samples.last().unwrap(),
        }
    }
}

/// Redirect latency on one designated core.
#[derive(Debug, Clone)]
pub struct CoreRedirects {
    /// The designated core that picked the redirects up.
    pub core: u16,
    /// Redirect transfer latency on this core.
    pub latency: LatencySummary,
}

/// End-to-end and component latency derived from event timestamps.
#[derive(Debug, Clone, Default)]
pub struct LatencyBreakdown {
    /// Ingress enqueue → NF done, per processed packet.
    pub sojourn: LatencySummary,
    /// Ingress enqueue → NF start for packets processed where they
    /// arrived.
    pub queue_wait: LatencySummary,
    /// Redirect push → ring pickup, all cores.
    pub redirect: LatencySummary,
    /// Redirect latency broken down by designated core.
    pub per_core_redirect: Vec<CoreRedirects>,
}

/// Everything [`analyze`] computes from one trace.
#[derive(Debug, Clone)]
pub struct TraceAnalysis {
    /// Event-count identities vs. the runtime's counters.
    pub conservation: Conservation,
    /// Per-flow reordering, descending by total depth.
    pub flows: Vec<FlowReport>,
    /// Latency breakdown.
    pub latency: LatencyBreakdown,
}

impl TraceAnalysis {
    /// Total NF completions with nonzero reordering depth.
    pub fn reordered_packets(&self) -> u64 {
        self.flows.iter().map(|f| f.reordered).sum()
    }

    /// Largest reordering depth across flows.
    pub fn max_depth(&self) -> u64 {
        self.flows.iter().map(|f| f.max_depth).max().unwrap_or(0)
    }
}

/// Fenwick tree (binary indexed tree) over `n` ranks, for counting how
/// many already-seen elements exceed a given rank in O(log n).
struct Fenwick {
    tree: Vec<u64>,
}

impl Fenwick {
    fn new(n: usize) -> Self {
        Fenwick {
            tree: vec![0; n + 1],
        }
    }

    /// Add one at `rank` (0-based).
    fn add(&mut self, rank: usize) {
        let mut i = rank + 1;
        while i < self.tree.len() {
            self.tree[i] += 1;
            i += i & i.wrapping_neg();
        }
    }

    /// Count of inserted ranks in `0..=rank` (0-based).
    fn prefix(&self, rank: usize) -> u64 {
        let mut i = rank + 1;
        let mut sum = 0;
        while i > 0 {
            sum += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        sum
    }
}

/// Per-flow reordering from NF completions: for each flow, packets in
/// completion order, depth = number of earlier completions with a
/// larger arrival ordinal.
fn reordering(trace: &Trace) -> Vec<FlowReport> {
    // Completion order per flow. Events are already sorted by seq.
    let mut by_flow: HashMap<u64, Vec<u64>> = HashMap::new();
    for ev in trace.events.iter() {
        if ev.kind == EventKind::NfDone {
            by_flow.entry(ev.flow).or_default().push(ev.pkt);
        }
    }
    let mut flows: Vec<FlowReport> = by_flow
        .into_iter()
        .map(|(flow, completions)| {
            // Rank-compress arrival ordinals so the Fenwick tree is
            // sized by the flow's packet count, not the id space.
            let mut sorted = completions.clone();
            sorted.sort_unstable();
            sorted.dedup();
            let rank: HashMap<u64, usize> =
                sorted.iter().enumerate().map(|(i, &v)| (v, i)).collect();
            let mut fen = Fenwick::new(sorted.len());
            let mut report = FlowReport {
                flow,
                packets: completions.len() as u64,
                reordered: 0,
                max_depth: 0,
                total_depth: 0,
            };
            for (j, id) in completions.iter().enumerate() {
                let r = rank[id];
                // Earlier completions with larger arrival ordinal.
                let depth = j as u64 - fen.prefix(r);
                if depth > 0 {
                    report.reordered += 1;
                    report.max_depth = report.max_depth.max(depth);
                    report.total_depth += depth;
                }
                fen.add(r);
            }
            report
        })
        .collect();
    flows.sort_by(|a, b| b.total_depth.cmp(&a.total_depth).then(a.flow.cmp(&b.flow)));
    flows
}

fn conservation(trace: &Trace) -> Conservation {
    let mut c = Conservation {
        events_dropped: trace.dropped,
        ..Conservation::default()
    };
    for ev in trace.events.iter() {
        match ev.kind {
            EventKind::IngressEnqueue => c.ingress_enqueued += 1,
            EventKind::RedirectOut => c.redirect_out += 1,
            EventKind::RedirectIn => c.redirect_in += 1,
            EventKind::NfDone => {
                c.nf_done += 1;
                if ev.aux == 0 {
                    c.forwarded += 1;
                } else {
                    c.nf_drops += 1;
                }
            }
            EventKind::Drop => match DropKind::from_aux(ev.aux) {
                Some(DropKind::NicCap) => c.nic_cap_drops += 1,
                Some(DropKind::QueueFull) => c.queue_drops += 1,
                Some(DropKind::RingFull) => c.ring_drops += 1,
                Some(DropKind::DeadCore) => c.dead_core_drops += 1,
                None => c
                    .violations
                    .push(format!("drop event with unknown aux {}", ev.aux)),
            },
            EventKind::Drain | EventKind::NfStart => {}
        }
    }

    // Internal identity: every enqueued packet is eventually processed
    // or lost on a ring — never duplicated. Holds even for a run that
    // stopped with work in flight (then enqueued > done + ring drops).
    if c.nf_done + c.ring_drops > c.ingress_enqueued {
        c.violations.push(format!(
            "more completions+ring drops ({} + {}) than enqueues ({})",
            c.nf_done, c.ring_drops, c.ingress_enqueued
        ));
    }
    if c.redirect_in > c.redirect_out {
        c.violations.push(format!(
            "more redirect pickups ({}) than sends ({})",
            c.redirect_in, c.redirect_out
        ));
    }

    // External identities against the runtime's own counters. These are
    // exact regardless of in-flight work: both sides count the same
    // instants (admission, NF completion, drop).
    if let Some(e) = trace.meta.expected {
        let checks: [(&str, u64, u64); 6] = [
            (
                "ingress enqueues + dead-core drops vs offered - nic/queue drops",
                c.ingress_enqueued + c.dead_core_drops,
                e.offered - e.nic_cap_drops - e.queue_drops,
            ),
            ("nf completions vs stats.processed", c.nf_done, e.processed),
            (
                "forward verdicts vs stats.forwarded",
                c.forwarded,
                e.forwarded,
            ),
            ("drop verdicts vs stats.nf_drops", c.nf_drops, e.nf_drops),
            (
                "ring-drop events vs stats.ring_drops",
                c.ring_drops,
                e.ring_drops,
            ),
            (
                "redirect-out events vs stats.redirects",
                c.redirect_out,
                e.redirects,
            ),
        ];
        for (what, got, want) in checks {
            if got != want {
                c.violations
                    .push(format!("{what}: trace {got} != stats {want}"));
            }
        }
    }

    // A lossy trace undercounts by construction: demote to advisory.
    if c.events_dropped > 0 {
        c.violations.clear();
    }
    c
}

fn latency(trace: &Trace) -> LatencyBreakdown {
    let to_us = |ticks: u64| ticks as f64 / trace.meta.ticks_per_us as f64;

    // Pair events by packet ordinal. Ids are unique per packet.
    let mut ingress_ts: HashMap<u64, u64> = HashMap::new();
    let mut redirected: HashMap<u64, u64> = HashMap::new(); // pkt -> out ts
    let mut sojourn = Vec::new();
    let mut queue_wait = Vec::new();
    let mut redirect = Vec::new();
    let mut per_core: HashMap<u16, Vec<f64>> = HashMap::new();

    for ev in trace.events.iter() {
        match ev.kind {
            EventKind::IngressEnqueue => {
                ingress_ts.insert(ev.pkt, ev.ts);
            }
            EventKind::RedirectOut => {
                redirected.insert(ev.pkt, ev.ts);
            }
            EventKind::RedirectIn => {
                if let Some(out_ts) = redirected.get(&ev.pkt) {
                    let d = to_us(ev.ts.saturating_sub(*out_ts));
                    redirect.push(d);
                    per_core.entry(ev.core).or_default().push(d);
                }
            }
            EventKind::NfStart => {
                if !redirected.contains_key(&ev.pkt) {
                    if let Some(t0) = ingress_ts.get(&ev.pkt) {
                        queue_wait.push(to_us(ev.ts.saturating_sub(*t0)));
                    }
                }
            }
            EventKind::NfDone => {
                if let Some(t0) = ingress_ts.get(&ev.pkt) {
                    sojourn.push(to_us(ev.ts.saturating_sub(*t0)));
                }
            }
            EventKind::Drain | EventKind::Drop => {}
        }
    }

    let mut per_core_redirect: Vec<CoreRedirects> = per_core
        .into_iter()
        .map(|(core, samples)| CoreRedirects {
            core,
            latency: LatencySummary::from_samples(samples),
        })
        .collect();
    per_core_redirect.sort_by_key(|c| c.core);

    LatencyBreakdown {
        sojourn: LatencySummary::from_samples(sojourn),
        queue_wait: LatencySummary::from_samples(queue_wait),
        redirect: LatencySummary::from_samples(redirect),
        per_core_redirect,
    }
}

/// Tail attribution recomputed offline from raw event timestamps, the
/// ground truth `fig_tail` checks the online [`crate::TailTracker`]
/// against. Uses the same exemplar rule (`sojourn > threshold`) and the
/// same span boundaries: queue wait ends at `NfStart` for a local
/// packet and at `RedirectOut` (the ring hand-off) for a redirected
/// one; redirect transit is `RedirectIn − RedirectOut`. The rest of the
/// sojourn — what the online table splits into classify/NF/TX — is the
/// [`TailAttribution::residual_ticks`] remainder, since the trace
/// carries no finer-grained events.
#[derive(Debug, Clone, Default)]
pub struct TailAttribution {
    /// The fixed exemplar threshold used, ticks.
    pub threshold_ticks: u64,
    /// NF completions with a paired ingress event.
    pub completions: u64,
    /// Of those, exemplars (`sojourn > threshold`).
    pub exemplars: u64,
    /// Summed sojourn over exemplars, ticks.
    pub sojourn_ticks: u64,
    /// Summed queue wait over exemplars, ticks.
    pub queue_wait_ticks: u64,
    /// Summed redirect transit over exemplars, ticks.
    pub redirect_transit_ticks: u64,
}

impl TailAttribution {
    /// Exemplar ticks not attributable from trace events alone — the
    /// online table's classify + NF + TX total.
    pub fn residual_ticks(&self) -> u64 {
        self.sojourn_ticks
            .saturating_sub(self.queue_wait_ticks + self.redirect_transit_ticks)
    }
}

/// Recompute tail attribution from a trace under a fixed threshold.
///
/// Only meaningful against an online tracker in fixed-threshold mode
/// (`tail_threshold_ticks > 0`): a rolling threshold depends on
/// completion order inside the recompute window, which a prefix-sampled
/// trace cannot replicate.
pub fn tail_attribution(trace: &Trace, threshold_ticks: u64) -> TailAttribution {
    let mut ingress_ts: HashMap<u64, u64> = HashMap::new();
    let mut out_ts: HashMap<u64, u64> = HashMap::new();
    let mut in_ts: HashMap<u64, u64> = HashMap::new();
    let mut start_ts: HashMap<u64, u64> = HashMap::new();
    let mut t = TailAttribution {
        threshold_ticks,
        ..TailAttribution::default()
    };
    for ev in trace.events.iter() {
        match ev.kind {
            EventKind::IngressEnqueue => {
                ingress_ts.insert(ev.pkt, ev.ts);
            }
            EventKind::RedirectOut => {
                out_ts.insert(ev.pkt, ev.ts);
            }
            EventKind::RedirectIn => {
                in_ts.insert(ev.pkt, ev.ts);
            }
            EventKind::NfStart => {
                start_ts.insert(ev.pkt, ev.ts);
            }
            EventKind::NfDone => {
                let Some(&t0) = ingress_ts.get(&ev.pkt) else {
                    continue;
                };
                t.completions += 1;
                let sojourn = ev.ts.saturating_sub(t0);
                if sojourn <= threshold_ticks {
                    continue;
                }
                t.exemplars += 1;
                t.sojourn_ticks += sojourn;
                match (out_ts.get(&ev.pkt), in_ts.get(&ev.pkt)) {
                    (Some(&out), Some(&picked)) => {
                        t.queue_wait_ticks += out.saturating_sub(t0);
                        t.redirect_transit_ticks += picked.saturating_sub(out);
                    }
                    _ => {
                        if let Some(&start) = start_ts.get(&ev.pkt) {
                            t.queue_wait_ticks += start.saturating_sub(t0);
                        }
                    }
                }
            }
            EventKind::Drain | EventKind::Drop => {}
        }
    }
    t
}

/// Analyze a trace: conservation identities, per-flow reordering, and
/// latency breakdown.
pub fn analyze(trace: &Trace) -> TraceAnalysis {
    TraceAnalysis {
        conservation: conservation(trace),
        flows: reordering(trace),
        latency: latency(trace),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use crate::ring::{ExpectedCounts, TraceMeta};

    fn meta(expected: Option<ExpectedCounts>) -> TraceMeta {
        TraceMeta {
            runtime: "sim".into(),
            ticks_per_us: 1_000,
            num_cores: 2,
            expected,
        }
    }

    fn done(seq: u64, flow: u64, pkt: u64) -> TraceEvent {
        TraceEvent {
            seq,
            ts: seq * 100,
            core: 0,
            kind: EventKind::NfDone,
            flow,
            pkt,
            aux: 0,
        }
    }

    /// Hand-built trace of known depth: flow 1 completes in order
    /// 0, 3, 1, 2 (packet 3 overtook 1 and 2), flow 2 in order.
    #[test]
    fn reordering_depth_matches_hand_computation() {
        let events = vec![
            done(0, 1, 0),
            done(1, 1, 3),
            done(2, 2, 0),
            done(3, 1, 1), // one earlier completion (3) arrived later → depth 1
            done(4, 2, 1),
            done(5, 1, 2), // likewise overtaken only by 3 → depth 1
        ];
        let trace = Trace {
            meta: meta(None),
            events: events.into(),
            dropped: 0,
        };
        let a = analyze(&trace);
        assert_eq!(a.flows.len(), 2);
        let f1 = a.flows.iter().find(|f| f.flow == 1).unwrap();
        assert_eq!(f1.packets, 4);
        assert_eq!(f1.reordered, 2);
        assert_eq!(f1.max_depth, 1);
        assert_eq!(f1.total_depth, 2);
        assert!((f1.reorder_rate() - 0.5).abs() < 1e-12);
        let f2 = a.flows.iter().find(|f| f.flow == 2).unwrap();
        assert_eq!(f2.reordered, 0);
        assert_eq!(f2.max_depth, 0);
        assert_eq!(a.max_depth(), 1);
        assert_eq!(a.reordered_packets(), 2);
    }

    #[test]
    fn deeper_overtake_counts_every_inversion() {
        // Completion order 2, 3, 0, 1: packet 0 was overtaken by {2, 3}
        // (depth 2), packet 1 likewise (depth 2).
        let events = vec![done(0, 9, 2), done(1, 9, 3), done(2, 9, 0), done(3, 9, 1)];
        let trace = Trace {
            meta: meta(None),
            events: events.into(),
            dropped: 0,
        };
        let a = analyze(&trace);
        let f = &a.flows[0];
        assert_eq!(f.reordered, 2);
        assert_eq!(f.max_depth, 2);
        assert_eq!(f.total_depth, 4);
    }

    #[test]
    fn in_order_flow_has_zero_depth() {
        let events: Vec<TraceEvent> = (0..100).map(|i| done(i, 5, i)).collect();
        let trace = Trace {
            meta: meta(None),
            events: events.into(),
            dropped: 0,
        };
        let a = analyze(&trace);
        assert_eq!(a.reordered_packets(), 0);
        assert_eq!(a.max_depth(), 0);
    }

    fn ev(seq: u64, kind: EventKind, pkt: u64, aux: u64) -> TraceEvent {
        TraceEvent {
            seq,
            ts: seq * 1_000,
            core: (pkt % 2) as u16,
            kind,
            flow: 7,
            pkt,
            aux,
        }
    }

    #[test]
    fn conservation_passes_on_consistent_trace_and_fails_on_mismatch() {
        let events = vec![
            ev(0, EventKind::IngressEnqueue, 0, 0),
            ev(1, EventKind::IngressEnqueue, 1, 0),
            ev(2, EventKind::Drop, 2, DropKind::NicCap.to_aux()),
            ev(3, EventKind::NfStart, 0, 0),
            ev(4, EventKind::NfDone, 0, 0),
            ev(5, EventKind::RedirectOut, 1, 1),
            ev(6, EventKind::RedirectIn, 1, 0),
            ev(7, EventKind::NfStart, 1, 0),
            ev(8, EventKind::NfDone, 1, 1),
        ];
        let expected = ExpectedCounts {
            offered: 3,
            processed: 2,
            forwarded: 1,
            nf_drops: 1,
            nic_cap_drops: 1,
            queue_drops: 0,
            ring_drops: 0,
            redirects: 1,
        };
        let trace = Trace {
            meta: meta(Some(expected)),
            events: events.clone().into(),
            dropped: 0,
        };
        let c = analyze(&trace).conservation;
        assert!(c.ok(), "violations: {:?}", c.violations);
        assert_eq!(c.ingress_enqueued, 2);
        assert_eq!(c.nf_done, 2);
        assert_eq!(c.redirect_out, 1);

        // Now claim one more forwarded than the trace shows.
        let mut wrong = expected;
        wrong.forwarded = 2;
        wrong.nf_drops = 0;
        let trace = Trace {
            meta: meta(Some(wrong)),
            events: events.into(),
            dropped: 0,
        };
        let c = analyze(&trace).conservation;
        assert!(!c.ok());
        assert!(c.violations.iter().any(|v| v.contains("forward")));
    }

    #[test]
    fn dead_core_drops_close_the_ingress_identity() {
        // Packet 1 was steered to a failed core: lost, never enqueued.
        let mut events = vec![
            ev(0, EventKind::IngressEnqueue, 0, 0),
            ev(1, EventKind::Drop, 1, DropKind::DeadCore.to_aux()),
            ev(2, EventKind::NfStart, 0, 0),
            ev(3, EventKind::NfDone, 0, 0),
        ];
        let expected = ExpectedCounts {
            offered: 2,
            processed: 1,
            forwarded: 1,
            nf_drops: 0,
            nic_cap_drops: 0,
            queue_drops: 0,
            ring_drops: 0,
            redirects: 0,
        };
        let trace = |events: Vec<TraceEvent>| Trace {
            meta: meta(Some(expected)),
            events: events.into(),
            dropped: 0,
        };
        let c = analyze(&trace(events.clone())).conservation;
        assert!(c.ok(), "violations: {:?}", c.violations);
        assert_eq!((c.ingress_enqueued, c.dead_core_drops), (1, 1));

        events.remove(1);
        let c = analyze(&trace(events)).conservation;
        assert!(c.violations.iter().any(|v| v.contains("dead-core")));
    }

    #[test]
    fn lossy_trace_demotes_violations() {
        let events = vec![ev(0, EventKind::NfDone, 0, 0)];
        let expected = ExpectedCounts {
            offered: 100,
            processed: 50,
            forwarded: 50,
            nf_drops: 0,
            nic_cap_drops: 0,
            queue_drops: 0,
            ring_drops: 0,
            redirects: 0,
        };
        let trace = Trace {
            meta: meta(Some(expected)),
            events: events.into(),
            dropped: 10,
        };
        let c = analyze(&trace).conservation;
        assert!(c.ok(), "lossy traces must not hard-fail conservation");
        assert_eq!(c.events_dropped, 10);
    }

    #[test]
    fn offline_tail_attribution_splits_local_and_redirected_exemplars() {
        let mk = |seq, ts, kind, pkt| TraceEvent {
            seq,
            ts,
            core: 0,
            kind,
            flow: 1,
            pkt,
            aux: 0,
        };
        // Packet 0 (local): enqueue 0, start 2_000, done 3_000.
        // Packet 1 (via ring): enqueue 1_000, out 2_000, in 2_500,
        // done 5_000. Packet 2 (local, fast): enqueue 0, done 100.
        let events = vec![
            mk(0, 0, EventKind::IngressEnqueue, 0),
            mk(1, 0, EventKind::IngressEnqueue, 2),
            mk(2, 1_000, EventKind::IngressEnqueue, 1),
            mk(3, 100, EventKind::NfDone, 2),
            mk(4, 2_000, EventKind::NfStart, 0),
            mk(5, 2_000, EventKind::RedirectOut, 1),
            mk(6, 2_500, EventKind::RedirectIn, 1),
            mk(7, 3_000, EventKind::NfDone, 0),
            mk(8, 5_000, EventKind::NfDone, 1),
        ];
        let trace = Trace {
            meta: meta(None),
            events: events.into(),
            dropped: 0,
        };
        let t = tail_attribution(&trace, 500);
        assert_eq!(t.completions, 3);
        assert_eq!(t.exemplars, 2, "packet 2 is under the threshold");
        assert_eq!(t.sojourn_ticks, 3_000 + 4_000);
        assert_eq!(t.queue_wait_ticks, 2_000 + 1_000);
        assert_eq!(t.redirect_transit_ticks, 500);
        assert_eq!(t.residual_ticks(), 7_000 - 3_000 - 500);
        // Threshold above every sojourn: nothing is captured.
        let none = tail_attribution(&trace, 10_000);
        assert_eq!(none.completions, 3);
        assert_eq!(none.exemplars, 0);
        assert_eq!(none.sojourn_ticks, 0);
    }

    #[test]
    fn latency_pairs_events_by_packet() {
        // Packet 0: enqueue at 0, start at 2000, done at 3000 ticks
        // (1 tick = 1 ns here → sojourn 3 µs, wait 2 µs).
        // Packet 1: enqueue 1000, redirect out 2000 → in 2500, done 5000.
        let mk = |seq, ts, core, kind, pkt, aux| TraceEvent {
            seq,
            ts,
            core,
            kind,
            flow: 1,
            pkt,
            aux,
        };
        let events = vec![
            mk(0, 0, 0, EventKind::IngressEnqueue, 0, 0),
            mk(1, 1_000, 0, EventKind::IngressEnqueue, 1, 0),
            mk(2, 2_000, 0, EventKind::NfStart, 0, 0),
            mk(3, 2_000, 0, EventKind::RedirectOut, 1, 1),
            mk(4, 2_500, 1, EventKind::RedirectIn, 1, 500),
            mk(5, 3_000, 0, EventKind::NfDone, 0, 0),
            mk(6, 5_000, 1, EventKind::NfDone, 1, 0),
        ];
        let trace = Trace {
            meta: meta(None),
            events: events.into(),
            dropped: 0,
        };
        let l = analyze(&trace).latency;
        assert_eq!(l.sojourn.count, 2);
        assert!((l.sojourn.max_us - 4.0).abs() < 1e-9);
        assert_eq!(
            l.queue_wait.count, 1,
            "redirected packets have no queue-wait sample"
        );
        assert!((l.queue_wait.p50_us - 2.0).abs() < 1e-9);
        assert_eq!(l.redirect.count, 1);
        assert!((l.redirect.p50_us - 0.5).abs() < 1e-9);
        assert_eq!(l.per_core_redirect.len(), 1);
        assert_eq!(l.per_core_redirect[0].core, 1);
    }
}
