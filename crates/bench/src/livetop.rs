//! Frame rendering for the `sprayer-bench top` dashboard, kept out of
//! the binary so the layout logic is unit-testable.
//!
//! One [`Frame`] is a pair of [`LiveCore`] snapshots (previous and
//! current poll) plus the optional panes: the elastic reconfiguration
//! footer, the per-stage time breakdown (diffed from
//! [`sprayer_obs::ProfileSlots`] snapshots), and the most recent SLO
//! alerts. [`render`] turns it into the text block the binary either
//! redraws in place or appends to a CI log.

use sprayer::ReconfigReport;
use sprayer_obs::{Alert, LiveCore, Stage, TailReport, TailStage, STAGE_COUNT};
use sprayer_sim::stats::jain_fairness_index;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// What the elastic driver publishes for the dashboard: whether a
/// scaling plan is mid-flight and the most recent transition reports.
#[derive(Default)]
pub struct ElasticStatus {
    /// A scaling plan is currently executing.
    pub in_progress: AtomicBool,
    /// Recent reconfiguration reports, oldest first.
    pub events: Mutex<Vec<ReconfigReport>>,
}

/// A per-core × per-stage tick matrix, as returned by
/// [`sprayer_obs::ProfileSlots::snapshot`].
pub type StageMatrix = [[u64; STAGE_COUNT]];

/// One dashboard frame's inputs.
pub struct Frame<'a> {
    /// Per-core counters at the previous poll.
    pub prev: &'a [LiveCore],
    /// Per-core counters now.
    pub cur: &'a [LiveCore],
    /// Seconds between the two snapshots.
    pub dt: f64,
    /// Completed driver iterations.
    pub runs: u64,
    /// Seconds since the dashboard started.
    pub elapsed: f64,
    /// `Some((steady_state_workers, status))` when the driver runs
    /// scaling plans: rows for cores outside the steady-state set are
    /// shown only while they still move packets, and a reconfiguration
    /// footer lists the latest transitions.
    pub elastic: Option<(usize, &'a ElasticStatus)>,
    /// Per-stage tick matrices (previous and current
    /// [`sprayer_obs::ProfileSlots::snapshot`]) for the stage pane.
    pub stages: Option<(&'a StageMatrix, &'a StageMatrix)>,
    /// Accumulated tail-latency attribution for the tail pane
    /// (`--tail`): where slow packets spent their time, across every
    /// driver iteration so far.
    pub tail: Option<&'a TailReport>,
    /// Most recent SLO alerts, oldest first.
    pub alerts: &'a [Alert],
    /// Render the flow-table memory pane (`--mem`): per-core occupancy,
    /// high-water, and eviction rate from the live table slots.
    pub mem: bool,
}

/// Render one frame.
pub fn render(f: &Frame) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>4}  {:>10}  {:>10}  {:>8}  {:>9}  {:>9}  {:>6}  {:>6}",
        "core", "pkts/s", "fwd/s", "drops/s", "redir-in", "redir-out", "util%", "queue"
    );
    let _ = writeln!(out, "{}", "-".repeat(76));
    let mut rates = Vec::new();
    for (i, (c, p)) in f.cur.iter().zip(f.prev).enumerate() {
        let rate = |a: u64, b: u64| (a.saturating_sub(b)) as f64 / f.dt;
        let pps = rate(c.processed, p.processed);
        let active = rate(c.busy_ns, p.busy_ns) > 0.0
            || pps > 0.0
            || rate(c.redirected_in, p.redirected_in) > 0.0
            || c.queue_depth > 0;
        if let Some((low, _)) = f.elastic {
            // A core outside the steady-state set only earns a row while
            // it is still doing work — no stale zero rows after a leave.
            if i >= low && !active {
                continue;
            }
        }
        rates.push(pps);
        let util = rate(c.busy_ns, p.busy_ns) / 1e9 * 100.0;
        let joined = f.elastic.is_some_and(|(low, _)| i >= low);
        let _ = writeln!(
            out,
            "{i:>4}  {pps:>10.0}  {:>10.0}  {:>8.0}  {:>9.0}  {:>9.0}  {util:>6.1}  {:>6}{}",
            rate(c.forwarded, p.forwarded),
            rate(c.nf_drops, p.nf_drops) + rate(c.drops, p.drops),
            rate(c.redirected_in, p.redirected_in),
            rate(c.redirected_out, p.redirected_out),
            c.queue_depth,
            if joined { "  +join" } else { "" },
        );
    }
    let total: f64 = rates.iter().sum();
    let _ = writeln!(out, "{}", "-".repeat(76));
    let _ = writeln!(
        out,
        "total {:.2} Mpps | Jain {:.3} | {} runs | {:.1}s elapsed",
        total / 1e6,
        jain_fairness_index(&rates),
        f.runs,
        f.elapsed,
    );
    if f.mem {
        out.push_str(&mem_pane(f.prev, f.cur, f.dt));
    }
    if let Some((prev, cur)) = f.stages {
        out.push_str(&stage_line(prev, cur));
    }
    if let Some(tail) = f.tail {
        out.push_str(&tail_line(tail));
    }
    if let Some((_, status)) = f.elastic {
        let events = status.events.lock().expect("status lock");
        for r in events.iter().rev().take(3) {
            let delta = r.to_cores as i64 - r.from_cores as i64;
            let _ = writeln!(
                out,
                "reconfig epoch {}: {} -> {} cores ({} {}), {} flows migrated, {:.1} us downtime",
                r.epoch,
                r.from_cores,
                r.to_cores,
                delta.abs(),
                if delta >= 0 { "joined" } else { "left" },
                r.migrated_flows,
                r.downtime_ns as f64 / 1e3,
            );
        }
        if status.in_progress.load(Ordering::Relaxed) {
            let _ = writeln!(
                out,
                "reconfig: scaling plan in progress (migration underway)"
            );
        }
    }
    for a in f.alerts.iter().rev().take(4) {
        let _ = writeln!(
            out,
            "ALERT [{}] {} x{}: {}",
            a.severity.as_str(),
            a.rule,
            a.count,
            a.detail
        );
    }
    out
}

/// The memory pane: total flow-table occupancy against its high-water
/// mark, the eviction rate over the poll window, and the per-core
/// occupancy spread — the live view of the bounded-memory lifecycle.
fn mem_pane(prev: &[LiveCore], cur: &[LiveCore], dt: f64) -> String {
    use std::fmt::Write as _;
    let occ: u64 = cur.iter().map(|c| c.table_occupancy).sum();
    let hwm: u64 = cur.iter().map(|c| c.table_hwm).sum();
    let ev_rate: f64 = cur
        .iter()
        .zip(prev)
        .map(|(c, p)| c.evicted.saturating_sub(p.evicted) as f64)
        .sum::<f64>()
        / dt;
    let mut out = format!("mem: occ {occ} / hwm {hwm} | evict/s {ev_rate:.0} | per-core [");
    for (i, c) in cur.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        let _ = write!(out, "{}", c.table_occupancy);
    }
    out.push_str("]\n");
    out
}

/// The stage-breakdown pane: each stage's share of the busy time
/// attributed during this poll window, summed across cores.
fn stage_line(prev: &[[u64; STAGE_COUNT]], cur: &[[u64; STAGE_COUNT]]) -> String {
    use std::fmt::Write as _;
    let mut delta = [0u64; STAGE_COUNT];
    for (c, p) in cur.iter().zip(prev) {
        for (d, (a, b)) in delta.iter_mut().zip(c.iter().zip(p)) {
            *d += a.saturating_sub(*b);
        }
    }
    let total: u64 = delta.iter().sum();
    let mut out = String::from("stages:");
    for stage in Stage::ALL {
        let share = if total == 0 {
            0.0
        } else {
            delta[stage.index()] as f64 / total as f64 * 100.0
        };
        let _ = write!(out, " {} {share:.1}%", stage.as_str());
        if stage.index() + 1 < STAGE_COUNT {
            out.push_str(" |");
        }
    }
    out.push('\n');
    out
}

/// The tail pane: how many completions crossed the exemplar threshold
/// and which pipeline span their excess time sat in.
fn tail_line(t: &TailReport) -> String {
    use std::fmt::Write as _;
    let pct = if t.completions == 0 {
        0.0
    } else {
        t.exemplars as f64 / t.completions as f64 * 100.0
    };
    let mut out = format!(
        "tail: {} exemplars / {} completions ({pct:.2}%)",
        t.exemplars, t.completions
    );
    if t.exemplars > 0 {
        let _ = write!(out, " | dominant {}", t.dominant_stage().as_str());
        for stage in TailStage::ALL {
            let _ = write!(out, " | {} {:.1}%", stage.as_str(), t.share(stage) * 100.0);
        }
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprayer_obs::Severity;

    fn core(processed: u64, busy_ns: u64) -> LiveCore {
        LiveCore {
            processed,
            forwarded: processed,
            nf_drops: 0,
            drops: 0,
            redirected_in: 0,
            redirected_out: 0,
            busy_ns,
            queue_depth: 0,
            table_occupancy: 0,
            table_hwm: 0,
            evicted: 0,
        }
    }

    fn frame<'a>(prev: &'a [LiveCore], cur: &'a [LiveCore]) -> Frame<'a> {
        Frame {
            prev,
            cur,
            dt: 1.0,
            runs: 3,
            elapsed: 2.5,
            elastic: None,
            stages: None,
            tail: None,
            alerts: &[],
            mem: false,
        }
    }

    #[test]
    fn every_core_gets_a_rate_row() {
        let prev = vec![core(0, 0), core(100, 0)];
        let cur = vec![core(1_000, 500_000_000), core(2_100, 0)];
        let out = render(&frame(&prev, &cur));
        let rows: Vec<&str> = out.lines().collect();
        // Header, rule, two core rows, rule, totals.
        assert!(rows[2].trim_start().starts_with("0"), "{out}");
        assert!(rows[2].contains("1000"), "core 0 pps: {out}");
        assert!(rows[2].contains("50.0"), "core 0 util from busy_ns: {out}");
        assert!(rows[3].trim_start().starts_with("1"), "{out}");
        assert!(rows[3].contains("2000"), "core 1 pps: {out}");
        assert!(out.contains("3 runs"), "{out}");
    }

    #[test]
    fn elastic_frames_drop_drained_joined_cores_and_shrink() {
        let status = ElasticStatus::default();
        status.events.lock().unwrap().push(ReconfigReport {
            epoch: 2,
            mode: sprayer::config::DispatchMode::Sprayer,
            from_cores: 2,
            to_cores: 4,
            migrated_flows: 0,
            retained_flows: 1,
            migrated_packets: 0,
            downtime_ns: 1_500,
            at_ns: 0,
        });
        let prev = vec![core(0, 0), core(0, 0), core(50, 0), core(0, 0)];
        // Core 2 (outside the steady-state set of 2) is still draining;
        // core 3 has gone idle and must lose its row.
        let cur = vec![core(10, 0), core(10, 0), core(60, 0), core(0, 0)];
        let mut f = frame(&prev, &cur);
        f.elastic = Some((2, &status));
        let busy = render(&f);
        assert!(
            busy.contains("+join"),
            "draining joined core tagged: {busy}"
        );
        assert!(
            !busy.lines().any(|l| l.trim_start().starts_with("3 ")),
            "idle joined core earns no row: {busy}"
        );
        assert!(busy.contains("reconfig epoch 2: 2 -> 4 cores (2 joined)"));

        // Once the joined cores drain completely the frame shrinks.
        let settled = vec![core(10, 0), core(10, 0), core(60, 0), core(0, 0)];
        let mut f2 = frame(&cur, &settled);
        f2.elastic = Some((2, &status));
        let quiet = render(&f2);
        assert!(
            quiet.lines().count() < busy.lines().count(),
            "drained rows disappear: {busy} vs {quiet}"
        );
    }

    #[test]
    fn stage_pane_shows_window_shares_from_slot_deltas() {
        let prev = vec![[0, 0, 0, 0], [100, 0, 0, 0]];
        let cur = vec![[100, 0, 300, 0], [200, 0, 500, 100]];
        let p = vec![core(0, 0)];
        let c = vec![core(1, 0)];
        let mut f = frame(&p, &c);
        f.stages = Some((&prev, &cur));
        let out = render(&f);
        // Deltas: classify 200, redirect 0, nf 800, tx 100 -> 1100 total.
        assert!(
            out.contains("stages: classify 18.2% | redirect 0.0% | nf 72.7% | tx 9.1%"),
            "{out}"
        );
    }

    #[test]
    fn tail_pane_shows_exemplar_share_and_stage_split() {
        use sprayer_obs::{TailSpans, TailTracker};
        let mut t = TailTracker::new(1, 100);
        // One fast completion (no exemplar), one slow one at 150 ticks.
        t.on_complete(
            0,
            TailSpans {
                queue_wait: 10,
                classify: 5,
                redirect_transit: 0,
                nf: 30,
                tx: 5,
            },
        );
        t.on_complete(
            0,
            TailSpans {
                queue_wait: 105,
                classify: 5,
                redirect_transit: 0,
                nf: 35,
                tx: 5,
            },
        );
        let report = t.report();
        let p = vec![core(0, 0)];
        let c = vec![core(1, 0)];
        let mut f = frame(&p, &c);
        f.tail = Some(&report);
        let out = render(&f);
        assert!(
            out.contains("tail: 1 exemplars / 2 completions (50.00%)"),
            "{out}"
        );
        assert!(out.contains("dominant queue_wait"), "{out}");
        assert!(out.contains("queue_wait 70.0%"), "{out}");

        // With nothing over the threshold the split is suppressed.
        let quiet = TailTracker::new(1, 1_000).report();
        f.tail = Some(&quiet);
        let out = render(&f);
        assert!(
            out.contains("tail: 0 exemplars / 0 completions (0.00%)"),
            "{out}"
        );
        assert!(!out.contains("dominant"), "{out}");
    }

    #[test]
    fn mem_pane_shows_occupancy_hwm_and_eviction_rate() {
        let mut p0 = core(0, 0);
        p0.evicted = 100;
        let mut p1 = core(0, 0);
        p1.evicted = 50;
        let mut c0 = core(10, 0);
        c0.table_occupancy = 30;
        c0.table_hwm = 64;
        c0.evicted = 150;
        let mut c1 = core(10, 0);
        c1.table_occupancy = 12;
        c1.table_hwm = 40;
        c1.evicted = 75;
        let prev = vec![p0, p1];
        let cur = vec![c0, c1];
        let mut f = frame(&prev, &cur);
        // Pane off by default: no mem line.
        assert!(!render(&f).contains("mem:"));
        f.mem = true;
        let out = render(&f);
        // Occupancy 42 of high-water 104; (150-100)+(75-50)=75 evictions
        // over dt=1s; per-core spread listed in core order.
        assert!(
            out.contains("mem: occ 42 / hwm 104 | evict/s 75 | per-core [30 12]"),
            "{out}"
        );
    }

    #[test]
    fn alerts_pane_lists_recent_alerts_newest_first() {
        let alerts = vec![
            Alert {
                rule: "queue_high_water",
                severity: Severity::Warning,
                count: 3,
                first_ts: 0,
                last_ts: 9,
                detail: "core 0 queue 384/512".into(),
            },
            Alert {
                rule: "worker_death",
                severity: Severity::Critical,
                count: 1,
                first_ts: 10,
                last_ts: 10,
                detail: "core 1: boom".into(),
            },
        ];
        let p = vec![core(0, 0)];
        let c = vec![core(1, 0)];
        let mut f = frame(&p, &c);
        f.alerts = &alerts;
        let out = render(&f);
        let death = out.find("ALERT [critical] worker_death x1: core 1: boom");
        let hwm = out.find("ALERT [warning] queue_high_water x3");
        assert!(
            death.unwrap() < hwm.unwrap(),
            "newest alert renders first: {out}"
        );
    }
}
