//! The two threaded workloads, `steady` and `churn`: one trial is
//! `Packet::parse` of every raw frame, `ThreadedMiddlebox::run`, and
//! `into_bytes` of every forwarded packet, timed from outside.

use crate::gen::{self, Frames};
use crate::measure::{fingerprint, ipv4_header_valid, process_cpu_ns, thread_cpu_ns};
use crate::{alloc, Mode, Size};
use sprayer::api::NetworkFunction;
use sprayer::config::LifecycleConfig;
use sprayer::runtime_threads::{ThreadedConfig, ThreadedMiddlebox, ThreadedOutcome};
use sprayer::stats::MiddleboxStats;
use sprayer_net::Packet;
use sprayer_nf::firewall::{AclRule, Action};
use sprayer_nf::{FirewallNf, SyntheticNf};
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Two workers plus the calling thread as the NIC: with one worker the
/// retry loop and the lone worker fight over the queue lock and a trial
/// is bimodal (300-1100 ns/packet).
pub const WORKERS: usize = 2;

/// Which threaded workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Steady,
    Churn,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Steady => "steady",
            Kind::Churn => "churn",
        }
    }
}

/// One workload's generated input and what its script says must come out.
pub struct Input {
    pub kind: Kind,
    pub frames: Frames,
    /// What the forwarded frames' fingerprints must add up to: the
    /// script's frames with the TTL the NF must have left.
    pub expected_sum: u64,
}

impl Input {
    pub fn generate(kind: Kind, seed: u64, size: Size) -> Input {
        let packets = match size {
            // 200 k packets keep every buffer of a trial (24 MB of
            // `Packet`s) under glibc's 32 MiB mmap-threshold ceiling, so
            // after the warm-up trials the allocator reuses them. At
            // 500 k each trial maps ~150 MB afresh, a third of its time
            // is the hypervisor's page-fault path, and the 31.5 MB
            // buffers in between make the numbers bimodal by seed.
            Size::Full => 200_000,
            Size::Smoke => 20_000,
        };
        let (frames, ttl_delta) = match kind {
            // The synthetic NF decrements the TTL of every packet.
            Kind::Steady => (gen::steady_frames(seed, 64, packets), 1),
            // The firewall forwards frames untouched.
            Kind::Churn => (gen::churn_frames(seed, gen::LANES, packets), 0),
        };
        let expected_sum = frames
            .iter()
            .fold(0u64, |s, f| s.wrapping_add(fingerprint(f, ttl_delta)));
        Input {
            kind,
            frames,
            expected_sum,
        }
    }

    /// Sum of the fingerprints of forwarded frames.
    pub fn output_sum<'a>(frames: impl Iterator<Item = &'a Vec<u8>>) -> u64 {
        frames.fold(0, |s, f| s.wrapping_add(fingerprint(f, 0)))
    }

    pub fn config(&self, mode: Mode) -> ThreadedConfig {
        let mut cfg = ThreadedConfig::new(mode.dispatch(), WORKERS);
        // Closed loop: the NIC thread waits for queue space for ever, so
        // a drop is a bug and never noise.
        cfg.ingress_retries = usize::MAX;
        cfg.obs = mode.obs();
        cfg.lifecycle = match self.kind {
            Kind::Steady => LifecycleConfig::disabled(),
            // Armed but never firing inside a sub-second trial: the
            // workload pays the lifecycle clock and sweep scheduling, and
            // an eviction is a failed check.
            Kind::Churn => LifecycleConfig::bounded(10_000_000),
        };
        cfg
    }

    /// Run one trial in `mode`.
    pub fn trial(&self, mode: Mode) -> Trial {
        self.trial_with(&self.config(mode))
    }

    pub fn trial_with(&self, cfg: &ThreadedConfig) -> Trial {
        match self.kind {
            Kind::Steady => {
                let nf = SyntheticNf::spinning(0);
                let mut t = self.run(cfg, &nf);
                if nf.missing_state.load(Ordering::Relaxed) != 0 {
                    t.violations.push("a packet found no flow state".into());
                }
                t
            }
            Kind::Churn => {
                let nf = firewall();
                let mut t = self.run(cfg, &nf);
                let s = &t.outcome.stats;
                let live_cap = (gen::LANES * WORKERS) as u64;
                if s.evictions() != 0 || s.table_live > live_cap {
                    t.violations.push(format!(
                        "flow table: {} evictions, {} live (cap {live_cap})",
                        s.evictions(),
                        s.table_live
                    ));
                }
                // Without replicas every entry is created once and only a
                // FIN pair removes it.
                if !s.scr_active() && s.flows_created - s.fin_reclaimed != s.table_live {
                    t.violations.push(format!(
                        "created {} - fin_reclaimed {} != live {}",
                        s.flows_created, s.fin_reclaimed, s.table_live
                    ));
                }
                t
            }
        }
    }

    fn run<NF: NetworkFunction>(&self, cfg: &ThreadedConfig, nf: &NF) -> Trial {
        // Untimed: a trial consumes its frames, so each gets a copy.
        let raw: Vec<Vec<Vec<u8>>> = self.frames.phases.clone();
        let offered = self.frames.packets();

        let (allocs0, bytes0) = alloc::snapshot();
        let cpu0 = thread_cpu_ns();
        let all_cpu0 = process_cpu_ns();
        let t0 = Instant::now();
        let phases: Vec<Vec<Packet>> = raw
            .into_iter()
            .map(|phase| {
                phase
                    .into_iter()
                    .map(|f| Packet::parse(f).expect("generated frames parse"))
                    .collect()
            })
            .collect();
        let t1 = Instant::now();
        let mut outcome = ThreadedMiddlebox::run(cfg, nf, phases);
        let t2 = Instant::now();
        let out: Vec<Vec<u8>> = std::mem::take(&mut outcome.forwarded)
            .into_iter()
            .map(Packet::into_bytes)
            .collect();
        let t3 = Instant::now();
        let cpu_ns = process_cpu_ns() - all_cpu0;
        let nic_cpu_ns = thread_cpu_ns() - cpu0;
        let (allocs1, bytes1) = alloc::snapshot();

        let mut violations = stats_violations(&outcome.stats);
        if out.len() as u64 != offered {
            violations.push(format!("forwarded {} of {offered}", out.len()));
        }
        if Input::output_sum(out.iter()) != self.expected_sum
            || !out.iter().all(|f| ipv4_header_valid(f))
        {
            violations.push("forwarded bytes differ from the script".into());
        }
        Trial {
            offered,
            forwarded: out.len() as u64,
            cpu_ns,
            parse_ns: (t1 - t0).as_nanos() as u64,
            run_ns: (t2 - t1).as_nanos() as u64,
            emit_ns: (t3 - t2).as_nanos() as u64,
            nic_cpu_ns,
            allocs: (allocs1 - allocs0, bytes1 - bytes0),
            violations,
            outcome,
        }
    }

    /// A run over one empty phase: workers are spawned and joined, and
    /// nothing else happens.
    pub fn run_empty(&self, cfg: &ThreadedConfig) -> ThreadedOutcome {
        let phases = vec![Vec::new()];
        match self.kind {
            Kind::Steady => ThreadedMiddlebox::run(cfg, &SyntheticNf::spinning(0), phases),
            Kind::Churn => ThreadedMiddlebox::run(cfg, &firewall(), phases),
        }
    }
}

/// The churn firewall: a short ACL every connection walks once, ending
/// in the rule that admits the generator's port-443 servers.
pub fn firewall() -> FirewallNf {
    let deny = |net: u32| AclRule {
        src: Some((net, 16)),
        ..AclRule::default_action(Action::Deny)
    };
    FirewallNf::new(vec![
        deny(0xc0a8_0000),
        deny(0xac10_0000),
        deny(0x7f00_0000),
        AclRule::allow_dst_port(443),
        AclRule::default_action(Action::Deny),
    ])
}

/// The conservation identities every drained threaded run must close.
pub fn stats_violations(s: &MiddleboxStats) -> Vec<String> {
    let mut v = Vec::new();
    let mut must_be_zero = |name: &str, value: i64| {
        if value != 0 {
            v.push(format!("{name} = {value}"));
        }
    };
    must_be_zero("unaccounted", s.unaccounted() as i64);
    must_be_zero("flow_unaccounted", s.flow_unaccounted());
    must_be_zero("scr_replay_gap", s.scr_replay_gap() as i64);
    must_be_zero("queue_drops", s.queue_drops as i64);
    must_be_zero("ring_drops", s.ring_drops as i64);
    must_be_zero("lost_packets", s.lost_packets as i64);
    must_be_zero("scr_log_drops", s.scr_log_drops as i64);
    must_be_zero("nf_drops", s.nf_drops as i64);
    v
}

/// What one threaded trial measured.
pub struct Trial {
    pub offered: u64,
    pub forwarded: u64,
    /// The timed region, parse + run + emit, in CPU time of all threads:
    /// on the one CPU the process is pinned to they take turns, so this is
    /// the wall time the packets cost when nothing else takes the CPU.
    pub cpu_ns: u64,
    pub parse_ns: u64,
    pub run_ns: u64,
    pub emit_ns: u64,
    /// CPU time of the calling (NIC) thread over the timed region.
    pub nic_cpu_ns: u64,
    /// (allocations, bytes) of the timed region, all threads; zero
    /// unless the counting allocator is switched on.
    pub allocs: (u64, u64),
    /// Failed checks; empty on a correct trial.
    pub violations: Vec<String>,
    /// The run's outcome, minus the forwarded packets.
    pub outcome: ThreadedOutcome,
}

impl Trial {
    pub fn pkt_ns(&self) -> f64 {
        self.cpu_ns as f64 / self.offered as f64
    }

    /// Packets this trial failed: everything it offered if a check
    /// failed, else whatever the script wanted forwarded and was not.
    pub fn failed(&self) -> u64 {
        if self.violations.is_empty() {
            self.offered - self.forwarded
        } else {
            self.offered
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_stats_block_trips_the_identities() {
        let input = Input::generate(Kind::Churn, 1, Size::Smoke);
        let trial = input.trial(Mode::Scr);
        assert_eq!(trial.violations, Vec::<String>::new());
        assert_eq!(trial.failed(), 0);
        let mut s = trial.outcome.stats.clone();
        assert!(stats_violations(&s).is_empty());
        s.forwarded -= 1;
        s.scr_applied -= 1;
        s.table_live += 1;
        let v = stats_violations(&s);
        assert_eq!(v.len(), 3, "{v:?}");
    }
}
