//! Long-horizon soak under composed failures (`fig_soak`).
//!
//! Heavy-tailed TCP flow churn from the bounded-memory
//! [`ChurnGen`] stream runs against a middlebox with the flow-table
//! lifecycle on (idle aging + LRU backstop) while one [`Plan`] fires
//! everything the repertoire has *in one run*: a checksum-collapse
//! burst, a worker-core crash with watchdog recovery, and a planned
//! scale-up/scale-down pair — windows kept disjoint by
//! [`Plan::validate`].
//!
//! The claim under test is the bounded-memory one: with FIN-driven
//! reclaim, idle aging, and the LRU backstop, table occupancy reaches a
//! flat steady state and *stays* there through every disturbance —
//! the abandoned attack-burst entries age out, the entries whose FINs
//! died in the crash window age out, and the occupancy high-water mark
//! stops moving after warm-up. Every run closes three conservation
//! identities at drain: packet conservation
//! ([`MiddleboxStats::unaccounted`]), flow-entry conservation by
//! eviction reason ([`MiddleboxStats::flow_unaccounted`]), and under
//! SCR, update conservation ([`MiddleboxStats::scr_replay_gap`]).

use sprayer::config::{DispatchMode, LifecycleConfig, MiddleboxConfig, ObsConfig};
use sprayer::stats::MiddleboxStats;
use sprayer::{ReconfigReport, RecoveryReport};
use sprayer_ctl::{Action, AdversarialProfile, Controller, Plan};
use sprayer_nf::SyntheticNf;
use sprayer_obs::SampleSet;
use sprayer_sim::Time;
use sprayer_trafficgen::{ChurnConfig, ChurnGen};

/// Parameters of a soak run.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Dispatch mode under test.
    pub mode: DispatchMode,
    /// NF busy-loop cycles per packet.
    pub nf_cycles: u64,
    /// Steady-state core count (the soak starts and ends here).
    pub cores: usize,
    /// Mid-soak scale-up target of the planned rescale pair.
    pub rescale_to: usize,
    /// The core the crash kills.
    pub fail_core: usize,
    /// Watchdog detection deadline for the crash.
    pub detect_deadline: Time,
    /// Packets in the checksum-collapse burst.
    pub attack_burst: u32,
    /// The TCP checksum every crafted attack packet carries.
    pub attack_checksum: u16,
    /// Idle timeout for the table lifecycle, µs.
    pub idle_timeout_us: u64,
    /// Occupancy/eviction snapshot cadence.
    pub snapshot_every: Time,
    /// Soak horizon: churn spawns stop here; active flows drain past it.
    pub horizon: Time,
    /// The churn source (its own horizon must equal `horizon`).
    pub churn: ChurnConfig,
    /// RNG seed (adversarial traffic).
    pub seed: u64,
    /// Observability switches (sampling feeds the fairness timeline).
    pub obs: ObsConfig,
}

impl SoakConfig {
    /// Paper-shaped defaults: 10k-cycle NF on 2 cores rescaling through
    /// 4, core 1 crashing with a 100 µs watchdog, a 512-packet
    /// checksum-collapse burst, 8 ms idle timeout. The churn is tuned
    /// so the steady active set (~60 mice + a plateaued elephant
    /// minority) sits far under capacity — sustained drops come from
    /// the crash window, never from overload.
    pub fn paper(mode: DispatchMode, horizon: Time, seed: u64) -> Self {
        let churn = ChurnConfig {
            flows_per_sec: 10_000.0,
            // One segment per 200 µs keeps per-flow pace far below the
            // idle timeout while flow lifetimes (median ~1.2 ms, capped
            // elephants ~30 ms) stay short against the horizon — the
            // active population plateaus long before the steady-state
            // window, which is what makes "flat" assertable.
            median_gap: Time::from_us(200),
            elephant_pkts_min: 60.0,
            elephant_pkts_cap: 150.0,
            max_active_flows: 256,
            ..ChurnConfig::soak(horizon, seed)
        };
        SoakConfig {
            mode,
            nf_cycles: 10_000,
            cores: 2,
            rescale_to: 4,
            fail_core: 1,
            detect_deadline: Time::from_us(100),
            attack_burst: 512,
            attack_checksum: 0x00ff,
            idle_timeout_us: 8_000,
            snapshot_every: Time::from_ms(2),
            horizon,
            churn,
            seed,
            obs: ObsConfig::sampling(),
        }
    }

    /// The `--quick` point: the full composed schedule over 60 ms.
    pub fn quick(mode: DispatchMode) -> Self {
        Self::paper(mode, Time::from_ms(60), 1)
    }
}

/// One point on the occupancy/eviction timeline.
#[derive(Debug, Clone, Copy)]
pub struct SoakSample {
    /// Snapshot instant.
    pub at: Time,
    /// Entries resident across all tables.
    pub occupancy: u64,
    /// Occupancy high-water mark so far.
    pub hwm: u64,
    /// Cumulative FIN/RST-driven reclaims.
    pub fin: u64,
    /// Cumulative idle-timeout expiries.
    pub idle: u64,
    /// Cumulative LRU-backstop evictions.
    pub lru: u64,
    /// Cumulative entries dropped by epoch transitions and crashes.
    pub dropped: u64,
}

/// Result of a soak run.
#[derive(Debug, Clone)]
pub struct SoakResult {
    /// End-of-run telemetry block (lifecycle counters included).
    pub stats: MiddleboxStats,
    /// The watchdog recovery of the mid-soak crash.
    pub recoveries: Vec<RecoveryReport>,
    /// The planned rescale pair.
    pub reconfigs: Vec<ReconfigReport>,
    /// Occupancy/eviction snapshots at the configured cadence.
    pub timeline: Vec<SoakSample>,
    /// Per-core time-series samples when sampling was enabled.
    pub samples: Option<SampleSet>,
    /// Soak horizon (denominator for the timeline fractions).
    pub horizon: Time,
    /// Churn packets offered.
    pub offered: u64,
    /// Adversarial packets injected.
    pub injected: u64,
    /// Flows the churn source spawned / completed / suppressed.
    pub flows_spawned: u64,
    /// Flows that ran their full lifecycle through the FIN.
    pub flows_completed: u64,
    /// Arrivals suppressed by the churn source's own memory bound.
    pub flows_suppressed: u64,
}

impl SoakResult {
    /// Mean table occupancy over the timeline fraction `[lo, hi)` of
    /// the horizon.
    pub fn mean_occupancy(&self, lo: f64, hi: f64) -> f64 {
        let h = self.horizon.as_ps() as f64;
        let (mut sum, mut n) = (0.0, 0u64);
        for s in &self.timeline {
            let frac = s.at.as_ps() as f64 / h;
            if frac >= lo && frac < hi {
                sum += s.occupancy as f64;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Relative occupancy drift across the steady-state window: the
    /// last tenth of the horizon against the tenth before it. Flat
    /// steady state means this stays near zero — occupancy neither
    /// leaks upward nor collapses once churn, aging, and reclaim
    /// balance.
    pub fn steady_drift(&self) -> f64 {
        let early = self.mean_occupancy(0.8, 0.9);
        let late = self.mean_occupancy(0.9, 1.01);
        (late - early).abs() / early.max(1.0)
    }

    /// Mean per-bucket Jain index over the last fifth of the horizon,
    /// computed across the cores *active* in each bucket — steady-state
    /// fairness past every disturbance. The full-slot
    /// [`SampleSet::jain_timeline`] would charge the post-rescale run
    /// for the cores the plan deliberately removed (and the drain tail
    /// for being quiet), which is not an imbalance.
    pub fn jain_steady(&self) -> f64 {
        let Some(samples) = &self.samples else {
            return 1.0;
        };
        let interval = samples.interval_ticks.max(1);
        let lo = (self.horizon.as_ps() as f64 * 0.8 / interval as f64) as usize;
        let hi = ((self.horizon.as_ps() / interval) as usize).min(samples.num_buckets());
        let mut sum = 0.0;
        let mut n = 0u64;
        for b in lo..hi {
            let loads: Vec<f64> = samples
                .cores
                .iter()
                .filter_map(|s| s.buckets().get(b).map(|c| c.processed as f64))
                .filter(|&p| p > 0.0)
                .collect();
            if loads.is_empty() {
                continue;
            }
            let total: f64 = loads.iter().sum();
            let sq: f64 = loads.iter().map(|x| x * x).sum();
            sum += total * total / (loads.len() as f64 * sq);
            n += 1;
        }
        if n == 0 {
            1.0
        } else {
            sum / n as f64
        }
    }
}

/// Run one composed soak.
pub fn run(cfg: &SoakConfig) -> SoakResult {
    assert_eq!(
        cfg.churn.horizon, cfg.horizon,
        "the churn stream and the soak plan must share a horizon"
    );
    let mut mb_config = MiddleboxConfig::paper_testbed_with_cycles(cfg.mode, cfg.nf_cycles);
    mb_config.num_cores = cfg.cores;
    mb_config.obs = cfg.obs;
    mb_config.lifecycle = LifecycleConfig::bounded(cfg.idle_timeout_us);

    // The composed schedule, at fractions of the horizon: the burst at
    // 1/4, the crash at 5/12, the rescale pair at 7/12 and 3/4 — every
    // window disjoint, which the plan's validation re-checks before the
    // dataplane exists.
    let frac = |num: u64, den: u64| Time::from_ps(cfg.horizon.as_ps() * num / den);
    let collapse = AdversarialProfile::LowEntropyChecksum {
        target: cfg.attack_checksum,
    };
    let plan = Plan::new(cfg.horizon)
        .detect_within(cfg.detect_deadline)
        .at(frac(1, 4), Action::Burst(collapse, cfg.attack_burst))
        .at(frac(5, 12), Action::Crash(cfg.fail_core))
        .at(frac(7, 12), Action::Rescale(cfg.rescale_to))
        .at(frac(3, 4), Action::Rescale(cfg.cores));
    let mut ctl = Controller::new(mb_config, SyntheticNf::for_simulator(), plan, cfg.seed)
        .expect("composed soak schedule is valid");

    // Drive the churn, snapshotting occupancy and the eviction-reason
    // counters between packets. Snapshots fire *before* the packet that
    // crosses them, so the dataplane clock never outruns a tick.
    let mut churn = ChurnGen::new(cfg.churn.clone());
    let mut timeline: Vec<SoakSample> = Vec::new();
    let mut next_snap = cfg.snapshot_every;
    let mut last_at = Time::ZERO;
    let snap = |ctl: &mut Controller<SyntheticNf>, at: Time, out: &mut Vec<SoakSample>| {
        ctl.tick(at);
        let s = ctl.middlebox().stats();
        out.push(SoakSample {
            at,
            occupancy: s.table_live,
            hwm: s.table_occupancy_hwm,
            fin: s.fin_reclaimed,
            idle: s.idle_expired,
            lru: s.lru_evicted,
            dropped: s.flows_dropped,
        });
    };
    for (at, pkt) in churn.by_ref() {
        while next_snap <= at && next_snap <= cfg.horizon {
            snap(&mut ctl, next_snap, &mut timeline);
            next_snap += cfg.snapshot_every;
        }
        ctl.offer(at, pkt);
        last_at = at;
    }
    while next_snap <= cfg.horizon && next_snap > last_at {
        snap(&mut ctl, next_snap, &mut timeline);
        next_snap += cfg.snapshot_every;
    }
    // Close the run: fire anything still due (the watchdog recovery, if
    // the crash landed near the end), then drain the queued tail so the
    // conservation identities can close.
    let end = last_at.max(cfg.horizon) + cfg.detect_deadline + Time::from_ms(1);
    ctl.finish(end);
    let offered = ctl.offered();
    let injected = ctl.injected();
    let mut mb = ctl.into_middlebox();
    let mut drain = end;
    while !mb.is_idle() {
        drain += Time::from_ms(1);
        mb.run_until(drain);
    }
    SoakResult {
        stats: mb.stats().clone(),
        recoveries: mb.recoveries().to_vec(),
        reconfigs: mb.reconfigs().to_vec(),
        timeline,
        samples: mb.take_obs().samples,
        horizon: cfg.horizon,
        offered,
        injected,
        flows_spawned: churn.spawned(),
        flows_completed: churn.completed(),
        flows_suppressed: churn.suppressed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soak_reaches_flat_steady_state_and_conserves_in_every_mode() {
        for mode in [DispatchMode::Sprayer, DispatchMode::Rss, DispatchMode::Scr] {
            let r = run(&SoakConfig::quick(mode));
            // The whole schedule fired.
            assert_eq!(r.recoveries.len(), 1, "{mode}: the crash must be detected");
            assert_eq!(r.reconfigs.len(), 2, "{mode}: both planned rescales fire");
            assert!(r.injected >= 512, "{mode}: the burst was injected");
            // Conservation, all three identities.
            assert_eq!(r.stats.unaccounted(), 0, "{mode}: {:?}", r.stats);
            assert_eq!(
                r.stats.flow_unaccounted(),
                0,
                "{mode}: every evicted entry must be accounted by reason: {:?}",
                r.stats
            );
            assert_eq!(r.stats.scr_replay_gap(), 0, "{mode}: {:?}", r.stats);
            // The lifecycle actually ran: churn FINs reclaimed entries,
            // and the abandoned attack-burst entry (plus flows whose
            // FINs died in the crash window) aged out.
            assert!(r.flows_completed > 100, "{mode}: churn turned over");
            assert!(r.stats.fin_reclaimed > 0, "{mode}: {:?}", r.stats);
            assert!(r.stats.idle_expired > 0, "{mode}: {:?}", r.stats);
            // Flat steady state: occupancy in the last tenth of the
            // horizon tracks the tenth before it, and the high-water
            // mark is a warm-up artifact, not a trend.
            assert!(
                r.steady_drift() < 0.35,
                "{mode}: steady-state occupancy drifts: {} vs {} ({}%)",
                r.mean_occupancy(0.8, 0.9),
                r.mean_occupancy(0.9, 1.01),
                (r.steady_drift() * 100.0) as u64
            );
            assert!(
                r.mean_occupancy(0.8, 1.01) > 1.0,
                "{mode}: the steady-state table must not be empty"
            );
            let replicas = if mode == DispatchMode::Scr {
                r.rescale_cap()
            } else {
                1
            };
            assert!(
                r.stats.table_occupancy_hwm
                    <= replicas * (cfg_bound(&SoakConfig::quick(mode)) as u64),
                "{mode}: occupancy must stay bounded: hwm {} (cap {replicas}x{})",
                r.stats.table_occupancy_hwm,
                cfg_bound(&SoakConfig::quick(mode))
            );
            // Steady-state fairness: past the disturbances, load spreads
            // again.
            assert!(
                r.jain_steady() > 0.5,
                "{mode}: steady-state Jain collapsed: {}",
                r.jain_steady()
            );
        }
    }

    /// The loose absolute occupancy bound per replica: the churn arena
    /// plus the attack flow plus slack for entries aging toward their
    /// idle deadline.
    fn cfg_bound(cfg: &SoakConfig) -> usize {
        cfg.churn.max_active_flows + cfg.attack_burst as usize + 64
    }

    impl SoakResult {
        /// Replica multiplier for occupancy bounds under SCR: every
        /// core holds the full table, and the rescale peak is the most
        /// cores the run ever had.
        fn rescale_cap(&self) -> u64 {
            self.reconfigs
                .iter()
                .map(|r| r.to_cores as u64)
                .max()
                .unwrap_or(1)
                .max(self.stats.per_core.len() as u64)
        }
    }

    #[test]
    fn scr_soak_loses_no_state_at_the_crash() {
        let r = run(&SoakConfig::quick(DispatchMode::Scr));
        for rec in &r.recoveries {
            assert_eq!(rec.flows_lost, 0, "replicas make the crash stateless");
        }
    }

    #[test]
    fn timeline_is_monotone_and_covers_the_horizon() {
        let r = run(&SoakConfig::quick(DispatchMode::Sprayer));
        assert!(r.timeline.len() >= 20, "60 ms at 2 ms cadence");
        for w in r.timeline.windows(2) {
            assert!(w[0].at < w[1].at, "snapshots advance");
            for (a, b) in [
                (w[0].fin, w[1].fin),
                (w[0].idle, w[1].idle),
                (w[0].lru, w[1].lru),
                (w[0].hwm, w[1].hwm),
            ] {
                assert!(a <= b, "cumulative counters never regress");
            }
        }
        let last = r.timeline.last().unwrap();
        assert!(
            last.at + Time::from_ms(2) > r.horizon,
            "snapshots reach the horizon"
        );
    }
}
