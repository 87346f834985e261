//! Online health plane under fault + reconfiguration (`fig_health`).
//!
//! The chaos workload (adversarial bursts, a mid-run core crash, the
//! watchdog-driven unplanned rescale over the survivors) re-run with the
//! full health plane on: per-stage time attribution
//! ([`sprayer_obs::StageProfiler`]), the streaming per-flow
//! reordering-depth sketch ([`sprayer_obs::ReorderReport`]), the typed
//! health-event bus, and the SLO evaluator turning the run's events and
//! timelines into [`sprayer_obs::Alert`]s.
//!
//! Tracing rides along so the *online* reorder sketch can be
//! cross-validated against the *offline* Fenwick analyzer
//! ([`mod@sprayer_obs::analyze`]) over the very same completions: in the
//! deterministic simulator the two reordered-packet counts must agree
//! exactly — under Sprayer both see the inversions redirects introduce,
//! under RSS both see none.

use sprayer::config::{DispatchMode, MiddleboxConfig, ObsConfig};
use sprayer::stats::MiddleboxStats;
use sprayer::RecoveryReport;
use sprayer_ctl::{Action, AdversarialProfile, Controller, Plan};
use sprayer_nf::SyntheticNf;
use sprayer_obs::{
    analyze, evaluate, Alert, HealthReport, ReorderReport, SampleSet, SloRules, StageProfiler,
};
use sprayer_sim::Time;

/// Parameters of a health-plane run. Same fault shape as
/// [`super::chaos::ChaosConfig`]; the difference is what is observed.
#[derive(Debug, Clone)]
pub struct HealthConfig {
    /// Dispatch mode under test.
    pub mode: DispatchMode,
    /// NF busy-loop cycles per packet.
    pub nf_cycles: u64,
    /// Number of concurrent flows.
    pub num_flows: usize,
    /// Offered rate in packets/s.
    pub offered_pps: f64,
    /// Core count before the failure.
    pub cores: usize,
    /// The core the fault kills (one third into the window).
    pub fail_core: usize,
    /// Watchdog detection deadline.
    pub detect_deadline: Time,
    /// Packets per adversarial burst.
    pub attack_burst: u32,
    /// The TCP checksum every crafted attack packet carries.
    pub attack_checksum: u16,
    /// Measurement window.
    pub duration: Time,
    /// RNG seed.
    pub seed: u64,
    /// Alert thresholds for the SLO evaluator.
    pub rules: SloRules,
}

impl HealthConfig {
    /// Paper-shaped defaults matching `ChaosConfig::paper`, with the
    /// default alert policy.
    pub fn paper(mode: DispatchMode, num_flows: usize, duration: Time, seed: u64) -> Self {
        HealthConfig {
            mode,
            nf_cycles: 10_000,
            num_flows,
            offered_pps: 500_000.0,
            cores: 4,
            fail_core: 1,
            detect_deadline: Time::from_us(100),
            attack_burst: 512,
            attack_checksum: 0x00ff,
            duration,
            seed,
            rules: SloRules::default(),
        }
    }
}

/// Result of a health-plane run.
#[derive(Debug, Clone)]
pub struct HealthResult {
    /// One report per detected failure, in firing order.
    pub recoveries: Vec<RecoveryReport>,
    /// End-of-run telemetry block.
    pub stats: MiddleboxStats,
    /// Per-core time-series samples.
    pub samples: SampleSet,
    /// Per-stage busy-time attribution.
    pub profile: StageProfiler,
    /// Drained health-event stream.
    pub health: HealthReport,
    /// Online reordering-depth estimates.
    pub reorder: ReorderReport,
    /// Evaluated alerts under the configured [`SloRules`].
    pub alerts: Vec<Alert>,
    /// Offline cross-check: reordered completions per the trace
    /// analyzer's exact Fenwick count over the same NF completions.
    pub offline_reordered: u64,
    /// Offline cross-check: the analyzer's maximum reordering depth.
    pub offline_max_depth: u64,
    /// Offered foreground rate, packets/s.
    pub offered_pps: f64,
    /// Measured processing rate over the window, packets/s.
    pub processed_pps: f64,
    /// Adversarial frames/packets injected.
    pub injected: u64,
    /// Trace events lost to the bounded per-core rings. Nonzero means
    /// the offline cross-checks ran on an incomplete trace.
    pub trace_events_dropped: u64,
}

impl HealthResult {
    /// The alert for `rule`, if it fired.
    pub fn alert(&self, rule: &str) -> Option<&Alert> {
        self.alerts.iter().find(|a| a.rule == rule)
    }
}

/// Run one fault + reconfiguration window with the health plane on.
pub fn run(cfg: &HealthConfig) -> HealthResult {
    let mut mb_config = MiddleboxConfig::paper_testbed_with_cycles(cfg.mode, cfg.nf_cycles);
    mb_config.num_cores = cfg.cores;
    // The full plane plus tracing: the trace is what lets the offline
    // analyzer re-derive the reordering the online sketch estimated.
    mb_config.obs = ObsConfig {
        trace: true,
        ..ObsConfig::health_plane()
    };

    let warmup_end = super::warmup_end(cfg.num_flows);
    let at = |num: u64, den: u64| warmup_end + Time::from_ps(cfg.duration.as_ps() * num / den);
    let half_burst = (cfg.attack_burst / 2).max(1);
    let collapse = AdversarialProfile::LowEntropyChecksum {
        target: cfg.attack_checksum,
    };
    let plan = Plan::new(warmup_end + cfg.duration)
        .detect_within(cfg.detect_deadline)
        .at(at(1, 6), Action::Burst(collapse, cfg.attack_burst))
        .at(
            at(1, 4),
            Action::Burst(AdversarialProfile::TruncatedFrames, half_burst),
        )
        .at(at(1, 3), Action::Crash(cfg.fail_core));
    let mut ctl = Controller::new(mb_config, SyntheticNf::for_simulator(), plan, cfg.seed)
        .expect("static fault schedule is valid");
    let processed_pps = super::drive_moongen(
        &mut ctl,
        cfg.num_flows,
        cfg.offered_pps,
        cfg.seed,
        cfg.duration,
    );

    let injected = ctl.injected();
    let mut mb = ctl.into_middlebox();
    let stats = mb.stats().clone();
    let obs = mb.take_obs();
    let samples = obs.samples.expect("sampling is on");
    let profile = obs.profile.expect("profiling is on");
    let health = obs.health.expect("the health bus is on");
    let reorder = obs.reorder.expect("the reorder sketch is on");
    let trace = obs.trace.expect("tracing is on");
    let trace_events_dropped = trace.dropped;
    let analysis = analyze(&trace);
    let alerts = evaluate(&cfg.rules, &health, Some(&samples), Some(&reorder));
    HealthResult {
        recoveries: mb.recoveries().to_vec(),
        stats,
        samples,
        profile,
        health,
        reorder,
        alerts,
        offline_reordered: analysis.reordered_packets(),
        offline_max_depth: analysis.max_depth(),
        offered_pps: cfg.offered_pps,
        processed_pps,
        injected,
        trace_events_dropped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprayer_obs::{Severity, Stage};

    // Matches the binary's `--quick` point.
    fn quick(mode: DispatchMode) -> HealthConfig {
        HealthConfig::paper(mode, 64, Time::from_ms(18), 1)
    }

    #[test]
    fn injected_fault_raises_a_critical_alert_in_both_modes() {
        for mode in [DispatchMode::Sprayer, DispatchMode::Rss] {
            let r = run(&quick(mode));
            assert_eq!(r.recoveries.len(), 1, "{mode}: the crash is detected");
            assert_eq!(r.stats.unaccounted(), 0, "{mode}: {:?}", r.stats);
            let death = r.alert("worker_death").expect("the crash must alert");
            assert_eq!(death.severity, Severity::Critical, "{mode}");
            assert!(death.detail.contains("core 1"), "{mode}: {death:?}");
            // The bus also recorded the injection and the unplanned
            // rescale as lifecycle events (not alerts).
            let counts = r.health.counts();
            assert!(
                counts.get("fault_injected").copied().unwrap_or(0) >= 1,
                "{mode}"
            );
            assert!(
                counts.get("reconfig_phase").copied().unwrap_or(0) >= 1,
                "{mode}"
            );
        }
    }

    #[test]
    fn online_sketch_cross_checks_the_offline_analyzer_exactly() {
        let spray = run(&quick(DispatchMode::Sprayer));
        assert!(
            spray.reorder.reordered > 0,
            "spraying one flow across cores must reorder"
        );
        assert_eq!(
            spray.reorder.reordered, spray.offline_reordered,
            "online sketch and offline Fenwick analyzer count the same \
             completions in the deterministic simulator"
        );
        assert!(spray.reorder.depth_hist.max().unwrap_or(0) <= spray.offline_max_depth);

        let rss = run(&quick(DispatchMode::Rss));
        assert_eq!(rss.reorder.reordered, 0, "per-flow RSS keeps order");
        assert_eq!(rss.offline_reordered, 0);
    }

    #[test]
    fn stage_profile_is_complete_and_nf_dominated() {
        let r = run(&quick(DispatchMode::Sprayer));
        let shares: f64 = Stage::ALL.into_iter().map(|s| r.profile.share(s)).sum();
        assert!((shares - 1.0).abs() < 1e-9, "shares sum to 1: {shares}");
        let busy: u64 = r.stats.per_core.iter().map(|c| c.busy_cycles).sum();
        assert_eq!(
            r.profile.total_ticks(),
            busy,
            "every busy cycle is attributed to exactly one stage"
        );
        assert!(
            r.profile.share(Stage::Nf) > 0.5,
            "a 10k-cycle NF dominates: {:?}",
            Stage::ALL
                .into_iter()
                .map(|s| (s.as_str(), r.profile.share(s)))
                .collect::<Vec<_>>()
        );
        assert!(r.profile.share(Stage::Redirect) > 0.0, "redirects happen");
    }
}
