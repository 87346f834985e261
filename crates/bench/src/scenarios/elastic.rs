//! Elastic scale-up/scale-down measurement (`fig_elastic`).
//!
//! An open-loop MoonGen trace is offered to an *elastic* middlebox
//! driven by a [`sprayer_ctl::Controller`]: the run starts on
//! `start_cores`, scales to `high_cores` a third of the way through the
//! measured window, and scales back down at two thirds. Offered load is
//! chosen above the small configuration's capacity, so the per-core
//! sample timeline shows drops appearing while the box is small and
//! vanishing while it is large — the throughput/drop timeline the
//! figure plots.
//!
//! The comparison the paper's §6 argues for falls out of the
//! [`sprayer::coremap::CoreMap`] epoch semantics: under Sprayer the
//! designated set is pinned, so the whole up/down cycle migrates no
//! flow state, while RSS reprograms its indirection table and must
//! migrate every flow whose queue changed — strictly more, on the same
//! trace.

use sprayer::config::{DispatchMode, MiddleboxConfig, ObsConfig};
use sprayer::stats::MiddleboxStats;
use sprayer::ReconfigReport;
use sprayer_ctl::{Action, Controller, Plan};
use sprayer_nf::SyntheticNf;
use sprayer_obs::SampleSet;
use sprayer_sim::Time;

/// Parameters of an elastic run.
#[derive(Debug, Clone)]
pub struct ElasticConfig {
    /// Dispatch mode under test.
    pub mode: DispatchMode,
    /// NF busy-loop cycles per packet.
    pub nf_cycles: u64,
    /// Number of concurrent flows.
    pub num_flows: usize,
    /// Offered rate in packets/s. The paper-shaped default oversubscribes
    /// the `start_cores` configuration (drops while small) and
    /// undersubscribes `high_cores` (clean while large).
    pub offered_pps: f64,
    /// Core count outside the scaled-up window.
    pub start_cores: usize,
    /// Core count inside the scaled-up window.
    pub high_cores: usize,
    /// Measurement window; transitions fire at 1/3 and 2/3 of it.
    pub duration: Time,
    /// RNG seed for the flow endpoints.
    pub seed: u64,
    /// Observability switches. Elastic runs use *sampling* (event traces
    /// are not conservation-clean across a cancelled service).
    pub obs: ObsConfig,
}

impl ElasticConfig {
    /// Paper-shaped defaults: 10k-cycle NF (200 kpps/core at the testbed
    /// clock), 2→4→2 cores, offered 600 kpps — 1.5x the small
    /// configuration's capacity, 0.75x the large one's.
    pub fn paper(mode: DispatchMode, num_flows: usize, duration: Time, seed: u64) -> Self {
        ElasticConfig {
            mode,
            nf_cycles: 10_000,
            num_flows,
            offered_pps: 600_000.0,
            start_cores: 2,
            high_cores: 4,
            duration,
            seed,
            obs: ObsConfig::sampling(),
        }
    }
}

/// Result of an elastic run.
#[derive(Debug, Clone)]
pub struct ElasticResult {
    /// One report per fired transition (scale-up then scale-down), in
    /// firing order.
    pub reports: Vec<ReconfigReport>,
    /// End-of-run telemetry block.
    pub stats: MiddleboxStats,
    /// Per-core time-series samples (whole run, warmup included) when
    /// [`ElasticConfig::obs`] enabled sampling.
    pub samples: Option<SampleSet>,
    /// Offered rate over the measured window, packets/s.
    pub offered_pps: f64,
    /// Measured processing rate over the window, packets/s.
    pub processed_pps: f64,
}

impl ElasticResult {
    /// Total flows migrated across every transition.
    pub fn migrated_flows_total(&self) -> u64 {
        self.reports.iter().map(|r| r.migrated_flows).sum()
    }

    /// Total reconfiguration downtime across every transition, ns.
    pub fn downtime_ns_total(&self) -> u64 {
        self.reports.iter().map(|r| r.downtime_ns).sum()
    }
}

/// Run one elastic scale-up/scale-down measurement.
pub fn run(cfg: &ElasticConfig) -> ElasticResult {
    let mut mb_config = MiddleboxConfig::paper_testbed_with_cycles(cfg.mode, cfg.nf_cycles);
    mb_config.num_cores = cfg.start_cores;
    mb_config.obs = cfg.obs;

    // Up at one third of the measured window, down at two thirds.
    let warmup_end = super::warmup_end(cfg.num_flows);
    let third = Time::from_ps(cfg.duration.as_ps() / 3);
    let plan = Plan::new(warmup_end + cfg.duration)
        .at(warmup_end + third, Action::Rescale(cfg.high_cores))
        .at(warmup_end + third + third, Action::Rescale(cfg.start_cores));
    let mut ctl = Controller::new(mb_config, SyntheticNf::for_simulator(), plan, cfg.seed)
        .expect("static up/down plan is valid");
    let processed_pps = super::drive_moongen(
        &mut ctl,
        cfg.num_flows,
        cfg.offered_pps,
        cfg.seed,
        cfg.duration,
    );

    let mut mb = ctl.into_middlebox();
    ElasticResult {
        reports: mb.reconfigs().to_vec(),
        stats: mb.stats().clone(),
        samples: mb.take_obs().samples,
        offered_pps: cfg.offered_pps,
        processed_pps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Matches the binary's `--quick` point: 6 ms phases, long enough for
    // the small configuration's ~205 kpps excess to overrun the
    // 2x512-slot queues and visibly drop (a short phase fits entirely in
    // the queues and the scaled-up window then drains the backlog).
    fn quick(mode: DispatchMode) -> ElasticConfig {
        ElasticConfig::paper(mode, 64, Time::from_ms(18), 1)
    }

    #[test]
    fn both_transitions_fire_and_conservation_holds() {
        for mode in [DispatchMode::Sprayer, DispatchMode::Rss] {
            let r = run(&quick(mode));
            assert_eq!(r.reports.len(), 2, "{mode}: up and down must fire");
            assert_eq!(
                (r.reports[0].from_cores, r.reports[0].to_cores),
                (2, 4),
                "{mode}"
            );
            assert_eq!(
                (r.reports[1].from_cores, r.reports[1].to_cores),
                (4, 2),
                "{mode}"
            );
            assert_eq!(r.stats.unaccounted(), 0, "{mode}");
            assert!(r.processed_pps > 0.0, "{mode}");
        }
    }

    #[test]
    fn sprayer_migrates_strictly_fewer_flows_than_rss() {
        let spray = run(&quick(DispatchMode::Sprayer));
        let rss = run(&quick(DispatchMode::Rss));
        assert_eq!(
            spray.migrated_flows_total(),
            0,
            "pinned designated set: the whole up/down cycle moves nothing"
        );
        assert!(
            rss.migrated_flows_total() > 0,
            "RSS indirection-table reprogram must move remapped flows"
        );
    }

    #[test]
    fn overload_drops_vanish_while_scaled_up() {
        // 600 kpps into 2 cores of 200 kpps each drops; into 4 it fits.
        // The sampled drop-rate timeline must show both regimes.
        let r = run(&quick(DispatchMode::Sprayer));
        let set = r.samples.expect("sampling on");
        let drops = set.drop_rate_timeline();
        assert!(
            drops.iter().any(|&d| d > 0.05),
            "small phases must be visibly overloaded"
        );
        assert!(
            drops.iter().any(|&d| d < 0.01),
            "some interval must be drop-free (warmup or the scaled-up window)"
        );
    }
}
