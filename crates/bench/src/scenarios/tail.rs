//! Tail-latency attribution under the Fig. 8 workload (`fig_tail`).
//!
//! The same single-flow, 70 %-of-minimal-rate setup as
//! [`super::latency`], re-run with the tail attribution table, the
//! flight recorder, and tracing all on. The point of the figure is the
//! *where* behind Fig. 8's p99 gap: under RSS the whole flow lands on
//! one core, so its tail is queue wait on that hot core; under Sprayer
//! the data packets spread over every core (only connection-control
//! packets ride the redirect rings) and the far smaller tail that
//! remains is dominated by the NF body.
//!
//! The threshold is **fixed** (not rolling) so the offline analyzer can
//! replay the exact same exemplar rule over the trace:
//! [`sprayer_obs::tail_attribution`] re-derives exemplar count, summed
//! sojourn, queue wait, and redirect transit from raw event timestamps,
//! and [`TailRun::assert_consistent`] requires the online table to
//! match tick-for-tick — the simulator is deterministic, so any drift
//! is an attribution bug, not noise.

use crate::scenarios::latency::minimal_processing_rate;
use sprayer::config::{DispatchMode, MiddleboxConfig, ObsConfig};
use sprayer::runtime_sim::MiddleboxSim;
use sprayer::stats::MiddleboxStats;
use sprayer_net::{PacketBuilder, TcpFlags};
use sprayer_nf::SyntheticNf;
use sprayer_obs::{tail_attribution, FlightSnapshot, TailAttribution, TailReport, TailStage};
use sprayer_sim::Time;
use sprayer_trafficgen::moongen::{Arrivals, MoonGen};

/// Parameters of a tail-attribution run.
#[derive(Debug, Clone)]
pub struct TailConfig {
    /// Dispatch mode under test.
    pub mode: DispatchMode,
    /// NF busy-loop cycles per packet.
    pub nf_cycles: u64,
    /// Offered load as a fraction of the minimal processing rate.
    pub load: f64,
    /// Fixed exemplar threshold (simulated time).
    pub threshold: Time,
    /// Measurement window.
    pub duration: Time,
    /// RNG seed.
    pub seed: u64,
}

impl TailConfig {
    /// The Fig. 8 point: 10k-cycle NF, 70 % load, single flow.
    pub fn paper(mode: DispatchMode, duration: Time, seed: u64) -> Self {
        TailConfig {
            mode,
            nf_cycles: 10_000,
            load: 0.7,
            threshold: Time::from_us(7),
            duration,
            seed,
        }
    }
}

/// Result of a tail-attribution run.
#[derive(Debug, Clone)]
pub struct TailRun {
    /// The online per-(stage, core) attribution table.
    pub report: TailReport,
    /// The offline recomputation from the same run's trace.
    pub offline: TailAttribution,
    /// The (unfrozen) flight-recorder snapshot.
    pub flight: FlightSnapshot,
    /// End-of-run aggregate counters.
    pub stats: MiddleboxStats,
    /// Trace events lost to full rings (0 in the standard setup).
    pub trace_events_dropped: u64,
    /// Offered load, packets/s.
    pub offered_pps: f64,
}

impl TailRun {
    /// Hard-assert the online table against the offline trace replay:
    /// same completions, same exemplars, and tick-for-tick identical
    /// span sums. The trace carries no classify/TX events, so those
    /// online stages (plus NF) are checked as the offline residual.
    pub fn assert_consistent(&self) {
        assert_eq!(
            self.trace_events_dropped, 0,
            "a lossy trace cannot ground-truth the online table"
        );
        assert_eq!(self.report.completions, self.stats.processed());
        assert_eq!(self.report.completions, self.offline.completions);
        assert_eq!(self.report.exemplars, self.offline.exemplars);
        assert_eq!(self.report.total_ticks(), self.offline.sojourn_ticks);
        assert_eq!(
            self.report.stage_ticks(TailStage::QueueWait),
            self.offline.queue_wait_ticks
        );
        assert_eq!(
            self.report.stage_ticks(TailStage::RedirectTransit),
            self.offline.redirect_transit_ticks
        );
        let residual = self.report.stage_ticks(TailStage::Classify)
            + self.report.stage_ticks(TailStage::Nf)
            + self.report.stage_ticks(TailStage::Tx);
        assert_eq!(residual, self.offline.residual_ticks());
        assert!(
            self.flight.frozen.is_none(),
            "a healthy run must not latch the flight recorder"
        );
    }
}

/// Run the Fig. 8 workload with tail attribution + flight + tracing on.
pub fn run(cfg: &TailConfig) -> TailRun {
    let offered = cfg.load * minimal_processing_rate(cfg.nf_cycles);
    let mut mb_config = MiddleboxConfig::paper_testbed_with_cycles(cfg.mode, cfg.nf_cycles);
    mb_config.obs = ObsConfig {
        trace: true,
        flight: true,
        ..ObsConfig::tail_with_threshold(cfg.threshold.as_ps())
    };
    let mut mb = MiddleboxSim::new(mb_config, SyntheticNf::for_simulator());
    let mut gen = MoonGen::new(1, offered, Arrivals::Poisson, cfg.seed);

    // Install flow state, then warm up outside the measured window.
    let tuple = gen.flows()[0];
    mb.ingress(
        Time::ZERO,
        PacketBuilder::new().tcp(tuple, 0, 0, TcpFlags::SYN, b""),
    );
    let warmup_end = Time::from_ms(1);
    mb.run_until(warmup_end);

    let horizon = warmup_end + cfg.duration;
    loop {
        let (at, pkt) = gen.next_packet();
        let at = warmup_end + at;
        if at >= horizon {
            break;
        }
        mb.ingress(at, pkt);
    }
    let mut drain = horizon;
    mb.run_until(drain);
    while !mb.is_idle() {
        drain += Time::from_ms(1);
        mb.run_until(drain);
    }

    let stats = mb.stats().clone();
    let obs = mb.take_obs();
    let trace = obs.trace.expect("tracing is on");
    let report = obs.tail.expect("tail attribution is on");
    let flight = obs.flight.expect("the flight recorder is on");
    TailRun {
        offline: tail_attribution(&trace, cfg.threshold.as_ps()),
        report,
        flight,
        stats,
        trace_events_dropped: trace.dropped,
        offered_pps: offered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Matches the binary's `--quick` point.
    fn quick(mode: DispatchMode) -> TailConfig {
        TailConfig::paper(mode, Time::from_ms(15), 1)
    }

    #[test]
    fn online_table_matches_offline_replay_in_both_modes() {
        for mode in [DispatchMode::Sprayer, DispatchMode::Rss] {
            let r = run(&quick(mode));
            assert_eq!(r.stats.unaccounted(), 0, "{mode}: {:?}", r.stats);
            assert!(r.report.completions > 0, "{mode}");
            r.assert_consistent();
        }
    }

    #[test]
    fn rss_tail_is_queue_wait_on_the_hot_core() {
        let rss = run(&quick(DispatchMode::Rss));
        assert!(rss.report.exemplars > 0, "70% on one core has a tail");
        assert_eq!(rss.report.dominant_stage(), TailStage::QueueWait);
        // The whole flow lives on one core, so every exemplar does too.
        let active = rss
            .report
            .per_core
            .iter()
            .filter(|c| c.exemplars > 0)
            .count();
        assert_eq!(active, 1);
    }

    #[test]
    fn spraying_thins_the_tail_below_rss() {
        let spray = run(&quick(DispatchMode::Sprayer));
        let rss = run(&quick(DispatchMode::Rss));
        assert!(
            spray.report.exemplars < rss.report.exemplars,
            "Fig. 8 restated in exemplars: sprayer {} vs rss {}",
            spray.report.exemplars,
            rss.report.exemplars
        );
    }
}
