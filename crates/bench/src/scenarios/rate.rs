//! Open-loop processing-rate measurement (Figs. 6a and 7a).
//!
//! MoonGen-style 64 B TCP packets at 10 GbE line rate (14.88 Mpps) are
//! offered to the simulated middlebox; the measured quantity is the rate
//! at which the NF completes packets. Flows are opened with real SYNs
//! before the measurement so the synthetic NF's flow state exists, as in
//! the paper's setup.

use sprayer::config::{DispatchMode, MiddleboxConfig, ObsConfig};
use sprayer::runtime_sim::MiddleboxSim;
use sprayer::stats::MiddleboxStats;
use sprayer_net::{PacketBuilder, TcpFlags};
use sprayer_nf::SyntheticNf;
use sprayer_obs::{LatencyProbes, SampleSet, Trace};
use sprayer_sim::time::LinkSpeed;
use sprayer_sim::Time;
use sprayer_trafficgen::moongen::{Arrivals, MoonGen};

/// Parameters of a rate run.
#[derive(Debug, Clone)]
pub struct RateConfig {
    /// Dispatch mode under test.
    pub mode: DispatchMode,
    /// NF busy-loop cycles per packet.
    pub nf_cycles: u64,
    /// Number of concurrent flows.
    pub num_flows: usize,
    /// Offered rate in packets/s (line rate for 64 B if `None`).
    pub offered_pps: Option<f64>,
    /// Measurement window of simulated time.
    pub duration: Time,
    /// RNG seed (flows "change randomly at every execution").
    pub seed: u64,
    /// Observability switches applied to the middlebox (tracing, latency
    /// histograms). Disabled — and zero-cost — by default.
    pub obs: ObsConfig,
}

impl RateConfig {
    /// The paper's default: line-rate 64 B packets for `duration`.
    pub fn paper(mode: DispatchMode, nf_cycles: u64, num_flows: usize, seed: u64) -> Self {
        RateConfig {
            mode,
            nf_cycles,
            num_flows,
            offered_pps: None,
            duration: Time::from_ms(20),
            seed,
            obs: ObsConfig::disabled(),
        }
    }
}

/// Result of a rate run.
#[derive(Debug, Clone)]
pub struct RateResult {
    /// Measured processing rate, packets/s.
    pub processed_pps: f64,
    /// Offered rate, packets/s.
    pub offered_pps: f64,
    /// Packets dropped at the NIC's Flow Director cap.
    pub nic_cap_drops: u64,
    /// Packets dropped on queue overflow.
    pub queue_drops: u64,
    /// Per-core processed counts (for fairness/imbalance views).
    pub per_core: Vec<u64>,
    /// Full end-of-run telemetry block (same shape for both runtimes);
    /// experiment binaries embed [`MiddleboxStats::to_json`] in their
    /// result files.
    pub stats: MiddleboxStats,
    /// The captured event trace when [`RateConfig::obs`] requested one
    /// (covers the whole run, warmup included).
    pub trace: Option<Trace>,
    /// Latency histograms when requested; values are nanoseconds of
    /// simulated time.
    pub probes: Option<LatencyProbes>,
    /// Per-core time-series samples when [`RateConfig::obs`] enabled
    /// sampling (covers the whole run, warmup included; ticks are
    /// picoseconds of simulated time).
    pub samples: Option<SampleSet>,
}

impl RateResult {
    /// Processing rate in Mpps.
    pub fn mpps(&self) -> f64 {
        self.processed_pps / 1e6
    }
}

/// Run one open-loop rate measurement with a custom middlebox config.
/// The scenario's [`RateConfig::obs`] switches override the model's.
pub fn run_with_config(cfg: &RateConfig, mut mb_config: MiddleboxConfig) -> RateResult {
    mb_config.obs = cfg.obs;
    let mut mb = MiddleboxSim::new(mb_config, SyntheticNf::for_simulator());
    let offered_pps = cfg
        .offered_pps
        .unwrap_or_else(|| LinkSpeed::TEN_GBE.max_pps(60));
    let mut gen = MoonGen::new(cfg.num_flows, offered_pps, Arrivals::Constant, cfg.seed);

    // Connection setup: one SYN per flow (outside the measured window).
    let mut t = Time::ZERO;
    for tuple in gen.flows().to_vec() {
        mb.ingress(t, PacketBuilder::new().tcp(tuple, 0, 0, TcpFlags::SYN, b""));
        t += Time::from_us(2);
    }
    let warmup_end = t + Time::from_ms(1);
    mb.run_until(warmup_end);
    let _ = mb.take_egress();
    let processed_before = mb.stats().processed();

    // Measured window.
    let horizon = warmup_end + cfg.duration;
    loop {
        let (at, pkt) = gen.next_packet();
        let at = warmup_end + at;
        if at >= horizon {
            break;
        }
        mb.ingress(at, pkt);
    }
    mb.advance_until(horizon);

    let stats = mb.stats().clone();
    let processed = stats.processed() - processed_before;
    let obs = mb.take_obs();
    RateResult {
        processed_pps: processed as f64 / cfg.duration.as_secs_f64(),
        offered_pps,
        nic_cap_drops: stats.nic_cap_drops,
        queue_drops: stats.queue_drops,
        per_core: stats.per_core_processed(),
        probes: obs.probes,
        trace: obs.trace,
        samples: obs.samples,
        stats,
    }
}

/// Run one open-loop rate measurement with the paper's testbed model.
pub fn run(cfg: &RateConfig) -> RateResult {
    let mb_config = MiddleboxConfig::paper_testbed_with_cycles(cfg.mode, cfg.nf_cycles);
    run_with_config(cfg, mb_config)
}

/// Convenience: run the same configuration over several seeds and return
/// (mean Mpps, std-dev Mpps) — the paper's error bars are one σ.
pub fn run_seeds(base: &RateConfig, seeds: &[u64]) -> (f64, f64) {
    let mut acc = sprayer_sim::Welford::new();
    for &seed in seeds {
        let cfg = RateConfig {
            seed,
            ..base.clone()
        };
        acc.add(run(&cfg).mpps());
    }
    (acc.mean(), acc.std_dev())
}

/// Per-flow processed-share fairness for an open-loop run — used by the
/// spray-uniformity ablation (TCP fairness for Fig. 9 lives in
/// [`crate::scenarios::tcp`]).
pub fn per_core_jain(cfg: &RateConfig) -> f64 {
    let result = run(cfg);
    let shares: Vec<f64> = result.per_core.iter().map(|&c| c as f64).collect();
    sprayer_sim::stats::jain_fairness_index(&shares)
}

/// A sanity audit used by tests: the synthetic NF must have found its
/// flow state for (nearly) every measured packet.
pub fn run_checking_state(cfg: &RateConfig) -> (RateResult, u64) {
    let mut mb_config = MiddleboxConfig::paper_testbed_with_cycles(cfg.mode, cfg.nf_cycles);
    mb_config.obs = cfg.obs;
    let mut mb = MiddleboxSim::new(mb_config, SyntheticNf::for_simulator());
    let offered_pps = cfg
        .offered_pps
        .unwrap_or_else(|| LinkSpeed::TEN_GBE.max_pps(60));
    let mut gen = MoonGen::new(cfg.num_flows, offered_pps, Arrivals::Constant, cfg.seed);
    let mut t = Time::ZERO;
    for tuple in gen.flows().to_vec() {
        mb.ingress(t, PacketBuilder::new().tcp(tuple, 0, 0, TcpFlags::SYN, b""));
        t += Time::from_us(2);
    }
    let warmup_end = t + Time::from_ms(1);
    mb.run_until(warmup_end);
    let processed_before = mb.stats().processed();
    let horizon = warmup_end + cfg.duration;
    loop {
        let (at, pkt) = gen.next_packet();
        let at = warmup_end + at;
        if at >= horizon {
            break;
        }
        mb.ingress(at, pkt);
    }
    mb.advance_until(horizon);
    let stats = mb.stats().clone();
    let processed = stats.processed() - processed_before;
    let missing = mb
        .nf()
        .missing_state
        .load(std::sync::atomic::Ordering::Relaxed);
    let obs = mb.take_obs();
    (
        RateResult {
            processed_pps: processed as f64 / cfg.duration.as_secs_f64(),
            offered_pps,
            nic_cap_drops: stats.nic_cap_drops,
            queue_drops: stats.queue_drops,
            per_core: stats.per_core_processed(),
            probes: obs.probes,
            trace: obs.trace,
            samples: obs.samples,
            stats,
        },
        missing,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rss_single_flow_is_one_core_bound_at_10k_cycles() {
        let cfg = RateConfig {
            duration: Time::from_ms(10),
            ..RateConfig::paper(DispatchMode::Rss, 10_000, 1, 1)
        };
        let r = run(&cfg);
        let expect =
            MiddleboxConfig::paper_testbed_with_cycles(DispatchMode::Rss, 10_000).single_core_pps();
        assert!(
            (r.processed_pps - expect).abs() / expect < 0.03,
            "{} vs {expect}",
            r.processed_pps
        );
    }

    #[test]
    fn sprayer_single_flow_is_eight_core_bound_at_10k_cycles() {
        let cfg = RateConfig {
            duration: Time::from_ms(10),
            ..RateConfig::paper(DispatchMode::Sprayer, 10_000, 1, 1)
        };
        let r = run(&cfg);
        let expect = MiddleboxConfig::paper_testbed_with_cycles(DispatchMode::Sprayer, 10_000)
            .all_cores_pps();
        assert!(
            (r.processed_pps - expect).abs() / expect < 0.06,
            "{} vs {expect}",
            r.processed_pps
        );
        // Sprayer at 10k cycles is ~8x RSS: the headline of Fig. 6(a).
        let rss = run(&RateConfig {
            duration: Time::from_ms(10),
            ..RateConfig::paper(DispatchMode::Rss, 10_000, 1, 1)
        });
        let speedup = r.processed_pps / rss.processed_pps;
        assert!((6.5..=8.5).contains(&speedup), "speedup {speedup}");
    }

    #[test]
    fn sprayer_trivial_nf_hits_the_fdir_cap() {
        let cfg = RateConfig {
            duration: Time::from_ms(10),
            ..RateConfig::paper(DispatchMode::Sprayer, 0, 1, 2)
        };
        let r = run(&cfg);
        assert!(
            (r.mpps() - 10.0).abs() < 0.4,
            "capped at ~10 Mpps, got {}",
            r.mpps()
        );
        assert!(r.nic_cap_drops > 0);
    }

    #[test]
    fn all_measured_packets_found_their_state() {
        let cfg = RateConfig {
            duration: Time::from_ms(5),
            ..RateConfig::paper(DispatchMode::Sprayer, 1_000, 4, 3)
        };
        let (r, missing) = run_checking_state(&cfg);
        assert!(r.processed_pps > 0.0);
        assert_eq!(missing, 0, "every sprayed packet must find its flow state");
    }

    #[test]
    fn seeds_vary_rss_multiflow_results() {
        // RSS with 8 flows: collisions depend on random endpoints, so the
        // across-seed variance must be non-trivial — the basis of both
        // Fig. 7(a)'s error bars and Fig. 9's unfairness.
        let base = RateConfig {
            duration: Time::from_ms(5),
            ..RateConfig::paper(DispatchMode::Rss, 10_000, 8, 0)
        };
        let (mean, sd) = run_seeds(&base, &[1, 2, 3, 4, 5, 6]);
        assert!(mean > 0.0);
        assert!(sd > 0.0, "hash-collision luck must vary across seeds");
    }
}
