//! p99 round-trip time at 70 % load (Fig. 8).
//!
//! "Figure 8 compares the 99th percentile round trip time when using RSS
//! and Sprayer to process 64 B packets from a single flow at 70% of the
//! minimal processing rate."
//!
//! *Minimal processing rate* is the smaller of the two systems' capacities
//! at the given cycle count (the RSS single-core rate once the NF is
//! non-trivial; the 10 Mpps Flow Director ceiling at 0 cycles), so both
//! systems face the *same* offered load. Under RSS that load lands on one
//! core (70 % utilization — queueing delay); under Sprayer it spreads
//! over eight (≤ 10 % per core — almost pure service time). That service
//! parallelism is exactly the "processing packets from the same flow in
//! parallel ends up reducing latency" argument of §5.
//!
//! The reported RTT adds a constant [`BASE_RTT_US`] for everything outside
//! the middlebox model (generator stack, wire, NIC rings on both hosts),
//! calibrated once so the 0-cycle point sits at the paper's ≈10 µs floor.

use crate::scenarios::rate::RateConfig;
use sprayer::config::{DispatchMode, MiddleboxConfig, ObsConfig};
use sprayer::runtime_sim::MiddleboxSim;
use sprayer_net::{PacketBuilder, TcpFlags};
use sprayer_nf::SyntheticNf;
use sprayer_obs::Histogram;
use sprayer_sim::time::LinkSpeed;
use sprayer_sim::Time;
use sprayer_trafficgen::moongen::{Arrivals, MoonGen};

/// Fixed out-of-model RTT component (µs): generator stack + wire + NIC.
pub const BASE_RTT_US: f64 = 8.6;

/// Result of a latency run. Percentiles come from the runtime-emitted
/// sojourn histogram ([`sprayer::config::ObsConfig::latency`]), the same
/// log-linear [`Histogram`] every runtime populates — not a bench-side
/// sample buffer — so resolution is bounded (~1.6 % relative error) and
/// the full distribution ships with the result.
#[derive(Debug, Clone)]
pub struct LatencyResult {
    /// 99th-percentile RTT in µs (middlebox + [`BASE_RTT_US`]).
    pub p99_us: f64,
    /// 99.9th-percentile RTT in µs.
    pub p999_us: f64,
    /// Median RTT in µs.
    pub p50_us: f64,
    /// Offered load in packets/s.
    pub offered_pps: f64,
    /// The middlebox sojourn histogram itself (nanoseconds of simulated
    /// time, [`BASE_RTT_US`] *not* included).
    pub sojourn: Histogram,
}

/// The smaller of the two systems' processing capacities at `nf_cycles`
/// — the "minimal processing rate" the paper loads at 70 % of.
pub fn minimal_processing_rate(nf_cycles: u64) -> f64 {
    let line = LinkSpeed::TEN_GBE.max_pps(60);
    let rss = MiddleboxConfig::paper_testbed_with_cycles(DispatchMode::Rss, nf_cycles)
        .single_core_pps()
        .min(line);
    let spray_cfg = MiddleboxConfig::paper_testbed_with_cycles(DispatchMode::Sprayer, nf_cycles);
    let spray = spray_cfg
        .all_cores_pps()
        .min(line)
        .min(spray_cfg.fdir_cap_pps.unwrap_or(line));
    rss.min(spray)
}

/// Measure p99 RTT for a single flow at `load` × the minimal rate.
pub fn run(mode: DispatchMode, nf_cycles: u64, load: f64, seed: u64) -> LatencyResult {
    let offered = load * minimal_processing_rate(nf_cycles);
    let cfg = RateConfig {
        mode,
        nf_cycles,
        num_flows: 1,
        offered_pps: Some(offered),
        duration: Time::from_ms(50),
        seed,
        obs: ObsConfig::latency(),
    };

    let mut mb_config = MiddleboxConfig::paper_testbed_with_cycles(cfg.mode, cfg.nf_cycles);
    mb_config.obs = cfg.obs;
    let mut mb = MiddleboxSim::new(mb_config, SyntheticNf::for_simulator());
    let mut gen = MoonGen::new(1, offered, Arrivals::Poisson, cfg.seed);
    // Install flow state.
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
    mb.advance_until(horizon + Time::from_ms(5));

    let sojourn = mb
        .probes()
        .expect("latency probes enabled")
        .sojourn_ns
        .clone();
    // A degenerate run (zero offered load, or a horizon shorter than the
    // warmup) completes nothing; report the out-of-model floor instead
    // of panicking on the empty histogram's `None` percentiles.
    let us = |ns: Option<u64>| ns.unwrap_or(0) as f64 / 1_000.0;
    LatencyResult {
        p99_us: us(sojourn.p99()) + BASE_RTT_US,
        p999_us: us(sojourn.p999()) + BASE_RTT_US,
        p50_us: us(sojourn.p50()) + BASE_RTT_US,
        offered_pps: offered,
        sojourn,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_rate_tracks_the_binding_constraint() {
        // 0 cycles: Sprayer's 10 Mpps cap binds.
        assert!((minimal_processing_rate(0) / 1e6 - 10.0).abs() < 0.1);
        // 10k cycles: the RSS single core binds (~198 kpps).
        let m = minimal_processing_rate(10_000);
        assert!((m - 197_628.0).abs() < 1_000.0, "{m}");
    }

    #[test]
    fn sprayer_p99_is_below_rss_at_high_cycles() {
        let rss = run(DispatchMode::Rss, 10_000, 0.7, 1);
        let spray = run(DispatchMode::Sprayer, 10_000, 0.7, 1);
        assert!(
            spray.p99_us < rss.p99_us,
            "Fig. 8 ordering: sprayer {} vs rss {}",
            spray.p99_us,
            rss.p99_us
        );
        // RSS at 70% on one core has real queueing: several µs above
        // its own service time (~5.06 µs).
        assert!(rss.p99_us > BASE_RTT_US + 5.0);
    }

    #[test]
    fn both_systems_flat_and_similar_at_zero_cycles() {
        let rss = run(DispatchMode::Rss, 0, 0.7, 2);
        let spray = run(DispatchMode::Sprayer, 0, 0.7, 2);
        assert!(
            (rss.p99_us - spray.p99_us).abs() < 3.0,
            "{} vs {}",
            rss.p99_us,
            spray.p99_us
        );
        assert!(
            (8.0..14.0).contains(&rss.p99_us),
            "near the paper's ~10 µs floor: {}",
            rss.p99_us
        );
    }
}
