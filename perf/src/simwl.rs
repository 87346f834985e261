//! The two simulator workloads, `simrate` and `simtcp`: one trial is one
//! call of the experiment scenario the figures use, and the metric is
//! host nanoseconds per *simulated* packet. Everything the simulation
//! computes (rates, drops, goodput) is a deterministic model output: it
//! is pinned by a digest as a correctness check, never reported as speed.

use crate::measure::process_cpu_ns;
use crate::{Mode, Size};
use sprayer::stats::MiddleboxStats;
use sprayer_bench::scenarios::{rate, tcp};
use sprayer_sim::Time;

/// Which simulator workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Rate,
    Tcp,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Rate => "simrate",
            Kind::Tcp => "simtcp",
        }
    }
}

/// What one simulator trial measured.
pub struct Trial {
    /// CPU time of the scenario call.
    pub cpu_ns: u64,
    /// Simulated packets offered to the middlebox.
    pub packets: u64,
    /// Packets the model lost although the workload is sized so that it
    /// loses none.
    pub failed: u64,
    /// Digest over every numeric statistic the simulation produced.
    pub digest: u64,
    pub stats: MiddleboxStats,
}

impl Trial {
    pub fn pkt_ns(&self) -> f64 {
        self.cpu_ns as f64 / self.packets as f64
    }
}

/// FNV-1a over a sequence of counters.
pub fn digest(values: impl IntoIterator<Item = u64>) -> u64 {
    values.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        v.to_le_bytes().iter().fold(h, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    })
}

/// The statistics every simulated run is pinned on.
pub fn stats_counters(s: &MiddleboxStats) -> Vec<u64> {
    let mut v = vec![
        s.offered,
        s.forwarded,
        s.nf_drops,
        s.nic_cap_drops,
        s.queue_drops,
        s.ring_drops,
        s.malformed_drops,
        s.lost_packets,
        s.redirects(),
        s.scr_published,
        s.scr_applied,
        s.scr_log_drops,
    ];
    v.extend(s.per_core_processed());
    v
}

/// How many seeds a simulator run plays in turn. What a simulated packet
/// costs the host depends on what the seed makes happen (which flows
/// share a core, how often TCP retransmits): between seeds `simtcp` reads
/// 890-1210 ns/packet under RSS on a calm host. A run that played one
/// seed would report that seed's luck; a run that plays eight reports
/// their median.
pub const SUB_SEEDS: usize = 8;

/// The seed round `sub` of a run with `seed` plays: the run's own seed
/// first, then seeds a large odd stride away, so that neighbouring run
/// seeds share none.
pub fn sub_seed(seed: u64, sub: usize) -> u64 {
    seed.wrapping_add(sub as u64 * 1_000_003)
}

/// Offered rate of `simrate`, packets per second of simulated time.
pub const RATE_PPS: f64 = 5.0e6;

/// Simulated span of one `simrate` trial.
pub fn rate_duration(size: Size) -> Time {
    match size {
        Size::Full => Time::from_ms(16),
        Size::Smoke => Time::from_us(2_500),
    }
}

pub fn trial(kind: Kind, mode: Mode, seed: u64, size: Size) -> Trial {
    match kind {
        Kind::Rate => {
            // Paper testbed (8 cores, 2 GHz), open loop: constant 5 Mpps
            // of 64-byte packets over 64 flows at 1000 cycles/packet. A
            // core serves 1.79 Mpps, so RSS stays below capacity until 23
            // of the 64 flows hash to one core (at 8 Mpps 15 do, and one
            // seed in ten dropped packets): every packet is processed.
            // 16 ms simulated is 80 k packets: the scenario's egress
            // buffer (10 MB) stays far below glibc's mmap-threshold
            // ceiling, and no core's 64 Ki-event trace ring fills, so
            // `pkt_ns.obs` does not flip by seed between recording and
            // overflowing (at 128 k packets it spread 24 %).
            let cfg = rate::RateConfig {
                offered_pps: Some(RATE_PPS),
                duration: rate_duration(size),
                obs: mode.obs(),
                ..rate::RateConfig::paper(mode.dispatch(), 1_000, 64, seed)
            };
            let c0 = process_cpu_ns();
            let r = rate::run(&cfg);
            let cpu_ns = process_cpu_ns() - c0;
            let s = r.stats;
            Trial {
                cpu_ns,
                packets: s.offered,
                failed: s.pre_nf_drops() + s.nf_drops + s.malformed_drops + s.lost_packets,
                digest: digest(stats_counters(&s)),
                stats: s,
            }
        }
        Kind::Tcp => {
            // A fig7b datapoint: 8 CUBIC flows, 10 000 cycles/packet,
            // closed loop, MTU-sized logical segments — `TcpConfig::paper`
            // with the measured window cut from 300 to 90 ms, so a run
            // holds ~20 trials per mode instead of 5 (at 5 the ten-seed
            // spread was 8-13 %, at 20 it is 5-10 %).
            let mut cfg = tcp::TcpConfig::paper(mode.dispatch(), 10_000, 8, seed);
            cfg.obs = mode.obs();
            match size {
                Size::Full => cfg.duration = Time::from_ms(90),
                Size::Smoke => {
                    cfg.warmup = Time::from_ms(5);
                    cfg.duration = Time::from_ms(10);
                }
            }
            let c0 = process_cpu_ns();
            let r = tcp::run(&cfg);
            let cpu_ns = process_cpu_ns() - c0;
            let mut counters = stats_counters(&r.stats);
            counters.extend(&r.delivered);
            counters.extend([
                r.fast_retransmits,
                r.rtos,
                r.probes,
                r.spurious,
                r.ooo_arrivals,
                r.dup_acks,
            ]);
            let s = r.stats;
            Trial {
                cpu_ns,
                packets: s.offered,
                // Queue drops here are TCP probing for capacity.
                failed: s.nf_drops + s.malformed_drops + s.lost_packets,
                digest: digest(counters),
                stats: s,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_stats_block_trips_the_digest() {
        let t = trial(Kind::Rate, Mode::Scr, 1, Size::Smoke);
        assert_eq!(t.failed, 0);
        assert_eq!(t.digest, digest(stats_counters(&t.stats)));
        let mut s = t.stats.clone();
        s.per_core[3].processed += 1;
        assert_ne!(t.digest, digest(stats_counters(&s)));
        let mut s = t.stats.clone();
        s.scr_applied -= 1;
        assert_ne!(t.digest, digest(stats_counters(&s)));
    }

    #[test]
    fn the_same_seed_repeats_and_observing_changes_nothing() {
        for kind in [Kind::Rate, Kind::Tcp] {
            let a = trial(kind, Mode::Sprayer, 9, Size::Smoke);
            let b = trial(kind, Mode::Sprayer, 9, Size::Smoke);
            let watched = trial(kind, Mode::Obs, 9, Size::Smoke);
            let other = trial(kind, Mode::Sprayer, 10, Size::Smoke);
            assert_eq!(a.digest, b.digest);
            assert_eq!(a.digest, watched.digest, "{}", kind.name());
            assert_ne!(a.digest, other.digest);
        }
    }
}
