//! A MoonGen-like packet-rate source.
//!
//! Generates 64-byte TCP frames at a configured rate, with random payload
//! bytes in every packet so the TCP checksum field — the value Sprayer's
//! NIC trick sprays on — is uniformly distributed, exactly as the paper
//! arranges with MoonGen (§5). Flow endpoints are drawn randomly per
//! generator instance ("Sources and destinations change randomly at every
//! execution").

use sprayer_net::{FiveTuple, Packet, PacketBuilder, TcpFlags};
use sprayer_sim::{SimRng, Time};

/// Arrival process of the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrivals {
    /// Back-to-back at the configured rate (line-rate style).
    Constant,
    /// Poisson with the configured mean rate (for latency-vs-load runs).
    Poisson,
}

/// The packet generator.
#[derive(Debug)]
pub struct MoonGen {
    flows: Vec<FiveTuple>,
    rate_pps: f64,
    arrivals: Arrivals,
    /// The payload of the packet being built: one buffer, refilled with
    /// random bytes per packet.
    payload: Vec<u8>,
    rng: SimRng,
    next_time: Time,
    builder: PacketBuilder,
    emitted: u64,
    /// Sequence counter per flow (keeps headers plausible).
    seqs: Vec<u32>,
}

impl MoonGen {
    /// A generator over `num_flows` random flows at `rate_pps`.
    ///
    /// The default 10-byte payload yields the paper's 64-byte frames
    /// (14 Ethernet + 20 IP + 20 TCP + 10 payload = 64; our buffers
    /// exclude the 4-byte FCS, so the wire frame is 64 + FCS).
    pub fn new(num_flows: usize, rate_pps: f64, arrivals: Arrivals, seed: u64) -> Self {
        assert!(num_flows >= 1);
        assert!(rate_pps > 0.0);
        let mut rng = SimRng::seed_from(seed);
        let flows = (0..num_flows)
            .map(|_| {
                FiveTuple::tcp(
                    rng.next_u32() | 0x0100_0000, // avoid 0.x addresses
                    (rng.next_u32() % 64_511 + 1_024) as u16,
                    rng.next_u32() | 0x0100_0000,
                    (rng.next_u32() % 64_511 + 1_024) as u16,
                )
            })
            .collect();
        MoonGen {
            flows,
            rate_pps,
            arrivals,
            payload: vec![0; 10],
            rng,
            next_time: Time::ZERO,
            builder: PacketBuilder::new(),
            emitted: 0,
            seqs: vec![0; num_flows],
        }
    }

    /// The flows this generator produces.
    pub fn flows(&self) -> &[FiveTuple] {
        &self.flows
    }

    /// Override the payload length (frame = 54 + payload bytes).
    pub fn with_payload_len(mut self, len: usize) -> Self {
        self.payload.resize(len, 0);
        self
    }

    /// Packets emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Produce the next (arrival time, packet) pair.
    pub fn next_packet(&mut self) -> (Time, Packet) {
        let gap_ps = 1e12 / self.rate_pps;
        let at = self.next_time;
        self.next_time = match self.arrivals {
            Arrivals::Constant => at + Time::from_ps(gap_ps as u64),
            Arrivals::Poisson => at + Time::from_ps(self.rng.exponential(gap_ps) as u64),
        };

        // Uniformly random flow choice; random payload content.
        let idx = self.rng.below(self.flows.len() as u64) as usize;
        for b in &mut self.payload {
            *b = (self.rng.next_u32() & 0xff) as u8;
        }
        let seq = self.seqs[idx];
        self.seqs[idx] = seq.wrapping_add(self.payload.len() as u32);
        let pkt = self
            .builder
            .tcp(self.flows[idx], seq, 0, TcpFlags::ACK, &self.payload);
        self.emitted += 1;
        (at, pkt)
    }

    /// Generate all packets arriving before `horizon`.
    pub fn take_until(&mut self, horizon: Time) -> Vec<(Time, Packet)> {
        let mut out = Vec::new();
        while self.next_time < horizon {
            out.push(self.next_packet());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_rate_spacing_is_exact() {
        let mut gen = MoonGen::new(1, 1.0e6, Arrivals::Constant, 1);
        let (t0, _) = gen.next_packet();
        let (t1, _) = gen.next_packet();
        let (t2, _) = gen.next_packet();
        assert_eq!(t0, Time::ZERO);
        assert_eq!(t1 - t0, Time::from_us(1));
        assert_eq!(t2 - t1, Time::from_us(1));
    }

    #[test]
    fn frames_are_64_bytes_equivalent() {
        let mut gen = MoonGen::new(1, 1.0e6, Arrivals::Constant, 2);
        let (_, pkt) = gen.next_packet();
        // 60-byte minimum frame carries 54 header + 10 payload = 64 > 60.
        assert_eq!(pkt.len(), 64);
        assert_eq!(pkt.payload().unwrap().len(), 10);
    }

    #[test]
    fn checksums_are_spread_over_low_bits() {
        let mut gen = MoonGen::new(1, 1.0e6, Arrivals::Constant, 3);
        let mut buckets = [0u32; 8];
        let n = 8_000;
        for _ in 0..n {
            let (_, pkt) = gen.next_packet();
            buckets[usize::from(pkt.meta().tcp_checksum.unwrap() & 7)] += 1;
        }
        let expected = f64::from(n) / 8.0;
        for (i, &c) in buckets.iter().enumerate() {
            let dev = (f64::from(c) - expected).abs() / expected;
            assert!(dev < 0.15, "bucket {i}: {c} (dev {dev:.3})");
        }
    }

    #[test]
    fn poisson_mean_rate_is_close() {
        let mut gen = MoonGen::new(4, 1.0e6, Arrivals::Poisson, 4);
        let pkts = gen.take_until(Time::from_ms(100));
        let rate = pkts.len() as f64 / 0.1;
        assert!((rate / 1.0e6 - 1.0).abs() < 0.05, "rate {rate}");
    }

    #[test]
    fn flows_differ_between_seeds_but_not_within() {
        let a = MoonGen::new(8, 1.0, Arrivals::Constant, 10);
        let b = MoonGen::new(8, 1.0, Arrivals::Constant, 10);
        let c = MoonGen::new(8, 1.0, Arrivals::Constant, 11);
        assert_eq!(a.flows(), b.flows());
        assert_ne!(a.flows(), c.flows());
    }

    #[test]
    fn all_flows_are_exercised() {
        let mut gen = MoonGen::new(16, 1.0e6, Arrivals::Constant, 5);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..2_000 {
            let (_, pkt) = gen.next_packet();
            seen.insert(pkt.tuple().unwrap());
        }
        assert_eq!(seen.len(), 16);
    }

    #[test]
    fn take_until_respects_horizon() {
        let mut gen = MoonGen::new(1, 1.0e6, Arrivals::Constant, 6);
        let pkts = gen.take_until(Time::from_us(10));
        assert_eq!(pkts.len(), 10);
        assert!(pkts.iter().all(|(t, _)| *t < Time::from_us(10)));
    }

    #[test]
    fn the_frames_and_their_times_are_pinned() {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (payload, seed) in [(10, 7), (0, 8), (1_400, 9)] {
            let mut gen =
                MoonGen::new(32, 1.0e6, Arrivals::Poisson, seed).with_payload_len(payload);
            for _ in 0..500 {
                let (at, pkt) = gen.next_packet();
                for &b in at.as_ps().to_le_bytes().iter().chain(pkt.bytes()) {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        assert_eq!(h, 0x892c_c2c6_8a64_301f);
    }
}
