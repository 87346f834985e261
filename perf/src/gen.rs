//! Seeded input generators owned by the benchmark.
//!
//! The product only ever receives the generated frames, never the seed.
//! Frame bytes are emitted with the product's own `PacketBuilder` /
//! `MoonGen` (the benchmark decides *which* packets exist, the product's
//! serializer decides how a TCP header is laid out); the sequence of
//! packets, flows and payload bytes is decided here.

use sprayer_net::{FiveTuple, PacketBuilder, TcpFlags};
use sprayer_trafficgen::moongen::{Arrivals, MoonGen};

/// splitmix64: the benchmark's own PRNG, so a change to the product's
/// `SimRng` cannot move the benchmark's inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is irrelevant at these sizes).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Lanes of the `churn` generator: consecutive packets of one flow are
/// exactly this many packets apart. More than everything the threaded
/// runtime can buffer (2 x 512 rx + 2 x 1024 ring + two batches of 32),
/// so a data packet can never overtake its flow's SYN and a second FIN
/// can never overtake the first.
pub const LANES: usize = 4096;

/// Input of one threaded trial: raw frames per phase (the runtime drains
/// a phase completely before the next starts).
pub struct Frames {
    pub phases: Vec<Vec<Vec<u8>>>,
    /// Connection packets (SYN/FIN) among the frames.
    pub conn_packets: u64,
}

impl Frames {
    pub fn packets(&self) -> u64 {
        self.phases.iter().map(|p| p.len() as u64).sum()
    }

    pub fn iter(&self) -> impl Iterator<Item = &Vec<u8>> {
        self.phases.iter().flatten()
    }
}

/// The `steady` frame set: one SYN per flow in a first phase, then
/// `packets` 64-byte MoonGen data frames over those flows.
pub fn steady_frames(seed: u64, flows: usize, packets: usize) -> Frames {
    // The rate only spaces MoonGen's timestamps, which a closed loop drops.
    let mut gen = MoonGen::new(flows, 1.0e6, Arrivals::Constant, seed);
    let builder = PacketBuilder::new();
    let syns = gen
        .flows()
        .iter()
        .map(|&t| builder.tcp(t, 0, 0, TcpFlags::SYN, b"").into_bytes())
        .collect();
    let data = (0..packets)
        .map(|_| gen.next_packet().1.into_bytes())
        .collect();
    Frames {
        phases: vec![syns, data],
        conn_packets: flows as u64,
    }
}

/// One lane of the churn generator: the flow it is playing and where in
/// that flow's lifecycle it stands.
struct Lane {
    client: FiveTuple,
    /// Next step: 0 SYN, 1 SYN-ACK, 2..2+data segments, then the client's
    /// FIN, then the server's.
    step: u32,
    data: u32,
    flows_played: u32,
    client_seq: u32,
    server_seq: u32,
}

impl Lane {
    fn open(lane: usize, flows_played: u32, rng: &mut Rng) -> Lane {
        // Unique per (lane, flow number): the lane in the low address
        // bits, the flow number in the port and the bits above the lane.
        let client_addr = 0x0a00_0000 + lane as u32 + ((flows_played / 60_000) << 12);
        let client_port = 1024 + (flows_played % 60_000) as u16;
        let server_addr = rng.next_u64() as u32 | 0x0100_0000;
        // 2..=8 data segments, with a 2 % tail of long flows.
        let data = if rng.below(100) < 2 {
            64
        } else {
            2 + rng.below(7) as u32
        };
        Lane {
            client: FiveTuple::tcp(client_addr, client_port, server_addr, 443),
            step: 0,
            data,
            flows_played,
            client_seq: rng.next_u64() as u32,
            server_seq: rng.next_u64() as u32,
        }
    }
}

/// The `churn` frame set: `lanes` lanes, each playing bidirectional TCP
/// flow lifecycles back to back (SYN, SYN-ACK, data, FIN, reverse FIN),
/// emitted round-robin and truncated (never drained) at `packets`, so
/// the distance between two packets of one flow is always `lanes`.
pub fn churn_frames(seed: u64, lanes: usize, packets: usize) -> Frames {
    let mut rng = Rng::new(seed);
    let builder = PacketBuilder::new();
    let mut state: Vec<Lane> = (0..lanes).map(|l| Lane::open(l, 0, &mut rng)).collect();
    let mut frames = Vec::with_capacity(packets);
    let mut conn_packets = 0;
    for i in 0..packets {
        let l = i % lanes;
        let lane = &mut state[l];
        let server = lane.client.reversed();
        // Ten random-looking payload bytes make 64-byte frames whose TCP
        // checksum (the spray key) is uniform, like MoonGen's.
        let mut payload = [0u8; 10];
        payload[..8].copy_from_slice(&rng.next_u64().to_be_bytes());
        payload[8..].copy_from_slice(&(i as u16).to_be_bytes());
        let last = lane.data + 3;
        let (tuple, seq, ack, flags, body): (_, _, _, _, &[u8]) = match lane.step {
            0 => (lane.client, lane.client_seq, 0, TcpFlags::SYN, b""),
            1 => (
                server,
                lane.server_seq,
                lane.client_seq,
                TcpFlags::SYN | TcpFlags::ACK,
                b"",
            ),
            s if s == last - 1 => (
                lane.client,
                lane.client_seq,
                lane.server_seq,
                TcpFlags::FIN | TcpFlags::ACK,
                b"",
            ),
            s if s == last => (
                server,
                lane.server_seq,
                lane.client_seq,
                TcpFlags::FIN | TcpFlags::ACK,
                b"",
            ),
            _ if payload[0] & 1 == 0 => {
                lane.client_seq = lane.client_seq.wrapping_add(10);
                (
                    lane.client,
                    lane.client_seq,
                    lane.server_seq,
                    TcpFlags::ACK,
                    &payload,
                )
            }
            _ => {
                lane.server_seq = lane.server_seq.wrapping_add(10);
                (
                    server,
                    lane.server_seq,
                    lane.client_seq,
                    TcpFlags::ACK,
                    &payload,
                )
            }
        };
        conn_packets += u64::from(flags.is_connection_packet());
        frames.push(builder.tcp(tuple, seq, ack, flags, body).into_bytes());
        if lane.step == last {
            *lane = Lane::open(l, lane.flows_played + 1, &mut rng);
        } else {
            lane.step += 1;
        }
    }
    Frames {
        phases: vec![frames],
        conn_packets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprayer_net::{FlowKey, Packet};
    use std::collections::HashMap;

    const N: usize = 40_000;
    const TEST_LANES: usize = 256;

    #[test]
    fn same_seed_is_byte_identical_and_another_seed_differs() {
        let a = churn_frames(7, TEST_LANES, N);
        let b = churn_frames(7, TEST_LANES, N);
        let c = churn_frames(8, TEST_LANES, N);
        assert_eq!(a.phases, b.phases);
        assert_ne!(a.phases, c.phases);
        let s = steady_frames(7, 16, 1000);
        assert_eq!(s.phases, steady_frames(7, 16, 1000).phases);
        assert_ne!(s.phases, steady_frames(8, 16, 1000).phases);
    }

    #[test]
    fn truncation_is_a_prefix_so_the_gap_never_shrinks() {
        let long = churn_frames(3, TEST_LANES, N);
        let short = churn_frames(3, TEST_LANES, N / 3);
        assert_eq!(short.phases[0][..], long.phases[0][..N / 3]);
    }

    #[test]
    fn flows_start_with_syn_and_keep_their_distance() {
        let frames = churn_frames(5, TEST_LANES, N);
        let mut last_seen: HashMap<FlowKey, usize> = HashMap::new();
        let mut conn = 0;
        for (i, raw) in frames.phases[0].iter().enumerate() {
            let pkt = Packet::parse(raw.clone()).expect("generated frames parse");
            let key = pkt.tuple().expect("TCP").key();
            let flags = pkt.meta().tcp_flags.expect("TCP");
            conn += u64::from(flags.is_connection_packet());
            match last_seen.insert(key, i) {
                None => assert_eq!(flags, TcpFlags::SYN, "packet {i} opens a flow without SYN"),
                Some(prev) => assert_eq!(i - prev, TEST_LANES, "flow gap at packet {i}"),
            }
        }
        assert_eq!(conn, frames.conn_packets);
        // SYN, SYN-ACK, ~6 data, FIN, FIN: roughly two in five packets
        // are connection packets.
        let share = conn as f64 / N as f64;
        assert!((0.3..0.5).contains(&share), "connection share {share}");
        assert!(last_seen.len() > N / 20, "flows churn: {}", last_seen.len());
    }
}
