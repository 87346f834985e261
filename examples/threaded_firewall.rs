//! A stateful firewall on the real-thread Sprayer runtime, with fault
//! injection.
//!
//! ```sh
//! cargo run --example threaded_firewall -- [workers] [flows] [corrupt-%]
//! ```
//!
//! Demonstrates the `ThreadedMiddlebox` runtime: OS worker threads,
//! crossbeam rings for connection-packet redirection, and the shared
//! write-partitioned flow tables. Fault injection (in the spirit of the
//! smoltcp examples) corrupts a percentage of frames in flight; the
//! firewall must drop exactly the corrupted and the unauthorized
//! traffic, in both dispatch modes, with identical policy outcomes.

use sprayer::config::DispatchMode;
use sprayer::runtime_threads::{ThreadedConfig, ThreadedMiddlebox};
use sprayer_net::flow::splitmix64;
use sprayer_net::{FiveTuple, Packet, PacketBuilder, TcpFlags};
use sprayer_nf::firewall::{AclRule, FirewallNf};
use sprayer_sim::SimRng;

fn main() {
    let mut args = std::env::args().skip(1);
    let workers: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);
    let flows: u32 = args.next().and_then(|s| s.parse().ok()).unwrap_or(24);
    let corrupt_pct: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(2.0);

    let acl = vec![
        AclRule::allow_dst_port(443),
        AclRule::allow_dst_port(22),
        AclRule::default_action(sprayer_nf::firewall::Action::Deny),
    ];

    // Build the workload: half the flows target allowed ports, half a
    // denied one. SYNs first (TCP ordering), then data.
    let mut rng = SimRng::seed_from(99);
    let tuple = |f: u32| {
        let port = match f % 4 {
            0 => 443,
            1 => 22,
            _ => 8081, // denied
        };
        FiveTuple::tcp(0x0a00_0000 + f, 41_000, 0xc0a8_0001 + f, port)
    };
    let syns: Vec<Packet> = (0..flows)
        .map(|f| PacketBuilder::new().tcp(tuple(f), 0, 0, TcpFlags::SYN, b""))
        .collect();
    let mut data = Vec::new();
    let mut corrupted = 0u32;
    for j in 0..40u32 {
        for f in 0..flows {
            let payload = splitmix64(u64::from(f * 1000 + j)).to_be_bytes();
            let pkt = PacketBuilder::new().tcp(tuple(f), j, 0, TcpFlags::ACK, &payload);
            // Fault injection: corrupt one byte of some frames. A frame
            // that no longer parses (bad IP checksum) is dropped by the
            // classifier stage, as a real NIC would discard it.
            if rng.chance(corrupt_pct / 100.0) {
                let mut bytes = pkt.into_bytes();
                let idx = 14 + (rng.below(20) as usize); // somewhere in the IP header
                bytes[idx] ^= 0x10;
                if let Ok(p) = Packet::parse(bytes) {
                    data.push(p); // corruption happened to stay consistent
                } else {
                    corrupted += 1; // dropped before reaching the NF
                }
            } else {
                data.push(pkt);
            }
        }
    }
    let offered = syns.len() + data.len();

    println!("workload: {flows} flows, {offered} packets offered, {corrupted} corrupted frames dropped at parse\n");
    for mode in [DispatchMode::Rss, DispatchMode::Sprayer] {
        let fw = FirewallNf::new(acl.clone());
        let config = ThreadedConfig::new(mode, workers);
        let out = ThreadedMiddlebox::run(&config, &fw, vec![syns.clone(), data.clone()]);
        println!("== {mode} ({workers} worker threads) ==");
        println!("  forwarded          : {}", out.forwarded.len());
        println!("  dropped by policy  : {}", out.stats.nf_drops);
        println!(
            "  admitted conns     : {}",
            fw.admitted.load(std::sync::atomic::Ordering::Relaxed)
        );
        println!(
            "  rejected conns     : {}",
            fw.rejected.load(std::sync::atomic::Ordering::Relaxed)
        );
        let load: Vec<u64> = out.stats.per_core.iter().map(|c| c.processed).collect();
        println!("  per-worker load    : {load:?}");
        println!("  conn redirects     : {}", out.stats.redirects());
        println!(
            "  queue/ring drops   : {}/{}",
            out.stats.queue_drops, out.stats.ring_drops
        );
        println!(
            "  max rx/ring depth  : {}/{}",
            out.stats.max_rx_occupancy(),
            out.stats.max_ring_occupancy()
        );
        println!("  unaccounted        : {}", out.stats.unaccounted());
        assert_eq!(
            out.stats.unaccounted(),
            0,
            "threaded runtime must conserve packets"
        );
        println!();
    }
    println!("Policy outcomes are identical; only the distribution of work differs.");
}
