//! A NAT gateway under packet spraying — the paper's running example
//! (its Fig. 5 NAT, here the full implementation from `sprayer-nf`).
//!
//! ```sh
//! cargo run --example nat_gateway -- [flows] [packets-per-flow]
//! ```
//!
//! Simulates an office NAT: `flows` clients behind 198.51.100.10 open
//! connections to distinct servers, exchange data in both directions,
//! and close. Runs under both RSS and Sprayer dispatch and verifies that
//! translations are consistent (every packet of a flow keeps its external
//! port) even though Sprayer processes the packets of each flow on all
//! eight cores.

use sprayer::config::{DispatchMode, MiddleboxConfig};
use sprayer::runtime_sim::MiddleboxSim;
use sprayer_net::flow::splitmix64;
use sprayer_net::{FiveTuple, PacketBuilder, TcpFlags};
use sprayer_nf::nat::NatNf;
use sprayer_sim::Time;
use std::collections::HashMap;

const NAT_IP: u32 = 0xc633_640a; // 198.51.100.10
const CLIENT_NET: u32 = 0x0a00_0000; // 10.0.0.0/8
const SERVER_NET: u32 = 0x5db8_d800; // 93.184.216.0/24-ish

fn main() {
    let mut args = std::env::args().skip(1);
    let flows: u32 = args.next().and_then(|s| s.parse().ok()).unwrap_or(32);
    let per_flow: u32 = args.next().and_then(|s| s.parse().ok()).unwrap_or(50);

    for mode in [DispatchMode::Rss, DispatchMode::Sprayer] {
        let config = MiddleboxConfig::paper_testbed_with_cycles(mode, 1_000);
        let mut mb = MiddleboxSim::new(config, NatNf::new(NAT_IP, 10_000..12_000));
        let mut now = Time::ZERO;

        // Open all connections.
        for f in 0..flows {
            let t = client_flow(f);
            now += Time::from_us(2);
            mb.ingress(now, PacketBuilder::new().tcp(t, 0, 0, TcpFlags::SYN, b""));
        }
        mb.run_until(now + Time::from_ms(2));
        let mut ext_port: HashMap<u32, u16> = HashMap::new();
        for (_, pkt) in mb.take_egress() {
            let t = pkt.tuple().unwrap();
            assert_eq!(t.src_addr, NAT_IP, "egress must be translated");
            ext_port.insert(t.dst_addr, t.src_port);
        }

        // Bidirectional data.
        for j in 0..per_flow {
            for f in 0..flows {
                now += Time::from_ns(900);
                let t = client_flow(f);
                let payload = splitmix64(u64::from(f) << 32 | u64::from(j)).to_be_bytes();
                if j % 2 == 0 {
                    mb.ingress(
                        now,
                        PacketBuilder::new().tcp(t, j, 0, TcpFlags::ACK, &payload),
                    );
                } else {
                    let back = FiveTuple::tcp(t.dst_addr, 443, NAT_IP, ext_port[&t.dst_addr]);
                    mb.ingress(
                        now,
                        PacketBuilder::new().tcp(back, j, 0, TcpFlags::ACK, &payload),
                    );
                }
            }
        }
        mb.run_until(now + Time::from_ms(10));
        let egress: Vec<_> = mb.take_egress().collect();

        // Verify translation consistency per flow.
        let mut violations = 0;
        for (_, pkt) in &egress {
            let t = pkt.tuple().unwrap();
            if t.src_addr == NAT_IP {
                if ext_port[&t.dst_addr] != t.src_port {
                    violations += 1;
                }
            } else if t.dst_addr & 0xff00_0000 != CLIENT_NET {
                violations += 1;
            }
        }

        // Close everything (both FINs) and check resource reclamation.
        for f in 0..flows {
            let t = client_flow(f);
            now += Time::from_us(2);
            mb.ingress(
                now,
                PacketBuilder::new().tcp(t, 999, 1, TcpFlags::FIN | TcpFlags::ACK, b""),
            );
            let back = FiveTuple::tcp(t.dst_addr, 443, NAT_IP, ext_port[&t.dst_addr]);
            now += Time::from_us(2);
            mb.ingress(
                now,
                PacketBuilder::new().tcp(back, 999, 1, TcpFlags::FIN | TcpFlags::ACK, b""),
            );
        }
        mb.run_until(now + Time::from_ms(5));

        let s = mb.stats();
        let busy = s.per_core.iter().filter(|c| c.processed > 0).count();
        let redirects: u64 = s.per_core.iter().map(|c| c.redirected_out).sum();
        println!("== {mode} ==");
        println!(
            "  connections           : {flows} opened, {} ports back in pool",
            mb.nf().pool_len()
        );
        println!("  data packets forwarded: {}", egress.len());
        println!("  translation violations: {violations}");
        println!("  cores used            : {busy}/8");
        println!("  connection redirects  : {redirects}");
        println!(
            "  flow-table residue    : {} entries",
            mb.tables().total_entries()
        );
        println!();
        assert_eq!(violations, 0);
        assert_eq!(
            mb.tables().total_entries(),
            0,
            "all flows must be torn down"
        );
    }
    println!("Same NAT, same traffic: Sprayer used every core (redirecting only");
    println!("SYN/FIN packets between cores) while RSS serialized each flow.");
}

fn client_flow(f: u32) -> FiveTuple {
    FiveTuple::tcp(
        CLIENT_NET + 0x100 + f,
        40_000 + (f % 1_000) as u16,
        SERVER_NET + f,
        443,
    )
}
