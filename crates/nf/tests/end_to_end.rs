//! NFs running through the full middlebox runtimes, in both dispatch
//! modes: the crate-level proof that the Sprayer programming model works
//! for realistic NFs under packet spraying.

use sprayer::config::{DispatchMode, MiddleboxConfig};
use sprayer::runtime_sim::MiddleboxSim;
use sprayer::runtime_threads::{ThreadedConfig, ThreadedMiddlebox};
use sprayer_net::flow::splitmix64;
use sprayer_net::{FiveTuple, Packet, PacketBuilder, TcpFlags};
use sprayer_nf::firewall::{AclRule, FirewallNf};
use sprayer_nf::load_balancer::{Backend, LoadBalancerNf};
use sprayer_nf::monitor::MonitorNf;
use sprayer_nf::nat::NatNf;
use sprayer_sim::Time;

const NAT_IP: u32 = 0xc633_640a;
const SERVER: u32 = 0x5db8_d822;
const VIP: (u32, u16) = (0xc633_6401, 80);

fn client_tuple(i: u32) -> FiveTuple {
    // Distinct servers per flow so egress packets (whose client endpoint
    // has been rewritten away) remain attributable to their flow.
    FiveTuple::tcp(0x0a00_0000 + i, 40_000 + (i % 1000) as u16, SERVER + i, 443)
}

fn payload(i: u32) -> [u8; 8] {
    splitmix64(u64::from(i)).to_be_bytes()
}

/// Drive `flows` connections (SYN, data both ways, FIN pair) through a
/// simulated middlebox running the NAT; verify translation consistency
/// per flow on egress.
fn nat_scenario(mode: DispatchMode) {
    let config = MiddleboxConfig::paper_testbed_with_cycles(mode, 500);
    let mut mb = MiddleboxSim::new(config, NatNf::new(NAT_IP, 10_000..11_000));
    let flows = 24u32;
    let mut now = Time::ZERO;

    // Open all connections.
    for i in 0..flows {
        now += Time::from_us(3);
        mb.ingress(
            now,
            PacketBuilder::new().tcp(client_tuple(i), 0, 0, TcpFlags::SYN, b""),
        );
    }
    mb.run_until(now + Time::from_ms(5));
    let opened: Vec<_> = mb.take_egress().collect();
    assert_eq!(
        opened.len(),
        flows as usize,
        "every SYN must be translated and forwarded"
    );

    // Map each flow to its external port as seen on the translated SYN.
    let mut ext_port = std::collections::HashMap::new();
    for (_, pkt) in &opened {
        let t = pkt.tuple().unwrap();
        assert_eq!(t.src_addr, NAT_IP);
        ext_port.insert((t.dst_addr, t.dst_port), t.src_port);
    }

    // Data in both directions.
    now = mb.now();
    let per_flow = 40u32;
    for j in 0..per_flow {
        for i in 0..flows {
            now += Time::from_ns(800);
            let t = client_tuple(i);
            if j % 2 == 0 {
                mb.ingress(
                    now,
                    PacketBuilder::new().tcp(t, j, 0, TcpFlags::ACK, &payload(i * 1000 + j)),
                );
            } else {
                let port = ext_port[&(t.dst_addr, t.dst_port)];
                let back = FiveTuple::tcp(t.dst_addr, 443, NAT_IP, port);
                mb.ingress(
                    now,
                    PacketBuilder::new().tcp(back, j, 0, TcpFlags::ACK, &payload(i * 7 + j)),
                );
            }
        }
    }
    mb.run_until(now + Time::from_ms(50));
    let data_out: Vec<_> = mb.take_egress().collect();
    assert_eq!(
        data_out.len(),
        (flows * per_flow) as usize,
        "all data packets must translate ({} stats: {:?})",
        mode,
        mb.stats()
    );
    for (_, pkt) in &data_out {
        let t = pkt.tuple().unwrap();
        if t.src_addr == NAT_IP {
            // Outbound: source must be this flow's stable external port.
            assert_eq!(ext_port[&(t.dst_addr, t.dst_port)], t.src_port);
        } else {
            // Inbound: destination restored to an internal client.
            assert_eq!(t.dst_addr & 0xff00_0000, 0x0a00_0000);
        }
    }

    // Close everything: FIN from each side.
    now = mb.now();
    for i in 0..flows {
        now += Time::from_us(2);
        let t = client_tuple(i);
        mb.ingress(
            now,
            PacketBuilder::new().tcp(t, 99, 1, TcpFlags::FIN | TcpFlags::ACK, b""),
        );
        let port = ext_port[&(t.dst_addr, t.dst_port)];
        let back = FiveTuple::tcp(t.dst_addr, 443, NAT_IP, port);
        now += Time::from_us(2);
        mb.ingress(
            now,
            PacketBuilder::new().tcp(back, 99, 1, TcpFlags::FIN | TcpFlags::ACK, b""),
        );
    }
    mb.run_until(now + Time::from_ms(5));
    assert_eq!(
        mb.nf().pool_len(),
        1000,
        "all external ports must be returned"
    );
    assert_eq!(
        mb.tables().total_entries(),
        0,
        "all flow entries must be removed"
    );
    assert_eq!(mb.stats().unaccounted(), 0);
}

#[test]
fn nat_full_lifecycle_under_spraying() {
    nat_scenario(DispatchMode::Sprayer);
}

#[test]
fn nat_full_lifecycle_under_rss() {
    nat_scenario(DispatchMode::Rss);
}

#[test]
fn firewall_polices_identically_in_both_modes() {
    let acl = vec![AclRule::allow_dst_port(443)];
    let mut counts = Vec::new();
    for mode in [DispatchMode::Rss, DispatchMode::Sprayer] {
        let config = MiddleboxConfig::paper_testbed(mode);
        let mut mb = MiddleboxSim::new(config, FirewallNf::new(acl.clone()));
        let mut now = Time::ZERO;
        // 8 allowed flows (port 443) and 8 denied flows (port 22).
        for i in 0..16u32 {
            let dst_port = if i % 2 == 0 { 443 } else { 22 };
            let t = FiveTuple::tcp(0x0a00_0000 + i, 50_000, SERVER, dst_port);
            now += Time::from_us(5);
            mb.ingress(now, PacketBuilder::new().tcp(t, 0, 0, TcpFlags::SYN, b""));
            for j in 0..10u32 {
                now += Time::from_us(1);
                mb.ingress(
                    now,
                    PacketBuilder::new().tcp(t, j + 1, 0, TcpFlags::ACK, &payload(i * 100 + j)),
                );
            }
        }
        mb.run_until(now + Time::from_ms(10));
        let s = mb.stats();
        counts.push((s.forwarded, s.nf_drops));
    }
    assert_eq!(
        counts[0], counts[1],
        "policy outcomes must not depend on dispatch"
    );
    // 8 allowed SYNs + 80 allowed data; 8 denied SYNs + 80 stray data.
    assert_eq!(counts[0], (88, 88));
}

#[test]
fn firewall_concurrent_fins_converge_under_scr() {
    // Under SCR the two FINs of a connection land on arbitrary (usually
    // different) cores. The per-direction FIN bitmask must union
    // commutatively through the replica merge so every core converges
    // to "connection closed" — a lost increment under plain
    // last-writer-wins would leak the context on every replica.
    let acl = vec![AclRule::allow_dst_port(443)];
    let config = MiddleboxConfig::paper_testbed_with_cycles(DispatchMode::Scr, 500);
    let num_cores = config.num_cores;
    let mut mb = MiddleboxSim::new(config, FirewallNf::new(acl));
    let flows = 16u32;
    let tuples: Vec<FiveTuple> = (0..flows)
        .map(|i| FiveTuple::tcp(0x0a00_0000 + i, 50_000, SERVER, 443))
        .collect();

    let mut now = Time::ZERO;
    for t in &tuples {
        now += Time::from_us(5);
        mb.ingress(now, PacketBuilder::new().tcp(*t, 0, 0, TcpFlags::SYN, b""));
    }
    // Let the SYNs' updates replicate: every core holds every context.
    mb.run_until(now + Time::from_ms(5));
    assert!(mb.is_idle());
    assert_eq!(
        mb.tables().total_entries(),
        flows as usize * num_cores,
        "full replication before the close"
    );

    // Close every connection with back-to-back FINs from both sides —
    // no settling time between the pair, so they race.
    now = mb.now();
    for t in &tuples {
        now += Time::from_us(1);
        mb.ingress(
            now,
            PacketBuilder::new().tcp(*t, 9, 1, TcpFlags::FIN | TcpFlags::ACK, b""),
        );
        now += Time::from_us(1);
        mb.ingress(
            now,
            PacketBuilder::new().tcp(t.reversed(), 9, 10, TcpFlags::FIN | TcpFlags::ACK, b""),
        );
    }
    mb.run_until(now + Time::from_ms(10));
    assert!(mb.is_idle());
    let s = mb.stats();
    assert_eq!(s.scr_replay_gap(), 0, "the update plane drains at rest");
    assert_eq!(s.unaccounted(), 0, "{s:?}");
    assert_eq!(
        mb.tables().total_entries(),
        0,
        "every replica must converge to the closed state"
    );

    // The contexts are really gone: post-close data strays on any core.
    let before = mb
        .nf()
        .stray_drops
        .load(std::sync::atomic::Ordering::Relaxed);
    now = mb.now();
    for (i, t) in tuples.iter().enumerate() {
        now += Time::from_us(1);
        mb.ingress(
            now,
            PacketBuilder::new().tcp(*t, 20, 11, TcpFlags::ACK, &payload(i as u32)),
        );
    }
    mb.run_until(now + Time::from_ms(5));
    assert_eq!(
        mb.nf()
            .stray_drops
            .load(std::sync::atomic::Ordering::Relaxed),
        before + u64::from(flows)
    );
}

#[test]
fn load_balancer_keeps_flow_affinity_under_spraying() {
    let backends = vec![
        Backend {
            addr: 0x0a00_0101,
            port: 8080,
        },
        Backend {
            addr: 0x0a00_0102,
            port: 8080,
        },
    ];
    let config = MiddleboxConfig::paper_testbed(DispatchMode::Sprayer);
    let mut mb = MiddleboxSim::new(config, LoadBalancerNf::new(VIP, backends));
    let mut now = Time::ZERO;
    let flows = 10u32;
    for i in 0..flows {
        let t = FiveTuple::tcp(0x0a01_0000 + i, 40_000, VIP.0, VIP.1);
        now += Time::from_us(5);
        mb.ingress(now, PacketBuilder::new().tcp(t, 0, 0, TcpFlags::SYN, b""));
        for j in 0..20u32 {
            now += Time::from_us(1);
            mb.ingress(
                now,
                PacketBuilder::new().tcp(t, j + 1, 0, TcpFlags::ACK, &payload(i * 333 + j)),
            );
        }
    }
    mb.run_until(now + Time::from_ms(10));
    let egress: Vec<_> = mb.take_egress().collect();
    assert_eq!(egress.len(), (flows * 21) as usize);

    // Every packet of a flow must go to one backend, despite spraying.
    let mut assignment: std::collections::HashMap<(u32, u16), u32> =
        std::collections::HashMap::new();
    for (_, pkt) in egress {
        let t = pkt.tuple().unwrap();
        let client = (t.src_addr, t.src_port);
        let backend = t.dst_addr;
        if let Some(&prev) = assignment.get(&client) {
            assert_eq!(prev, backend, "flow affinity broken for {client:?}");
        } else {
            assignment.insert(client, backend);
        }
    }
    assert_eq!(assignment.len(), flows as usize);
}

#[test]
fn monitor_counts_every_packet_in_both_modes() {
    for mode in [DispatchMode::Rss, DispatchMode::Sprayer] {
        let config = MiddleboxConfig::paper_testbed(mode);
        let mut mb = MiddleboxSim::new(config, MonitorNf::new(8));
        let mut now = Time::ZERO;
        let flows = 6u32;
        for i in 0..flows {
            let t = client_tuple(i);
            now += Time::from_us(5);
            mb.ingress(now, PacketBuilder::new().tcp(t, 0, 0, TcpFlags::SYN, b""));
            for j in 0..30u32 {
                now += Time::from_us(1);
                mb.ingress(
                    now,
                    PacketBuilder::new().tcp(t, j, 0, TcpFlags::ACK, &payload(i * 47 + j)),
                );
            }
            now += Time::from_us(1);
            mb.ingress(now, PacketBuilder::new().tcp(t, 99, 0, TcpFlags::RST, b""));
        }
        mb.run_until(now + Time::from_ms(10));
        let totals = mb.nf().aggregate();
        assert_eq!(totals.packets, u64::from(flows) * 32, "{mode}");
        assert_eq!(totals.connections_opened, u64::from(flows));
        assert_eq!(totals.connections_closed, u64::from(flows));
        if mode == DispatchMode::Sprayer {
            // Loose-consistency shards: multiple cores contributed.
            let busy = mb.nf().aggregate();
            assert!(busy.packets > 0);
            let active_cores = mb
                .stats()
                .per_core
                .iter()
                .filter(|c| c.processed > 0)
                .count();
            assert!(active_cores >= 6, "spraying must spread the monitor's work");
        }
    }
}

#[test]
fn threaded_runtime_runs_the_nat() {
    let nat = NatNf::new(NAT_IP, 10_000..11_000);
    let flows = 12u32;
    let syns: Vec<Packet> = (0..flows)
        .map(|i| PacketBuilder::new().tcp(client_tuple(i), 0, 0, TcpFlags::SYN, b""))
        .collect();
    let mut data = Vec::new();
    for j in 0..10u32 {
        for i in 0..flows {
            data.push(PacketBuilder::new().tcp(
                client_tuple(i),
                j,
                0,
                TcpFlags::ACK,
                &payload(i * 99 + j),
            ));
        }
    }
    let config = ThreadedConfig::new(DispatchMode::Sprayer, 4);
    let out = ThreadedMiddlebox::run(&config, &nat, vec![syns, data]);
    assert_eq!(out.forwarded.len(), (flows + flows * 10) as usize);
    assert_eq!(out.stats.nf_drops, 0);
    for pkt in &out.forwarded {
        assert_eq!(
            pkt.tuple().unwrap().src_addr,
            NAT_IP,
            "all egress is translated"
        );
    }
}
