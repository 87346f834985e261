//! Repo-level integration tests: the paper's headline claims, asserted
//! across the whole stack through the public API (what a downstream user
//! would write). Heavier sweeps live in the `sprayer-bench` experiments;
//! these are the fast, always-on versions.

use sprayer::api::{FlowStateApi, NetworkFunction, Verdict};
use sprayer::config::{DispatchMode, MiddleboxConfig, ObsConfig};
use sprayer::coremap::CoreMap;
use sprayer::runtime_sim::MiddleboxSim;
use sprayer::runtime_threads::{ThreadedConfig, ThreadedMiddlebox};
use sprayer_net::flow::splitmix64;
use sprayer_net::{FiveTuple, Packet, PacketBuilder, TcpFlags};
use sprayer_nf::nat::NatNf;
use sprayer_nf::SyntheticNf;
use sprayer_sim::time::LinkSpeed;
use sprayer_sim::Time;

fn payload(i: u32) -> [u8; 8] {
    splitmix64(u64::from(i)).to_be_bytes()
}

/// §1/§5: "when there is a single flow ... Sprayer seamlessly uses the
/// entire capacity" — 8× the processing rate of RSS for an expensive NF.
#[test]
fn sprayer_uses_all_cores_for_one_flow() {
    let mut rates = Vec::new();
    for mode in [DispatchMode::Rss, DispatchMode::Sprayer] {
        let config = MiddleboxConfig::paper_testbed_with_cycles(mode, 10_000);
        let mut mb = MiddleboxSim::new(config, SyntheticNf::for_simulator());
        let t = FiveTuple::tcp(0x0a000001, 40_000, 0x0a000002, 443);
        mb.ingress(
            Time::ZERO,
            PacketBuilder::new().tcp(t, 0, 0, TcpFlags::SYN, b""),
        );
        let gap = LinkSpeed::TEN_GBE.frame_time(60);
        let horizon = Time::from_ms(10);
        let mut now = Time::ZERO;
        let mut i = 0u32;
        while now < horizon {
            now += gap;
            i += 1;
            mb.ingress(
                now,
                PacketBuilder::new().tcp(t, i, 0, TcpFlags::ACK, &payload(i)),
            );
        }
        mb.advance_until(horizon);
        rates.push(mb.stats().processed() as f64 / horizon.as_secs_f64());
    }
    let speedup = rates[1] / rates[0];
    assert!(
        (6.5..9.0).contains(&speedup),
        "Sprayer should be ~8x RSS for one flow at 10k cycles, got {speedup:.2}x"
    );
}

/// §3.2/§3.3: write partition — flow state written only at the designated
/// core, readable everywhere, with connection packets redirected there.
#[test]
fn write_partition_holds_under_spraying() {
    let config = MiddleboxConfig::paper_testbed(DispatchMode::Sprayer);
    let map = CoreMap::new(DispatchMode::Sprayer, 8);
    let mut mb = MiddleboxSim::new(config, SyntheticNf::for_simulator());
    let mut now = Time::ZERO;
    for f in 0..48u32 {
        let t = FiveTuple::tcp(0x0a000000 + f, 40_000, 0xc0a80001, 443);
        now += Time::from_us(3);
        mb.ingress(now, PacketBuilder::new().tcp(t, 0, 0, TcpFlags::SYN, b""));
    }
    mb.run_until(now + Time::from_ms(5));
    for f in 0..48u32 {
        let t = FiveTuple::tcp(0x0a000000 + f, 40_000, 0xc0a80001, 443);
        let d = map.designated_for_tuple(&t);
        assert!(
            mb.tables().peek(d, &t.key()).is_some(),
            "flow {f} state on designated core"
        );
        for core in 0..8 {
            if core != d {
                assert!(
                    mb.tables().peek(core, &t.key()).is_none(),
                    "flow {f} state must exist nowhere else"
                );
            }
        }
    }
}

/// §5 (Fig. 9 mechanism): per-core load under spraying is near-uniform
/// for a single flow; under RSS it is maximally skewed.
#[test]
fn spraying_balances_per_core_load() {
    let mut indices = Vec::new();
    for mode in [DispatchMode::Rss, DispatchMode::Sprayer] {
        let config = MiddleboxConfig::paper_testbed_with_cycles(mode, 1_000);
        let mut mb = MiddleboxSim::new(config, SyntheticNf::for_simulator());
        let t = FiveTuple::tcp(0x0a000001, 40_000, 0x0a000002, 443);
        let mut now = Time::ZERO;
        mb.ingress(now, PacketBuilder::new().tcp(t, 0, 0, TcpFlags::SYN, b""));
        for i in 0..4_000u32 {
            now += Time::from_us(1);
            mb.ingress(
                now,
                PacketBuilder::new().tcp(t, i, 0, TcpFlags::ACK, &payload(i)),
            );
        }
        mb.run_until(now + Time::from_ms(10));
        let shares: Vec<f64> = mb
            .stats()
            .per_core_processed()
            .iter()
            .map(|&c| c as f64)
            .collect();
        indices.push(sprayer_sim::stats::jain_fairness_index(&shares));
    }
    assert!(
        indices[0] < 0.2,
        "RSS: one of eight cores busy, Jain ~1/8, got {}",
        indices[0]
    );
    assert!(
        indices[1] > 0.99,
        "Sprayer: all cores equal, got {}",
        indices[1]
    );
}

/// §4: non-TCP traffic is not sprayed — it falls back to per-flow RSS.
#[test]
fn udp_is_never_sprayed() {
    let config = MiddleboxConfig::paper_testbed(DispatchMode::Sprayer);
    let mut mb = MiddleboxSim::new(config, SyntheticNf::for_simulator());
    let t = FiveTuple::udp(0x0a000001, 5_000, 0x0a000002, 53);
    let mut now = Time::ZERO;
    for i in 0..200u32 {
        now += Time::from_us(1);
        mb.ingress(now, PacketBuilder::new().udp(t, &payload(i)));
    }
    mb.run_until(now + Time::from_ms(5));
    let busy = mb
        .stats()
        .per_core
        .iter()
        .filter(|c| c.processed > 0)
        .count();
    assert_eq!(busy, 1, "a UDP flow must stay on its RSS core");
}

/// The two runtimes (deterministic simulator, real threads) agree on NF
/// outcomes for identical inputs.
#[test]
fn runtimes_agree_on_nat_outcomes() {
    const NAT_IP: u32 = 0xc633_640a;
    let flows = 10u32;
    let tuple = |f: u32| FiveTuple::tcp(0x0a000000 + f, 40_000, 0x5db8_d800 + f, 443);

    // Threaded runtime.
    let nat = NatNf::new(NAT_IP, 10_000..11_000);
    let syns: Vec<Packet> = (0..flows)
        .map(|f| PacketBuilder::new().tcp(tuple(f), 0, 0, TcpFlags::SYN, b""))
        .collect();
    let mut data = Vec::new();
    for j in 0..10u32 {
        for f in 0..flows {
            data.push(PacketBuilder::new().tcp(
                tuple(f),
                j,
                0,
                TcpFlags::ACK,
                &payload(f * 100 + j),
            ));
        }
    }
    let config = ThreadedConfig::new(DispatchMode::Sprayer, 4);
    let threaded = ThreadedMiddlebox::run(&config, &nat, vec![syns, data.clone()]);

    // Simulator runtime, same packets.
    let config = MiddleboxConfig::paper_testbed(DispatchMode::Sprayer);
    let mut mb = MiddleboxSim::new(config, NatNf::new(NAT_IP, 10_000..11_000));
    let mut now = Time::ZERO;
    for f in 0..flows {
        now += Time::from_us(3);
        mb.ingress(
            now,
            PacketBuilder::new().tcp(tuple(f), 0, 0, TcpFlags::SYN, b""),
        );
    }
    mb.run_until(now + Time::from_ms(2));
    let _ = mb.take_egress();
    for pkt in &data {
        now += Time::from_us(1);
        mb.ingress(now, pkt.clone());
    }
    mb.run_until(now + Time::from_ms(5));
    let sim_egress: Vec<_> = mb.take_egress().collect();

    // Same forward counts, and every egress packet translated.
    assert_eq!(
        threaded.forwarded.len() as u64 - u64::from(flows),
        sim_egress.len() as u64
    );
    for pkt in &threaded.forwarded {
        assert_eq!(pkt.tuple().unwrap().src_addr, NAT_IP);
    }
    for (_, pkt) in &sim_egress {
        assert_eq!(pkt.tuple().unwrap().src_addr, NAT_IP);
    }
}

/// Determinism: identical seeds and inputs give identical statistics.
#[test]
fn simulator_is_deterministic() {
    let run = || {
        let mut config = MiddleboxConfig::paper_testbed_with_cycles(DispatchMode::Sprayer, 3_000);
        config.obs = ObsConfig::latency();
        let mut mb = MiddleboxSim::new(config, SyntheticNf::for_simulator());
        let t = FiveTuple::tcp(1, 2, 3, 4);
        let mut now = Time::ZERO;
        mb.ingress(now, PacketBuilder::new().tcp(t, 0, 0, TcpFlags::SYN, b""));
        for i in 0..2_000u32 {
            now += Time::from_ns(700);
            mb.ingress(
                now,
                PacketBuilder::new().tcp(t, i, 0, TcpFlags::ACK, &payload(i)),
            );
        }
        mb.run_until(now + Time::from_ms(5));
        (
            mb.stats().forwarded,
            mb.stats().per_core_processed(),
            mb.probes().expect("latency probes on").sojourn_ns.clone(),
        )
    };
    assert_eq!(run(), run());
}

/// A custom user NF exercising the batch API works under both modes.
#[test]
fn batch_get_flows_works_under_both_modes() {
    struct BatchNf;
    impl NetworkFunction for BatchNf {
        type Flow = u8;
        fn descriptor(&self) -> sprayer::api::NfDescriptor {
            sprayer::api::NfDescriptor::named("batcher")
        }
        fn connection_packets(&self, pkt: &mut Packet, ctx: &mut dyn FlowStateApi<u8>) -> Verdict {
            if let Some(t) = pkt.tuple() {
                ctx.insert_local_flow(t.key(), 7);
            }
            Verdict::Forward
        }
        fn regular_packets(&self, pkt: &mut Packet, ctx: &mut dyn FlowStateApi<u8>) -> Verdict {
            let Some(t) = pkt.tuple() else {
                return Verdict::Drop;
            };
            // The batched lookup of §3.4.
            let keys = [t.key(), t.reversed().key()];
            let mut out = Vec::new();
            ctx.get_flows(&keys, &mut out);
            if out.iter().all(|o| o.is_some()) {
                Verdict::Forward
            } else {
                Verdict::Drop
            }
        }
    }

    for mode in [DispatchMode::Rss, DispatchMode::Sprayer] {
        let config = MiddleboxConfig::paper_testbed(mode);
        let mut mb = MiddleboxSim::new(config, BatchNf);
        let t = FiveTuple::tcp(9, 9, 8, 8);
        let mut now = Time::ZERO;
        mb.ingress(now, PacketBuilder::new().tcp(t, 0, 0, TcpFlags::SYN, b""));
        for i in 0..100u32 {
            now += Time::from_us(1);
            mb.ingress(
                now,
                PacketBuilder::new().tcp(t, i, 0, TcpFlags::ACK, &payload(i)),
            );
        }
        mb.run_until(now + Time::from_ms(5));
        assert_eq!(
            mb.stats().forwarded,
            101,
            "{mode}: batch lookups must resolve"
        );
    }
}
