//! Criterion microbenchmarks for the hot-path primitives.
//!
//! These are *host* benchmarks (they measure this machine, not the
//! paper's Xeon); their role is relative: confirming that the costs the
//! cycle model charges are ordered sensibly (Toeplitz < parse < spray
//! classify ≈ flow-table op ≪ a 10k-cycle NF body) and catching
//! regressions in the simulator's own throughput.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sprayer::api::FlowStateApi;
use sprayer::config::{DispatchMode, MiddleboxConfig};
use sprayer::coremap::CoreMap;
use sprayer::runtime_sim::MiddleboxSim;
use sprayer::tables::LocalTables;
use sprayer_net::flow::splitmix64;
use sprayer_net::{internet_checksum, FiveTuple, Packet, PacketBuilder, TcpFlags};
use sprayer_nf::dpi::Automaton;
use sprayer_nf::SyntheticNf;
use sprayer_nic::toeplitz::{hash_v4_tuple, MICROSOFT_KEY, SYMMETRIC_KEY};
use sprayer_nic::{Nic, NicConfig};
use sprayer_sim::Time;

fn tuple(i: u64) -> FiveTuple {
    let r = splitmix64(i);
    FiveTuple::tcp((r >> 32) as u32, (r >> 16) as u16, r as u32, 443)
}

fn bench_hashes(c: &mut Criterion) {
    let mut g = c.benchmark_group("hash");
    let t = tuple(1);
    g.bench_function("toeplitz_microsoft", |b| {
        b.iter(|| hash_v4_tuple(black_box(&MICROSOFT_KEY), black_box(&t)))
    });
    g.bench_function("toeplitz_symmetric", |b| {
        b.iter(|| hash_v4_tuple(black_box(&SYMMETRIC_KEY), black_box(&t)))
    });
    g.bench_function("flowkey_stable_hash", |b| {
        b.iter(|| black_box(&t).key().stable_hash())
    });
    g.finish();
}

fn bench_packet_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("packet");
    let built = PacketBuilder::new().tcp(tuple(2), 1, 2, TcpFlags::ACK, &[0u8; 10]);
    let bytes = built.bytes().to_vec();
    g.bench_function("build_64B_tcp", |b| {
        b.iter(|| PacketBuilder::new().tcp(black_box(tuple(2)), 1, 2, TcpFlags::ACK, &[0u8; 10]))
    });
    g.bench_function("parse_64B_tcp", |b| {
        b.iter(|| Packet::parse(black_box(bytes.clone())).unwrap())
    });
    g.bench_function("checksum_1460B", |b| {
        let payload = vec![0xabu8; 1460];
        b.iter(|| internet_checksum(black_box(&payload)))
    });
    let mut nat_pkt = built.clone();
    g.bench_function("nat_rewrite_incremental", |b| {
        b.iter(|| {
            nat_pkt
                .rewrite_src(black_box(0xc6336401), black_box(10_000))
                .unwrap()
        })
    });
    g.finish();
}

fn bench_nic(c: &mut Criterion) {
    let mut g = c.benchmark_group("nic");
    let pkts: Vec<Packet> = (0..256)
        .map(|i| {
            PacketBuilder::new().tcp(
                tuple(3),
                i,
                0,
                TcpFlags::ACK,
                &splitmix64(u64::from(i)).to_be_bytes(),
            )
        })
        .collect();
    let mut rss = Nic::new(NicConfig::rss(8));
    g.bench_function("steer_rss", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % pkts.len();
            rss.steer(black_box(&pkts[i]))
        })
    });
    let mut spray = Nic::new(NicConfig::sprayer(8));
    g.bench_function("steer_spray", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % pkts.len();
            spray.steer(black_box(&pkts[i]))
        })
    });
    g.finish();
}

fn bench_flow_table(c: &mut Criterion) {
    let mut g = c.benchmark_group("flow_table");
    let map = CoreMap::new(DispatchMode::Sprayer, 8);
    let mut tables: LocalTables<u64> = LocalTables::new(map.clone(), 1 << 16);
    let keys: Vec<_> = (0..1024u64).map(|i| tuple(i).key()).collect();
    for k in &keys {
        let d = map.designated_for_key(k);
        tables.ctx(d).insert_local_flow(*k, 1);
    }
    g.bench_function("get_flow_foreign", |b| {
        let ctx = tables.ctx(0);
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % keys.len();
            ctx.get_flow(black_box(&keys[i]))
        })
    });
    g.bench_function("insert_remove_local", |b| {
        let mut ctx = tables.ctx(3);
        let k = tuple(999_999).key();
        b.iter(|| {
            ctx.insert_local_flow(black_box(k), 9);
            ctx.remove_local_flow(black_box(&k))
        })
    });
    g.finish();
}

fn bench_dpi(c: &mut Criterion) {
    let mut g = c.benchmark_group("dpi");
    let ac = Automaton::compile(&["attack", "malware", "exploit", "GET /admin", "0day"]);
    let payload: Vec<u8> = (0..1460u32)
        .map(|i| (splitmix64(u64::from(i)) & 0x7f) as u8)
        .collect();
    g.bench_function("aho_corasick_1460B", |b| {
        b.iter(|| {
            let mut n = 0u32;
            ac.scan(0, black_box(&payload), &mut |_| n += 1);
            n
        })
    });
    g.finish();
}

fn bench_simulator(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator");
    g.sample_size(10);
    // End-to-end simulator throughput: packets simulated per wall second.
    g.bench_function("middlebox_10k_packets_spray", |b| {
        b.iter(|| {
            let config = MiddleboxConfig::paper_testbed_with_cycles(DispatchMode::Sprayer, 1_000);
            let mut mb = MiddleboxSim::new(config, SyntheticNf::for_simulator());
            let t = tuple(4);
            let mut now = Time::ZERO;
            mb.ingress(now, PacketBuilder::new().tcp(t, 0, 0, TcpFlags::SYN, b""));
            for i in 0..10_000u32 {
                now += Time::from_ns(700);
                mb.ingress(
                    now,
                    PacketBuilder::new().tcp(
                        t,
                        i,
                        0,
                        TcpFlags::ACK,
                        &splitmix64(u64::from(i)).to_be_bytes(),
                    ),
                );
            }
            mb.run_until(now + Time::from_ms(100));
            black_box(mb.stats().forwarded)
        })
    });
    g.finish();
}

fn bench_obs(c: &mut Criterion) {
    use sprayer::config::ObsConfig;
    use sprayer::runtime_threads::{ThreadedConfig, ThreadedMiddlebox};
    // Observability overhead budget. The acceptance pair is
    // `dataplane_disabled` vs `dataplane_tracing`: the threaded runtime
    // doing real per-packet NF work (the paper's featured 5k-cycle
    // point) with tracing off/on — tracing must cost ≤5% of dataplane
    // throughput, and `disabled` must match the pre-obs baseline.
    //
    // The `sim_*` entries measure the same toggle on the event-driven
    // simulator. There the denominator is simulator wall time (~250 ns
    // to *simulate* a packet, far less than to process one), so the
    // fixed ~10 ns/event recording cost is amplified well past 5%;
    // those entries are tracked for regressions, not held to the
    // dataplane budget.
    let mut g = c.benchmark_group("obs");
    g.sample_size(10);
    let run_threaded = |obs: ObsConfig| {
        let t = tuple(4);
        let mut phases = vec![
            vec![PacketBuilder::new().tcp(t, 0, 0, TcpFlags::SYN, b"")],
            Vec::with_capacity(10_000),
        ];
        for i in 0..10_000u32 {
            phases[1].push(PacketBuilder::new().tcp(
                t,
                i,
                0,
                TcpFlags::ACK,
                &splitmix64(u64::from(i)).to_be_bytes(),
            ));
        }
        let mut config = ThreadedConfig::new(DispatchMode::Sprayer, 2);
        config.obs = obs;
        let out = ThreadedMiddlebox::run(&config, &SyntheticNf::spinning(5_000), phases);
        black_box(out.stats.forwarded)
    };
    g.bench_function("dataplane_disabled_10k_packets", |b| {
        b.iter(|| run_threaded(ObsConfig::disabled()))
    });
    g.bench_function("dataplane_tracing_10k_packets", |b| {
        b.iter(|| run_threaded(ObsConfig::tracing()))
    });
    // Time-series sampling at the default 100 µs interval: one clock
    // read + one delta record per *batch*, so it shares tracing's ≤5%
    // budget with a wide margin.
    g.bench_function("dataplane_sampling_10k_packets", |b| {
        b.iter(|| run_threaded(ObsConfig::sampling()))
    });
    // Stage profiling is also per-batch (a handful of clock reads per
    // batch), so it stays inside the ≤5% budget —
    // `tests/obs_overhead.rs` enforces the budget as a test.
    g.bench_function("dataplane_profiling_10k_packets", |b| {
        b.iter(|| run_threaded(ObsConfig::profiling()))
    });
    // Profiling + health bus + sampling together: everything the online
    // health plane adds at batch grain. The reorder sketch is excluded
    // here because it is per-packet (like tracing, it stamps every
    // descriptor and walks each completed batch); its toggle rides the
    // tracing entry's budget.
    g.bench_function("dataplane_health_10k_packets", |b| {
        b.iter(|| {
            run_threaded(ObsConfig {
                health: true,
                sample: true,
                ..ObsConfig::profiling()
            })
        })
    });
    let run_sim = |obs: ObsConfig| {
        let mut config = MiddleboxConfig::paper_testbed_with_cycles(DispatchMode::Sprayer, 1_000);
        config.obs = obs;
        let mut mb = MiddleboxSim::new(config, SyntheticNf::for_simulator());
        let t = tuple(4);
        let mut now = Time::ZERO;
        mb.ingress(now, PacketBuilder::new().tcp(t, 0, 0, TcpFlags::SYN, b""));
        for i in 0..10_000u32 {
            now += Time::from_ns(700);
            mb.ingress(
                now,
                PacketBuilder::new().tcp(
                    t,
                    i,
                    0,
                    TcpFlags::ACK,
                    &splitmix64(u64::from(i)).to_be_bytes(),
                ),
            );
        }
        mb.run_until(now + Time::from_ms(100));
        black_box(mb.stats().forwarded)
    };
    g.bench_function("sim_disabled_10k_packets", |b| {
        b.iter(|| run_sim(ObsConfig::disabled()))
    });
    g.bench_function("sim_latency_10k_packets", |b| {
        b.iter(|| run_sim(ObsConfig::latency()))
    });
    g.bench_function("sim_sampling_10k_packets", |b| {
        b.iter(|| run_sim(ObsConfig::sampling()))
    });
    g.bench_function("sim_tracing_10k_packets", |b| {
        b.iter(|| run_sim(ObsConfig::tracing()))
    });
    g.bench_function("sim_health_plane_10k_packets", |b| {
        b.iter(|| run_sim(ObsConfig::health_plane()))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_hashes,
    bench_packet_path,
    bench_nic,
    bench_flow_table,
    bench_dpi,
    bench_simulator,
    bench_obs
);
criterion_main!(benches);
