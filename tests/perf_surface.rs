//! The frozen benchmark's imports, pinned in tier-1.
//!
//! `perf/` is a workspace of its own that compiles against the product
//! by name, and it is not edited when the product changes. A rename or
//! a changed signature it depends on otherwise shows only when
//! `tests/perf_contract.rs` builds `perf/` in release. This file uses
//! every workspace name `perf/src` imports, called the way `perf/`
//! calls it, in a debug build that runs in well under a second.
//!
//! Which `perf/` metric reads each name:
//!
//! | Name | Metric |
//! |---|---|
//! | `engine::Engine` (a local picker, `redirect_target`) | `walk.sum_ns`, `walk.coverage` |
//! | `engine::{PacketClass, run_nf_batch}`, `api::{NetworkFunction, FlowStateApi, Verdict, VerdictSink}` | `engine.classify_ns`, `engine.nf_batch_*_ns`, `engine.nf_conn_firewall_ns`, `ring.*`, the walk |
//! | `coremap::CoreMap::new(DispatchMode, n)` | `coremap.designate_ns`, `tables.*`, `scr.replay_ns`, the walk |
//! | `tables::{LocalTables::{new, ctx}, SharedTables::{new, with_lifecycle, ctx, apply_replica}, SharedCtx}` | `tables.*`, `scr.replay_ns`, the walk |
//! | `scr::SharedScrPlane::{new, assign_seq, try_send, publish, pop}`, `StateUpdate`, `UpdateOp` | `scr.publish_ns`, `scr.replay_ns` |
//! | `scr::ScrReplica::{new, note_local, admit}` | `scr.publish_ns`, `scr.replay_ns` |
//! | `runtime_threads::{ThreadedConfig::new, ThreadedMiddlebox::run, ThreadedOutcome}` and the fields `perf/` sets | `pkt_ns.*`, `peak_rss_mb`, `setup_s` on `steady` and `churn`; `runtime_threads.*` |
//! | `config::{DispatchMode, ObsConfig, LifecycleConfig, MiddleboxConfig::paper_testbed_with_cycles}` | every workload's modes and planes |
//! | `runtime_sim::MiddleboxSim::{new, ingress, advance_until}`, `stats::MiddleboxStats` | `runtime_sim.*`, the `simrate` walk, every workload's checks |
//! | `sprayer_bench::scenarios::{rate, tcp}::run` | `pkt_ns.*` on `simtcp` and `simrate`, `perf/expected.json` digests |
//! | `sprayer_obs::{TraceEvent (seven fields), TraceRing::{new, push}}` | `obs.trace_push_ns` |
//! | `sprayer_obs::{Histogram, ReorderSketch, TailTracker, TailSpans, FlightRing, FlightEvent, FlightKind, TimeSeries, Stage, JsonValue}` | `obs.*`, the walk's stages, the report |
//! | `sprayer_nic::{Nic, NicConfig}` | `nic.steer_*_ns`, `nic.spray_jain`, the walk |
//! | `sprayer_net::{checksum::internet_checksum, flow::splitmix64, FiveTuple, FlowKey, Packet, PacketBuilder, TcpFlags}` | `net.*`, every input generator |
//! | `sprayer_nf::{SyntheticNf, FirewallNf, MonitorNf, NatNf, DpiNf, firewall::{AclRule, Action}}` | `engine.nf_*`, `steady`, `churn` |
//! | `sprayer_sim::{Model, Scheduler, Simulation, Time}` | `sim.sched_ns`, every simulated horizon |
//! | `sprayer_tcp::{Sender, SenderConfig, Cubic, Receiver, AckAction, AckInfo}` | `tcpsim.*_ns_per_seg` |
//! | `sprayer_trafficgen::moongen::{MoonGen, Arrivals}` | `trafficgen.moongen_ns`, every input generator |

use sprayer::api::{FlowStateApi, NetworkFunction, Verdict, VerdictSink};
use sprayer::config::{DispatchMode, LifecycleConfig, MiddleboxConfig, ObsConfig};
use sprayer::coremap::CoreMap;
use sprayer::engine::{self, Engine, PacketClass};
use sprayer::runtime_sim::MiddleboxSim;
use sprayer::runtime_threads::{ThreadedConfig, ThreadedMiddlebox, ThreadedOutcome};
use sprayer::scr::{ScrReplica, SharedScrPlane, StateUpdate, UpdateOp};
use sprayer::stats::MiddleboxStats;
use sprayer::tables::{LocalTables, SharedCtx, SharedTables};
use sprayer_bench::scenarios::{rate, tcp};
use sprayer_net::checksum::internet_checksum;
use sprayer_net::flow::splitmix64;
use sprayer_net::{FiveTuple, FlowKey, Packet, PacketBuilder, TcpFlags};
use sprayer_nf::firewall::{AclRule, Action};
use sprayer_nf::{DpiNf, FirewallNf, MonitorNf, NatNf, SyntheticNf};
use sprayer_nic::{Nic, NicConfig};
use sprayer_obs::{
    FlightEvent, FlightKind, FlightRing, Histogram, JsonValue, ReorderSketch, Stage, TailSpans,
    TailTracker, TimeSeries, TraceEvent, TraceRing,
};
use sprayer_sim::{Model, Scheduler, Simulation, Time};
use sprayer_tcp::{AckAction, AckInfo, Cubic, Receiver, Sender, SenderConfig};
use sprayer_trafficgen::moongen::{Arrivals, MoonGen};

fn packets(n: u32, flags: TcpFlags) -> Vec<Packet> {
    (0..n)
        .map(|i| {
            let t = FiveTuple::tcp(0x0a00_0000 + i, 40_000, 0xc0a8_0001, 443);
            PacketBuilder::new().tcp(t, 1, 0, flags, b"payload")
        })
        .collect()
}

/// The walk's own redirect decision: `Engine` over its core map.
struct Picker<'a> {
    map: &'a CoreMap,
    stateless: bool,
}

impl Engine for Picker<'_> {
    fn mode(&self) -> DispatchMode {
        self.map.mode()
    }
    fn stateless(&self) -> bool {
        self.stateless
    }
    fn designated_core(&self, key: &FlowKey) -> usize {
        self.map.designated_for_key(key)
    }
}

#[test]
fn the_walk_and_the_engine_layers() {
    let map = CoreMap::new(DispatchMode::Sprayer, 2);
    let picker = Picker {
        map: &map,
        stateless: false,
    };
    let nf = SyntheticNf::spinning(0);
    let tables: SharedTables<<SyntheticNf as NetworkFunction>::Flow> = SharedTables::with_lifecycle(
        map.clone(),
        nf.config().flow_table_capacity,
        LifecycleConfig::disabled(),
    );
    let mut ctxs: Vec<SharedCtx<_>> = (0..2).map(|w| tables.ctx(w)).collect();
    let mut nic = Nic::new(NicConfig::sprayer_uncapped(2));
    let mut sink = VerdictSink::with_capacity(32);
    let mut pkts = packets(8, TcpFlags::SYN);
    let mut redirected = 0;
    for p in &pkts {
        let class = PacketClass::of(p);
        let (queue, _) = nic.steer(p);
        redirected += usize::from(picker.redirect_target(&class, usize::from(queue)).is_some());
    }
    assert!(
        redirected > 0,
        "some SYN lands away from its designated core"
    );
    let conn = vec![true; pkts.len()];
    let done = engine::run_nf_batch(&nf, &mut pkts, &conn, &mut ctxs[0], &mut sink);
    assert_eq!(done, 8);
    assert!(sink.verdicts().iter().all(|v| *v == Verdict::Forward));
    let _ = Stage::Nf;
    let _ = NicConfig::rss(2);

    let monitor = MonitorNf::new(1);
    let nat = NatNf::new(0xc633_6401, 10_000..20_000);
    let dpi = DpiNf::new(&["attack", "exploit", "/etc/passwd"]);
    let fw = FirewallNf::new(vec![
        AclRule {
            dst_port: Some(80),
            ..AclRule::default_action(Action::Deny)
        },
        AclRule::allow_dst_port(443),
        AclRule::default_action(Action::Deny),
    ]);
    nf_batch(&monitor);
    nf_batch(&nat);
    nf_batch(&dpi);
    nf_batch(&fw);
}

/// One `run_nf_batch`, as `engine.nf_batch_*_ns` calls it per NF.
fn nf_batch<NF: NetworkFunction>(nf: &NF) {
    let tables = SharedTables::new(CoreMap::new(DispatchMode::Sprayer, 1), 1 << 10);
    let mut ctx = tables.ctx(0);
    let mut pkts = packets(4, TcpFlags::ACK);
    let mut sink = VerdictSink::with_capacity(4);
    engine::run_nf_batch(nf, &mut pkts, &[false; 4], &mut ctx, &mut sink);
    assert_eq!(sink.verdicts().len(), 4);
}

#[test]
fn the_table_and_scr_layers() {
    let keys: Vec<FlowKey> = packets(16, TcpFlags::SYN)
        .iter()
        .map(|p| p.tuple().unwrap().key())
        .collect();
    let mut local: LocalTables<u64> =
        LocalTables::new(CoreMap::new(DispatchMode::Sprayer, 1), 1 << 10);
    for k in &keys {
        local.ctx(0).insert_local_flow(*k, 7);
    }
    assert_eq!(local.ctx(0).get_local_flow(&keys[0]), Some(7));
    let aging: SharedTables<u64> = SharedTables::with_lifecycle(
        CoreMap::new(DispatchMode::Sprayer, 1),
        1 << 10,
        LifecycleConfig::bounded(1_000),
    );
    aging.ctx(0).insert_local_flow(keys[0], 1);

    // scr.publish_ns
    let put_op = |k: &FlowKey| UpdateOp::Put(*k, 7u64);
    let (plane, mut replica) = (SharedScrPlane::<u64>::new(2, 64), ScrReplica::new());
    for k in &keys {
        let seq = plane.assign_seq();
        replica.note_local(*k, seq, false);
        let update = StateUpdate {
            seq,
            origin: 0,
            op: put_op(k),
        };
        assert!(plane.try_send(1, update).is_ok(), "the log has room");
    }
    // scr.replay_ns
    let plane = SharedScrPlane::<u64>::new(2, 64);
    for k in &keys {
        plane.publish(0, &put_op(k), &[true, true]);
    }
    let tables: SharedTables<u64> = SharedTables::new(CoreMap::new(DispatchMode::Scr, 2), 1 << 10);
    let mut replica = ScrReplica::new();
    let mut n = 0;
    while let Some(update) = plane.pop(1) {
        replica.admit(*update.op.key(), update.seq, false);
        tables.apply_replica(1, &update.op);
        n += 1;
    }
    assert_eq!(n, keys.len());
}

#[test]
fn the_obs_primitives() {
    let event = |i: u64| TraceEvent {
        seq: i,
        ts: i * 100,
        core: (i % 2) as u16,
        kind: sprayer_obs::EventKind::NfDone,
        flow: splitmix64(i % 64),
        pkt: i,
        aux: 0,
    };
    let mut ring = TraceRing::new(4);
    assert!((0..4).all(|i| ring.push(event(i))) && !ring.push(event(4)));
    Histogram::latency().record(200);
    ReorderSketch::new(32, 4096).on_complete(0, splitmix64(1), 1);
    let spans = TailSpans {
        queue_wait: 1,
        classify: 0,
        redirect_transit: 0,
        nf: 200,
        tx: 0,
    };
    TailTracker::new(2, 0).on_complete(0, spans);
    FlightRing::new(16).push(FlightEvent {
        ts: 1,
        kind: FlightKind::Batch,
        a: 32,
        b: 1,
    });
    TimeSeries::new(100_000, 512).record(10_000, |s| s.processed += 32);
    let _: Option<JsonValue> = None;
    assert_ne!(internet_checksum(&[1, 2, 3]), 0);
}

struct Ticker {
    left: u64,
}

impl Model for Ticker {
    type Event = ();
    fn handle(&mut self, _now: Time, _event: (), sched: &mut Scheduler<()>) {
        if self.left > 0 {
            self.left -= 1;
            sched.after(Time::from_ns(64), ());
        }
    }
}

#[test]
fn the_sim_tcp_and_generator_layers() {
    let _ = Simulation::new(Ticker { left: 8 });
    let mut sender = Sender::new(SenderConfig::default(), Box::new(Cubic::new(1460, 10)));
    let mut receiver = Receiver::new(0);
    let seg = sender.poll_segment(Time::ZERO).expect("an initial window");
    if let AckAction::Immediate(info) = receiver.on_segment(seg.seq, u64::from(seg.len)) {
        sender.on_ack(Time::from_us(100), info);
    }
    if let Some(ack) = receiver.flush_delayed() {
        let info = AckInfo {
            ack,
            sack: None,
            dsack: None,
        };
        sender.on_ack(Time::from_us(100), info);
    }
    let mut gen = MoonGen::new(64, 1.0e6, Arrivals::Constant, 1);
    let _ = gen.flows().len();
    let (_at, _pkt): (Time, Packet) = gen.next_packet();

    let config = MiddleboxConfig::paper_testbed_with_cycles(DispatchMode::Sprayer, 1_000);
    let mut mb = MiddleboxSim::new(config, SyntheticNf::for_simulator());
    for p in packets(4, TcpFlags::SYN) {
        mb.ingress(Time::ZERO, p);
    }
    mb.advance_until(Time::from_ms(1));
    let s: &MiddleboxStats = mb.stats();
    assert_eq!(s.unaccounted(), 0);
}

#[test]
fn the_runtimes_and_scenarios() {
    // `steady` and `churn`: the config perf builds, and its profiled copy.
    let mut cfg = ThreadedConfig::new(DispatchMode::Sprayer, 2);
    cfg.ingress_retries = usize::MAX;
    cfg.obs = ObsConfig::disabled();
    cfg.lifecycle = LifecycleConfig::bounded(10_000_000);
    let profiled = ThreadedConfig {
        obs: ObsConfig::profiling(),
        ..cfg.clone()
    };
    let phases = vec![packets(8, TcpFlags::SYN), packets(8, TcpFlags::ACK)];
    let out: ThreadedOutcome = ThreadedMiddlebox::run(&profiled, &SyntheticNf::spinning(0), phases);
    assert_eq!(out.forwarded.len(), 16);
    assert_eq!(out.stats.unaccounted(), 0);
    let _ = ObsConfig {
        trace: true,
        ..ObsConfig::disabled()
    };

    // `simrate` and `simtcp`, at a few simulated microseconds.
    let r = rate::run(&rate::RateConfig {
        offered_pps: Some(1.0e6),
        duration: Time::from_us(50),
        obs: ObsConfig::disabled(),
        ..rate::RateConfig::paper(DispatchMode::Sprayer, 1_000, 64, 1)
    });
    assert_eq!(r.stats.unaccounted(), 0);
    let mut cfg = tcp::TcpConfig::paper(DispatchMode::Sprayer, 10_000, 2, 1);
    cfg.obs = ObsConfig::disabled();
    cfg.warmup = Time::from_us(100);
    cfg.duration = Time::from_us(100);
    let r = tcp::run(&cfg);
    let _ = (&r.delivered, r.fast_retransmits, r.rtos, r.probes);
    let _ = (r.spurious, r.ooo_arrivals, r.dup_acks, r.stats.offered);
}
