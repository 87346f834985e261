//! Per-layer micro-benchmarks: each times calls into one layer's public
//! functions from outside. They do not depend on the workload; the
//! traced run of every workload reports all of them, so a layer that a
//! workload never crosses can be seen to stay flat there.

use crate::measure::{bench, bench_loop};
use crate::Metric;
use crossbeam::queue::ArrayQueue;
use sprayer::api::{FlowStateApi, NetworkFunction, VerdictSink};
use sprayer::config::{DispatchMode, LifecycleConfig, MiddleboxConfig};
use sprayer::coremap::CoreMap;
use sprayer::engine::{self, PacketClass};
use sprayer::runtime_sim::MiddleboxSim;
use sprayer::scr::{ScrReplica, SharedScrPlane, StateUpdate, UpdateOp};
use sprayer::tables::{LocalTables, SharedTables};
use sprayer_net::checksum::internet_checksum;
use sprayer_net::flow::splitmix64;
use sprayer_net::{FiveTuple, FlowKey, Packet, PacketBuilder, TcpFlags};
use sprayer_nf::firewall::AclRule;
use sprayer_nf::{DpiNf, FirewallNf, MonitorNf, NatNf, SyntheticNf};
use sprayer_nic::{Nic, NicConfig};
use sprayer_obs::{
    FlightEvent, FlightKind, FlightRing, Histogram, ReorderSketch, TailSpans, TailTracker,
    TimeSeries, TraceEvent, TraceRing,
};
use sprayer_sim::{Model, Scheduler, Simulation, Time};
use sprayer_tcp::{AckAction, AckInfo, Cubic, Receiver, Sender, SenderConfig};
use sprayer_trafficgen::moongen::{Arrivals, MoonGen};
use std::hint::black_box;
use std::time::Duration;

/// The threaded runtime's RX burst.
const BATCH: usize = 32;

/// Packets per timed sample: long enough that two clock reads vanish.
const N: usize = 4096;

fn tuple(i: u64) -> FiveTuple {
    let r = splitmix64(i);
    FiveTuple::tcp(
        (r >> 32) as u32 | 0x0100_0000,
        (r >> 16) as u16 | 1024,
        r as u32 | 0x0100_0000,
        443,
    )
}

/// `n` data packets over `flows` flows with pseudo-random payloads.
fn data_packets(n: usize, flows: u64, payload: usize) -> Vec<Packet> {
    let builder = PacketBuilder::new();
    let body: Vec<u8> = (0..payload as u64).map(|i| splitmix64(i) as u8).collect();
    (0..n as u64)
        .map(|i| {
            let mut body = body.clone();
            let r = splitmix64(i ^ 0xabcd).to_be_bytes();
            let k = body.len().min(8);
            body[..k].copy_from_slice(&r[..k]);
            builder.tcp(tuple(i % flows), i as u32, 0, TcpFlags::ACK, &body)
        })
        .collect()
}

fn frames(pkts: &[Packet]) -> Vec<Vec<u8>> {
    pkts.iter().map(|p| p.bytes().to_vec()).collect()
}

fn parse_all(raw: Vec<Vec<u8>>) -> Vec<Packet> {
    raw.into_iter()
        .map(|f| Packet::parse(f).expect("built frames parse"))
        .collect()
}

fn keys(n: u64, salt: u64) -> Vec<FlowKey> {
    (0..n).map(|i| tuple(i + salt).key()).collect()
}

/// The metrics measured so far.
struct Sheet(Vec<Metric>);

impl Sheet {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric::new(name, value, unit));
    }

    fn ns(&mut self, name: &str, value: f64) {
        self.put(name, value, "ns");
    }
}

/// Every workload-independent layer metric, each measured for `budget`.
pub fn measure_all(budget: Duration) -> Vec<Metric> {
    let mut sheet = Sheet(Vec::new());
    let small = data_packets(N, 64, 10);
    let mtu = data_packets(N / 8, 64, 1460);

    // net
    let raw = frames(&small);
    sheet.ns(
        "net.parse_ns",
        bench(budget, N as u64, || raw.clone(), parse_all),
    );
    let raw_mtu = frames(&mtu);
    sheet.ns(
        "net.parse_mtu_ns",
        bench(budget, raw_mtu.len() as u64, || raw_mtu.clone(), parse_all),
    );
    sheet.ns(
        "net.emit_ns",
        bench(
            budget,
            N as u64,
            || small.clone(),
            |pkts| pkts.into_iter().map(Packet::into_bytes).collect::<Vec<_>>(),
        ),
    );
    let builder = PacketBuilder::new();
    sheet.ns(
        "net.build_ns",
        bench_loop(budget, N as u64, || {
            (0..N as u64)
                .map(|i| builder.tcp(tuple(i % 64), i as u32, 0, TcpFlags::ACK, b"0123456789"))
                .collect::<Vec<_>>()
        }),
    );
    sheet.ns(
        "net.rewrite_ns",
        bench(
            budget,
            N as u64,
            || small.clone(),
            |mut pkts| {
                for (i, p) in pkts.iter_mut().enumerate() {
                    p.rewrite_src(0xc633_6401, 20_000 + (i % 1000) as u16)
                        .expect("TCP packets rewrite");
                }
                pkts
            },
        ),
    );
    let buf: Vec<u8> = (0..1500u64).map(|i| (splitmix64(i) >> 7) as u8).collect();
    sheet.ns(
        "net.checksum_mtu_ns",
        bench_loop(budget, 256, || {
            for _ in 0..256 {
                black_box(internet_checksum(black_box(&buf)));
            }
        }),
    );
    sheet.put(
        "net.packet_bytes",
        (std::mem::size_of::<Packet>() + small[0].len()) as f64,
        "B",
    );

    // nic
    for (name, config) in [
        ("nic.steer_rss_ns", NicConfig::rss(2)),
        ("nic.steer_spray_ns", NicConfig::sprayer_uncapped(2)),
    ] {
        let mut nic = Nic::new(config);
        sheet.ns(
            name,
            bench_loop(budget, N as u64, || {
                for p in &small {
                    black_box(nic.steer(black_box(p)));
                }
            }),
        );
    }
    let mut nic = Nic::new(NicConfig::sprayer_uncapped(8));
    for p in &small {
        nic.steer(p);
    }
    let loads: Vec<f64> = nic
        .queue_counters()
        .iter()
        .map(|c| c.packets as f64)
        .collect();
    let jain = loads.iter().sum::<f64>().powi(2)
        / (loads.len() as f64 * loads.iter().map(|x| x * x).sum::<f64>());
    sheet.put("nic.spray_jain", jain, "count");

    // engine
    sheet.ns(
        "engine.classify_ns",
        bench_loop(budget, N as u64, || {
            for p in &small {
                black_box(PacketClass::of(black_box(p)));
            }
        }),
    );
    sheet.ns(
        "engine.nf_batch_synthetic_ns",
        nf_batch(budget, &SyntheticNf::spinning(0), &small),
    );
    sheet.ns(
        "engine.nf_batch_firewall_ns",
        nf_batch(budget, &allow_all_firewall(), &small),
    );
    sheet.ns(
        "engine.nf_batch_monitor_ns",
        nf_batch(budget, &MonitorNf::new(1), &small),
    );
    sheet.ns(
        "engine.nf_batch_nat_ns",
        nf_batch(budget, &NatNf::new(0xc633_6401, 10_000..20_000), &small),
    );
    sheet.ns(
        "engine.nf_batch_dpi_ns",
        nf_batch(
            budget,
            &DpiNf::new(&["attack", "exploit", "/etc/passwd"]),
            &small,
        ),
    );
    sheet.ns("engine.nf_conn_firewall_ns", nf_conn_firewall(budget));

    // coremap
    let map = CoreMap::new(DispatchMode::Sprayer, 2);
    let some_keys = keys(N as u64, 0);
    sheet.ns(
        "coremap.designate_ns",
        bench_loop(budget, N as u64, || {
            for k in &some_keys {
                black_box(map.designated_for_key(black_box(k)));
            }
        }),
    );

    // tables
    let present = keys(64, 0);
    let absent = keys(64, 1 << 20);
    let shared: SharedTables<u64> =
        SharedTables::new(CoreMap::new(DispatchMode::Sprayer, 1), 1 << 17);
    let mut ctx = shared.ctx(0);
    for k in &present {
        ctx.insert_local_flow(*k, 7);
    }
    let lookups = |ctx: &dyn FlowStateApi<u64>, keys: &[FlowKey]| {
        for _ in 0..N / keys.len() {
            for k in keys {
                black_box(ctx.get_flow(black_box(k)));
            }
        }
    };
    sheet.ns(
        "tables.shared_get_hit_ns",
        bench_loop(budget, N as u64, || lookups(&ctx, &present)),
    );
    sheet.ns(
        "tables.shared_get_miss_ns",
        bench_loop(budget, N as u64, || lookups(&ctx, &absent)),
    );
    // 64 Ki entries probed in a scattered order: the working set (keys,
    // values, stamps) is several MiB, past this host's L2.
    let many = keys(1 << 16, 1 << 24);
    for k in &many {
        ctx.insert_local_flow(*k, 7);
    }
    let scattered: Vec<FlowKey> = (0..N as u64)
        .map(|i| many[(splitmix64(i) % many.len() as u64) as usize])
        .collect();
    sheet.ns(
        "tables.shared_get_hit_64k_ns",
        bench_loop(budget, N as u64, || lookups(&ctx, &scattered)),
    );
    let fresh = keys(N as u64, 1 << 28);
    sheet.ns(
        "tables.shared_insert_remove_ns",
        bench_loop(budget, N as u64, || {
            for k in &fresh {
                ctx.insert_local_flow(*k, 7);
            }
            for k in &fresh {
                black_box(ctx.remove_local_flow(k));
            }
        }),
    );
    let mut local: LocalTables<u64> =
        LocalTables::new(CoreMap::new(DispatchMode::Sprayer, 1), 1 << 17);
    for k in &present {
        local.ctx(0).insert_local_flow(*k, 7);
    }
    sheet.ns(
        "tables.local_get_hit_ns",
        bench_loop(budget, N as u64, || lookups(&local.ctx(0), &present)),
    );
    sheet.ns(
        "tables.local_insert_remove_ns",
        bench_loop(budget, N as u64, || {
            let mut ctx = local.ctx(0);
            for k in &fresh {
                ctx.insert_local_flow(*k, 7);
            }
            for k in &fresh {
                black_box(ctx.remove_local_flow(k));
            }
        }),
    );
    sheet.ns(
        "tables.sweep_ns_per_entry",
        bench(
            budget,
            N as u64,
            || {
                let aging: SharedTables<u64> = SharedTables::with_lifecycle(
                    CoreMap::new(DispatchMode::Sprayer, 1),
                    1 << 17,
                    LifecycleConfig::bounded(1_000),
                );
                let mut ctx = aging.ctx(0);
                for k in &fresh {
                    ctx.insert_local_flow(*k, 7);
                }
                ctx
            },
            |mut ctx| {
                ctx.sweep_idle(1_000_000);
                assert_eq!(ctx.take_evictions().len(), N, "every entry was idle");
            },
        ),
    );

    // scr
    let put_op = |k: &FlowKey| UpdateOp::Put(*k, 7u64);
    sheet.ns(
        "scr.publish_ns",
        bench(
            budget,
            N as u64,
            || (SharedScrPlane::<u64>::new(2, 2 * N), ScrReplica::new()),
            |(plane, mut replica)| {
                for k in &fresh {
                    let seq = plane.assign_seq();
                    replica.note_local(*k, seq, false);
                    let update = StateUpdate {
                        seq,
                        origin: 0,
                        op: put_op(k),
                    };
                    assert!(plane.try_send(1, update).is_ok(), "the log has room");
                }
                (plane, replica)
            },
        ),
    );
    sheet.ns(
        "scr.replay_ns",
        bench(
            budget,
            N as u64,
            || {
                let plane = SharedScrPlane::<u64>::new(2, 2 * N);
                for k in &fresh {
                    plane.publish(0, &put_op(k), &[true, true]);
                }
                let replica_tables: SharedTables<u64> =
                    SharedTables::new(CoreMap::new(DispatchMode::Scr, 2), 1 << 17);
                (plane, ScrReplica::new(), replica_tables)
            },
            |(plane, mut replica, tables)| {
                while let Some(update) = plane.pop(1) {
                    black_box(replica.admit(*update.op.key(), update.seq, false));
                    tables.apply_replica(1, &update.op);
                }
                (plane, replica, tables)
            },
        ),
    );

    // ring
    let desc = |p: &Packet| (p.clone(), PacketClass::of(p), [0u64; 4]);
    let ring = ArrayQueue::new(1024);
    sheet.ns(
        "ring.push_pop_ns",
        bench(
            budget,
            N as u64,
            || small.iter().map(desc).collect::<Vec<_>>(),
            |descs| {
                let mut it = descs.into_iter();
                let mut popped = Vec::with_capacity(N);
                for _ in 0..N / BATCH {
                    for d in it.by_ref().take(BATCH) {
                        assert!(ring.push(d).is_ok(), "the ring has room");
                    }
                    while let Some(d) = ring.pop() {
                        popped.push(d);
                    }
                }
                popped
            },
        ),
    );
    sheet.ns("ring.handoff_ns", ring_handoff(budget, &small));

    // runtime_sim, sim
    let mut sim_config = MiddleboxConfig::paper_testbed_with_cycles(DispatchMode::Sprayer, 1_000);
    // The bursts below arrive in one instant; the 82599's Flow Director
    // rate cap would drop them at the NIC model.
    sim_config.fdir_cap_pps = None;
    let burst = N / 2; // well inside 8 x 512 queue slots
    let new_sim = || {
        let mut mb = MiddleboxSim::new(sim_config.clone(), SyntheticNf::for_simulator());
        for f in 0..64 {
            let syn = PacketBuilder::new().tcp(tuple(f), 0, 0, TcpFlags::SYN, b"");
            mb.ingress(Time::ZERO, syn);
        }
        mb.run_until(Time::from_ms(1));
        mb
    };
    let at = Time::from_ms(1);
    sheet.ns(
        "runtime_sim.ingress_ns",
        bench(
            budget,
            burst as u64,
            || (new_sim(), small[..burst].to_vec()),
            |(mut mb, pkts)| {
                for p in pkts {
                    mb.ingress(at, p);
                }
                mb
            },
        ),
    );
    sheet.ns(
        "runtime_sim.advance_ns",
        bench(
            budget,
            burst as u64,
            || {
                let mut mb = new_sim();
                for p in &small[..burst] {
                    mb.ingress(at, p.clone());
                }
                mb
            },
            |mut mb| {
                mb.advance_until(Time::from_ms(100));
                assert_eq!(mb.stats().processed() as usize, 64 + burst);
                mb
            },
        ),
    );
    sheet.put(
        "runtime_sim.allocs_per_pkt",
        sim_allocs_per_pkt(&new_sim, &small[..burst]),
        "count",
    );
    sheet.ns(
        "sim.sched_ns",
        bench(
            budget,
            N as u64,
            || {
                let mut sim = Simulation::new(Ticker { left: N as u64 });
                // Several chains in flight keep the heap non-trivial.
                for i in 0..64 {
                    sim.schedule(Time::from_ns(i), ());
                }
                sim
            },
            |mut sim| {
                sim.run();
                assert_eq!(sim.events_processed(), N as u64 + 64);
                sim
            },
        ),
    );

    // tcpsim
    let (sender_ns, receiver_ns) = tcp_loop(budget);
    sheet.ns("tcpsim.sender_ns_per_seg", sender_ns);
    sheet.ns("tcpsim.receiver_ns_per_seg", receiver_ns);

    // trafficgen
    let mut gen = MoonGen::new(64, crate::simwl::RATE_PPS, Arrivals::Constant, 1);
    sheet.ns(
        "trafficgen.moongen_ns",
        bench_loop(budget, N as u64, || {
            (0..N).map(|_| gen.next_packet()).collect::<Vec<_>>()
        }),
    );

    // obs primitives, per call
    let event = |i: u64| TraceEvent {
        seq: i,
        ts: i * 100,
        core: (i % 2) as u16,
        kind: sprayer_obs::EventKind::NfDone,
        flow: splitmix64(i % 64),
        pkt: i,
        aux: 0,
    };
    sheet.ns(
        "obs.trace_push_ns",
        bench(
            budget,
            N as u64,
            || TraceRing::new(2 * N),
            |mut ring| {
                for i in 0..N as u64 {
                    ring.push(event(i));
                }
                ring
            },
        ),
    );
    let mut hist = Histogram::latency();
    sheet.ns(
        "obs.hist_record_ns",
        bench_loop(budget, N as u64, || {
            for i in 0..N as u64 {
                hist.record(black_box(200 + (splitmix64(i) & 0xffff)));
            }
        }),
    );
    let mut sketch = ReorderSketch::new(32, 4096);
    let mut ordinal = 0u64;
    sheet.ns(
        "obs.reorder_observe_ns",
        bench_loop(budget, N as u64, || {
            for i in 0..N as u64 {
                ordinal += 1;
                // Every fourth completion overtakes its predecessor.
                let seen = if i % 4 == 0 { ordinal + 1 } else { ordinal };
                black_box(sketch.on_complete((i % 2) as usize, splitmix64(i % 64), seen));
            }
        }),
    );
    let mut tail = TailTracker::new(2, 0);
    sheet.ns(
        "obs.tail_record_ns",
        bench_loop(budget, N as u64, || {
            for i in 0..N as u64 {
                let r = splitmix64(i);
                tail.on_complete(
                    (i % 2) as usize,
                    TailSpans {
                        queue_wait: r & 0xfff,
                        classify: 0,
                        redirect_transit: (r >> 12) & 0xff,
                        nf: 200 + ((r >> 20) & 0xff),
                        tx: 0,
                    },
                );
            }
        }),
    );
    let mut flight = FlightRing::new(1024);
    sheet.ns(
        "obs.flight_record_ns",
        bench_loop(budget, N as u64, || {
            for i in 0..N as u64 {
                flight.push(FlightEvent {
                    ts: i,
                    kind: FlightKind::Batch,
                    a: 32,
                    b: i & 0xff,
                });
            }
        }),
    );
    let mut series = TimeSeries::new(100_000, 512);
    let mut tick = 0u64;
    sheet.ns(
        "obs.sampler_record_ns",
        bench_loop(budget, N as u64, || {
            for _ in 0..N {
                tick += 10_000;
                series.record(tick, |s| s.processed += 32);
            }
        }),
    );
    sheet.0
}

fn allow_all_firewall() -> FirewallNf {
    FirewallNf::new(vec![AclRule::allow_dst_port(443)])
}

/// ns/packet of `run_nf_batch` over batches of 32 regular packets whose
/// flows the NF's own connection handler established first.
fn nf_batch<NF: NetworkFunction>(budget: Duration, nf: &NF, pkts: &[Packet]) -> f64 {
    let tables: SharedTables<NF::Flow> =
        SharedTables::new(CoreMap::new(DispatchMode::Sprayer, 1), 1 << 16);
    let mut ctx = tables.ctx(0);
    for f in 0..64 {
        let mut syn = PacketBuilder::new().tcp(tuple(f), 0, 0, TcpFlags::SYN, b"");
        nf.connection_packets(&mut syn, &mut ctx);
    }
    let conn = [false; BATCH];
    let mut sink = VerdictSink::with_capacity(BATCH);
    // A fresh copy per sample: NFs rewrite headers (TTL, NAT addresses),
    // and a second pass over rewritten packets would be another workload.
    bench(
        budget,
        pkts.len() as u64,
        || pkts.to_vec(),
        |mut pkts| {
            for chunk in pkts.chunks_mut(BATCH) {
                engine::run_nf_batch(nf, chunk, &conn[..chunk.len()], &mut ctx, &mut sink);
                black_box(sink.len());
            }
            pkts
        },
    )
}

/// ns per connection packet through the firewall: SYN, FIN and reverse
/// FIN of `N / 4` flows, in batches of 32 — insert, modify, remove.
fn nf_conn_firewall(budget: Duration) -> f64 {
    let nf = allow_all_firewall();
    let tables = SharedTables::new(CoreMap::new(DispatchMode::Sprayer, 1), 1 << 16);
    let mut ctx = tables.ctx(0);
    let builder = PacketBuilder::new();
    let flows = N as u64 / 4;
    let script: Vec<Packet> = [
        (false, TcpFlags::SYN),
        (false, TcpFlags::FIN | TcpFlags::ACK),
        (true, TcpFlags::FIN | TcpFlags::ACK),
    ]
    .iter()
    .flat_map(|&(reverse, flags)| {
        let builder = &builder;
        (0..flows).map(move |f| {
            let t = tuple(f + (1 << 30));
            builder.tcp(if reverse { t.reversed() } else { t }, 0, 0, flags, b"")
        })
    })
    .collect();
    let conn = [true; BATCH];
    let mut sink = VerdictSink::with_capacity(BATCH);
    bench(
        budget,
        script.len() as u64,
        || script.clone(),
        |mut pkts| {
            for chunk in pkts.chunks_mut(BATCH) {
                engine::run_nf_batch(&nf, chunk, &conn[..chunk.len()], &mut ctx, &mut sink);
            }
            assert_eq!(ctx.local_len(), 0, "every flow opened and closed");
            pkts
        },
    )
}

/// ns per descriptor handed from a producer thread to a consumer thread
/// through one 512-slot queue, both yielding when blocked like the
/// runtime's NIC thread and workers do.
fn ring_handoff(budget: Duration, pkts: &[Packet]) -> f64 {
    let items = 50 * pkts.len();
    bench(
        budget,
        items as u64,
        || ArrayQueue::new(512),
        |queue| {
            std::thread::scope(|s| {
                let consumer = s.spawn(|| {
                    let mut got = 0;
                    while got < items {
                        match queue.pop() {
                            Some(d) => {
                                black_box(d);
                                got += 1;
                            }
                            None => std::thread::yield_now(),
                        }
                    }
                });
                for i in 0..items {
                    let p = &pkts[i % pkts.len()];
                    let mut d = (PacketClass::of(p), [i as u64; 8]);
                    while let Err(back) = queue.push(d) {
                        d = back;
                        std::thread::yield_now();
                    }
                }
                consumer.join().expect("the consumer does not panic");
            });
        },
    )
}

fn sim_allocs_per_pkt(new_sim: &impl Fn() -> MiddleboxSim<SyntheticNf>, pkts: &[Packet]) -> f64 {
    let mut mb = new_sim();
    let pkts = pkts.to_vec();
    let n = pkts.len();
    let before = crate::alloc::snapshot().0;
    crate::alloc::enable(true);
    for p in pkts {
        mb.ingress(Time::from_ms(1), p);
    }
    mb.advance_until(Time::from_ms(100));
    crate::alloc::enable(false);
    (crate::alloc::snapshot().0 - before) as f64 / n as f64
}

/// A no-op model: each event schedules the next until the budget of
/// events is spent, so a run is nothing but heap pushes and pops.
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

/// (sender, receiver) ns per segment of a lossless sender-receiver loop
/// with no middlebox: the whole loop is timed, then the receiver's share
/// is timed alone on the same segment sequence and subtracted.
fn tcp_loop(budget: Duration) -> (f64, f64) {
    const SEGMENTS: usize = 20_000;
    let rtt = Time::from_us(100);
    let drive = |record: &mut Vec<(u64, u64)>| {
        let mut sender = Sender::new(SenderConfig::default(), Box::new(Cubic::new(1460, 10)));
        let mut receiver = Receiver::new(0);
        let mut now = Time::ZERO;
        let mut sent = 0;
        while sent < SEGMENTS {
            if sender.timer_deadline().is_some_and(|d| d <= now) {
                sender.on_timer(now);
            }
            let first = record.len();
            while let Some(seg) = sender.poll_segment(now) {
                record.push((seg.seq, u64::from(seg.len)));
            }
            sent += record.len() - first;
            now += rtt;
            for &(seq, len) in &record[first..] {
                if let AckAction::Immediate(info) = receiver.on_segment(seq, len) {
                    sender.on_ack(now, info);
                }
            }
            if let Some(ack) = receiver.flush_delayed() {
                sender.on_ack(
                    now,
                    AckInfo {
                        ack,
                        sack: None,
                        dsack: None,
                    },
                );
            }
        }
    };
    let mut segments = Vec::new();
    drive(&mut segments);
    let total = bench(
        budget,
        segments.len() as u64,
        || Vec::with_capacity(segments.len()),
        |mut record| {
            drive(&mut record);
            record
        },
    );
    let receiver = bench(
        budget,
        segments.len() as u64,
        || Receiver::new(0),
        |mut receiver| {
            for &(seq, len) in &segments {
                black_box(receiver.on_segment(seq, len));
            }
            receiver
        },
    );
    (total - receiver, receiver)
}
