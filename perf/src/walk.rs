//! The traced run (`--trace 1`): per-layer numbers, in three parts.
//!
//! (a) *Walk*: the workload's first packets replayed on one thread
//! through the layers' public functions in the order a worker calls
//! them, one span per stage per batch of 32, written to
//! `perf/out/<workload>.spans.jsonl`. A stage's cost is its spans' self
//! time. (b) *Runtime counters*: the same workload through the real
//! runtime — plain, with `ObsConfig::profiling()`, and under SCR — for
//! the statistics only the runtime can report. (c) *Reconcile*: the
//! walk's stage costs must add up to the end-to-end cost per packet, or
//! the breakdown is wrong.
//!
//! Spans are recorded here, around the calls into each layer; spans and
//! counters inside the program are a later change.

use crate::measure::Summary;
use crate::threaded::{self, Input, WORKERS};
use crate::{alloc, layers, simwl, Metric, Mode, Report, Size, Workload};
use crossbeam::queue::ArrayQueue;
use sprayer::api::{NetworkFunction, Verdict, VerdictSink};
use sprayer::config::{DispatchMode, MiddleboxConfig, ObsConfig};
use sprayer::coremap::CoreMap;
use sprayer::engine::{self, Engine, PacketClass};
use sprayer::runtime_sim::MiddleboxSim;
use sprayer::runtime_threads::ThreadedConfig;
use sprayer::stats::MiddleboxStats;
use sprayer::tables::{SharedCtx, SharedTables};
use sprayer_bench::scenarios::rate;
use sprayer_net::{FlowKey, Packet, PacketBuilder, TcpFlags};
use sprayer_nf::SyntheticNf;
use sprayer_nic::{Nic, NicConfig};
use sprayer_obs::Stage;
use sprayer_sim::Time;
use sprayer_trafficgen::moongen::{Arrivals, MoonGen};
use std::io::Write;
use std::time::{Duration, Instant};

const BATCH: usize = 32;

/// The walk fails outside this band; the README explains anything
/// outside [0.8, 1.25].
const COVERAGE_BAND: std::ops::RangeInclusive<f64> = 0.67..=1.5;

/// One recorded span. Parents are batch -> trial; every span of a run
/// shares the run id (the seed).
struct Span {
    name: &'static str,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Spans kept in memory and written out when the run ends.
struct SpanLog {
    anchor: Instant,
    spans: Vec<Span>,
}

/// Parent id of the root span.
const NO_PARENT: u32 = u32::MAX;

impl SpanLog {
    fn with_capacity(n: usize) -> SpanLog {
        SpanLog {
            anchor: Instant::now(),
            spans: Vec::with_capacity(n),
        }
    }

    fn now_ns(&self) -> u64 {
        self.anchor.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`SpanLog::end`].
    fn begin(&mut self, name: &'static str, parent: u32) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as u32
    }

    fn end(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    fn timed<T>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Self time per span name: a span's duration minus what its child
    /// spans cover.
    fn self_ns_by_name(&self) -> Vec<(&'static str, u64)> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                covered[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut totals: Vec<(&'static str, u64)> = Vec::new();
        for (s, covered) in self.spans.iter().zip(covered) {
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(covered);
            match totals.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, t)) => *t += self_ns,
                None => totals.push((s.name, self_ns)),
            }
        }
        totals
    }

    fn write(&self, workload: &str, run: u64) -> std::io::Result<()> {
        // The driver runs from the checkout root, `cargo test` from perf/.
        let dir = if std::path::Path::new("perf").is_dir() {
            "perf/out"
        } else {
            "out"
        };
        std::fs::create_dir_all(dir)?;
        let file = std::fs::File::create(format!("{dir}/{workload}.spans.jsonl"))?;
        let mut w = std::io::BufWriter::new(file);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"run\":{run},\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// What a walk found: per-stage ns/packet and the reconciliation.
struct Walked {
    packets: u64,
    stages: Vec<(&'static str, f64)>,
    /// Σ self time of the stages a packet crosses, ns/packet.
    sum_ns: f64,
    violations: Vec<String>,
}

impl Walked {
    fn new(log: &SpanLog, packets: u64, violations: Vec<String>) -> Walked {
        let stages: Vec<(&'static str, f64)> = log
            .self_ns_by_name()
            .into_iter()
            // The trial and batch spans' own time is the walk's loop, not a layer.
            .filter(|(name, _)| !matches!(*name, "trial" | "batch"))
            .map(|(name, ns)| (name, ns as f64 / packets as f64))
            .collect();
        Walked {
            packets,
            sum_ns: stages.iter().map(|(_, ns)| ns).sum(),
            stages,
            violations,
        }
    }
}

/// What rides the walk's queues: the packet and its classification
/// (the runtime's descriptor also carries trace ids and timestamps).
struct Desc {
    pkt: Packet,
    class: PacketClass,
}

/// The product's own redirect decision, over the walk's core map.
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

/// The walk of a threaded workload, Sprayer mode: one trial's packets
/// through parse -> classify -> steer -> rx push -> rx pop and
/// core pick -> [ring push/pop for redirected] -> `run_nf_batch` -> tx
/// -> collect -> emit, two simulated workers taking turns on one thread.
fn walk_threaded<NF: NetworkFunction>(input: &Input, nf: &NF, log: &mut SpanLog) -> Walked {
    let cfg = input.config(Mode::Sprayer);
    let map = CoreMap::new(DispatchMode::Sprayer, WORKERS);
    let nf_config = nf.config();
    let tables: SharedTables<NF::Flow> =
        SharedTables::with_lifecycle(map.clone(), nf_config.flow_table_capacity, cfg.lifecycle);
    let mut ctxs: Vec<SharedCtx<NF::Flow>> = (0..WORKERS).map(|w| tables.ctx(w)).collect();
    let picker = Picker {
        map: &map,
        stateless: nf_config.stateless,
    };
    let mut nic = Nic::new(NicConfig::sprayer_uncapped(WORKERS));
    let rx: Vec<ArrayQueue<Desc>> = (0..WORKERS)
        .map(|_| ArrayQueue::new(cfg.queue_capacity))
        .collect();
    let rings: Vec<ArrayQueue<Desc>> = (0..WORKERS)
        .map(|_| ArrayQueue::new(cfg.ring_capacity))
        .collect();
    let mut sink = VerdictSink::with_capacity(BATCH);
    let (mut pkts, mut conn): (Vec<Packet>, Vec<bool>) = Default::default();

    let frames: Vec<&Vec<u8>> = input.frames.iter().collect();
    let lifecycle_on = cfg.lifecycle.enabled();
    // Untimed, as in a trial: the copy that parsing consumes. Made up
    // front, so the walk meets the frames as cold as a trial does.
    let raw: Vec<Vec<u8>> = frames.iter().map(|f| (*f).clone()).collect();

    let trial = log.begin("trial", NO_PARENT);
    // Like a trial: parse everything, run everything, emit everything.
    let mut parsed: Vec<Packet> = Vec::with_capacity(raw.len());
    let mut raw = raw.into_iter();
    while raw.len() > 0 {
        let batch = log.begin("batch", trial);
        log.timed("parse", batch, || {
            parsed.extend(
                raw.by_ref()
                    .take(BATCH)
                    .map(|f| Packet::parse(f).expect("generated frames parse")),
            );
        });
        log.end(batch);
    }
    // One out buffer per worker, as in the runtime. There each grows in
    // place, alone at the top of its thread's arena; here, among the
    // walk's other buffers, growing would copy, so they are sized up front.
    let mut outs: Vec<Vec<Packet>> = (0..WORKERS)
        .map(|_| Vec::with_capacity(frames.len()))
        .collect();
    let mut parsed = parsed.into_iter();
    while parsed.len() > 0 {
        let arrivals: Vec<Packet> = parsed.by_ref().take(BATCH).collect();
        let batch = log.begin("batch", trial);
        let classes: Vec<PacketClass> = log.timed("classify", batch, || {
            arrivals.iter().map(PacketClass::of).collect()
        });
        let queues: Vec<usize> = log.timed("steer", batch, || {
            arrivals
                .iter()
                .map(|p| usize::from(nic.steer(p).0))
                .collect()
        });
        log.timed("rx_push", batch, || {
            for ((pkt, class), q) in arrivals.into_iter().zip(classes).zip(queues) {
                assert!(rx[q].push(Desc { pkt, class }).is_ok(), "rx has room");
            }
        });
        // Workers take turns until every queue is dry: each turn is one
        // iteration of the runtime's worker loop (ring first, then rx).
        while rx.iter().chain(&rings).any(|q| !q.is_empty()) {
            for w in 0..WORKERS {
                if lifecycle_on {
                    let now_us = log.now_ns() / 1_000;
                    log.timed("touch_clock", batch, || ctxs[w].touch_clock(now_us));
                }
                log.timed("ring_pop", batch, || {
                    while pkts.len() < BATCH {
                        let Some(d) = rings[w].pop() else { break };
                        conn.push(d.class.is_conn);
                        pkts.push(d.pkt);
                    }
                });
                if !pkts.is_empty() {
                    log.timed("nf", batch, || {
                        engine::run_nf_batch(nf, &mut pkts, &conn, &mut ctxs[w], &mut sink);
                    });
                    log.timed("tx", batch, || {
                        tx(&mut pkts, &mut conn, &sink, &mut outs[w])
                    });
                }
                let mut redirects: Vec<(usize, Desc)> = Vec::new();
                log.timed("rx_pop", batch, || {
                    while pkts.len() + redirects.len() < BATCH {
                        let Some(d) = rx[w].pop() else { break };
                        match picker.redirect_target(&d.class, w) {
                            Some(target) => redirects.push((target, d)),
                            None => {
                                conn.push(d.class.is_conn);
                                pkts.push(d.pkt);
                            }
                        }
                    }
                });
                if !redirects.is_empty() {
                    log.timed("ring_push", batch, || {
                        for (target, d) in redirects {
                            assert!(rings[target].push(d).is_ok(), "ring has room");
                        }
                    });
                }
                if !pkts.is_empty() {
                    log.timed("nf", batch, || {
                        engine::run_nf_batch(nf, &mut pkts, &conn, &mut ctxs[w], &mut sink);
                    });
                    log.timed("tx", batch, || {
                        tx(&mut pkts, &mut conn, &sink, &mut outs[w])
                    });
                }
            }
        }
        log.end(batch);
    }
    // The runtime merges the workers' buffers on the calling thread.
    let mut out: Vec<Packet> = Vec::with_capacity(frames.len());
    log.timed("collect", trial, || {
        for worker_out in outs {
            out.extend(worker_out);
        }
    });
    let mut bytes: Vec<Vec<u8>> = Vec::with_capacity(out.len());
    let mut out = out.into_iter();
    while out.len() > 0 {
        let batch = log.begin("batch", trial);
        log.timed("emit", batch, || {
            bytes.extend(out.by_ref().take(BATCH).map(Packet::into_bytes));
        });
        log.end(batch);
    }
    log.end(trial);
    let forwarded = bytes.len() as u64;
    let out_sum = Input::output_sum(bytes.iter());

    let packets = frames.len() as u64;
    let mut violations = Vec::new();
    if forwarded != packets || out_sum != input.expected_sum {
        violations.push(format!(
            "walk forwarded {forwarded} of {packets} packets, or other bytes than the script's"
        ));
    }
    Walked::new(log, packets, violations)
}

/// The worker's verdict pass: forwarded packets move to the out buffer.
fn tx(pkts: &mut Vec<Packet>, conn: &mut Vec<bool>, sink: &VerdictSink, out: &mut Vec<Packet>) {
    for (pkt, verdict) in pkts.drain(..).zip(sink.verdicts()) {
        if *verdict == Verdict::Forward {
            out.push(pkt);
        }
    }
    conn.clear();
}

/// The walk of `simrate`: the scenario's own loop (`scenarios::rate`),
/// bracketing `MoonGen::next_packet` and `mb.ingress` per batch of 32
/// and the closing `mb.advance_until`. Returns the walk and the wall
/// ns/packet of the scenario itself over the same simulated span.
fn walk_simrate(seed: u64, duration: Time, log: &mut SpanLog) -> (Walked, f64) {
    let config = MiddleboxConfig::paper_testbed_with_cycles(DispatchMode::Sprayer, 1_000);
    let mut mb = MiddleboxSim::new(config, SyntheticNf::for_simulator());
    let mut gen = MoonGen::new(64, simwl::RATE_PPS, Arrivals::Constant, seed);
    let mut t = Time::ZERO;
    for tuple in gen.flows().to_vec() {
        mb.ingress(t, PacketBuilder::new().tcp(tuple, 0, 0, TcpFlags::SYN, b""));
        t += Time::from_us(2);
    }
    let warmup_end = t + Time::from_ms(1);
    mb.run_until(warmup_end);
    let _ = mb.take_egress();
    let horizon = warmup_end + duration;

    let trial = log.begin("trial", NO_PARENT);
    let mut packets = 0u64;
    let mut pending: Option<(Time, Packet)> = None;
    let mut done = false;
    while !done {
        let batch = log.begin("batch", trial);
        let mut arrivals: Vec<(Time, Packet)> = Vec::with_capacity(BATCH);
        log.timed("moongen", batch, || {
            arrivals.extend(pending.take());
            while arrivals.len() < BATCH {
                let (at, pkt) = gen.next_packet();
                arrivals.push((warmup_end + at, pkt));
            }
        });
        log.timed("ingress", batch, || {
            for (at, pkt) in arrivals {
                if at >= horizon {
                    done = true;
                    break;
                }
                mb.ingress(at, pkt);
                packets += 1;
            }
        });
        log.end(batch);
    }
    log.timed("advance", trial, || mb.advance_until(horizon));
    let stats = mb.stats().clone();
    // Forwarded packets pile up in the egress buffer until the scenario
    // drops the middlebox.
    log.timed("teardown", trial, || drop(mb));
    log.end(trial);

    // The walk must be the workload: the scenario itself, over the same
    // simulated span, has to produce the very same statistics. Its wall
    // time is what the walk's stages have to add up to.
    let cfg = rate::RateConfig {
        offered_pps: Some(simwl::RATE_PPS),
        duration,
        ..rate::RateConfig::paper(DispatchMode::Sprayer, 1_000, 64, seed)
    };
    let mut violations = Vec::new();
    let scenario_ns: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let reference = rate::run(&cfg);
            let ns = t.elapsed().as_nanos() as f64 / reference.stats.offered as f64;
            if simwl::digest(simwl::stats_counters(&stats))
                != simwl::digest(simwl::stats_counters(&reference.stats))
            {
                violations.push("the simrate walk and scenarios::rate::run disagree".to_string());
            }
            ns
        })
        .collect();
    (Walked::new(log, packets, violations), median(&scenario_ns))
}

/// `published / (cores - 1)` distinct updates per connection packet.
fn scr_metrics(s: &MiddleboxStats, conn_packets: u64) -> Vec<Metric> {
    let peers = (s.per_core.len() as u64 - 1).max(1);
    vec![
        Metric::new(
            "scr.updates_per_conn_pkt",
            (s.scr_published / peers) as f64 / conn_packets as f64,
            "count",
        ),
        Metric::new("scr.log_hwm", s.scr_log_occupancy_hwm as f64, "count"),
        Metric::new("scr.log_drops", s.scr_log_drops as f64, "count"),
    ]
}

fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

/// Counters only the threaded runtime can report, with the reconciled
/// walk. `budget` bounds the interleaved plain / profiled / SCR trials.
fn trace_threaded(kind: threaded::Kind, budget: Duration, tally: &mut Tally) -> Vec<Metric> {
    let size = tally.size;
    let input = Input::generate(kind, tally.seed, size);
    let plain = input.config(Mode::Sprayer);
    let profiled = ThreadedConfig {
        obs: ObsConfig::profiling(),
        ..plain.clone()
    };
    tally.trial(&input.trial(Mode::Sprayer), "warm-up"); // discarded

    // (b) Plain, profiled and SCR trials, interleaved.
    let mut m: std::collections::BTreeMap<&'static str, Vec<f64>> = Default::default();
    let mut scr_stats = None;
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < 3 || (size == Size::Full && start.elapsed() < budget) {
        let t = input.trial_with(&plain);
        tally.trial(&t, "plain");
        let s = &t.outcome.stats;
        let pkts = t.offered as f64;
        let busy: u64 = s.per_core.iter().map(|c| c.busy_cycles).sum();
        let processed = s.per_core_processed();
        let mean = processed.iter().sum::<u64>() as f64 / processed.len() as f64;
        let batches: u64 = s.per_core.iter().map(|c| c.batches()).sum();
        let mut put = |k, v| m.entry(k).or_default().push(v);
        put("pkt_ns", t.pkt_ns());
        put("redirects_per_pkt", s.redirects() as f64 / pkts);
        put("batch_mean", s.processed() as f64 / batches as f64);
        put("rx_hwm", s.max_rx_occupancy() as f64);
        put("ring_hwm", s.max_ring_occupancy() as f64);
        put("busy_share", busy as f64 / t.run_ns as f64);
        put(
            "worker_imbalance",
            *processed.iter().max().expect("workers") as f64 / mean,
        );
        put("parse_ns", t.parse_ns as f64 / pkts);
        put("emit_ns", t.emit_ns as f64 / pkts);
        put("busy_ns", busy as f64 / pkts);
        put(
            "ingress_cpu_ns",
            t.nic_cpu_ns.saturating_sub(t.parse_ns + t.emit_ns) as f64 / pkts,
        );

        let t = input.trial_with(&profiled);
        tally.trial(&t, "profiled");
        let profile = t.outcome.profile.as_ref().expect("profiling was on");
        let mut put = |k, v| m.entry(k).or_default().push(v);
        put("profiled_pkt_ns", t.pkt_ns());
        for (key, stage) in [
            ("stage_classify_ns", Stage::Classify),
            ("stage_redirect_ns", Stage::Redirect),
            ("stage_nf_ns", Stage::Nf),
            ("stage_tx_ns", Stage::Tx),
        ] {
            put(key, profile.stage_ticks(stage) as f64 / t.offered as f64);
        }

        let t = input.trial(Mode::Scr);
        tally.trial(&t, "scr");
        scr_stats = Some(t.outcome.stats);
        rounds += 1;
    }

    // Allocations of one plain trial's timed region.
    alloc::enable(true);
    let t = input.trial_with(&plain);
    alloc::enable(false);
    tally.trial(&t, "counted");
    let (allocs, alloc_bytes) = t.allocs;

    // A run over an empty phase: what spawning and joining workers costs.
    let spawn_join_ns = crate::measure::bench(budget / 20, 1, || (), |()| input.run_empty(&plain));

    // (a) The walk, over one trial's packets. Like a trial it is run
    // once to warm up (the first pass page-faults every buffer in) and
    // the second pass is the one kept.
    let walk = || {
        let mut log = SpanLog::with_capacity(input.frames.packets() as usize / BATCH * 24);
        let walked = match kind {
            threaded::Kind::Steady => walk_threaded(&input, &SyntheticNf::spinning(0), &mut log),
            threaded::Kind::Churn => walk_threaded(&input, &threaded::firewall(), &mut log),
        };
        (log, walked)
    };
    drop(walk());
    let (log, walked) = walk();
    // (c) Reconcile. On one CPU the threads take turns, so the plain
    // trials' wall time per packet is what all of them together spent.
    let coverage = tally.walk(
        kind.name(),
        &log,
        &walked,
        "pkt_ns.sprayer",
        median(&m["pkt_ns"]),
    );
    let walk_of = |names: &[&str]| -> f64 {
        walked
            .stages
            .iter()
            .filter(|(n, _)| names.contains(n))
            .map(|(_, ns)| ns)
            .sum()
    };
    println!("  where the runtime's threads spent it (ns/packet), walk beside runtime:");
    for (what, walk_ns, key) in [
        ("NIC thread, parse", walk_of(&["parse"]), "parse_ns"),
        ("NIC thread, emit", walk_of(&["emit"]), "emit_ns"),
        (
            "NIC thread inside run (CPU)",
            walk_of(&["classify", "steer", "rx_push", "collect"]),
            "ingress_cpu_ns",
        ),
        (
            "workers (busy windows)",
            walk_of(&["touch_clock", "ring_pop", "rx_pop", "ring_push", "nf", "tx"]),
            "busy_ns",
        ),
    ] {
        println!("  {what:<30} {walk_ns:>9.2} {:>9.2}", median(&m[key]));
    }

    let trace_overhead = median(&m["profiled_pkt_ns"]) / median(&m["pkt_ns"]);
    for (k, v) in [
        ("trace_overhead", trace_overhead),
        ("spawn_join_us", spawn_join_ns / 1e3),
        ("allocs_per_pkt", allocs as f64 / t.offered as f64),
        ("alloc_bytes_per_pkt", alloc_bytes as f64 / t.offered as f64),
    ] {
        m.insert(k, vec![v]);
    }
    let mut out = runtime_threads_metrics(|k| median(&m[k]));
    out.push(Metric::new("walk.sum_ns", walked.sum_ns, "ns"));
    out.push(Metric::new("walk.coverage", coverage, "count"));
    out.extend(scr_metrics(
        &scr_stats.expect("at least one round ran"),
        input.frames.conn_packets,
    ));
    out
}

/// The metrics only the threaded runtime can report, with their units;
/// a simulator workload never crosses that runtime and leaves them at 0.
const RUNTIME_THREADS: [(&str, &str); 14] = [
    ("redirects_per_pkt", "count"),
    ("batch_mean", "count"),
    ("rx_hwm", "count"),
    ("ring_hwm", "count"),
    ("busy_share", "count"),
    ("worker_imbalance", "count"),
    ("stage_classify_ns", "ns"),
    ("stage_redirect_ns", "ns"),
    ("stage_nf_ns", "ns"),
    ("stage_tx_ns", "ns"),
    ("trace_overhead", "count"),
    ("spawn_join_us", "us"),
    ("allocs_per_pkt", "count"),
    ("alloc_bytes_per_pkt", "B"),
];

fn runtime_threads_metrics(value: impl Fn(&str) -> f64) -> Vec<Metric> {
    RUNTIME_THREADS
        .iter()
        .map(|(k, unit)| Metric::new(format!("runtime_threads.{k}"), value(k), unit))
        .collect()
}

fn trace_sim(kind: simwl::Kind, tally: &mut Tally) -> Vec<Metric> {
    let (seed, size) = (tally.seed, tally.size);
    let mut out = runtime_threads_metrics(|_| 0.0);
    let scr = simwl::trial(kind, Mode::Scr, seed, size);
    tally.sim_trial(&scr);
    let conn: u64 = scr
        .stats
        .per_core
        .iter()
        .map(|c| c.connection_packets)
        .sum();
    out.extend(scr_metrics(&scr.stats, conn.max(1)));

    let (sum_ns, coverage) = match kind {
        simwl::Kind::Rate => {
            let duration = simwl::rate_duration(size);
            let walk = || {
                let mut log = SpanLog::with_capacity(100_000 / BATCH * 3);
                let walked = walk_simrate(seed, duration, &mut log);
                (log, walked)
            };
            drop(walk());
            let (log, (walked, scenario_ns)) = walk();
            let coverage = tally.walk(
                kind.name(),
                &log,
                &walked,
                "scenarios::rate::run",
                scenario_ns,
            );
            (walked.sum_ns, coverage)
        }
        // The co-simulation loop is private to `scenarios::tcp`; only
        // its primitives (tcpsim.*, sim.sched_ns, net.build_ns,
        // runtime_sim.*) are reported, and there is nothing to reconcile.
        simwl::Kind::Tcp => (0.0, 0.0),
    };
    out.push(Metric::new("walk.sum_ns", sum_ns, "ns"));
    out.push(Metric::new("walk.coverage", coverage, "count"));
    out
}

/// Packets attempted and failed, and failed checks, over a traced run.
struct Tally {
    seed: u64,
    size: Size,
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
}

impl Tally {
    fn trial(&mut self, t: &threaded::Trial, what: &str) {
        self.attempted += t.offered;
        self.failed += t.failed();
        self.violations
            .extend(t.violations.iter().map(|v| format!("{what} trial: {v}")));
    }

    /// Write a walk's spans, print its stages and reconcile it: coverage
    /// is Σ stage self time ÷ `e2e_ns`, the end-to-end cost `against`
    /// names.
    fn walk(
        &mut self,
        workload: &str,
        log: &SpanLog,
        walked: &Walked,
        against: &str,
        e2e_ns: f64,
    ) -> f64 {
        if let Err(e) = log.write(workload, self.seed) {
            self.violations.push(format!("writing spans: {e}"));
        }
        self.attempted += walked.packets;
        self.violations.extend(walked.violations.iter().cloned());
        let coverage = walked.sum_ns / e2e_ns;
        println!(
            "walk: {} packets, ns/packet of self time per stage",
            walked.packets
        );
        for (name, ns) in &walked.stages {
            println!("  {name:<12} {ns:>9.2}");
        }
        println!(
            "  sum {:.2} / {against} {e2e_ns:.2} = coverage {coverage:.3}",
            walked.sum_ns
        );
        // Smoke sizes are too short to reconcile.
        if self.size == Size::Full && !COVERAGE_BAND.contains(&coverage) {
            self.violations.push(format!(
                "walk.coverage {coverage:.3} outside {COVERAGE_BAND:?}"
            ));
        }
        coverage
    }

    fn sim_trial(&mut self, t: &simwl::Trial) {
        self.attempted += t.packets;
        self.failed += t.failed;
        if t.failed > 0 {
            self.violations
                .push(format!("the model lost {} packets", t.failed));
        }
    }
}

/// The traced run of one workload: every per-layer metric by name.
pub fn run_traced(workload: Workload, seed: u64, seconds: f64, size: Size) -> Report {
    let mut tally = Tally {
        seed,
        size,
        attempted: 0,
        failed: 0,
        violations: Vec::new(),
    };
    let budget = Duration::from_secs_f64(seconds);
    let mut metrics = match workload {
        Workload::Threaded(kind) => trace_threaded(kind, budget / 3, &mut tally),
        Workload::Sim(kind) => trace_sim(kind, &mut tally),
    };
    let per_bench = match size {
        Size::Full => budget / 150,
        Size::Smoke => Duration::ZERO,
    };
    metrics.extend(layers::measure_all(per_bench));
    metrics.sort_by(|a, b| a.name.cmp(&b.name));
    for m in &metrics {
        println!("{:<40} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!("ctl: no metric; it acts between packets and its costs are simulated downtime");
    for v in &tally.violations {
        println!("FAILED CHECK: {v}");
    }
    Report {
        correct: tally.violations.is_empty() && tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    }
}
