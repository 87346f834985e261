//! `sprayer-bench top` — an in-terminal per-core dashboard for the
//! threaded dataplane.
//!
//! A driver thread runs the threaded middlebox back to back on a
//! synthetic single-flow workload (the paper's spray-vs-RSS featured
//! point) while its workers publish batch deltas into a shared
//! lock-free [`LiveSlots`]; the main thread refreshes a per-core table
//! from snapshot diffs — throughput, drops, redirects, utilization, and
//! the instantaneous Jain's fairness index across cores. Frame layout
//! lives in [`sprayer_bench::livetop`] so it is unit-tested.
//!
//! ```text
//! top [--secs N] [--refresh-ms N] [--workers N] [--cycles N]
//!     [--mode rss|sprayer|scr] [--elastic] [--health] [--tail]
//!     [--mem] [--plain]
//! ```
//!
//! `--elastic` drives each iteration through an online scale-up and
//! scale-down (`workers -> 2*workers -> workers` via
//! [`ThreadedMiddlebox::run_elastic`]): the dashboard gains a
//! reconfiguration footer (cores joined/left, flows migrated, downtime)
//! and rows for cores outside the active set disappear once they drain
//! — a removed core never lingers as a stale zero row.
//!
//! `--health` turns the health plane on: workers attribute busy time to
//! pipeline stages into shared [`ProfileSlots`] (a per-window stage
//! breakdown line joins the frame) and each iteration's health events
//! are run through the SLO evaluator, surfacing recent alerts at the
//! bottom of the frame.
//!
//! `--tail` turns tail-latency attribution on (the workers keep their
//! batch path; spans are timed at batch grain, one clock read before
//! and one after each NF call): each
//! iteration's exemplar table accumulates into a running
//! [`TailReport`] and a tail pane joins the frame — how many
//! completions crossed the rolling-p99 threshold and which pipeline
//! span (queue wait, classify, redirect transit, NF, TX) their time
//! sat in.
//!
//! `--mem` turns the flow-table lifecycle on (idle aging + LRU
//! backstop) and switches the workload to 256 round-rotating flows: a
//! memory pane joins the frame with per-core table occupancy, the
//! occupancy high-water mark, and the lifecycle eviction rate.
//!
//! `--plain` (or a non-TTY stdout) prints frames sequentially instead
//! of redrawing in place — usable in CI logs.

use crate::Words;
use sprayer::config::DispatchMode;
use sprayer::runtime_threads::{ThreadedConfig, ThreadedMiddlebox};
use sprayer_bench::livetop::{render, ElasticStatus, Frame};
use sprayer_net::flow::splitmix64;
use sprayer_net::{FiveTuple, Packet, PacketBuilder, TcpFlags};
use sprayer_nf::SyntheticNf;
use sprayer_obs::{evaluate, Alert, LiveSlots, ProfileSlots, SloRules, TailReport};
use std::io::IsTerminal as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

#[derive(Clone)]
struct Args {
    secs: f64,
    refresh_ms: u64,
    workers: usize,
    cycles: u64,
    mode: DispatchMode,
    elastic: bool,
    health: bool,
    tail: bool,
    mem: bool,
    plain: bool,
}

fn parse_args(mut words: Words) -> Result<Args, String> {
    let mut args = Args {
        secs: 10.0,
        refresh_ms: 500,
        workers: 4,
        cycles: 2_500,
        mode: DispatchMode::Sprayer,
        elastic: false,
        health: false,
        tail: false,
        mem: false,
        plain: false,
    };
    while let Some(w) = words.next() {
        match w {
            "--secs" => args.secs = words.parse(w)?,
            "--refresh-ms" => args.refresh_ms = words.parse(w)?,
            "--workers" => args.workers = words.parse(w)?,
            "--cycles" => args.cycles = words.parse(w)?,
            "--mode" => args.mode = words.parse(w)?,
            "--elastic" => args.elastic = true,
            "--health" => args.health = true,
            "--tail" => args.tail = true,
            "--mem" => args.mem = true,
            "--plain" => args.plain = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// One driver iteration's workload: SYNs then a burst of payload ACKs —
/// a single flow by default (the shape where spraying's balance is
/// visible), or `flows` round-rotating flows under `--mem` so the table
/// occupancy and eviction counters actually move.
fn phases(burst: u32, round: u64, flows: u32) -> Vec<Vec<Packet>> {
    let flows = flows.max(1);
    let tuple = |f: u32| {
        let fid = (round as u32).wrapping_mul(flows).wrapping_add(f) % 8192;
        FiveTuple::tcp(0x0a00_0001 + fid, 40_000, 0xc0a8_0001, 443)
    };
    let mut data = Vec::with_capacity(burst as usize);
    for i in 0..burst {
        let payload = splitmix64(round << 32 | u64::from(i)).to_be_bytes();
        data.push(PacketBuilder::new().tcp(tuple(i % flows), i, 0, TcpFlags::ACK, &payload));
    }
    vec![
        (0..flows)
            .map(|f| PacketBuilder::new().tcp(tuple(f), 0, 0, TcpFlags::SYN, b""))
            .collect(),
        data,
    ]
}

/// What the driver thread shares with the frame loop.
#[derive(Default)]
struct Shared {
    stop: AtomicBool,
    runs: AtomicU64,
    status: ElasticStatus,
    alerts: Mutex<Vec<Alert>>,
    tail: Mutex<Option<TailReport>>,
}

/// Re-run the threaded middlebox back to back until `shared.stop`.
fn drive(config: &ThreadedConfig, args: &Args, shared: &Shared) {
    let nf = SyntheticNf::spinning(args.cycles);
    let rules = SloRules::default();
    let flows = if args.mem { 256 } else { 1 };
    let (low, high) = (args.workers, 2 * args.workers);
    let mut round = 0u64;
    while !shared.stop.load(Ordering::Relaxed) {
        let out = if args.elastic {
            // One scale-up + scale-down cycle per iteration: low workers
            // for the SYN, 2x for the first burst, back to low for the
            // second.
            let mut a = phases(20_000, round << 1, flows);
            let b = phases(20_000, (round << 1) | 1, flows)
                .pop()
                .expect("burst");
            let plan = vec![
                (low, std::mem::take(&mut a[0])),
                (high, std::mem::take(&mut a[1])),
                (low, b),
            ];
            let status = &shared.status;
            status.in_progress.store(true, Ordering::Relaxed);
            let out = ThreadedMiddlebox::run_elastic(config, &nf, plan);
            status.in_progress.store(false, Ordering::Relaxed);
            let mut events = status.events.lock().expect("status lock");
            events.extend(out.reconfigs.iter().cloned());
            let overflow = events.len().saturating_sub(8);
            events.drain(..overflow);
            out
        } else {
            ThreadedMiddlebox::run(config, &nf, phases(20_000, round, flows))
        };
        assert_eq!(out.stats.unaccounted(), 0);
        if let Some(health) = &out.health {
            let fresh = evaluate(&rules, health, None, None);
            let mut held = shared.alerts.lock().expect("alerts lock");
            held.extend(fresh);
            let overflow = held.len().saturating_sub(8);
            held.drain(..overflow);
        }
        if let Some(fresh) = &out.tail {
            let mut held = shared.tail.lock().expect("tail lock");
            match held.as_mut() {
                Some(acc) => acc.merge(fresh),
                None => *held = Some(fresh.clone()),
            }
        }
        round += 1;
        shared.runs.fetch_add(1, Ordering::Relaxed);
    }
}

pub fn main(words: Words) -> Result<u8, String> {
    let args = parse_args(words)?;
    // Elastic runs scale to twice the steady-state worker count; the
    // live slots must cover the joined cores too.
    let slots = args.workers * if args.elastic { 2 } else { 1 };
    let live = Arc::new(LiveSlots::new(slots));
    let mut config = ThreadedConfig::new(args.mode, args.workers);
    config.live = Some(live.clone());
    let profile = args.health.then(|| Arc::new(ProfileSlots::new(slots)));
    config.profile_live = profile.clone();
    config.obs.profile |= args.health;
    config.obs.health |= args.health;
    config.obs.tail |= args.tail;
    config.obs.latency |= args.tail;
    if args.mem {
        // Idle aging + LRU backstop so the memory pane has a lifecycle
        // to watch; the rotating multi-flow workload feeds it.
        config.lifecycle = sprayer::config::LifecycleConfig::bounded(50_000);
    }

    let plain = args.plain || !std::io::stdout().is_terminal();
    let planes: String = [
        (args.elastic, format!(" (elastic, scaling to {slots})")),
        (args.health, " (health plane on)".to_string()),
        (args.tail, " (tail attribution on)".to_string()),
    ]
    .into_iter()
    .filter_map(|(on, text)| on.then_some(text))
    .collect();
    println!(
        "top: {} workers{planes}, {} mode, {}-cycle NF, {:.1}s (refresh {} ms)\n",
        args.workers, args.mode, args.cycles, args.secs, args.refresh_ms
    );
    let shared = Arc::new(Shared::default());
    let driver = {
        let (args, shared) = (args.clone(), shared.clone());
        std::thread::spawn(move || drive(&config, &args, &shared))
    };
    let start = Instant::now();
    let mut prev = live.snapshot();
    let mut prev_stages = profile.as_ref().map(|p| p.snapshot());
    let mut prev_at = start;
    let mut frame_lines = 0usize;
    while start.elapsed().as_secs_f64() < args.secs {
        std::thread::sleep(Duration::from_millis(args.refresh_ms));
        let cur = live.snapshot();
        let cur_stages = profile.as_ref().map(|p| p.snapshot());
        let now = Instant::now();
        let dt = now.duration_since(prev_at).as_secs_f64().max(1e-9);
        let held_alerts = shared.alerts.lock().expect("alerts lock").clone();
        let held_tail = shared.tail.lock().expect("tail lock").clone();
        let frame = render(&Frame {
            prev: &prev,
            cur: &cur,
            dt,
            runs: shared.runs.load(Ordering::Relaxed),
            elapsed: start.elapsed().as_secs_f64(),
            elastic: args.elastic.then_some((args.workers, &shared.status)),
            stages: prev_stages.as_deref().zip(cur_stages.as_deref()),
            tail: held_tail.as_ref(),
            alerts: &held_alerts,
            mem: args.mem,
        });
        if !plain && frame_lines > 0 {
            // Move the cursor back up over the previous frame and clear
            // it: elastic frames shrink when a removed core's row
            // disappears, and a stale trailing line must not survive.
            print!("\x1b[{frame_lines}A\x1b[J");
        }
        print!("{frame}");
        frame_lines = frame.lines().count();
        prev = cur;
        prev_stages = cur_stages;
        prev_at = now;
    }
    shared.stop.store(true, Ordering::Relaxed);
    driver.join().expect("driver thread");

    let fin = live.snapshot();
    let total: u64 = fin.iter().map(|c| c.processed).sum();
    let shares: Vec<f64> = fin.iter().map(|c| c.processed as f64).collect();
    println!(
        "\ndone: {} packets across {} runs, lifetime Jain {:.3}",
        total,
        shared.runs.load(Ordering::Relaxed),
        sprayer_sim::stats::jain_fairness_index(&shares)
    );
    Ok(0)
}
