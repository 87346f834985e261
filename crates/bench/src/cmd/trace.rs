//! `sprayer-bench trace`: offline trace analyzer — per-flow reordering,
//! latency percentiles, and conservation checks over `sprayer-trace/1`
//! files.
//!
//! ```text
//! trace <trace-file>...   # analyze saved traces
//! trace --demo            # traced TCP run, Sprayer vs RSS
//! trace --capture         # save results/fig6_<mode>.trace, one per mode
//! ```
//!
//! Exit codes: 0 = analyzed cleanly, 1 = a conservation violation was
//! found (or a usage error), 2 = a file could not be parsed (bad schema
//! or malformed events). The CI trace-smoke step relies on these.
//!
//! The headline of the `--demo` mode is the paper's §5 trade-off made
//! visible: the *same* TCP workload shows nonzero per-flow reordering
//! depth under Sprayer (packets of one flow complete on different cores)
//! and zero under RSS (per-flow FIFO), straight from the runtime's own
//! event trace.

use crate::Words;
use sprayer::config::{DispatchMode, ObsConfig};
use sprayer_bench::report::{fmt_f, mode_slug, Table};
use sprayer_bench::scenarios::{rate, tcp};
use sprayer_obs::{analyze, LatencySummary, Trace, TraceAnalysis};
use sprayer_sim::Time;
use std::path::Path;

fn lat_row(name: &str, l: &LatencySummary) -> Vec<String> {
    vec![
        name.to_string(),
        l.count.to_string(),
        fmt_f(l.p50_us, 2),
        fmt_f(l.p99_us, 2),
        fmt_f(l.p999_us, 2),
        fmt_f(l.mean_us, 2),
        fmt_f(l.max_us, 2),
    ]
}

/// Print the full report for one trace; returns false on a conservation
/// violation.
fn report(label: &str, trace: &Trace, analysis: &TraceAnalysis) -> bool {
    println!(
        "== {label}: {} events, runtime \"{}\", {} cores, {} tick(s)/us ==",
        trace.events.len(),
        trace.meta.runtime,
        trace.meta.num_cores,
        trace.meta.ticks_per_us,
    );
    if trace.dropped > 0 {
        println!(
            "   [lossy: {} events dropped at full trace rings — conservation advisory only]",
            trace.dropped
        );
    }

    let c = &analysis.conservation;
    println!(
        "   conservation: enqueued={} nf_done={} forwarded={} nf_drops={} \
         drops(nic/queue/ring)={}/{}/{} redirects(out/in)={}/{}",
        c.ingress_enqueued,
        c.nf_done,
        c.forwarded,
        c.nf_drops,
        c.nic_cap_drops,
        c.queue_drops,
        c.ring_drops,
        c.redirect_out,
        c.redirect_in,
    );
    for v in &c.violations {
        println!("   VIOLATION: {v}");
    }

    let mut lt = Table::new(vec![
        "latency", "count", "p50 us", "p99 us", "p999 us", "mean us", "max us",
    ]);
    lt.row(lat_row("sojourn", &analysis.latency.sojourn));
    lt.row(lat_row("queue wait", &analysis.latency.queue_wait));
    lt.row(lat_row("redirect", &analysis.latency.redirect));
    for cr in &analysis.latency.per_core_redirect {
        lt.row(lat_row(&format!("redirect@core{}", cr.core), &cr.latency));
    }
    println!("{}", lt.render());

    println!(
        "   reordering: {} of {} completed packets out of order (max depth {})",
        analysis.reordered_packets(),
        c.nf_done,
        analysis.max_depth(),
    );
    let mut ft = Table::new(vec![
        "flow",
        "packets",
        "reordered",
        "rate %",
        "max depth",
        "mean depth",
    ]);
    for f in analysis.flows.iter().take(8) {
        ft.row(vec![
            format!("{:016x}", f.flow),
            f.packets.to_string(),
            f.reordered.to_string(),
            fmt_f(100.0 * f.reorder_rate(), 2),
            f.max_depth.to_string(),
            fmt_f(f.mean_depth(), 2),
        ]);
    }
    if analysis.flows.len() > 8 {
        println!(
            "   (top 8 of {} flows by total depth)",
            analysis.flows.len()
        );
    }
    println!("{}", ft.render());
    c.ok()
}

/// Run the same short TCP workload traced under both dispatch modes.
fn demo() -> bool {
    let mut all_ok = true;
    let mut reordered = [0u64; 2];
    for (i, mode) in [DispatchMode::Sprayer, DispatchMode::Rss]
        .into_iter()
        .enumerate()
    {
        let mut cfg = tcp::TcpConfig::paper(mode, 10_000, 2, 1);
        cfg.warmup = Time::from_ms(20);
        cfg.duration = Time::from_ms(30);
        cfg.obs = ObsConfig::tracing();
        let r = tcp::run(&cfg);
        let trace = r.trace.expect("tracing enabled");
        let analysis = analyze(&trace);
        all_ok &= report(&format!("{mode} TCP demo"), &trace, &analysis);
        reordered[i] = analysis.reordered_packets();
        println!();
    }
    println!(
        "demo summary: Sprayer reordered {} packets; RSS reordered {} — the per-flow\n\
         FIFO of RSS vs the parallel service of spraying, from the same event schema.",
        reordered[0], reordered[1]
    );
    all_ok
}

/// One short fig6 datapoint per mode (2 500 cycles, 4 flows, 2 ms) with
/// event tracing on, saved as `results/fig6_<mode>.trace`.
fn capture() -> Result<(), String> {
    std::fs::create_dir_all("results").map_err(|e| format!("results: {e}"))?;
    for mode in [DispatchMode::Rss, DispatchMode::Sprayer, DispatchMode::Scr] {
        let mut cfg = rate::RateConfig::paper(mode, 2_500, 4, 1);
        cfg.duration = Time::from_ms(2);
        cfg.obs = ObsConfig::tracing();
        let trace = rate::run(&cfg).trace.expect("tracing enabled");
        let path = format!("results/fig6_{}.trace", mode_slug(mode));
        sprayer_obs::trace_io::save(&trace, Path::new(&path))
            .map_err(|e| format!("{path}: {e}"))?;
        println!("[saved {path}: {} events]", trace.events.len());
    }
    Ok(())
}

pub fn main(words: Words) -> Result<u8, String> {
    let (mut demo_run, mut capture_run, mut files) = (false, false, Vec::new());
    for w in words {
        match w {
            "--demo" => demo_run = true,
            "--capture" => capture_run = true,
            _ if w.starts_with('-') => return Err(format!("unknown option {w}")),
            _ => files.push(w),
        }
    }
    if !demo_run && !capture_run && files.is_empty() {
        return Err("name a trace file, --demo or --capture".to_string());
    }
    if capture_run {
        if let Err(e) = capture() {
            eprintln!("trace: {e}");
            return Ok(1);
        }
    }
    let mut all_ok = true;
    if demo_run {
        all_ok &= demo();
    }
    for path in files {
        match sprayer_obs::trace_io::load(Path::new(path)) {
            Ok(trace) => {
                let analysis = analyze(&trace);
                all_ok &= report(path, &trace, &analysis);
                println!();
            }
            Err(e) => {
                eprintln!("{path}: {e}");
                return Ok(2);
            }
        }
    }
    Ok(if all_ok { 0 } else { 1 })
}
