//! `sprayer-bench blackbox`: post-mortem analyzer for crash
//! flight-recorder dumps.
//!
//! Reads a `sprayer-flight/1` dump (written by `sprayer_obs::flight::save`
//! — e.g. `results/fig_chaos_flight_sprayer.txt` after a crash run) and
//! renders the last `--window-ms` milliseconds (default 5) before the
//! freeze as a per-core timeline: batch boundaries with queue depths,
//! redirect ring traffic, drops, and the health events leading up to the
//! latch. With `--telemetry`, also renders the `tail_*` attribution table
//! from the companion telemetry document, so the post-mortem answers both
//! "what happened just before the crash" and "where the tail lived".
//!
//! Exit codes: 0 on success, 1 on unreadable arguments or dump.

use crate::Words;
use sprayer_bench::blackbox::{render, render_tail};
use sprayer_obs::{flight, MetricsRegistry};
use std::path::Path;

pub fn main(mut words: Words) -> Result<u8, String> {
    let mut dump = None;
    let mut telemetry = None;
    let mut window_ms = 5u64;
    while let Some(w) = words.next() {
        match w {
            "--telemetry" => telemetry = Some(words.value(w)?),
            "--window-ms" => window_ms = words.parse(w)?,
            _ if dump.is_none() && !w.starts_with('-') => dump = Some(w),
            other => return Err(format!("unexpected argument {other}")),
        }
    }
    let dump = dump.ok_or("name a flight dump")?;
    match render_all(dump, telemetry, window_ms) {
        Ok(()) => Ok(0),
        Err(e) => {
            eprintln!("blackbox: {e}");
            Ok(1)
        }
    }
}

fn render_all(dump: &str, telemetry: Option<&str>, window_ms: u64) -> Result<(), String> {
    let snap = flight::load(Path::new(dump)).map_err(|e| format!("{dump}: {e}"))?;
    print!("{}", render(&snap, window_ms));
    if let Some(path) = telemetry {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let (_, doc) =
            MetricsRegistry::parse_document(&text).map_err(|e| format!("{path}: {e}"))?;
        match render_tail(&doc) {
            Some(table) => print!("\n{table}"),
            None => println!("\n(telemetry carries no tail_* attribution set)"),
        }
    }
    Ok(())
}
