//! Post-mortem rendering of a crash flight-recorder dump.
//!
//! What `sprayer-bench blackbox` prints, kept in the library so the smoke test
//! (and anything else) can render a [`FlightSnapshot`] without shelling
//! out: a timeline view of the last milliseconds before the freeze,
//! grouped per core, plus an optional tail-attribution table read from
//! a companion telemetry document's `tail_*` fields.
//!
//! The renderer is intentionally forgiving — a post-mortem tool that
//! panics on a weird dump is worse than useless — so missing fields
//! render as gaps, an empty dump renders as a header, and the tail
//! table is skipped entirely when the telemetry has no `tail_*` set.

use sprayer_obs::{health_kind_name, DropKind, FlightEvent, FlightKind, FlightSnapshot, JsonValue};
use std::fmt::Write as _;

/// One event line: `+t` relative to the window start, in ms.
fn describe(ev: &FlightEvent, ticks_per_us: u64) -> String {
    let aux = match ev.kind {
        FlightKind::Batch => format!("n={} depth={}", ev.a, ev.b),
        FlightKind::RedirectOut => format!("target=core {}", ev.a),
        FlightKind::RedirectIn => {
            format!("transit={:.2}us", ev.a as f64 / ticks_per_us.max(1) as f64)
        }
        FlightKind::Drop => match DropKind::from_aux(ev.a) {
            Some(k) => format!("kind={}", k.as_str()),
            None => format!("kind=?{}", ev.a),
        },
        FlightKind::Health => match health_kind_name(ev.a) {
            Some(k) => format!("{k} core={}", ev.b),
            None => format!("code=?{} core={}", ev.a, ev.b),
        },
        FlightKind::Freeze => "<recorder latched here>".to_string(),
    };
    format!("{:<13} {aux}", ev.kind.as_str())
}

/// Render a flight dump as a per-core timeline of the last `window_ms`
/// milliseconds before the freeze (or before the newest event, for an
/// unfrozen dump).
pub fn render(snap: &FlightSnapshot, window_ms: u64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "flight recorder: runtime={} cores={} events={} recorded={} overwritten={}",
        snap.runtime,
        snap.per_core.len(),
        snap.len(),
        snap.recorded,
        snap.overwritten
    );
    let end = match &snap.frozen {
        Some(f) => {
            let _ = writeln!(
                out,
                "FROZEN: {} on core {} at t={:.3}ms",
                f.kind,
                f.core,
                f.ts as f64 / (snap.ticks_per_us.max(1) * 1_000) as f64
            );
            f.ts
        }
        None => {
            let newest = snap
                .per_core
                .iter()
                .flatten()
                .map(|e| e.ts)
                .max()
                .unwrap_or(0);
            let _ = writeln!(out, "not frozen (live snapshot)");
            newest
        }
    };
    let window_ticks = window_ms.saturating_mul(snap.ticks_per_us.saturating_mul(1_000));
    let start = end.saturating_sub(window_ticks);
    let _ = writeln!(
        out,
        "window: last {window_ms}ms before t={:.3}ms\n",
        end as f64 / (snap.ticks_per_us.max(1) * 1_000) as f64
    );
    for (core, events) in snap.per_core.iter().enumerate() {
        let visible: Vec<&FlightEvent> = events.iter().filter(|e| e.ts >= start).collect();
        let _ = writeln!(
            out,
            "core {core}: {} of {} held events in window",
            visible.len(),
            events.len()
        );
        for ev in visible {
            let _ = writeln!(
                out,
                "  +{:>9.3}ms  {}",
                ev.ts.saturating_sub(start) as f64 / (snap.ticks_per_us.max(1) * 1_000) as f64,
                describe(ev, snap.ticks_per_us)
            );
        }
    }
    out
}

/// Render the `tail_*` attribution set of a telemetry document (or of
/// one datapoint inside it), if present. Returns `None` when the
/// document carries no tail set.
pub fn render_tail(doc: &JsonValue) -> Option<String> {
    // Accept both a bare registry document and a figure document whose
    // datapoints each carry the set — render every one that has it.
    if let Some(points) = doc.get("datapoints").and_then(|d| d.as_array()) {
        let rendered: Vec<String> = points.iter().filter_map(render_tail_one).collect();
        if rendered.is_empty() {
            return None;
        }
        return Some(rendered.join("\n"));
    }
    render_tail_one(doc)
}

fn render_tail_one(doc: &JsonValue) -> Option<String> {
    let ticks = doc.get("tail_stage_ticks")?;
    let completions = doc.get("tail_completions").and_then(|v| v.as_u64())?;
    let exemplars = doc
        .get("tail_exemplars")
        .and_then(|v| v.as_u64())
        .unwrap_or(0);
    let mut out = String::new();
    let label = doc
        .get("mode")
        .and_then(|v| v.as_str())
        .unwrap_or("telemetry");
    let _ = writeln!(
        out,
        "tail attribution [{label}]: {exemplars} exemplars of {completions} completions \
         (dominant: {})",
        doc.get("tail_dominant_stage")
            .and_then(|v| v.as_str())
            .unwrap_or("?")
    );
    let stages = ["queue_wait", "classify", "redirect_transit", "nf", "tx"];
    let stage_ticks: Vec<u64> = stages
        .iter()
        .map(|s| ticks.get(s).and_then(|v| v.as_u64()).unwrap_or(0))
        .collect();
    let total: u64 = stage_ticks.iter().sum();
    let peak = stage_ticks.iter().copied().max().unwrap_or(0).max(1);
    for (stage, &t) in stages.iter().zip(&stage_ticks) {
        let share = if total == 0 {
            0.0
        } else {
            100.0 * t as f64 / total as f64
        };
        let bar = ((t * 40).div_ceil(peak)) as usize;
        let _ = writeln!(out, "  {stage:<16} {share:>5.1}%  {}", "#".repeat(bar));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprayer_obs::{FlightFreeze, FlightRing, MetricsRegistry, TailSpans, TailTracker};

    fn snapshot(frozen: bool) -> FlightSnapshot {
        let mut rings = vec![FlightRing::new(8), FlightRing::new(8)];
        // ticks_per_us = 1_000_000 (sim picoseconds): 1 ms = 1e9 ticks.
        const MS: u64 = 1_000_000_000;
        for i in 0..4u64 {
            rings[0].push(FlightEvent {
                ts: MS * (i + 1),
                kind: FlightKind::Batch,
                a: 32,
                b: i,
            });
        }
        rings[1].push(FlightEvent {
            ts: 3 * MS + MS / 2,
            kind: FlightKind::Drop,
            a: sprayer_obs::DropKind::RingFull.to_aux(),
            b: 0,
        });
        rings[1].push(FlightEvent {
            ts: 4 * MS,
            kind: FlightKind::Freeze,
            a: 0,
            b: 0,
        });
        FlightSnapshot::assemble(
            "sim",
            1_000_000,
            frozen.then(|| FlightFreeze {
                ts: 4 * MS,
                kind: "worker_death".to_string(),
                core: 1,
            }),
            &rings,
        )
    }

    #[test]
    fn render_shows_freeze_and_windows_the_timeline() {
        let text = render(&snapshot(true), 2);
        assert!(text.contains("FROZEN: worker_death on core 1"));
        assert!(text.contains("kind=ring_full"));
        assert!(text.contains("<recorder latched here>"));
        // The 2ms window before the 4ms freeze excludes the 1ms batch.
        assert!(text.contains("core 0: 3 of 4 held events in window"));
        // A wider window shows everything.
        assert!(render(&snapshot(true), 100).contains("core 0: 4 of 4"));
    }

    #[test]
    fn render_handles_unfrozen_and_empty_dumps() {
        let live = render(&snapshot(false), 10);
        assert!(live.contains("not frozen (live snapshot)"));
        let empty = FlightSnapshot::assemble("sim", 1_000_000, None, &[]);
        let text = render(&empty, 10);
        assert!(text.contains("events=0"));
    }

    #[test]
    fn tail_table_renders_from_exported_telemetry_and_skips_when_absent() {
        let mut t = TailTracker::new(1, 10);
        t.on_complete(
            0,
            TailSpans {
                queue_wait: 700,
                classify: 50,
                redirect_transit: 100,
                nf: 140,
                tx: 10,
            },
        );
        let mut reg = MetricsRegistry::new();
        t.report().export(&mut reg);
        let (_, doc) = MetricsRegistry::parse_document(&reg.to_json()).unwrap();
        let table = render_tail(&doc).expect("tail set present");
        assert!(table.contains("1 exemplars of 1 completions"));
        assert!(table.contains("dominant: queue_wait"));
        assert!(table.contains("queue_wait        70.0%"));

        let bare = JsonValue::parse("{\"schema_version\":5,\"mpps\":1.0}").unwrap();
        assert!(render_tail(&bare).is_none());
    }

    #[test]
    fn tail_table_labels_any_dispatch_mode_from_the_document() {
        // The renderer must not keep its own mode list: whatever slug a
        // figure wrote (here the third mode, derived from Display, the
        // same way the experiments derive it) comes back verbatim.
        let mut t = TailTracker::new(1, 10);
        t.on_complete(
            0,
            TailSpans {
                queue_wait: 20,
                classify: 5,
                redirect_transit: 0,
                nf: 100,
                tx: 5,
            },
        );
        let mut reg = MetricsRegistry::new();
        let slug = sprayer::config::DispatchMode::Scr
            .to_string()
            .to_ascii_lowercase();
        reg.set_str("mode", &slug);
        t.report().export(&mut reg);
        let (_, doc) = MetricsRegistry::parse_document(&reg.to_json()).unwrap();
        let table = render_tail(&doc).expect("tail set present");
        assert!(table.contains("tail attribution [scr]"), "{table}");
    }
}
