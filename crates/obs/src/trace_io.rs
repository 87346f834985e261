//! The on-disk trace format.
//!
//! Line-oriented, self-describing, diff-friendly:
//!
//! * Line 1 — a JSON header: schema tag ([`TRACE_SCHEMA`]), runtime
//!   name, tick rate, core count, event/drop totals, and (when the
//!   capture recorded them) the runtime's aggregate counters for
//!   conservation checking.
//! * Lines 2.. — one event per line as
//!   `seq,ts,core,kind,flow,pkt,aux` CSV (kind by its stable name).
//!
//! [`parse`] is strict: an unknown schema tag, malformed event line, or
//! event-count mismatch against the header is an error, so `sprayer-bench trace`
//! can fail CI on schema drift.

use crate::event::{EventKind, TraceEvent};
use crate::ring::{ExpectedCounts, Trace, TraceEvents, TraceMeta};
use std::io::Write;

/// Schema identifier written to (and required in) every trace header.
pub const TRACE_SCHEMA: &str = "sprayer-trace/1";

/// Write a trace in the line-oriented format to `out`, an event at a
/// time, then flush it (wrap an unbuffered writer in a `BufWriter`).
pub fn write_to(trace: &Trace, mut out: impl Write) -> std::io::Result<()> {
    write!(
        out,
        "{{\"schema\":\"{TRACE_SCHEMA}\",\"runtime\":\"{}\",\"ticks_per_us\":{},\
         \"num_cores\":{},\"events\":{},\"events_dropped\":{}",
        trace.meta.runtime,
        trace.meta.ticks_per_us,
        trace.meta.num_cores,
        trace.events.len(),
        trace.dropped,
    )?;
    if let Some(e) = trace.meta.expected {
        write!(
            out,
            ",\"offered\":{},\"processed\":{},\"forwarded\":{},\"nf_drops\":{},\
             \"nic_cap_drops\":{},\"queue_drops\":{},\"ring_drops\":{},\"redirects\":{}",
            e.offered,
            e.processed,
            e.forwarded,
            e.nf_drops,
            e.nic_cap_drops,
            e.queue_drops,
            e.ring_drops,
            e.redirects,
        )?;
    }
    out.write_all(b"}\n")?;
    for ev in trace.events.iter() {
        writeln!(
            out,
            "{},{},{},{},{},{},{}",
            ev.seq,
            ev.ts,
            ev.core,
            ev.kind.as_str(),
            ev.flow,
            ev.pkt,
            ev.aux
        )?;
    }
    out.flush()
}

/// Serialize a trace to the line-oriented format, whole, in memory
/// ([`save`] streams it to a file instead).
pub fn write_string(trace: &Trace) -> String {
    let mut bytes = Vec::new();
    write_to(trace, &mut bytes).expect("a Vec takes every write");
    String::from_utf8(bytes).expect("the format is ASCII")
}

/// Extract an unsigned integer field from the (flat) JSON header line.
fn header_u64(header: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = header.find(&needle)? + needle.len();
    let rest = &header[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extract a string field from the (flat) JSON header line.
fn header_str<'a>(header: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":\"");
    let at = header.find(&needle)? + needle.len();
    let rest = &header[at..];
    Some(&rest[..rest.find('"')?])
}

/// Parse a trace previously produced by [`write_string`].
pub fn parse(input: &str) -> Result<Trace, String> {
    let mut lines = input.lines();
    let header = lines.next().ok_or_else(|| "empty trace file".to_string())?;
    match header_str(header, "schema") {
        Some(TRACE_SCHEMA) => {}
        Some(other) => {
            return Err(format!(
                "unsupported trace schema {other:?} (want {TRACE_SCHEMA:?})"
            ))
        }
        None => return Err("header has no \"schema\" field".to_string()),
    }
    let runtime = header_str(header, "runtime")
        .ok_or("header missing \"runtime\"")?
        .to_string();
    let ticks_per_us =
        header_u64(header, "ticks_per_us").ok_or("header missing \"ticks_per_us\"")?;
    if ticks_per_us == 0 {
        return Err("ticks_per_us must be nonzero".to_string());
    }
    let num_cores = header_u64(header, "num_cores").ok_or("header missing \"num_cores\"")? as usize;
    let declared_events = header_u64(header, "events").ok_or("header missing \"events\"")?;
    let dropped =
        header_u64(header, "events_dropped").ok_or("header missing \"events_dropped\"")?;
    let expected = header_u64(header, "offered").map(|offered| ExpectedCounts {
        offered,
        processed: header_u64(header, "processed").unwrap_or(0),
        forwarded: header_u64(header, "forwarded").unwrap_or(0),
        nf_drops: header_u64(header, "nf_drops").unwrap_or(0),
        nic_cap_drops: header_u64(header, "nic_cap_drops").unwrap_or(0),
        queue_drops: header_u64(header, "queue_drops").unwrap_or(0),
        ring_drops: header_u64(header, "ring_drops").unwrap_or(0),
        redirects: header_u64(header, "redirects").unwrap_or(0),
    });

    let mut events = TraceEvents::new();
    for (lineno, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        let mut fields = line.split(',');
        let mut next = |what: &str| {
            fields
                .next()
                .ok_or_else(|| format!("line {}: missing {what}", lineno + 2))
        };
        let parse_u64 = |s: &str, what: &str| {
            s.parse::<u64>()
                .map_err(|_| format!("line {}: bad {what} {s:?}", lineno + 2))
        };
        let seq = parse_u64(next("seq")?, "seq")?;
        let ts = parse_u64(next("ts")?, "ts")?;
        let core = parse_u64(next("core")?, "core")? as u16;
        let kind_s = next("kind")?;
        let kind = EventKind::parse(kind_s)
            .ok_or_else(|| format!("line {}: unknown event kind {kind_s:?}", lineno + 2))?;
        let flow = parse_u64(next("flow")?, "flow")?;
        let pkt = parse_u64(next("pkt")?, "pkt")?;
        let aux = parse_u64(next("aux")?, "aux")?;
        events.push(TraceEvent {
            seq,
            ts,
            core,
            kind,
            flow,
            pkt,
            aux,
        });
    }
    if events.len() as u64 != declared_events {
        return Err(format!(
            "header declares {declared_events} events but file has {}",
            events.len()
        ));
    }
    Ok(Trace {
        meta: TraceMeta {
            runtime,
            ticks_per_us,
            num_cores,
            expected,
        },
        events,
        dropped,
    })
}

/// Write a trace to `path`, streamed: the file is never whole in
/// memory.
pub fn save(trace: &Trace, path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    write_to(trace, std::io::BufWriter::new(std::fs::File::create(path)?))
}

/// Load a trace from `path`.
pub fn load(path: &std::path::Path) -> Result<Trace, String> {
    let s = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace(expected: bool) -> Trace {
        let events = vec![
            TraceEvent {
                seq: 0,
                ts: 100,
                core: 0,
                kind: EventKind::IngressEnqueue,
                flow: 42,
                pkt: 0,
                aux: 0,
            },
            TraceEvent {
                seq: 1,
                ts: 250,
                core: 0,
                kind: EventKind::NfDone,
                flow: 42,
                pkt: 0,
                aux: 0,
            },
        ];
        Trace {
            meta: TraceMeta {
                runtime: "sim".into(),
                ticks_per_us: 1_000_000,
                num_cores: 8,
                expected: expected.then_some(ExpectedCounts {
                    offered: 1,
                    processed: 1,
                    forwarded: 1,
                    nf_drops: 0,
                    nic_cap_drops: 0,
                    queue_drops: 0,
                    ring_drops: 0,
                    redirects: 0,
                }),
            },
            events: events.into(),
            dropped: 3,
        }
    }

    #[test]
    fn round_trips_with_and_without_expected_counts() {
        for expected in [false, true] {
            let t = sample_trace(expected);
            let s = write_string(&t);
            assert!(s.starts_with("{\"schema\":\"sprayer-trace/1\""));
            let back = parse(&s).expect("parse");
            assert_eq!(back.meta, t.meta);
            assert_eq!(back.events, t.events);
            assert_eq!(back.dropped, 3);
        }
    }

    #[test]
    fn save_streams_the_bytes_write_string_builds() {
        let t = sample_trace(true);
        let dir = std::env::temp_dir().join(format!("sprayer-trace-io-{}", std::process::id()));
        let path = dir.join("run.trace");
        save(&t, &path).expect("save");
        let on_disk = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(on_disk, write_string(&t));
        assert_eq!(load(&path).expect("load"), t);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_wrong_schema_and_malformed_lines() {
        let t = sample_trace(false);
        let s = write_string(&t);
        let bad = s.replace("sprayer-trace/1", "sprayer-trace/9");
        assert!(parse(&bad)
            .unwrap_err()
            .contains("unsupported trace schema"));
        assert!(parse("not a header\n").unwrap_err().contains("schema"));
        let torn = s.replace("nf_done", "nf_exploded");
        assert!(parse(&torn).unwrap_err().contains("unknown event kind"));
    }

    #[test]
    fn rejects_event_count_mismatch() {
        let t = sample_trace(false);
        let s = write_string(&t);
        let truncated: String = s.lines().take(2).collect::<Vec<_>>().join("\n");
        let err = parse(&truncated).unwrap_err();
        assert!(err.contains("declares 2 events but file has 1"), "{err}");
    }
}
