//! The crash flight recorder.
//!
//! An always-on, fixed-memory, per-core ring of compact recent events —
//! batch boundaries with queue depths, redirects, drops, health events.
//! Unlike [`crate::TraceRing`] (keep-*oldest*, built for complete
//! offline replay), a [`FlightRing`] keeps the *newest* events,
//! overwriting the oldest in place: what matters after a crash is the
//! last few milliseconds, not the first.
//!
//! When the health plane emits a critical event (worker death, watchdog
//! fence, adversarial collapse, drop storm — see [`is_freeze_trigger`])
//! the recorder **freezes**: a [`FlightKind::Freeze`] marker is stamped
//! into the affected core's ring and all further recording becomes a
//! no-op, preserving the pre-crash window (the rings' owner and the
//! latch live in `sprayer::obs_sink`; this module is the ring, the
//! event vocabulary and the dump). The frozen state dumps as a
//! versioned [`FLIGHT_SCHEMA`] snapshot (same line-oriented idiom as
//! `trace_io`: one flat JSON header, then one CSV event per line) that
//! the `blackbox` bin parses and renders post-mortem.

use crate::registry::MetricsRegistry;
use std::fmt::Write as _;

/// Schema identifier written to (and required in) every flight dump.
pub const FLIGHT_SCHEMA: &str = "sprayer-flight/1";

/// Health-event kind names, indexed by the code carried in
/// [`FlightKind::Health`] / [`FlightKind::Freeze`] events' `a` field.
/// Order matches `HealthEvent::kind` and is part of the dump format.
pub const HEALTH_KIND_NAMES: [&str; 8] = [
    "drop_storm",
    "queue_high_water",
    "fairness_dip",
    "watchdog_fence",
    "worker_death",
    "reconfig_phase",
    "adversarial_collapse",
    "fault_injected",
];

/// The compact code for a health-event kind name (see
/// [`HEALTH_KIND_NAMES`]); unknown names map to the array length.
pub fn health_kind_code(kind: &str) -> u64 {
    HEALTH_KIND_NAMES
        .iter()
        .position(|&n| n == kind)
        .unwrap_or(HEALTH_KIND_NAMES.len()) as u64
}

/// Inverse of [`health_kind_code`].
pub fn health_kind_name(code: u64) -> Option<&'static str> {
    HEALTH_KIND_NAMES.get(code as usize).copied()
}

/// Whether a health-event kind freezes the flight recorder: the
/// critical conditions after which the recent window is the evidence.
pub fn is_freeze_trigger(kind: &str) -> bool {
    matches!(
        kind,
        "worker_death" | "watchdog_fence" | "adversarial_collapse" | "drop_storm"
    )
}

/// What a flight event records. Payload fields `a`/`b` are
/// kind-specific.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// A dequeue batch completed; `a` = batch size, `b` = queue depth
    /// after the batch.
    Batch,
    /// A packet left this core for a designated core's ring; `a` =
    /// target core.
    RedirectOut,
    /// A redirected descriptor was picked up here; `a` = ring transfer
    /// latency in ticks.
    RedirectIn,
    /// A packet was lost; `a` = `DropKind` discriminant.
    Drop,
    /// A health event was emitted; `a` = health kind code
    /// ([`health_kind_code`]), `b` = core it concerned.
    Health,
    /// The recorder froze here; `a` = triggering health kind code,
    /// `b` = core it concerned. Always the last event in its ring.
    Freeze,
}

impl FlightKind {
    /// All kinds.
    pub const ALL: [FlightKind; 6] = [
        FlightKind::Batch,
        FlightKind::RedirectOut,
        FlightKind::RedirectIn,
        FlightKind::Drop,
        FlightKind::Health,
        FlightKind::Freeze,
    ];

    /// Stable wire name (used by the dump format).
    pub fn as_str(self) -> &'static str {
        match self {
            FlightKind::Batch => "batch",
            FlightKind::RedirectOut => "redirect_out",
            FlightKind::RedirectIn => "redirect_in",
            FlightKind::Drop => "drop",
            FlightKind::Health => "health",
            FlightKind::Freeze => "freeze",
        }
    }

    /// Inverse of [`FlightKind::as_str`].
    pub fn parse(s: &str) -> Option<FlightKind> {
        FlightKind::ALL.into_iter().find(|k| k.as_str() == s)
    }
}

/// One flight-recorder event: 32 bytes, recorded with a plain store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Timestamp in the producing runtime's native ticks.
    pub ts: u64,
    /// Event type.
    pub kind: FlightKind,
    /// Kind-specific payload (see [`FlightKind`] variants).
    pub a: u64,
    /// Kind-specific payload (see [`FlightKind`] variants).
    pub b: u64,
}

/// A fixed-capacity keep-newest event ring: pushing past capacity
/// overwrites the oldest event in place. Memory is bounded at
/// construction; a saturated ring always holds the `capacity` most
/// recent events.
#[derive(Debug, Clone)]
pub struct FlightRing {
    capacity: usize,
    buf: Vec<FlightEvent>,
    start: usize,
    total: u64,
}

impl FlightRing {
    /// An empty ring holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRing {
            capacity,
            buf: Vec::with_capacity(capacity),
            start: 0,
            total: 0,
        }
    }

    /// Record one event, overwriting the oldest if full.
    #[inline]
    pub fn push(&mut self, ev: FlightEvent) {
        self.total += 1;
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.start] = ev;
            self.start = (self.start + 1) % self.capacity;
        }
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events ever recorded (held + overwritten).
    pub fn recorded(&self) -> u64 {
        self.total
    }

    /// Events overwritten by newer ones.
    pub fn overwritten(&self) -> u64 {
        self.total - self.buf.len() as u64
    }

    /// The held events, oldest first.
    pub fn events_in_order(&self) -> Vec<FlightEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.start..]);
        out.extend_from_slice(&self.buf[..self.start]);
        out
    }
}

/// Why (and where) a recorder froze.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightFreeze {
    /// When the trigger fired, native ticks.
    pub ts: u64,
    /// The triggering health-event kind name.
    pub kind: String,
    /// The core the trigger concerned.
    pub core: u16,
}

/// One run's flight-recorder state, ready to dump, parse, and render.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightSnapshot {
    /// Producing runtime's name (`sim` / `threads`).
    pub runtime: String,
    /// Ticks per microsecond of the producing runtime.
    pub ticks_per_us: u64,
    /// The freeze trigger, if the run crashed.
    pub frozen: Option<FlightFreeze>,
    /// Retained events per core, oldest first.
    pub per_core: Vec<Vec<FlightEvent>>,
    /// Events ever recorded across cores (held + overwritten).
    pub recorded: u64,
    /// Events overwritten by newer ones across cores.
    pub overwritten: u64,
}

impl FlightSnapshot {
    /// Assemble from one ring per core plus the run's freeze record.
    pub fn assemble(
        runtime: &str,
        ticks_per_us: u64,
        frozen: Option<FlightFreeze>,
        rings: &[FlightRing],
    ) -> FlightSnapshot {
        FlightSnapshot {
            runtime: runtime.to_string(),
            ticks_per_us,
            frozen,
            per_core: rings.iter().map(|r| r.events_in_order()).collect(),
            recorded: rings.iter().map(|r| r.recorded()).sum(),
            overwritten: rings.iter().map(|r| r.overwritten()).sum(),
        }
    }

    /// Retained events across all cores.
    pub fn len(&self) -> usize {
        self.per_core.iter().map(|c| c.len()).sum()
    }

    /// True if nothing was retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Write the `flight_*` registry metric set.
    pub fn export(&self, reg: &mut MetricsRegistry) {
        reg.set_u64("flight_frozen", u64::from(self.frozen.is_some()));
        reg.set_u64("flight_events", self.len() as u64);
        reg.set_u64("flight_recorded", self.recorded);
        reg.set_u64("flight_overwritten", self.overwritten);
        if let Some(f) = &self.frozen {
            reg.set_str("flight_freeze_kind", &f.kind);
            reg.set_u64("flight_freeze_ts", f.ts);
            reg.set_u64("flight_freeze_core", u64::from(f.core));
        }
    }
}

/// Serialize a snapshot to the line-oriented dump format: a flat JSON
/// header, then one `core,ts,kind,a,b` CSV line per event (cores in
/// order, each core's events oldest first).
pub fn write_string(snap: &FlightSnapshot) -> String {
    let mut s = String::with_capacity(64 + 24 * snap.len());
    let _ = write!(
        s,
        "{{\"schema\":\"{FLIGHT_SCHEMA}\",\"runtime\":\"{}\",\"ticks_per_us\":{},\
         \"num_cores\":{},\"events\":{},\"recorded\":{},\"overwritten\":{}",
        snap.runtime,
        snap.ticks_per_us,
        snap.per_core.len(),
        snap.len(),
        snap.recorded,
        snap.overwritten,
    );
    if let Some(f) = &snap.frozen {
        let _ = write!(
            s,
            ",\"freeze_ts\":{},\"freeze_kind\":\"{}\",\"freeze_core\":{}",
            f.ts, f.kind, f.core
        );
    }
    s.push_str("}\n");
    for (core, events) in snap.per_core.iter().enumerate() {
        for ev in events {
            let _ = writeln!(s, "{core},{},{},{},{}", ev.ts, ev.kind.as_str(), ev.a, ev.b);
        }
    }
    s
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

/// Parse a dump previously produced by [`write_string`]. Strict: an
/// unknown schema tag, malformed line, out-of-range core, or
/// event-count mismatch against the header is an error.
pub fn parse(input: &str) -> Result<FlightSnapshot, String> {
    let mut lines = input.lines();
    let header = lines
        .next()
        .ok_or_else(|| "empty flight dump".to_string())?;
    match header_str(header, "schema") {
        Some(FLIGHT_SCHEMA) => {}
        Some(other) => {
            return Err(format!(
                "unsupported flight schema {other:?} (want {FLIGHT_SCHEMA:?})"
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
    let recorded = header_u64(header, "recorded").ok_or("header missing \"recorded\"")?;
    let overwritten = header_u64(header, "overwritten").ok_or("header missing \"overwritten\"")?;
    let frozen = header_u64(header, "freeze_ts").map(|ts| {
        Ok::<_, String>(FlightFreeze {
            ts,
            kind: header_str(header, "freeze_kind")
                .ok_or("header has freeze_ts but no freeze_kind")?
                .to_string(),
            core: header_u64(header, "freeze_core")
                .ok_or("header has freeze_ts but no freeze_core")? as u16,
        })
    });
    let frozen = match frozen {
        None => None,
        Some(Ok(f)) => Some(f),
        Some(Err(e)) => return Err(e),
    };

    let mut per_core: Vec<Vec<FlightEvent>> = vec![Vec::new(); num_cores];
    let mut total = 0u64;
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
        let core = parse_u64(next("core")?, "core")? as usize;
        let ts = parse_u64(next("ts")?, "ts")?;
        let kind_s = next("kind")?;
        let kind = FlightKind::parse(kind_s)
            .ok_or_else(|| format!("line {}: unknown flight kind {kind_s:?}", lineno + 2))?;
        let a = parse_u64(next("a")?, "a")?;
        let b = parse_u64(next("b")?, "b")?;
        if core >= num_cores {
            return Err(format!(
                "line {}: core {core} out of range (num_cores {num_cores})",
                lineno + 2
            ));
        }
        per_core[core].push(FlightEvent { ts, kind, a, b });
        total += 1;
    }
    if total != declared_events {
        return Err(format!(
            "header declares {declared_events} events but file has {total}"
        ));
    }
    Ok(FlightSnapshot {
        runtime,
        ticks_per_us,
        frozen,
        per_core,
        recorded,
        overwritten,
    })
}

/// Write a snapshot to `path`.
pub fn save(snap: &FlightSnapshot, path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, write_string(snap))
}

/// Load a snapshot from `path`.
pub fn load(path: &std::path::Path) -> Result<FlightSnapshot, String> {
    let s = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::HealthEvent;

    fn ev(ts: u64, kind: FlightKind, a: u64, b: u64) -> FlightEvent {
        FlightEvent { ts, kind, a, b }
    }

    #[test]
    fn ring_keeps_the_newest_events() {
        let mut r = FlightRing::new(3);
        for i in 0..5u64 {
            r.push(ev(i, FlightKind::Batch, i, 0));
        }
        assert_eq!(r.recorded(), 5);
        assert_eq!(r.overwritten(), 2);
        let ts: Vec<u64> = r.events_in_order().iter().map(|e| e.ts).collect();
        assert_eq!(ts, vec![2, 3, 4], "oldest two overwritten, order kept");
    }

    #[test]
    fn health_kind_codes_match_the_health_event_names() {
        // The code table must track HealthEvent::kind exactly.
        let events = [
            HealthEvent::DropStorm { core: 0, drops: 1 },
            HealthEvent::QueueHighWater {
                core: 0,
                depth: 1,
                capacity: 2,
            },
            HealthEvent::FairnessDip { jain: 0.1 },
            HealthEvent::WatchdogFence {
                core: 0,
                stalled_ticks: 1,
            },
            HealthEvent::WorkerDeath {
                core: 0,
                message: String::new(),
            },
            HealthEvent::ReconfigPhase {
                epoch: 0,
                phase: "rescale",
                cores: 1,
            },
            HealthEvent::AdversarialCollapse {
                core: 0,
                share: 0.9,
            },
            HealthEvent::FaultInjected {
                kind: "crash",
                core: 0,
            },
        ];
        for e in &events {
            let code = health_kind_code(e.kind());
            assert_eq!(health_kind_name(code), Some(e.kind()));
        }
        assert_eq!(health_kind_code("nonsense"), HEALTH_KIND_NAMES.len() as u64);
        assert_eq!(health_kind_name(99), None);
    }

    #[test]
    fn freeze_triggers_are_the_critical_kinds() {
        for kind in [
            "worker_death",
            "watchdog_fence",
            "adversarial_collapse",
            "drop_storm",
        ] {
            assert!(is_freeze_trigger(kind), "{kind}");
        }
        for kind in [
            "queue_high_water",
            "fairness_dip",
            "reconfig_phase",
            "fault_injected",
        ] {
            assert!(!is_freeze_trigger(kind), "{kind}");
        }
    }

    fn sample_snapshot(frozen: bool) -> FlightSnapshot {
        let mut rings = [FlightRing::new(4), FlightRing::new(4)];
        rings[0].push(ev(100, FlightKind::Batch, 8, 3));
        rings[1].push(ev(110, FlightKind::RedirectOut, 0, 0));
        rings[0].push(ev(120, FlightKind::RedirectIn, 250, 0));
        rings[1].push(ev(130, FlightKind::Drop, 1, 0));
        rings[0].push(ev(140, FlightKind::Health, 1, 0));
        let freeze = frozen.then(|| {
            let code = health_kind_code("drop_storm");
            rings[1].push(ev(150, FlightKind::Freeze, code, 1));
            FlightFreeze {
                ts: 150,
                kind: "drop_storm".to_string(),
                core: 1,
            }
        });
        FlightSnapshot::assemble("sim", 1_000_000, freeze, &rings)
    }

    #[test]
    fn dump_round_trips_with_and_without_freeze() {
        for frozen in [false, true] {
            let snap = sample_snapshot(frozen);
            let s = write_string(&snap);
            assert!(s.starts_with("{\"schema\":\"sprayer-flight/1\""));
            let back = parse(&s).expect("parse");
            assert_eq!(back, snap);
        }
    }

    #[test]
    fn parse_rejects_wrong_schema_and_malformed_lines() {
        let s = write_string(&sample_snapshot(true));
        let bad = s.replace("sprayer-flight/1", "sprayer-flight/9");
        assert!(parse(&bad)
            .unwrap_err()
            .contains("unsupported flight schema"));
        assert!(parse("junk\n").unwrap_err().contains("schema"));
        let torn = s.replace("redirect_in", "redirect_gone");
        assert!(parse(&torn).unwrap_err().contains("unknown flight kind"));
        let oob = s.replace("\"num_cores\":2", "\"num_cores\":1");
        assert!(parse(&oob).unwrap_err().contains("out of range"));
    }

    #[test]
    fn parse_rejects_event_count_mismatch() {
        let s = write_string(&sample_snapshot(false));
        let truncated: String = s.lines().take(3).collect::<Vec<_>>().join("\n");
        let err = parse(&truncated).unwrap_err();
        assert!(err.contains("events but file has"), "{err}");
    }

    #[test]
    fn save_and_load_round_trip_through_disk() {
        let snap = sample_snapshot(true);
        let dir = std::env::temp_dir().join("sprayer-flight-test");
        let path = dir.join("dump.flight");
        save(&snap, &path).expect("save");
        let back = load(&path).expect("load");
        assert_eq!(back, snap);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn export_writes_the_flight_metric_set() {
        let mut reg = MetricsRegistry::new();
        sample_snapshot(true).export(&mut reg);
        let (_, doc) = MetricsRegistry::parse_document(&reg.to_json()).unwrap();
        assert_eq!(doc.get("flight_frozen").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("flight_events").unwrap().as_u64(), Some(6));
        assert_eq!(doc.get("flight_recorded").unwrap().as_u64(), Some(6));
        assert_eq!(doc.get("flight_overwritten").unwrap().as_u64(), Some(0));
        assert_eq!(
            doc.get("flight_freeze_kind").unwrap().as_str(),
            Some("drop_storm")
        );
        let mut reg = MetricsRegistry::new();
        sample_snapshot(false).export(&mut reg);
        let (_, doc) = MetricsRegistry::parse_document(&reg.to_json()).unwrap();
        assert_eq!(doc.get("flight_frozen").unwrap().as_u64(), Some(0));
        assert!(doc.get("flight_freeze_kind").is_none());
    }
}
