//! A versioned, ordered metrics snapshot.
//!
//! [`MetricsRegistry`] is the one way the experiments build their
//! telemetry JSON: insertion-ordered `name → value` pairs serialized as
//! a single object whose first field is always `"schema_version"`.
//! Values can be integers, floats, strings, pre-serialized JSON blocks
//! (e.g. `MiddleboxStats::to_json`), or [`Histogram`]s.

use crate::hist::Histogram;
use crate::json::JsonValue;

/// Version of the telemetry JSON documents the benches emit, and the
/// only one [`MetricsRegistry::parse_document`] reads: every document in
/// the tree is regenerated when it moves.
///
/// v5 documents may carry, beside the per-datapoint stats blocks and
/// histograms, time-series sampling blocks (`SampleSet::to_json`), the
/// health plane's `profile_*`/`health_*`/`reorder_*` metric sets, tail
/// attribution's `tail_*` set, the flight recorder's `flight_*` summary,
/// and the bounded-ring loss counters (`trace_events_dropped`,
/// `health_events_dropped`, `reorder_untracked_completions`).
pub const TELEMETRY_SCHEMA_VERSION: u64 = 5;

#[derive(Debug, Clone)]
enum Value {
    U64(u64),
    F64(f64),
    Str(String),
    /// Pre-serialized JSON, embedded verbatim.
    Raw(String),
}

/// Insertion-ordered name→value snapshot serializing to one JSON object.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    entries: Vec<(String, Value)>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn set(&mut self, name: &str, value: Value) {
        if let Some(e) = self.entries.iter_mut().find(|(n, _)| n == name) {
            e.1 = value;
        } else {
            self.entries.push((name.to_string(), value));
        }
    }

    /// Set an integer metric.
    pub fn set_u64(&mut self, name: &str, value: u64) {
        self.set(name, Value::U64(value));
    }

    /// Set a float metric (serialized as `null` if non-finite).
    pub fn set_f64(&mut self, name: &str, value: f64) {
        self.set(name, Value::F64(value));
    }

    /// Set a string metric.
    pub fn set_str(&mut self, name: &str, value: &str) {
        self.set(name, Value::Str(value.to_string()));
    }

    /// Embed a pre-serialized JSON value verbatim (object, array, …).
    pub fn set_raw_json(&mut self, name: &str, json: String) {
        self.set(name, Value::Raw(json));
    }

    /// Embed a histogram (via [`Histogram::to_json`]).
    pub fn set_histogram(&mut self, name: &str, hist: &Histogram) {
        self.set(name, Value::Raw(hist.to_json()));
    }

    /// Number of metrics set (excluding the implicit version field).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no metrics were set.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serialize as one JSON object, `"schema_version"` first, then the
    /// metrics in insertion order.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(64 + 32 * self.entries.len());
        let _ = write!(s, "{{\"schema_version\":{TELEMETRY_SCHEMA_VERSION}");
        for (name, value) in &self.entries {
            s.push(',');
            s.push('"');
            escape_into(&mut s, name);
            s.push_str("\":");
            match value {
                Value::U64(v) => {
                    let _ = write!(s, "{v}");
                }
                Value::F64(v) if v.is_finite() => {
                    let _ = write!(s, "{v}");
                }
                Value::F64(_) => s.push_str("null"),
                Value::Str(v) => {
                    s.push('"');
                    escape_into(&mut s, v);
                    s.push('"');
                }
                Value::Raw(v) => s.push_str(v),
            }
        }
        s.push('}');
        s
    }

    /// Parse a telemetry document. Returns `(version, document)`; errors
    /// on malformed JSON, a non-object root, or any `schema_version`
    /// other than [`TELEMETRY_SCHEMA_VERSION`] (a missing one included):
    /// regenerate an old document instead of misreading it.
    pub fn parse_document(text: &str) -> Result<(u64, JsonValue), String> {
        let doc = JsonValue::parse(text)?;
        if doc.as_object().is_none() {
            return Err("telemetry document root must be an object".to_string());
        }
        let version = doc.get("schema_version").and_then(JsonValue::as_u64);
        if version != Some(TELEMETRY_SCHEMA_VERSION) {
            return Err(format!(
                "telemetry schema_version {version:?} is not {TELEMETRY_SCHEMA_VERSION}: \
                 regenerate the document"
            ));
        }
        Ok((TELEMETRY_SCHEMA_VERSION, doc))
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_comes_first_and_order_is_preserved() {
        let mut r = MetricsRegistry::new();
        r.set_str("figure", "6a");
        r.set_u64("cycles", 10_000);
        r.set_f64("mpps", 1.5);
        let j = r.to_json();
        assert!(j.starts_with("{\"schema_version\":5,\"figure\":\"6a\""));
        let ci = j.find("\"cycles\"").unwrap();
        let mi = j.find("\"mpps\"").unwrap();
        assert!(ci < mi);
    }

    #[test]
    fn current_documents_round_trip_through_the_parser() {
        let mut r = MetricsRegistry::new();
        r.set_str("figure", "9");
        r.set_u64("flows", 128);
        r.set_f64("jain_mean", 0.97);
        r.set_raw_json(
            "samples",
            "{\"jain\":[1.0,0.5],\"per_core\":[]}".to_string(),
        );
        let (version, doc) = MetricsRegistry::parse_document(&r.to_json()).unwrap();
        assert_eq!(version, TELEMETRY_SCHEMA_VERSION);
        assert_eq!(doc.get("figure").unwrap().as_str(), Some("9"));
        assert_eq!(doc.get("flows").unwrap().as_u64(), Some(128));
        assert_eq!(doc.get("jain_mean").unwrap().as_f64(), Some(0.97));
        let jain = doc.get("samples").unwrap().get("jain").unwrap();
        assert_eq!(jain.as_array().unwrap().len(), 2);
    }

    #[test]
    fn parser_rejects_documents_from_older_versions() {
        // v1 (no schema_version field) through v4: the shapes were
        // compatible, but nothing in the tree is older than the current
        // version, so an old document is an error, not a silent read.
        for old in [
            "{\"figure\":\"6a\",\"mpps\":1.25}",
            "{\"schema_version\":2,\"datapoints\":[{\"cycles\":0}]}",
            "{\"schema_version\":3,\"samples\":{\"jain\":[1.0]}}",
            "{\"schema_version\":4,\"health_alerts_total\":2}",
        ] {
            let err = MetricsRegistry::parse_document(old).unwrap_err();
            assert!(err.contains("schema_version"), "{old}: {err}");
        }
    }

    #[test]
    fn parser_rejects_future_versions_and_junk() {
        assert!(MetricsRegistry::parse_document("{\"schema_version\":6}").is_err());
        assert!(MetricsRegistry::parse_document("{\"schema_version\":-1}").is_err());
        assert!(MetricsRegistry::parse_document("[1,2]").is_err());
        assert!(MetricsRegistry::parse_document("{\"unterminated").is_err());
    }

    #[test]
    fn values_serialize_by_type() {
        let mut r = MetricsRegistry::new();
        r.set_u64("n", 3);
        r.set_f64("x", 2.5);
        r.set_f64("bad", f64::NAN);
        r.set_str("s", "a\"b");
        r.set_raw_json("obj", "{\"k\":1}".to_string());
        let j = r.to_json();
        assert!(j.contains("\"n\":3"));
        assert!(j.contains("\"x\":2.5"));
        assert!(j.contains("\"bad\":null"));
        assert!(j.contains("\"s\":\"a\\\"b\""));
        assert!(j.contains("\"obj\":{\"k\":1}"));
    }

    #[test]
    fn setting_twice_overwrites_in_place() {
        let mut r = MetricsRegistry::new();
        r.set_u64("a", 1);
        r.set_u64("b", 2);
        r.set_u64("a", 9);
        assert_eq!(r.len(), 2);
        let j = r.to_json();
        assert!(j.contains("\"a\":9"));
        assert!(j.find("\"a\"").unwrap() < j.find("\"b\"").unwrap());
    }

    #[test]
    fn histograms_embed_as_objects() {
        let mut h = Histogram::new(6);
        h.record(42);
        let mut r = MetricsRegistry::new();
        r.set_histogram("lat", &h);
        let j = r.to_json();
        assert!(j.contains("\"lat\":{\"sub_bits\":6"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}
