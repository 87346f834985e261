//! Benchmark regression gate: diff a fresh telemetry document against a
//! committed baseline.
//!
//! The simulator is deterministic, so the registry documents the
//! experiments write (`results/*_telemetry.json`) reproduce byte-for-byte
//! on an unchanged tree — which makes them usable as regression
//! baselines (`results/baselines/`). The gate parses both sides with
//! [`MetricsRegistry::parse_document`] (the current schema version),
//! flattens numeric leaves to dotted paths, and compares the subset of
//! leaves that name a *gated metric* (throughput, fairness, coverage —
//! see [`rule_for`]) under per-metric relative thresholds. Everything
//! else in the document is context, not a gate.
//!
//! Consumers: `sprayer-bench gate` (CI job `bench-gate`) walks every
//! baseline, writes a `BENCH_<name>.json` trajectory artifact per
//! comparison, and exits 0 (pass), 1 (error: unreadable/missing/shape
//! mismatch), or 2 (regression).

use sprayer_obs::{JsonValue, MetricsRegistry};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Whether a larger value of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Throughput-like: a drop beyond the threshold is a regression.
    HigherIsBetter,
    /// Deviation-like: a rise beyond the threshold is a regression.
    LowerIsBetter,
}

/// Per-metric gate policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateRule {
    /// Which way is better.
    pub direction: Direction,
    /// Allowed relative movement in the bad direction (0.10 = 10%).
    pub rel_threshold: f64,
    /// Absolute slack added on top — lets near-zero baselines (e.g. a
    /// 0.003 checksum deviation) move without tripping a meaningless
    /// relative bound.
    pub abs_slack: f64,
}

impl GateRule {
    /// The movement allowed in the bad direction for this baseline value.
    pub fn allowance(&self, baseline: f64) -> f64 {
        (baseline.abs() * self.rel_threshold).max(self.abs_slack)
    }

    /// True if `current` vs `baseline` violates the rule.
    pub fn regressed(&self, baseline: f64, current: f64) -> bool {
        match self.direction {
            Direction::HigherIsBetter => current < baseline - self.allowance(baseline),
            Direction::LowerIsBetter => current > baseline + self.allowance(baseline),
        }
    }
}

/// The gate policy for a leaf metric name, or `None` if the leaf is
/// context only. Matches the field names the experiments emit;
/// only *object fields* are gated (array elements — e.g. per-bucket
/// `jain` timeline entries — are trajectory data, not gates).
pub fn rule_for(metric: &str) -> Option<GateRule> {
    let rule = |direction, rel_threshold, abs_slack| {
        Some(GateRule {
            direction,
            rel_threshold,
            abs_slack,
        })
    };
    match metric {
        // Throughput: 10% relative, the usual run-to-run guard band.
        "mpps" | "gbps" | "gbps_mean" | "sampled_gbps" => {
            rule(Direction::HigherIsBetter, 0.10, 0.0)
        }
        // Fairness indices live in (0, 1] and matter at the percent
        // level: 5% relative.
        "jain" | "jain_mean" | "jain_min" | "sampled_jain" => {
            rule(Direction::HigherIsBetter, 0.05, 0.0)
        }
        // DPI scan coverage / detection recall.
        "coverage" | "recall" => rule(Direction::HigherIsBetter, 0.10, 0.01),
        // Checksum residue deviation: lower is better, with absolute
        // slack for the near-zero uniform cases.
        "deviation" => rule(Direction::LowerIsBetter, 0.10, 0.05),
        // Elastic reconfiguration cost (fig_elastic): totals only — the
        // per-event `reconfig_timeline` entries reuse unprefixed field
        // names and stay trajectory data. Migration counts are exact in
        // the deterministic simulator, so zero slack keeps "Sprayer
        // scale-up migrates nothing" an enforced invariant.
        "reconfig_migrated_flows_total" | "reconfig_migrated_packets_total" => {
            rule(Direction::LowerIsBetter, 0.0, 0.0)
        }
        "reconfig_downtime_ns_total" | "reconfig_downtime_ns_max" => {
            rule(Direction::LowerIsBetter, 0.10, 1_000.0)
        }
        // Fault recovery (fig_chaos): state-movement counts are exact
        // in the deterministic simulator — zero slack keeps "Sprayer
        // recovery migrates nothing and loses only the dead core's
        // flows" an enforced invariant. Per-event `recovery_timeline`
        // fields reuse unprefixed names and stay trajectory data.
        "recovery_flows_migrated_total" | "recovery_flows_lost_total" => {
            rule(Direction::LowerIsBetter, 0.0, 0.0)
        }
        "recovery_downtime_ns_total" | "recovery_downtime_ns_max" => {
            rule(Direction::LowerIsBetter, 0.10, 1_000.0)
        }
        "fault_detection_latency_ns_max" => rule(Direction::LowerIsBetter, 0.10, 1_000.0),
        // Health plane (fig_health): alert counts are deterministic in
        // the simulator — zero slack keeps "the same faults raise the
        // same alerts, and healthy runs raise none" an enforced
        // invariant. The companion `health_events_*` counts and the raw
        // event/alert records stay context.
        "health_alerts_total" => rule(Direction::LowerIsBetter, 0.0, 0.0),
        // Bounded-ring loss counters: the standard scenarios size every
        // ring to hold their whole run, so any drop is an observability
        // regression — zero slack keeps "the rings never overflow" an
        // enforced invariant. Likewise the reorder sketch's capacity
        // overflow counter.
        "health_events_dropped" | "trace_events_dropped" | "reorder_untracked_completions" => {
            rule(Direction::LowerIsBetter, 0.0, 0.0)
        }
        // Tail attribution (fig_tail): exemplar counts are exact in the
        // deterministic simulator under a fixed threshold — more
        // exemplars means the tail got fatter. The companion
        // `tail_completions` / threshold / share fields are context.
        "tail_exemplars" => rule(Direction::LowerIsBetter, 0.0, 0.0),
        // Flight recorder: a crash scenario whose baseline latched a
        // freeze must keep latching one — losing the dump on a crash is
        // a post-mortem regression. Healthy baselines hold 0 and any
        // current value passes (freezing is never *worse*).
        "flight_frozen" => rule(Direction::HigherIsBetter, 0.0, 0.0),
        // Stage attribution: the NF body must keep dominating the
        // profiled time — a >10% relative drop in its share means
        // framework overhead (classify/redirect/tx) crept into the hot
        // path. The other stage shares are context (they trade off
        // against each other).
        "profile_nf_share" => rule(Direction::HigherIsBetter, 0.10, 0.0),
        // Hot-path smoke (hotpath_smoke): wall-clock ns/packet, the one
        // gated metric that is NOT simulator-deterministic. The slack is
        // deliberately huge — 100% relative plus 30 ns absolute — so
        // shared-runner jitter passes and only order-of-magnitude
        // regressions (losing the batch path, the Toeplitz LUT, or the
        // wide checksum loop) trip the gate. The companion
        // `ref_ns_per_packet` / `speedup` fields are context.
        "ns_per_packet" => rule(Direction::LowerIsBetter, 1.0, 30.0),
        // SCR replication (fig_chaos SCR datapoint): full replicas mean
        // a crash destroys no state and the update-conservation identity
        // closes at drain — both exact in the deterministic simulator,
        // so zero slack keeps them enforced invariants. `scr_replay_gap`
        // also rides inside every embedded SCR `telemetry` block, gating
        // it wherever it appears.
        "scr_flows_lost" | "scr_replay_gap" => rule(Direction::LowerIsBetter, 0.0, 0.0),
        // Replay overhead per delivered packet: the cost of keeping the
        // replicas hot. 10% relative, like the throughput gates it
        // trades against.
        "scr_replay_cycles_per_packet" => rule(Direction::LowerIsBetter, 0.10, 0.0),
        // Blast radius in packets: deterministic, but sensitive to the
        // exact interleaving around the crash instant — a small absolute
        // slack absorbs schedule-neutral refactors.
        "fault_packets_lost_total" | "fault_malformed_drops_total" => {
            rule(Direction::LowerIsBetter, 0.10, 16.0)
        }
        // Flow-lifecycle memory (fig_soak): the bounded-memory claim,
        // enforced with zero upward slack — the table occupancy
        // high-water mark is exact in the deterministic simulator, so
        // any rise means the lifecycle (FIN reclaim, idle aging, LRU
        // backstop) lost ground. It also rides inside every
        // lifecycle-enabled `telemetry` block, gating it wherever it
        // appears.
        "table_occupancy_hwm" => rule(Direction::LowerIsBetter, 0.0, 0.0),
        // The soak baselines hold this at zero: steady churn must be
        // contained by FIN reclaim and idle aging alone — the first
        // capacity eviction means the table outgrew its policy.
        "lru_evicted" => rule(Direction::LowerIsBetter, 0.0, 0.0),
        _ => None,
    }
}

/// A numeric leaf of a telemetry document.
#[derive(Debug, Clone, PartialEq)]
pub struct Leaf {
    /// Dotted path from the root, arrays indexed as `[i]`.
    pub path: String,
    /// The leaf's object-field name, `None` for array elements.
    pub name: Option<String>,
    /// The value.
    pub value: f64,
}

/// Flatten every numeric leaf of a parsed document (depth-first,
/// document order).
pub fn flatten_numeric(doc: &JsonValue) -> Vec<Leaf> {
    let mut out = Vec::new();
    walk(doc, String::new(), None, &mut out);
    out
}

fn walk(v: &JsonValue, path: String, name: Option<&str>, out: &mut Vec<Leaf>) {
    match v {
        JsonValue::Num(n) => out.push(Leaf {
            path,
            name: name.map(str::to_string),
            value: *n,
        }),
        JsonValue::Obj(fields) => {
            for (k, child) in fields {
                let p = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                walk(child, p, Some(k), out);
            }
        }
        JsonValue::Arr(items) => {
            for (i, child) in items.iter().enumerate() {
                walk(child, format!("{path}[{i}]"), None, out);
            }
        }
        _ => {}
    }
}

/// One gated metric's baseline-vs-current comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDiff {
    /// Dotted path of the metric.
    pub path: String,
    /// Committed value.
    pub baseline: f64,
    /// Freshly measured value.
    pub current: f64,
    /// `(current - baseline) / baseline` (0 when the baseline is 0 and
    /// the values agree, ±∞ otherwise).
    pub rel_change: f64,
    /// The rule applied.
    pub rule: GateRule,
    /// Whether the rule was violated.
    pub regressed: bool,
}

/// Result of gating one document pair.
#[derive(Debug, Clone)]
pub struct GateReport {
    /// Gate name (the baseline file stem).
    pub name: String,
    /// Every gated metric found in the baseline, in document order.
    pub metrics: Vec<MetricDiff>,
    /// Gated baseline paths with no counterpart in the fresh document —
    /// a shape mismatch, reported as an error (exit 1), not a pass.
    pub missing: Vec<String>,
    /// Gated fresh-document paths with no counterpart in the baseline:
    /// *new* metrics an experiment started emitting after the baseline was
    /// committed. Not a failure (the values have no reference yet), but
    /// surfaced so the baseline gets refreshed instead of the new
    /// metrics riding ungated forever.
    pub added: Vec<String>,
}

impl GateReport {
    /// Number of regressed metrics.
    pub fn regressions(&self) -> usize {
        self.metrics.iter().filter(|m| m.regressed).count()
    }

    /// True when nothing regressed and nothing was missing.
    pub fn ok(&self) -> bool {
        self.regressions() == 0 && self.missing.is_empty()
    }

    /// Serialize as a versioned registry document — the
    /// `BENCH_<name>.json` trajectory artifact CI uploads. Each entry
    /// keeps both endpoints so a plot across CI runs shows the metric's
    /// history, not just a verdict.
    pub fn to_json(&self) -> String {
        let mut items = Vec::with_capacity(self.metrics.len());
        for m in &self.metrics {
            let mut s = String::new();
            let _ = write!(
                s,
                "{{\"path\":\"{}\",\"baseline\":{},\"current\":{},\
                 \"rel_change\":{},\"allowed\":{},\"regressed\":{}}}",
                m.path,
                json_num(m.baseline),
                json_num(m.current),
                json_num(m.rel_change),
                json_num(m.rule.allowance(m.baseline)),
                m.regressed,
            );
            items.push(s);
        }
        let mut reg = MetricsRegistry::new();
        reg.set_str("kind", "bench_gate");
        reg.set_str("gate", &self.name);
        reg.set_u64("gated_metrics", self.metrics.len() as u64);
        reg.set_u64("regressions", self.regressions() as u64);
        reg.set_raw_json("metrics", crate::report::json_array(&items));
        let path_list = |paths: &[String]| {
            format!(
                "[{}]",
                paths
                    .iter()
                    .map(|p| format!("\"{p}\""))
                    .collect::<Vec<_>>()
                    .join(",")
            )
        };
        reg.set_raw_json("missing", path_list(&self.missing));
        reg.set_raw_json("added", path_list(&self.added));
        reg.to_json()
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Gate a fresh telemetry document against a committed baseline. Both
/// must parse as telemetry documents of the current schema version;
/// metric selection runs over the *baseline*, so adding new metrics to
/// an experiment never breaks the gate until the baseline is refreshed.
pub fn compare(name: &str, baseline: &str, current: &str) -> Result<GateReport, String> {
    let (_, bdoc) =
        MetricsRegistry::parse_document(baseline).map_err(|e| format!("{name}: baseline: {e}"))?;
    let (_, cdoc) =
        MetricsRegistry::parse_document(current).map_err(|e| format!("{name}: current: {e}"))?;

    let fresh_leaves = flatten_numeric(&cdoc);
    let fresh: HashMap<String, f64> = fresh_leaves
        .iter()
        .map(|l| (l.path.clone(), l.value))
        .collect();

    let mut metrics = Vec::new();
    let mut missing = Vec::new();
    let baseline_leaves = flatten_numeric(&bdoc);
    // Gated metrics the fresh document emits that the baseline never
    // saw: report them so a stale baseline can't silently leave new
    // metrics ungated.
    let baseline_paths: std::collections::HashSet<&str> =
        baseline_leaves.iter().map(|l| l.path.as_str()).collect();
    let added: Vec<String> = fresh_leaves
        .iter()
        .filter(|l| {
            l.name.as_deref().and_then(rule_for).is_some()
                && !baseline_paths.contains(l.path.as_str())
        })
        .map(|l| l.path.clone())
        .collect();
    for leaf in baseline_leaves {
        let Some(rule) = leaf.name.as_deref().and_then(rule_for) else {
            continue;
        };
        match fresh.get(&leaf.path) {
            None => missing.push(leaf.path),
            Some(&current) => {
                let baseline = leaf.value;
                let rel_change = if baseline != 0.0 {
                    (current - baseline) / baseline
                } else if current == 0.0 {
                    0.0
                } else {
                    f64::INFINITY * current.signum()
                };
                metrics.push(MetricDiff {
                    path: leaf.path,
                    baseline,
                    current,
                    rel_change,
                    rule,
                    regressed: rule.regressed(baseline, current),
                });
            }
        }
    }
    Ok(GateReport {
        name: name.to_string(),
        metrics,
        missing,
        added,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A current-version document with the given top-level fields.
    fn doc(fields: &str) -> String {
        format!(
            "{{\"schema_version\":{},{fields}}}",
            sprayer_obs::TELEMETRY_SCHEMA_VERSION
        )
    }

    #[test]
    fn rules_cover_the_emitted_metric_names_and_nothing_else() {
        for gated in [
            "mpps",
            "gbps",
            "gbps_mean",
            "sampled_gbps",
            "jain",
            "jain_mean",
            "jain_min",
            "sampled_jain",
            "coverage",
            "recall",
            "deviation",
            "reconfig_migrated_flows_total",
            "reconfig_migrated_packets_total",
            "reconfig_downtime_ns_total",
            "reconfig_downtime_ns_max",
            "recovery_flows_migrated_total",
            "recovery_flows_lost_total",
            "recovery_downtime_ns_total",
            "recovery_downtime_ns_max",
            "fault_detection_latency_ns_max",
            "fault_packets_lost_total",
            "fault_malformed_drops_total",
            "ns_per_packet",
            "health_alerts_total",
            "health_events_dropped",
            "trace_events_dropped",
            "reorder_untracked_completions",
            "tail_exemplars",
            "flight_frozen",
            "profile_nf_share",
            "scr_flows_lost",
            "scr_replay_gap",
            "scr_replay_cycles_per_packet",
            "table_occupancy_hwm",
            "lru_evicted",
        ] {
            assert!(rule_for(gated).is_some(), "{gated}");
        }
        for context in [
            "cycles",
            // Hot-path smoke companions: the reference cost and the
            // derived ratio are context, only `ns_per_packet` gates.
            "ref_ns_per_packet",
            "speedup",
            "flows",
            "offered",
            "processed",
            "redirects",
            "k",
            // Per-event timeline fields stay trajectory data.
            "migrated_flows",
            "downtime_ns",
            "reconfig_events",
            "recovery_events",
            "flows_lost",
            "packets_lost",
            "detection_latency_ns",
            "jain_floor_under_attack",
            "adversarial_injected",
            // Health-plane companions: event totals and per-kind counts
            // vary with obs coverage, not dataplane quality; only the
            // evaluated alert count (and the ring-loss counters) gate.
            // The non-NF stage shares trade off against each other —
            // only the NF share gates.
            "health_events_total",
            "health_alerts_critical",
            // Tail/flight companions: the counts describe the run, the
            // gated invariants are exemplars and the freeze latch.
            "tail_completions",
            "tail_threshold_ticks",
            "tail_rolling",
            "tail_exemplar_share",
            "flight_recorded",
            "flight_overwritten",
            "flight_events",
            "profile_classify_share",
            "profile_redirect_share",
            "profile_tx_share",
            "profile_nf_ticks",
            "reorder_completions",
            "reorder_reordered",
            "reorder_depth_p99",
            // SCR companions: raw plane counters describe the run; the
            // gated invariants are the gap, the lost-state count, and
            // the per-packet replay cost.
            "scr_published",
            "scr_applied",
            "scr_log_drops",
            "scr_replay_cycles",
            "scr_log_occupancy_hwm",
            // Flow-lifecycle companions (fig_soak): the reason counters
            // describe where entries went — they trade off against each
            // other (a FIN lost in a crash window turns into an idle
            // expiry), so only the high-water mark and the LRU count
            // gate. The timeline entries (occupancy/fin/idle/...) are
            // trajectory data.
            "flows_created",
            "fin_reclaimed",
            "idle_expired",
            "replica_dels",
            "flows_dropped",
            "flow_unaccounted",
            "table_live",
            "flows_spawned",
            "flows_completed",
            "flows_suppressed",
            "steady_occupancy_mean",
            "steady_occupancy_drift",
            "jain_steady",
        ] {
            assert!(rule_for(context).is_none(), "{context}");
        }
    }

    #[test]
    fn flatten_paths_index_arrays_and_dot_objects() {
        let doc =
            JsonValue::parse("{\"a\":1,\"b\":{\"c\":2.5},\"d\":[{\"mpps\":3},[4]],\"s\":\"x\"}")
                .unwrap();
        let leaves = flatten_numeric(&doc);
        let paths: Vec<&str> = leaves.iter().map(|l| l.path.as_str()).collect();
        assert_eq!(paths, ["a", "b.c", "d[0].mpps", "d[1][0]"]);
        assert_eq!(leaves[2].name.as_deref(), Some("mpps"));
        assert_eq!(leaves[3].name, None, "array elements carry no field name");
    }

    #[test]
    fn throughput_drop_beyond_threshold_regresses_and_gain_never_does() {
        let base = doc("\"datapoints\":[{\"mpps\":10.0,\"cycles\":0}]");
        let drop = doc("\"datapoints\":[{\"mpps\":8.0,\"cycles\":0}]");
        let gain = doc("\"datapoints\":[{\"mpps\":13.0,\"cycles\":0}]");
        let ok = doc("\"datapoints\":[{\"mpps\":9.5,\"cycles\":0}]");
        let r = compare("t", &base, &drop).unwrap();
        assert_eq!(r.regressions(), 1);
        assert!(!r.ok());
        assert!(compare("t", &base, &gain).unwrap().ok());
        assert!(compare("t", &base, &ok).unwrap().ok());
        // `cycles` is context: never gated, never "missing".
        assert_eq!(r.metrics.len(), 1);
    }

    #[test]
    fn lower_is_better_metrics_gate_the_other_way_with_abs_slack() {
        let base = doc("\"deviation\":0.02");
        let gate = |cur: &str| compare("t", &base, &doc(cur)).unwrap();
        // 0.02 -> 0.06 is within the 0.05 absolute slack.
        assert!(gate("\"deviation\":0.06").ok());
        assert_eq!(gate("\"deviation\":0.2").regressions(), 1);
        // Improvement is always fine.
        assert!(gate("\"deviation\":0.0").ok());
    }

    #[test]
    fn timeline_arrays_are_trajectory_not_gates() {
        // A sampler block's per-bucket `jain` entries are array elements:
        // context. Only the scalar field gates.
        let base = doc("\"jain\":0.99,\"samples\":{\"jain\":[1.0,0.2,0.9]}");
        let cur = doc("\"jain\":0.99,\"samples\":{\"jain\":[0.1,0.1,0.1]}");
        let r = compare("t", &base, &cur).unwrap();
        assert!(r.ok());
        assert_eq!(r.metrics.len(), 1);
        assert_eq!(r.metrics[0].path, "jain");
    }

    #[test]
    fn missing_gated_paths_are_errors_not_passes() {
        let base = doc("\"datapoints\":[{\"mpps\":10.0},{\"mpps\":11.0}]");
        let cur = doc("\"datapoints\":[{\"mpps\":10.0}]");
        let r = compare("t", &base, &cur).unwrap();
        assert_eq!(r.missing, vec!["datapoints[1].mpps".to_string()]);
        assert!(!r.ok());
    }

    #[test]
    fn new_gated_metrics_are_reported_not_silently_ignored() {
        // The fresh document grew a gated metric (and a gated datapoint
        // field) the committed baseline has never seen: still a pass,
        // but the additions are named so the baseline gets refreshed.
        let base = doc("\"mpps\":10.0,\"flows\":4");
        let cur = doc(
            "\"mpps\":10.0,\"flows\":4,\"reconfig_migrated_flows_total\":3,\
             \"datapoints\":[{\"jain\":0.97,\"cycles\":7}]",
        );
        let r = compare("t", &base, &cur).unwrap();
        assert!(r.ok(), "new metrics alone must not fail the gate");
        assert_eq!(
            r.added,
            vec![
                "reconfig_migrated_flows_total".to_string(),
                "datapoints[0].jain".to_string(),
            ]
        );
        // Context-only additions (`cycles`) are not reported, and an
        // unchanged pair reports nothing.
        assert!(compare("t", &base, &base).unwrap().added.is_empty());
        // The additions survive into the trajectory artifact.
        let (_, doc) = MetricsRegistry::parse_document(&r.to_json()).unwrap();
        let added = doc.get("added").unwrap().as_array().unwrap();
        assert_eq!(added.len(), 2);
        assert_eq!(added[0].as_str(), Some("reconfig_migrated_flows_total"));
    }

    #[test]
    fn report_serializes_as_a_parseable_registry_document() {
        let base = doc("\"mpps\":10.0,\"jain\":0.9");
        let cur = doc("\"mpps\":7.0,\"jain\":0.91");
        let r = compare("g", &base, &cur).unwrap();
        let (v, doc) = MetricsRegistry::parse_document(&r.to_json()).unwrap();
        assert_eq!(v, sprayer_obs::TELEMETRY_SCHEMA_VERSION);
        assert_eq!(doc.get("gate").unwrap().as_str(), Some("g"));
        assert_eq!(doc.get("regressions").unwrap().as_u64(), Some(1));
        let metrics = doc.get("metrics").unwrap().as_array().unwrap();
        assert_eq!(metrics.len(), 2);
        assert_eq!(metrics[0].get("path").unwrap().as_str(), Some("mpps"));
    }

    #[test]
    fn unreadable_documents_error() {
        let ok = doc("\"mpps\":1.0");
        assert!(compare("t", "not json", &ok).is_err());
        assert!(compare("t", &ok, "[1]").is_err());
        assert!(compare("t", "{\"schema_version\":99}", &ok).is_err());
        // A document from an older schema is regenerated, not read.
        assert!(compare("t", "{\"schema_version\":3,\"mpps\":1.0}", &ok).is_err());
        assert!(compare("t", &ok, &ok).is_ok());
    }
}
