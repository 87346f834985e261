//! # sprayer-obs — observability for the Sprayer reproduction
//!
//! The paper's central trade-off — spraying buys load balance at the
//! cost of intra-flow reordering and cross-core state traffic (§3,
//! Fig. 8–9) — is invisible to aggregate counters. This crate is the
//! per-packet layer underneath `MiddleboxStats`:
//!
//! * [`TraceEvent`] / [`TraceRing`] — a typed, bounded, drop-counting
//!   event log. Each threaded-runtime worker owns a ring (the
//!   single-threaded simulator uses one for all cores), so recording is
//!   an unsynchronized write into chunked storage; a single shared
//!   sequence counter (one relaxed `fetch_add` per event) gives a
//!   global order to merge on.
//! * [`Histogram`] — an HDR-style log-linear histogram over `u64`
//!   values with merge, exact counts, and bounded-relative-error
//!   percentiles. Also the home of the batch-size bucket math that
//!   `sprayer::stats` re-exports, so the two cannot drift.
//! * [`LatencyProbes`] — the three standard latency histograms
//!   (sojourn, queue wait, redirect) both runtimes populate.
//! * [`TimeSeries`] / [`SampleSet`] — bounded, downsampling per-core
//!   delta buckets recorded at a configurable interval, with derived
//!   imbalance timelines (instantaneous Jain's index, utilization skew,
//!   drop rate); [`LiveSlots`] is the lock-free live-view counterpart.
//! * [`MetricsRegistry`] — an ordered name→value snapshot that
//!   serializes one versioned JSON telemetry document, with a read path
//!   ([`JsonValue`], `MetricsRegistry::parse_document`) that accepts
//!   the current schema version only.
//! * [`mod@analyze`] / [`trace_io`] — offline replay: per-flow reordering
//!   depth, latency breakdowns, conservation checks against
//!   the runtime's own counters, and a stable on-disk trace format.
//! * The **online health plane**: [`StageProfiler`] (per-core busy-time
//!   attribution across classify/redirect/nf/tx, the `profile_*` metric
//!   set), [`ReorderSketch`] (streaming bounded-memory reordering-depth
//!   estimation, cross-validated against [`mod@analyze`]'s Fenwick
//!   analyzer), the [`HealthBus`] (bounded MPSC stream of typed
//!   [`HealthEvent`]s from both runtimes and the ctl crate), and the
//!   [`slo`] evaluator turning thresholds into [`Alert`] records
//!   (`health_*` metric set).
//! * [`TailTracker`] — exemplar-based tail-latency attribution: slow
//!   completions record per-stage span breakdowns into a per-(stage,
//!   core) histogram table (the `tail_*` metric set), so a p999 comes
//!   with a *where*.
//! * [`FlightRing`] — the crash flight recorder's storage: always-on,
//!   fixed-memory keep-newest per-core event rings that (under the
//!   freeze latch `sprayer::obs_sink` keeps) stop at a critical health
//!   event and dump a [`flight`] (`sprayer-flight/1`) snapshot for the
//!   `blackbox` post-mortem analyzer.
//!
//! The crate deliberately depends on nothing but the (vendored) serde
//! façade and `parking_lot`: both `sprayer` (core) and the benches can
//! use it without dependency cycles. Timestamps are opaque `u64`
//! *ticks*; the producing runtime declares its tick rate in
//! [`TraceMeta::ticks_per_us`] (simulator: picoseconds of simulated
//! time; threaded runtime: nanoseconds of wall time since the run
//! started).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod event;
pub mod flight;
pub mod health;
pub mod hist;
pub mod json;
pub mod profile;
pub mod registry;
pub mod reorder;
pub mod ring;
pub mod sampler;
pub mod series;
pub mod slo;
pub mod tail;
pub mod trace_io;

pub use analyze::{
    analyze, tail_attribution, Conservation, CoreRedirects, FlowReport, LatencyBreakdown,
    LatencySummary, TailAttribution, TraceAnalysis,
};
pub use event::{DropKind, EventKind, TraceEvent};
pub use flight::{
    health_kind_code, health_kind_name, is_freeze_trigger, FlightEvent, FlightFreeze, FlightKind,
    FlightRing, FlightSnapshot, FLIGHT_SCHEMA,
};
pub use health::{
    health_channel, HealthBus, HealthCollector, HealthEvent, HealthRecord, HealthReport,
};
pub use hist::{
    batch_bucket, Histogram, HistogramSummary, LatencyProbes, BATCH_BUCKET_LO, BATCH_HIST_BUCKETS,
};
pub use json::JsonValue;
pub use profile::{ProfileSlots, Stage, StageProfile, StageProfiler, STAGE_COUNT};
pub use registry::{MetricsRegistry, TELEMETRY_SCHEMA_VERSION};
pub use reorder::{ReorderReport, ReorderSketch, SharedReorderSketch};
pub use ring::{ExpectedCounts, Trace, TraceMeta, TraceRing};
pub use sampler::{LiveCore, LiveSlots, SampleSet};
pub use series::{CoreSample, TimeSeries};
pub use slo::{evaluate, export_health_telemetry, Alert, Severity, SloRules};
pub use tail::{
    TailCoreTable, TailReport, TailSpans, TailStage, TailTracker, TAIL_RECOMPUTE_EVERY,
    TAIL_STAGE_COUNT,
};
