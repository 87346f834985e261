//! Per-stage busy-time attribution — the health plane's flame view.
//!
//! A [`StageProfiler`] splits each core's busy time across the four
//! pipeline stages every packet passes through: **classify** (ingress
//! parse/steer plus batch formation), **redirect** (inter-core ring
//! enqueue/dequeue of connection packets), **nf** (the network
//! function itself), and **tx** (verdict accounting and egress). The
//! unit is runtime-native ticks — model cycles in the simulator, wall
//! nanoseconds in the threaded runtime — carried alongside a
//! `ticks_per_us` scale so exports stay comparable.
//!
//! The simulator attributes its cycle model exactly (each service
//! event's composition is known, so per-core stage ticks sum to
//! `CoreStats::busy_cycles`); the threaded runtime brackets the three
//! phases of each batch with `Instant` reads, so attribution costs a
//! handful of clock reads per *batch*, not per packet. Both are gated
//! on `ObsConfig::profile` and cost nothing when off.

use crate::registry::MetricsRegistry;
use std::sync::atomic::{AtomicU64, Ordering};

/// The profiled pipeline stages, in packet order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Ingress parse, classification, and batch formation.
    Classify,
    /// Inter-core ring enqueue/dequeue of redirected packets.
    Redirect,
    /// NF dispatch (scalar or batch handler).
    Nf,
    /// Verdict accounting and egress.
    Tx,
}

/// Number of profiled stages.
pub const STAGE_COUNT: usize = 4;

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; STAGE_COUNT] = [Stage::Classify, Stage::Redirect, Stage::Nf, Stage::Tx];

    /// Stable metric-name fragment (`profile_<name>_ticks`).
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Classify => "classify",
            Stage::Redirect => "redirect",
            Stage::Nf => "nf",
            Stage::Tx => "tx",
        }
    }

    /// Index into per-core tick arrays.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One core's stage breakdown: accumulated ticks and the number of
/// recorded spans per stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageProfile {
    /// Busy ticks per stage (indexed by [`Stage::index`]).
    pub ticks: [u64; STAGE_COUNT],
    /// Recorded spans per stage.
    pub spans: [u64; STAGE_COUNT],
}

impl StageProfile {
    /// Attribute `ticks` to `stage`.
    pub fn record(&mut self, stage: Stage, ticks: u64) {
        self.ticks[stage.index()] += ticks;
        self.spans[stage.index()] += 1;
    }

    /// Fold another core-profile into this one.
    pub fn merge(&mut self, other: &StageProfile) {
        for i in 0..STAGE_COUNT {
            self.ticks[i] += other.ticks[i];
            self.spans[i] += other.spans[i];
        }
    }

    /// Total attributed ticks.
    pub fn total_ticks(&self) -> u64 {
        self.ticks.iter().sum()
    }
}

/// Per-core, per-stage busy-time attribution for one run of one NF.
#[derive(Debug, Clone)]
pub struct StageProfiler {
    nf: String,
    ticks_per_us: u64,
    cores: Vec<StageProfile>,
}

impl StageProfiler {
    /// A profiler for `cores` cores running NF `nf`, with tick unit
    /// `ticks_per_us` (model cycles or wall ns per microsecond).
    pub fn new(nf: &str, ticks_per_us: u64, cores: usize) -> Self {
        StageProfiler {
            nf: nf.to_string(),
            ticks_per_us,
            cores: vec![StageProfile::default(); cores],
        }
    }

    /// Attribute `ticks` on `core` to `stage`, growing the core set on
    /// demand (elastic runs add cores mid-stream).
    pub fn record(&mut self, core: usize, stage: Stage, ticks: u64) {
        if core >= self.cores.len() {
            self.cores.resize(core + 1, StageProfile::default());
        }
        self.cores[core].record(stage, ticks);
    }

    /// Fold a finished core-profile in (the runtimes' sink merges one
    /// per covered core when a run finishes).
    pub fn merge_core(&mut self, core: usize, profile: &StageProfile) {
        if core >= self.cores.len() {
            self.cores.resize(core + 1, StageProfile::default());
        }
        self.cores[core].merge(profile);
    }

    /// The profiled NF's name.
    pub fn nf(&self) -> &str {
        &self.nf
    }

    /// Ticks per microsecond (unit scale).
    pub fn ticks_per_us(&self) -> u64 {
        self.ticks_per_us
    }

    /// Per-core breakdowns.
    pub fn cores(&self) -> &[StageProfile] {
        &self.cores
    }

    /// Ticks attributed to `stage` across all cores.
    pub fn stage_ticks(&self, stage: Stage) -> u64 {
        self.cores.iter().map(|c| c.ticks[stage.index()]).sum()
    }

    /// Total attributed ticks across all cores and stages.
    pub fn total_ticks(&self) -> u64 {
        self.cores.iter().map(StageProfile::total_ticks).sum()
    }

    /// `stage`'s share of the total attributed time, in `[0, 1]`
    /// (zero when nothing was attributed).
    pub fn share(&self, stage: Stage) -> f64 {
        let total = self.total_ticks();
        if total == 0 {
            0.0
        } else {
            self.stage_ticks(stage) as f64 / total as f64
        }
    }

    /// Flame-style JSON breakdown: totals, per-stage ticks/shares, and
    /// the per-core matrix.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(256 + 64 * self.cores.len());
        let _ = write!(
            s,
            "{{\"nf\":\"{}\",\"ticks_per_us\":{},\"total_ticks\":{},\"stages\":{{",
            self.nf,
            self.ticks_per_us,
            self.total_ticks()
        );
        for (i, stage) in Stage::ALL.into_iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\"{}\":{{\"ticks\":{},\"share\":{}}}",
                stage.as_str(),
                self.stage_ticks(stage),
                finite(self.share(stage))
            );
        }
        s.push_str("},\"cores\":[");
        for (i, core) in self.cores.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{{");
            for (j, stage) in Stage::ALL.into_iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(s, "\"{}\":{}", stage.as_str(), core.ticks[stage.index()]);
            }
            let _ = write!(s, ",\"total\":{}}}", core.total_ticks());
        }
        s.push_str("]}");
        s
    }

    /// Write the standard `profile_*` metric set into `reg`.
    pub fn export(&self, reg: &mut MetricsRegistry) {
        reg.set_str("profile_nf", &self.nf);
        reg.set_u64("profile_ticks_per_us", self.ticks_per_us);
        reg.set_u64("profile_total_ticks", self.total_ticks());
        for stage in Stage::ALL {
            reg.set_u64(
                &format!("profile_{}_ticks", stage.as_str()),
                self.stage_ticks(stage),
            );
            reg.set_f64(
                &format!("profile_{}_share", stage.as_str()),
                self.share(stage),
            );
        }
        reg.set_raw_json("profile_cores", self.per_core_json());
    }

    fn per_core_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("[");
        for (i, core) in self.cores.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('{');
            for (j, stage) in Stage::ALL.into_iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(s, "\"{}\":{}", stage.as_str(), core.ticks[stage.index()]);
            }
            s.push('}');
        }
        s.push(']');
        s
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Lock-free live stage counters for external observers (`sprayer-bench top`'s
/// stage-breakdown pane), mirroring the `LiveSlots` pattern: workers
/// add relaxed deltas per batch, observers snapshot whenever they like.
#[derive(Debug)]
pub struct ProfileSlots {
    cores: Vec<[AtomicU64; STAGE_COUNT]>,
}

impl ProfileSlots {
    /// Slots for `cores` cores, all zero.
    pub fn new(cores: usize) -> Self {
        ProfileSlots {
            cores: (0..cores).map(|_| Default::default()).collect(),
        }
    }

    /// Number of cores covered.
    pub fn len(&self) -> usize {
        self.cores.len()
    }

    /// True when no cores are covered.
    pub fn is_empty(&self) -> bool {
        self.cores.is_empty()
    }

    /// Add `ticks` to `core`'s `stage` counter (relaxed; out-of-range
    /// cores are ignored, matching `LiveSlots`).
    pub fn add(&self, core: usize, stage: Stage, ticks: u64) {
        if let Some(slot) = self.cores.get(core) {
            slot[stage.index()].fetch_add(ticks, Ordering::Relaxed);
        }
    }

    /// Snapshot every core's cumulative stage ticks.
    pub fn snapshot(&self) -> Vec<[u64; STAGE_COUNT]> {
        self.cores
            .iter()
            .map(|slot| {
                let mut out = [0u64; STAGE_COUNT];
                for (i, v) in slot.iter().enumerate() {
                    out[i] = v.load(Ordering::Relaxed);
                }
                out
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_shares_add_up() {
        let mut p = StageProfiler::new("synthetic", 1_000, 2);
        p.record(0, Stage::Classify, 100);
        p.record(0, Stage::Nf, 700);
        p.record(1, Stage::Nf, 100);
        p.record(1, Stage::Tx, 100);
        assert_eq!(p.total_ticks(), 1_000);
        assert_eq!(p.stage_ticks(Stage::Nf), 800);
        assert!((p.share(Stage::Nf) - 0.8).abs() < 1e-12);
        let sum: f64 = Stage::ALL.into_iter().map(|s| p.share(s)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_profiler_has_zero_shares() {
        let p = StageProfiler::new("idle", 1_000, 4);
        assert_eq!(p.total_ticks(), 0);
        assert_eq!(p.share(Stage::Nf), 0.0);
    }

    #[test]
    fn recording_grows_the_core_set() {
        let mut p = StageProfiler::new("nf", 1_000_000, 1);
        p.record(5, Stage::Redirect, 42);
        assert_eq!(p.cores().len(), 6);
        assert_eq!(p.cores()[5].ticks[Stage::Redirect.index()], 42);
        assert_eq!(p.cores()[5].spans[Stage::Redirect.index()], 1);
    }

    #[test]
    fn merge_core_accumulates() {
        let mut p = StageProfiler::new("nf", 1_000, 2);
        let mut w = StageProfile::default();
        w.record(Stage::Nf, 10);
        w.record(Stage::Nf, 5);
        w.record(Stage::Tx, 1);
        p.merge_core(1, &w);
        p.merge_core(1, &w);
        assert_eq!(p.cores()[1].ticks[Stage::Nf.index()], 30);
        assert_eq!(p.cores()[1].spans[Stage::Nf.index()], 4);
        assert_eq!(p.stage_ticks(Stage::Tx), 2);
    }

    #[test]
    fn json_has_stable_shape_and_balanced_braces() {
        let mut p = StageProfiler::new("nat", 1_000, 1);
        p.record(0, Stage::Classify, 3);
        let j = p.to_json();
        assert!(j.starts_with("{\"nf\":\"nat\",\"ticks_per_us\":1000"));
        assert!(j.contains("\"classify\":{\"ticks\":3"));
        assert!(j.contains("\"cores\":[{\"classify\":3"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn export_writes_the_profile_metric_set() {
        let mut p = StageProfiler::new("firewall", 1_000, 1);
        p.record(0, Stage::Nf, 900);
        p.record(0, Stage::Classify, 100);
        let mut reg = MetricsRegistry::new();
        p.export(&mut reg);
        let (_, doc) = MetricsRegistry::parse_document(&reg.to_json()).unwrap();
        assert_eq!(doc.get("profile_nf").unwrap().as_str(), Some("firewall"));
        assert_eq!(doc.get("profile_total_ticks").unwrap().as_u64(), Some(1000));
        assert_eq!(doc.get("profile_nf_ticks").unwrap().as_u64(), Some(900));
        assert_eq!(doc.get("profile_nf_share").unwrap().as_f64(), Some(0.9));
        assert_eq!(doc.get("profile_tx_share").unwrap().as_f64(), Some(0.0));
        let cores = doc.get("profile_cores").unwrap().as_array().unwrap();
        assert_eq!(cores.len(), 1);
        assert_eq!(cores[0].get("classify").unwrap().as_u64(), Some(100));
    }

    #[test]
    fn profile_slots_accumulate_and_ignore_out_of_range() {
        let slots = ProfileSlots::new(2);
        slots.add(0, Stage::Nf, 7);
        slots.add(0, Stage::Nf, 3);
        slots.add(1, Stage::Tx, 5);
        slots.add(9, Stage::Tx, 99); // ignored
        let snap = slots.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0][Stage::Nf.index()], 10);
        assert_eq!(snap[1][Stage::Tx.index()], 5);
        assert_eq!(snap.iter().flatten().sum::<u64>(), 15);
    }
}
