//! Exemplar-based tail-latency attribution.
//!
//! Every completed packet whose sojourn exceeds a threshold is captured
//! as a *tail exemplar*: its per-stage span breakdown (queue wait /
//! classify / redirect transit / NF / TX — the [`TailStage`] taxonomy)
//! lands in a per-(stage, core) attribution table of log-linear
//! [`Histogram`]s. The table answers the question the end-to-end p999
//! cannot: *where* does the tail live — queue wait on RSS's one hot
//! core, redirect-ring transit under spraying, or the NF body itself.
//!
//! Spans are runtime-native ticks (model picoseconds in the simulator,
//! wall nanoseconds in the threaded runtime) and the runtimes construct
//! them so they **sum exactly to the packet's sojourn**; the per-stage
//! tick totals of a [`TailReport`] therefore partition the exemplars'
//! total sojourn, which is what lets `fig_tail` cross-check the online
//! table against the offline trace analyzer.
//!
//! The threshold is either *fixed* (a tick value from
//! `ObsConfig::tail_threshold_ticks`, offline-replicable) or *rolling*
//! (the sojourn p99, re-derived every [`TAIL_RECOMPUTE_EVERY`]
//! completions; no exemplars are captured before the first
//! recomputation).

use crate::hist::Histogram;
use crate::registry::MetricsRegistry;

/// Number of attribution stages.
pub const TAIL_STAGE_COUNT: usize = 5;

/// Completions between rolling-threshold recomputations.
pub const TAIL_RECOMPUTE_EVERY: u64 = 256;

/// The pipeline stages a tail exemplar's sojourn is attributed to.
///
/// This refines the profiler's `Stage` taxonomy for the latency view:
/// queue wait and redirect-ring transit — pure waiting, invisible to a
/// busy-time profiler — get their own stages, because they are exactly
/// where queueing tails live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailStage {
    /// Arrival to the start of service (or, for a redirected packet, to
    /// its hand-off into the designated core's ring).
    QueueWait,
    /// Rx/parse/classify/dispatch framework time.
    Classify,
    /// Redirect push, ring residence, and dequeue on the designated
    /// core. Zero for packets processed where they arrived.
    RedirectTransit,
    /// The NF body.
    Nf,
    /// Transmit-side framework time.
    Tx,
}

impl TailStage {
    /// Every stage, in attribution order.
    pub const ALL: [TailStage; TAIL_STAGE_COUNT] = [
        TailStage::QueueWait,
        TailStage::Classify,
        TailStage::RedirectTransit,
        TailStage::Nf,
        TailStage::Tx,
    ];

    /// Stable name for telemetry.
    pub fn as_str(self) -> &'static str {
        match self {
            TailStage::QueueWait => "queue_wait",
            TailStage::Classify => "classify",
            TailStage::RedirectTransit => "redirect_transit",
            TailStage::Nf => "nf",
            TailStage::Tx => "tx",
        }
    }

    /// Dense index for table storage.
    pub fn index(self) -> usize {
        match self {
            TailStage::QueueWait => 0,
            TailStage::Classify => 1,
            TailStage::RedirectTransit => 2,
            TailStage::Nf => 3,
            TailStage::Tx => 4,
        }
    }
}

/// One packet's per-stage span breakdown, runtime-native ticks. The
/// runtimes construct these so the fields sum exactly to the packet's
/// sojourn.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TailSpans {
    /// Arrival → service start (or → ring hand-off when redirected).
    pub queue_wait: u64,
    /// Framework classify/dispatch time.
    pub classify: u64,
    /// Redirect push + ring residence + dequeue; zero for local packets.
    pub redirect_transit: u64,
    /// NF body time.
    pub nf: u64,
    /// Transmit framework time.
    pub tx: u64,
}

impl TailSpans {
    /// The spans as a stage-indexed array.
    pub fn as_array(&self) -> [u64; TAIL_STAGE_COUNT] {
        [
            self.queue_wait,
            self.classify,
            self.redirect_transit,
            self.nf,
            self.tx,
        ]
    }

    /// Total sojourn: the spans partition it by construction.
    pub fn sojourn(&self) -> u64 {
        self.as_array().iter().sum()
    }
}

/// Per-core attribution cell: one histogram and one running tick total
/// per stage, over this core's exemplars.
#[derive(Debug, Clone, PartialEq)]
pub struct TailCoreTable {
    /// Exemplars completed on this core.
    pub exemplars: u64,
    /// Per-stage tick totals over this core's exemplars.
    pub ticks: [u64; TAIL_STAGE_COUNT],
    /// Per-stage span distributions over this core's exemplars.
    pub hists: [Histogram; TAIL_STAGE_COUNT],
}

impl TailCoreTable {
    fn new() -> Self {
        TailCoreTable {
            exemplars: 0,
            ticks: [0; TAIL_STAGE_COUNT],
            hists: std::array::from_fn(|_| Histogram::latency()),
        }
    }

    /// Record `n` exemplars with the same spans.
    fn record_n(&mut self, spans: TailSpans, n: u64) {
        self.exemplars += n;
        for (stage, span) in spans.as_array().into_iter().enumerate() {
            self.ticks[stage] += span * n;
            self.hists[stage].record_n(span, n);
        }
    }

    fn merge(&mut self, other: &TailCoreTable) {
        self.exemplars += other.exemplars;
        for s in 0..TAIL_STAGE_COUNT {
            self.ticks[s] += other.ticks[s];
            self.hists[s].merge(&other.hists[s]);
        }
    }
}

/// The online tracker: feed it every completion's [`TailSpans`]; it
/// captures the slow ones into the per-(stage, core) table.
#[derive(Debug, Clone, PartialEq)]
pub struct TailTracker {
    threshold: u64,
    rolling: bool,
    since_recompute: u64,
    completions: u64,
    exemplars: u64,
    sojourn: Histogram,
    cores: Vec<TailCoreTable>,
}

impl TailTracker {
    /// A tracker over `num_cores` cores. `threshold_ticks == 0` selects
    /// the rolling-p99 mode; any other value is a fixed threshold (a
    /// completion is an exemplar iff `sojourn > threshold`).
    pub fn new(num_cores: usize, threshold_ticks: u64) -> Self {
        let rolling = threshold_ticks == 0;
        TailTracker {
            // Rolling mode captures nothing until the first p99 exists.
            threshold: if rolling { u64::MAX } else { threshold_ticks },
            rolling,
            since_recompute: 0,
            completions: 0,
            exemplars: 0,
            sojourn: Histogram::latency(),
            cores: (0..num_cores).map(|_| TailCoreTable::new()).collect(),
        }
    }

    /// The threshold currently in force (`u64::MAX` while a rolling
    /// tracker is still warming up).
    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// Record one completion. `core` is where the NF ran.
    pub fn on_complete(&mut self, core: usize, spans: TailSpans) {
        self.on_complete_n(core, spans, 1);
    }

    /// Record `n` completions with the same spans, exactly as `n` calls
    /// of [`TailTracker::on_complete`] would: the run is split where a
    /// rolling threshold is recomputed, so each part is judged against
    /// the threshold its completions would have seen one at a time.
    pub fn on_complete_n(&mut self, core: usize, spans: TailSpans, mut n: u64) {
        let sojourn = spans.sojourn();
        while n > 0 {
            let k = if self.rolling {
                n.min(TAIL_RECOMPUTE_EVERY - self.since_recompute)
            } else {
                n
            };
            n -= k;
            self.completions += k;
            self.sojourn.record_n(sojourn, k);
            if sojourn > self.threshold {
                self.exemplars += k;
                if let Some(table) = self.cores.get_mut(core) {
                    table.record_n(spans, k);
                }
            }
            if self.rolling {
                self.since_recompute += k;
                if self.since_recompute >= TAIL_RECOMPUTE_EVERY {
                    self.since_recompute = 0;
                    self.threshold = self.sojourn.p99().unwrap_or(u64::MAX);
                }
            }
        }
    }

    /// Package the table into a report.
    pub fn report(&self) -> TailReport {
        TailReport {
            threshold_ticks: self.threshold,
            rolling: self.rolling,
            completions: self.completions,
            exemplars: self.exemplars,
            sojourn: self.sojourn.clone(),
            per_core: self.cores.clone(),
        }
    }
}

/// One run's tail-attribution table, ready for export and rendering.
#[derive(Debug, Clone, PartialEq)]
pub struct TailReport {
    /// The threshold in force at the end of the run, ticks.
    pub threshold_ticks: u64,
    /// Whether the threshold was rolling (sojourn p99) or fixed.
    pub rolling: bool,
    /// Completions observed.
    pub completions: u64,
    /// Of those, captured exemplars (`sojourn > threshold`).
    pub exemplars: u64,
    /// Sojourn distribution over *all* completions, ticks.
    pub sojourn: Histogram,
    /// Per-core attribution cells, indexed by core.
    pub per_core: Vec<TailCoreTable>,
}

impl TailReport {
    /// Total ticks attributed to `stage` across cores.
    pub fn stage_ticks(&self, stage: TailStage) -> u64 {
        self.per_core.iter().map(|c| c.ticks[stage.index()]).sum()
    }

    /// Total attributed ticks — equals the exemplars' summed sojourn,
    /// because each exemplar's spans partition its sojourn.
    pub fn total_ticks(&self) -> u64 {
        TailStage::ALL
            .into_iter()
            .map(|s| self.stage_ticks(s))
            .sum()
    }

    /// `stage`'s share of the attributed tail time, `[0, 1]`.
    pub fn share(&self, stage: TailStage) -> f64 {
        let total = self.total_ticks();
        if total == 0 {
            0.0
        } else {
            self.stage_ticks(stage) as f64 / total as f64
        }
    }

    /// The stage holding the largest share of the tail (ties break in
    /// [`TailStage::ALL`] order).
    pub fn dominant_stage(&self) -> TailStage {
        TailStage::ALL
            .into_iter()
            .max_by_key(|s| self.stage_ticks(*s))
            .expect("ALL is non-empty")
    }

    /// The span distribution of `stage` merged across cores.
    pub fn stage_hist(&self, stage: TailStage) -> Histogram {
        let mut h = Histogram::latency();
        for c in &self.per_core {
            h.merge(&c.hists[stage.index()]);
        }
        h
    }

    /// Merge another report in (the threaded runtime produces one per
    /// worker). Keeps the larger threshold; meaningful mainly for fixed
    /// thresholds, where both sides agree anyway.
    pub fn merge(&mut self, other: &TailReport) {
        self.threshold_ticks = self.threshold_ticks.max(other.threshold_ticks);
        self.rolling |= other.rolling;
        self.completions += other.completions;
        self.exemplars += other.exemplars;
        self.sojourn.merge(&other.sojourn);
        if self.per_core.len() < other.per_core.len() {
            self.per_core
                .resize_with(other.per_core.len(), TailCoreTable::new);
        }
        for (mine, theirs) in self.per_core.iter_mut().zip(&other.per_core) {
            mine.merge(theirs);
        }
    }

    /// Write the `tail_*` metric set: threshold and counts, per-stage
    /// tick totals and shares, the merged per-stage span histograms,
    /// the full sojourn histogram, and the per-core table.
    pub fn export(&self, reg: &mut MetricsRegistry) {
        use std::fmt::Write as _;
        reg.set_u64(
            "tail_threshold_ticks",
            if self.threshold_ticks == u64::MAX {
                0
            } else {
                self.threshold_ticks
            },
        );
        reg.set_u64("tail_rolling", u64::from(self.rolling));
        reg.set_u64("tail_completions", self.completions);
        reg.set_u64("tail_exemplars", self.exemplars);
        reg.set_f64(
            "tail_exemplar_share",
            if self.completions == 0 {
                0.0
            } else {
                self.exemplars as f64 / self.completions as f64
            },
        );
        reg.set_str("tail_dominant_stage", self.dominant_stage().as_str());
        let mut ticks = String::from("{");
        for (i, stage) in TailStage::ALL.into_iter().enumerate() {
            if i > 0 {
                ticks.push(',');
            }
            let _ = write!(ticks, "\"{}\":{}", stage.as_str(), self.stage_ticks(stage));
        }
        ticks.push('}');
        reg.set_raw_json("tail_stage_ticks", ticks);
        for stage in TailStage::ALL {
            reg.set_f64(&format!("tail_{}_share", stage.as_str()), self.share(stage));
            reg.set_histogram(
                &format!("tail_{}_hist", stage.as_str()),
                &self.stage_hist(stage),
            );
        }
        reg.set_histogram("tail_sojourn_hist", &self.sojourn);
        let mut cores = Vec::with_capacity(self.per_core.len());
        for (core, cell) in self.per_core.iter().enumerate() {
            let mut s = String::new();
            let _ = write!(s, "{{\"core\":{core},\"exemplars\":{}", cell.exemplars);
            for stage in TailStage::ALL {
                let _ = write!(
                    s,
                    ",\"{}_ticks\":{}",
                    stage.as_str(),
                    cell.ticks[stage.index()]
                );
            }
            s.push('}');
            cores.push(s);
        }
        reg.set_raw_json("tail_per_core", format!("[{}]", cores.join(",")));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spans(queue_wait: u64, nf: u64) -> TailSpans {
        TailSpans {
            queue_wait,
            classify: 10,
            redirect_transit: 0,
            nf,
            tx: 5,
        }
    }

    #[test]
    fn fixed_threshold_captures_only_slow_completions() {
        let mut t = TailTracker::new(2, 1_000);
        t.on_complete(0, spans(10, 100)); // sojourn 125: fast
        t.on_complete(1, spans(5_000, 100)); // 5115: exemplar on core 1
        t.on_complete(1, spans(2_000, 100)); // 2115: exemplar on core 1
        let r = t.report();
        assert_eq!(r.completions, 3);
        assert_eq!(r.exemplars, 2);
        assert_eq!(r.per_core[0].exemplars, 0);
        assert_eq!(r.per_core[1].exemplars, 2);
        assert_eq!(r.stage_ticks(TailStage::QueueWait), 7_000);
        assert_eq!(r.stage_ticks(TailStage::Nf), 200);
        assert_eq!(r.dominant_stage(), TailStage::QueueWait);
    }

    #[test]
    fn stage_ticks_partition_the_exemplars_sojourn() {
        let mut t = TailTracker::new(1, 50);
        let mut expected = 0;
        for i in 0..20 {
            let s = spans(i * 17, i * 31);
            if s.sojourn() > 50 {
                expected += s.sojourn();
            }
            t.on_complete(0, s);
        }
        let r = t.report();
        assert_eq!(r.total_ticks(), expected);
        let shares: f64 = TailStage::ALL.into_iter().map(|s| r.share(s)).sum();
        assert!((shares - 1.0).abs() < 1e-9, "{shares}");
    }

    #[test]
    fn rolling_threshold_warms_up_then_tracks_p99() {
        let mut t = TailTracker::new(1, 0);
        assert_eq!(t.threshold(), u64::MAX);
        // A full recompute window of uniform completions: threshold
        // becomes their p99, later slow packets are captured.
        for _ in 0..TAIL_RECOMPUTE_EVERY {
            t.on_complete(0, spans(0, 85)); // sojourn 100
        }
        assert_eq!(t.report().exemplars, 0, "warmup captures nothing");
        assert!(t.threshold() < u64::MAX);
        t.on_complete(0, spans(100_000, 85));
        assert_eq!(t.report().exemplars, 1);
    }

    #[test]
    fn merge_accumulates_tables_and_histograms() {
        let mut a = TailTracker::new(2, 10);
        let mut b = TailTracker::new(2, 10);
        a.on_complete(0, spans(100, 0));
        b.on_complete(1, spans(0, 300));
        b.on_complete(0, spans(50, 0));
        let mut r = a.report();
        r.merge(&b.report());
        assert_eq!(r.completions, 3);
        assert_eq!(r.exemplars, 3);
        assert_eq!(r.per_core[0].exemplars, 2);
        assert_eq!(r.per_core[1].exemplars, 1);
        assert_eq!(r.stage_ticks(TailStage::Nf), 300);
        assert_eq!(r.stage_hist(TailStage::QueueWait).count(), 3);
        assert_eq!(r.sojourn.count(), 3);
    }

    #[test]
    fn export_writes_the_tail_metric_set() {
        let mut t = TailTracker::new(2, 10);
        t.on_complete(1, spans(1_000, 2_000));
        let mut reg = MetricsRegistry::new();
        t.report().export(&mut reg);
        let (_, doc) = MetricsRegistry::parse_document(&reg.to_json()).unwrap();
        assert_eq!(doc.get("tail_exemplars").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("tail_completions").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("tail_rolling").unwrap().as_u64(), Some(0));
        assert_eq!(doc.get("tail_dominant_stage").unwrap().as_str(), Some("nf"));
        assert_eq!(
            doc.get("tail_stage_ticks")
                .unwrap()
                .get("queue_wait")
                .unwrap()
                .as_u64(),
            Some(1_000)
        );
        let cores = doc.get("tail_per_core").unwrap().as_array().unwrap();
        assert_eq!(cores.len(), 2);
        assert_eq!(cores[1].get("nf_ticks").unwrap().as_u64(), Some(2_000));
        assert!(doc.get("tail_sojourn_hist").unwrap().get("count").is_some());
    }

    #[test]
    fn empty_report_exports_zeroes_not_sentinels() {
        let t = TailTracker::new(1, 0);
        let mut reg = MetricsRegistry::new();
        t.report().export(&mut reg);
        let (_, doc) = MetricsRegistry::parse_document(&reg.to_json()).unwrap();
        assert_eq!(doc.get("tail_threshold_ticks").unwrap().as_u64(), Some(0));
        assert_eq!(doc.get("tail_exemplar_share").unwrap().as_f64(), Some(0.0));
    }

    proptest::proptest! {
        /// `on_complete_n(s, n)` is `n` calls of `on_complete(s)`, in a
        /// fixed and a rolling tracker alike: runs straddling the
        /// 256-completion recompute see the threshold their completions
        /// would have seen one at a time.
        #[test]
        fn a_run_is_its_completions_one_at_a_time(
            threshold in proptest::prop_oneof![proptest::strategy::Just(0u64), 1u64..5_000],
            runs in proptest::collection::vec((0u64..4_000, 0u64..600, 0usize..3, 0u64..700), 1..40),
        ) {
            let mut by_run = TailTracker::new(2, threshold);
            let mut one_by_one = TailTracker::new(2, threshold);
            for (queue_wait, nf, core, n) in runs {
                let s = spans(queue_wait, nf);
                by_run.on_complete_n(core, s, n);
                for _ in 0..n {
                    one_by_one.on_complete(core, s);
                }
                proptest::prop_assert_eq!(&by_run, &one_by_one);
            }
            proptest::prop_assert_eq!(by_run.report(), one_by_one.report());
        }
    }
}
