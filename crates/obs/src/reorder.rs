//! Streaming per-flow reordering-depth estimation.
//!
//! The paper's whole trade is load balance *for* reordering; the
//! offline analyzer ([`mod@crate::analyze`]) measures it exactly but only
//! after the run, from a full trace. [`ReorderSketch`] watches NF
//! completions live: per flow it keeps the largest arrival ordinal
//! completed so far plus a ring of the last `window` completed
//! ordinals — O(window) work and O(window) memory per flow, flow count
//! capped at `max_flows`.
//!
//! Guarantees, cross-validated by the `reorder_model` proptest against
//! the Fenwick analyzer:
//!
//! * the **reordered-packet count is exact** for tracked flows: a
//!   completion is reordered (offline depth > 0) iff its ordinal is
//!   smaller than the largest ordinal the flow completed before it,
//!   which one `u64` per flow decides;
//! * the **depth estimate never exceeds the true depth** (the window
//!   only ever sees a subset of the earlier completions);
//! * the estimate is **exact whenever every inversion spans fewer than
//!   `window` completions of that flow** — in particular whenever
//!   per-packet completion displacement is at most `window / 2`.
//!
//! The sketch timestamps nothing; ordinals are the runtime's global
//! per-packet ingress ids, strictly increasing in arrival order within
//! a flow, exactly what the offline analyzer inverts over.
//!
//! Two things keep an in-order completion — almost all of them — cheap.
//! The flow map hashes nothing: its keys are the runtimes' stable flow
//! hashes, already splitmix-mixed (the shard selector of
//! [`SharedReorderSketch`] leans on the same fact), so `FlowHash`
//! passes them through; keys that are *not* mixed — or that a sender
//! crafted to collide under the fixed mix — only cluster in the table,
//! lengthening a probe by at most `max_flows` entries; they cannot make
//! an answer wrong. And a completion whose
//! ordinal exceeds the flow's largest so far skips the window scan:
//! every ordinal in the window is at most that largest, so nothing in
//! it overtook this packet and its depth is exactly 0.

use crate::hist::Histogram;
use crate::registry::MetricsRegistry;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The flow map's hasher: the key is the hash. See the module docs.
#[derive(Debug, Default, Clone, Copy)]
struct FlowHash(u64);

impl Hasher for FlowHash {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("flow keys are u64");
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
}

/// Log-linear resolution of the depth histogram (matches
/// [`Histogram::latency`]'s default so reports merge).
const DEPTH_HIST_SUB_BITS: u32 = 6;

#[derive(Debug, Clone)]
struct FlowReorder {
    /// Largest arrival ordinal completed so far.
    max_ord: u64,
    /// Completions observed.
    count: u64,
    /// Ring of the last `window` completed ordinals.
    recent: Vec<u64>,
    /// Next slot to overwrite once the ring is full.
    next: usize,
}

impl FlowReorder {
    fn new(window: usize) -> Self {
        FlowReorder {
            max_ord: 0,
            count: 0,
            recent: Vec::with_capacity(window),
            next: 0,
        }
    }
}

/// Bounded online reordering estimator over one stream of NF
/// completions: one shard of the [`SharedReorderSketch`] the runtimes'
/// sink keeps (the simulator runs one shard, the threaded runtime one
/// per worker).
#[derive(Debug)]
pub struct ReorderSketch {
    window: usize,
    max_flows: usize,
    flows: HashMap<u64, FlowReorder, BuildHasherDefault<FlowHash>>,
    depth_hist: Histogram,
    completions: u64,
    reordered: u64,
    untracked: u64,
    per_core: Vec<u64>,
}

impl ReorderSketch {
    /// A sketch keeping the last `window` completions per flow, for up
    /// to `max_flows` flows (completions of further flows are counted
    /// as `untracked` and otherwise ignored).
    pub fn new(window: usize, max_flows: usize) -> Self {
        ReorderSketch {
            window: window.max(1),
            max_flows: max_flows.max(1),
            flows: HashMap::default(),
            depth_hist: Histogram::new(DEPTH_HIST_SUB_BITS),
            completions: 0,
            reordered: 0,
            untracked: 0,
            per_core: Vec::new(),
        }
    }

    /// Record one NF completion of `flow`'s packet with arrival
    /// `ordinal`, observed on `core`. Returns the windowed depth
    /// estimate for this completion.
    pub fn on_complete(&mut self, core: usize, flow: u64, ordinal: u64) -> u64 {
        let tracked = self.flows.len();
        let st = match self.flows.entry(flow) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(v) => {
                if tracked >= self.max_flows {
                    self.untracked += 1;
                    return 0;
                }
                v.insert(FlowReorder::new(self.window))
            }
        };
        self.completions += 1;
        // Everything in the ring completed earlier; count overtakers —
        // of which a new largest ordinal has none.
        let depth = if ordinal > st.max_ord {
            0
        } else {
            st.recent.iter().filter(|&&o| o > ordinal).count() as u64
        };
        if st.count > 0 && ordinal < st.max_ord {
            self.reordered += 1;
            if core >= self.per_core.len() {
                self.per_core.resize(core + 1, 0);
            }
            self.per_core[core] += 1;
        }
        st.max_ord = st.max_ord.max(ordinal);
        st.count += 1;
        if st.recent.len() < self.window {
            st.recent.push(ordinal);
        } else {
            st.recent[st.next] = ordinal;
        }
        st.next = (st.next + 1) % self.window;
        self.depth_hist.record(depth);
        depth
    }

    /// Completions recorded (tracked flows only).
    pub fn completions(&self) -> u64 {
        self.completions
    }

    /// Completions whose ordinal was overtaken — exact, window-free.
    pub fn reordered(&self) -> u64 {
        self.reordered
    }

    /// Snapshot the aggregates into a report.
    pub fn report(&self) -> ReorderReport {
        ReorderReport {
            window: self.window,
            completions: self.completions,
            reordered: self.reordered,
            untracked: self.untracked,
            flows_tracked: self.flows.len() as u64,
            per_core: self.per_core.clone(),
            depth_hist: self.depth_hist.clone(),
        }
    }
}

/// Sharded wrapper: threaded workers complete packets concurrently,
/// so flows are sharded over independently locked sketches (a flow
/// always lands in the same shard, which is all the per-flow math
/// needs; cross-flow aggregates merge at report time). Fed a completed
/// batch at a time, so a writer pays for a lock per shard and batch,
/// not per packet, and what the sketch observes is batch-completion
/// order — the order a batched dataplane releases packets in.
#[derive(Debug)]
pub struct SharedReorderSketch {
    shards: Vec<Mutex<ReorderSketch>>,
    mask: u64,
}

impl SharedReorderSketch {
    /// `shards` is rounded up to a power of two; `window`/`max_flows`
    /// apply per shard.
    pub fn new(window: usize, max_flows: usize, shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        SharedReorderSketch {
            shards: (0..n)
                .map(|_| Mutex::new(ReorderSketch::new(window, max_flows)))
                .collect(),
            mask: (n - 1) as u64,
        }
    }

    /// Record the `(flow, ordinal)` completions of one batch that
    /// finished on `core`, in batch order (see
    /// [`ReorderSketch::on_complete`]). The batch is walked once per
    /// shard and each shard it touches is locked once; a flow's
    /// completions stay in the order given, and no aggregate depends on
    /// how flows interleave.
    pub fn on_complete_batch(&self, core: usize, batch: impl Iterator<Item = (u64, u64)> + Clone) {
        for (index, shard) in self.shards.iter().enumerate() {
            let mut sketch = None;
            // Flow hashes are already splitmix-mixed; low bits shard fine.
            for (flow, ordinal) in batch.clone().filter(|p| p.0 & self.mask == index as u64) {
                sketch
                    .get_or_insert_with(|| shard.lock())
                    .on_complete(core, flow, ordinal);
            }
        }
    }

    /// Merge every shard's aggregates into one report.
    pub fn report(&self) -> ReorderReport {
        let mut out: Option<ReorderReport> = None;
        for shard in &self.shards {
            let r = shard.lock().report();
            match &mut out {
                None => out = Some(r),
                Some(acc) => acc.merge(&r),
            }
        }
        out.expect("at least one shard")
    }
}

/// Aggregated reordering telemetry from one run.
#[derive(Debug, Clone)]
pub struct ReorderReport {
    /// Per-flow window length the estimates used.
    pub window: usize,
    /// Completions recorded (tracked flows).
    pub completions: u64,
    /// Exact reordered-completion count.
    pub reordered: u64,
    /// Completions of flows beyond the tracking cap.
    pub untracked: u64,
    /// Flows currently tracked.
    pub flows_tracked: u64,
    /// Reordered completions observed per core.
    pub per_core: Vec<u64>,
    /// Windowed depth estimate distribution (every completion,
    /// in-order ones at depth 0).
    pub depth_hist: Histogram,
}

impl ReorderReport {
    /// Fold another report in (shard or phase merge).
    pub fn merge(&mut self, other: &ReorderReport) {
        self.completions += other.completions;
        self.reordered += other.reordered;
        self.untracked += other.untracked;
        self.flows_tracked += other.flows_tracked;
        if self.per_core.len() < other.per_core.len() {
            self.per_core.resize(other.per_core.len(), 0);
        }
        for (a, b) in self.per_core.iter_mut().zip(&other.per_core) {
            *a += b;
        }
        self.depth_hist.merge(&other.depth_hist);
    }

    /// Fraction of completions that were reordered.
    pub fn reorder_rate(&self) -> f64 {
        if self.completions == 0 {
            0.0
        } else {
            self.reordered as f64 / self.completions as f64
        }
    }

    /// Write the standard `reorder_*` metric set into `reg`.
    pub fn export(&self, reg: &mut MetricsRegistry) {
        reg.set_u64("reorder_window", self.window as u64);
        reg.set_u64("reorder_completions", self.completions);
        reg.set_u64("reorder_reordered_packets", self.reordered);
        reg.set_f64("reorder_rate", self.reorder_rate());
        reg.set_u64("reorder_untracked_completions", self.untracked);
        reg.set_u64("reorder_flows_tracked", self.flows_tracked);
        reg.set_u64("reorder_depth_p99", self.depth_hist.p99().unwrap_or(0));
        reg.set_u64("reorder_depth_max", self.depth_hist.max().unwrap_or(0));
        reg.set_histogram("reorder_depth_hist", &self.depth_hist);
        let per_core: Vec<String> = self.per_core.iter().map(u64::to_string).collect();
        reg.set_raw_json("reorder_per_core", format!("[{}]", per_core.join(",")));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_stream_reports_nothing() {
        let mut s = ReorderSketch::new(8, 16);
        for i in 0..100 {
            assert_eq!(s.on_complete(0, 7, i), 0);
        }
        let r = s.report();
        assert_eq!(r.reordered, 0);
        assert_eq!(r.completions, 100);
        assert_eq!(r.depth_hist.max(), Some(0));
    }

    #[test]
    fn single_overtake_is_counted_with_depth_one() {
        // Completion order 0, 3, 1, 2 — the analyzer's hand-computed
        // case: packets 1 and 2 each overtaken only by 3.
        let mut s = ReorderSketch::new(4, 4);
        assert_eq!(s.on_complete(0, 1, 0), 0);
        assert_eq!(s.on_complete(1, 1, 3), 0);
        assert_eq!(s.on_complete(0, 1, 1), 1);
        assert_eq!(s.on_complete(1, 1, 2), 1);
        let r = s.report();
        assert_eq!(r.reordered, 2);
        assert_eq!(r.per_core, vec![1, 1]);
        assert_eq!(r.depth_hist.max(), Some(1));
    }

    #[test]
    fn window_caps_the_estimate_but_not_the_count() {
        // 9 completes first, then 1..=8 in order: every one of them is
        // reordered (overtaken by 9), but with window 2 the ring soon
        // holds only small earlier ordinals, so estimates drop to 0
        // while the exact count keeps climbing.
        let mut s = ReorderSketch::new(2, 4);
        s.on_complete(0, 5, 9);
        let mut est_sum = 0;
        for i in 1..=8 {
            est_sum += s.on_complete(0, 5, i);
        }
        let r = s.report();
        assert_eq!(r.reordered, 8, "the exact count is window-free");
        assert!(est_sum < 8, "window 2 must under-estimate here");
    }

    #[test]
    fn flows_beyond_the_cap_are_counted_untracked() {
        let mut s = ReorderSketch::new(4, 2);
        s.on_complete(0, 1, 0);
        s.on_complete(0, 2, 1);
        s.on_complete(0, 3, 2); // third flow: over the cap
        s.on_complete(0, 3, 3);
        let r = s.report();
        assert_eq!(r.flows_tracked, 2);
        assert_eq!(r.untracked, 2);
        assert_eq!(r.completions, 2);
    }

    /// Feed `stream` to a sharded sketch `batch` completions at a time
    /// and check its report against a single sketch fed one by one,
    /// whose report is returned.
    fn assert_batches_match_single(stream: &[(usize, u64, u64)], batch: usize) -> ReorderReport {
        let shared = SharedReorderSketch::new(8, 64, 4);
        let mut single = ReorderSketch::new(8, 64);
        for &(core, flow, ord) in stream {
            single.on_complete(core, flow, ord);
        }
        // A batch completes on one core: cut the stream where it changes.
        for run in stream.chunk_by(|a, b| a.0 == b.0) {
            for part in run.chunks(batch) {
                shared.on_complete_batch(part[0].0, part.iter().map(|&(_, f, o)| (f, o)));
            }
        }
        let (r1, r2) = (shared.report(), single.report());
        assert_eq!(r1.completions, r2.completions, "batch {batch}");
        assert_eq!(r1.reordered, r2.reordered, "batch {batch}");
        assert_eq!(r1.per_core, r2.per_core, "batch {batch}");
        assert_eq!(r1.flows_tracked, r2.flows_tracked, "batch {batch}");
        assert_eq!(r1.depth_hist, r2.depth_hist, "batch {batch}");
        r2
    }

    #[test]
    fn sharded_sketch_matches_a_single_sketch() {
        // Deterministic pseudo-random interleaving of 8 flows.
        let mut ords = [0u64; 8];
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut stream = Vec::new();
        for _ in 0..500 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let flow = state >> 61;
            let core = (state >> 32) as usize % 3;
            // Mostly ascending per flow, with steps back: real inversions.
            let ord = (ords[flow as usize] + 1 + (state % 3)).saturating_sub((state >> 8) % 4);
            ords[flow as usize] = ords[flow as usize].max(ord);
            stream.push((core, flow, ord));
        }
        for batch in [1, 7, 32] {
            let r = assert_batches_match_single(&stream, batch);
            assert!(r.reordered > 20, "the stream must exercise the window scan");
        }
    }

    #[test]
    fn unmixed_keys_only_cluster_they_stay_correct() {
        // Keys 1..=64 are the pass-through hasher's worst case (one
        // control tag, consecutive buckets). Flow f completes ordinals
        // 2, 1, 3: one reordered packet of depth 1 each.
        let stream: Vec<(usize, u64, u64)> = [2, 1, 3]
            .iter()
            .flat_map(|&ord| (1..=64).map(move |flow| (0, flow, ord)))
            .collect();
        for batch in [1, 7, 32] {
            let r = assert_batches_match_single(&stream, batch);
            assert_eq!((r.flows_tracked, r.completions, r.reordered), (64, 192, 64));
            assert_eq!(r.depth_hist.sum(), 64);
        }
    }

    #[test]
    fn export_writes_the_reorder_metric_set() {
        let mut s = ReorderSketch::new(32, 64);
        s.on_complete(0, 1, 0);
        s.on_complete(1, 1, 2);
        s.on_complete(0, 1, 1);
        let mut reg = MetricsRegistry::new();
        s.report().export(&mut reg);
        let (_, doc) = MetricsRegistry::parse_document(&reg.to_json()).unwrap();
        assert_eq!(doc.get("reorder_completions").unwrap().as_u64(), Some(3));
        assert_eq!(
            doc.get("reorder_reordered_packets").unwrap().as_u64(),
            Some(1)
        );
        assert_eq!(doc.get("reorder_window").unwrap().as_u64(), Some(32));
        assert_eq!(doc.get("reorder_depth_max").unwrap().as_u64(), Some(1));
        let per_core = doc.get("reorder_per_core").unwrap().as_array().unwrap();
        assert_eq!(per_core[0].as_u64(), Some(1));
        assert!(doc
            .get("reorder_depth_hist")
            .unwrap()
            .get("count")
            .is_some());
    }

    #[test]
    fn merge_accumulates_across_reports() {
        let mut a = ReorderSketch::new(4, 8);
        a.on_complete(0, 1, 1);
        a.on_complete(0, 1, 0);
        let mut b = ReorderSketch::new(4, 8);
        b.on_complete(1, 2, 5);
        let mut r = a.report();
        r.merge(&b.report());
        assert_eq!(r.completions, 3);
        assert_eq!(r.reordered, 1);
        assert_eq!(r.flows_tracked, 2);
        assert_eq!(r.per_core, vec![1]);
    }
}
