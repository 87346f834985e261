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
//! What a completion costs. A batched dataplane reorders a lot: on the
//! threaded `steady` workload at two workers, 44 % of completions are
//! overtaken (88 005 of 200 064), so the reordered path is not a rare
//! one and both paths are kept short:
//!
//! * **The flow index hashes nothing and is small.** Its keys are the
//!   runtimes' stable flow hashes, already splitmix-mixed (the shard
//!   selector of [`SharedReorderSketch`] leans on the same fact), so a
//!   flow's home entry is taken straight from its hash's bits in an
//!   open-addressed table kept at most half full. An entry is 4 bytes —
//!   a row number under an 8-bit tag of the hash — so a flow the sketch
//!   does not track (most of them, once the cap is reached under flow
//!   churn) is turned away without reading any row. Keys that are *not*
//!   mixed — or that a sender crafted to collide under the fixed mix —
//!   only cluster in the table, lengthening a probe by at most
//!   `max_flows` entries; they cannot make an answer wrong.
//! * **A flow is one row of one slab**: its key, its largest ordinal,
//!   its ring cursor and its `window` ordinals, side by side, so a
//!   completion of a tracked flow reads the index and one row. The
//!   cursor wraps with a compare, not a division.
//! * **A completion whose ordinal is at least the flow's largest so far
//!   skips the window scan**: every ordinal in the window is at most
//!   that largest, so nothing in it overtook this packet and its depth
//!   is exactly 0. Depth-0 completions — in-order ones, and reordered
//!   ones whose overtakers have left the window — are only counted;
//!   [`ReorderSketch::report`] folds them into the depth histogram.

use crate::hist::Histogram;
use crate::registry::MetricsRegistry;
use parking_lot::Mutex;

/// Log-linear resolution of the depth histogram (matches
/// [`Histogram::latency`]'s default so reports merge).
const DEPTH_HIST_SUB_BITS: u32 = 6;

/// The flow index's first size, in entries.
const INITIAL_SLOTS: usize = 16;

/// Words of a slab row before its window: the flow's key, the largest
/// ordinal it has completed, and the window slot it writes next.
const KEY: usize = 0;
const MAX_ORD: usize = 1;
const NEXT: usize = 2;
const HEADER: usize = 3;

/// An index entry is a row plus one (0 marks an empty entry) in its
/// low `ROW_BITS`, under a tag of the key's top bits whose own top bit
/// is set: most entries that are not the key's are told apart without
/// reading its row.
const ROW_BITS: u32 = 24;
const ROW_MASK: u32 = (1 << ROW_BITS) - 1;

/// The index entry tag of `key`.
#[inline]
fn tag(key: u64) -> u32 {
    ((key >> 56) as u32 | 0x80) << ROW_BITS
}

/// `key`'s first index entry: its low bits, folded with its high ones
/// (a shard holds only keys with equal low bits).
#[inline]
fn home(key: u64, mask: usize) -> usize {
    (key ^ key >> 32) as usize & mask
}

/// Bounded online reordering estimator over one stream of NF
/// completions: one shard of the [`SharedReorderSketch`] the runtimes'
/// sink keeps (the simulator runs one shard, the threaded runtime one
/// per worker).
#[derive(Debug)]
pub struct ReorderSketch {
    window: usize,
    max_flows: usize,
    /// Open-addressed flow index (see the module docs): a power of two
    /// long, at most half full.
    index: Vec<u32>,
    /// Tracked flows, each a row of `HEADER + window` words, in the
    /// order they were first seen. A window slot not yet written holds
    /// 0, which no ordinal is below: the scan counts it for nothing.
    slab: Vec<u64>,
    rows: usize,
    /// Nonzero depth estimates; the zeros are `zero_depths`.
    depth_hist: Histogram,
    zero_depths: u64,
    completions: u64,
    reordered: u64,
    untracked: u64,
    per_core: Vec<u64>,
}

impl ReorderSketch {
    /// A sketch keeping the last `window` completions per flow, for up
    /// to `max_flows` flows (completions of further flows are counted
    /// as `untracked` and otherwise ignored). The cap is at most
    /// 2^24 − 1 flows.
    pub fn new(window: usize, max_flows: usize) -> Self {
        ReorderSketch {
            window: window.max(1),
            max_flows: max_flows.clamp(1, ROW_MASK as usize),
            index: vec![0; INITIAL_SLOTS],
            slab: Vec::new(),
            rows: 0,
            depth_hist: Histogram::new(DEPTH_HIST_SUB_BITS),
            zero_depths: 0,
            completions: 0,
            reordered: 0,
            untracked: 0,
            per_core: Vec::new(),
        }
    }

    /// `flow`'s row, tracking it if it is new and the cap allows.
    #[inline]
    fn row(&mut self, flow: u64) -> Option<usize> {
        let stride = HEADER + self.window;
        let tag = tag(flow);
        let mask = self.index.len() - 1;
        let mut i = home(flow, mask);
        loop {
            let entry = self.index[i];
            if entry == 0 {
                break;
            }
            let row = (entry & ROW_MASK) as usize - 1;
            if entry & !ROW_MASK == tag && self.slab[row * stride + KEY] == flow {
                return Some(row);
            }
            i = (i + 1) & mask;
        }
        if self.rows >= self.max_flows {
            return None;
        }
        let row = self.rows;
        self.rows += 1;
        if self.slab.len() == self.slab.capacity() {
            // Grow by doubling, but never past the cap's worth.
            let rows = (2 * self.rows).min(self.max_flows);
            self.slab.reserve_exact(rows * stride - self.slab.len());
        }
        self.slab.resize(self.rows * stride, 0);
        self.slab[row * stride + KEY] = flow;
        self.index[i] = tag | (row as u32 + 1);
        if 2 * self.rows > self.index.len() {
            self.grow_index();
        }
        Some(row)
    }

    /// Double the flow index and re-seat every entry.
    #[cold]
    fn grow_index(&mut self) {
        let stride = HEADER + self.window;
        let slots = 2 * self.index.len();
        let old = std::mem::replace(&mut self.index, vec![0; slots]);
        for entry in old.into_iter().filter(|&e| e != 0) {
            let key = self.slab[((entry & ROW_MASK) as usize - 1) * stride + KEY];
            let mut i = home(key, slots - 1);
            while self.index[i] != 0 {
                i = (i + 1) & (slots - 1);
            }
            self.index[i] = entry;
        }
    }

    /// Record one NF completion of `flow`'s packet with arrival
    /// `ordinal`, observed on `core`. Returns the windowed depth
    /// estimate for this completion.
    #[inline]
    pub fn on_complete(&mut self, core: usize, flow: u64, ordinal: u64) -> u64 {
        let Some(row) = self.row(flow) else {
            self.untracked += 1;
            return 0;
        };
        self.completions += 1;
        let window = self.window;
        let (head, ring) =
            self.slab[row * (HEADER + window)..][..HEADER + window].split_at_mut(HEADER);
        // Everything in the ring completed earlier; count overtakers —
        // of which an ordinal at least the largest so far has none.
        // Below the largest, the completion was overtaken (the largest
        // exists: it is above this ordinal, so something completed).
        let depth = if ordinal < head[MAX_ORD] {
            self.reordered += 1;
            if core >= self.per_core.len() {
                self.per_core.resize(core + 1, 0);
            }
            self.per_core[core] += 1;
            ring.iter().filter(|&&o| o > ordinal).count() as u64
        } else {
            head[MAX_ORD] = ordinal;
            0
        };
        let next = head[NEXT] as usize;
        ring[next] = ordinal;
        head[NEXT] = if next + 1 == window {
            0
        } else {
            next as u64 + 1
        };
        if depth == 0 {
            self.zero_depths += 1;
        } else {
            self.depth_hist.record(depth);
        }
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
        let mut depth_hist = self.depth_hist.clone();
        depth_hist.record_n(0, self.zero_depths);
        ReorderReport {
            window: self.window,
            completions: self.completions,
            reordered: self.reordered,
            untracked: self.untracked,
            flows_tracked: self.rows as u64,
            per_core: self.per_core.clone(),
            depth_hist,
        }
    }
}

/// A writer's reusable partition of a batch by shard, for
/// [`SharedReorderSketch::on_complete_batch`]. Empty until a batch is
/// fed to a sketch of more than one shard.
#[derive(Debug, Default)]
pub struct ReorderScratch {
    parts: Vec<Vec<(u64, u64)>>,
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
    /// [`ReorderSketch::on_complete`]). With more than one shard the
    /// batch is partitioned once, stably, into `scratch`, and each
    /// shard it touches is locked once; a flow's completions stay in
    /// the order given, and no aggregate depends on how flows
    /// interleave.
    pub fn on_complete_batch(
        &self,
        core: usize,
        batch: impl IntoIterator<Item = (u64, u64)>,
        scratch: &mut ReorderScratch,
    ) {
        if let [shard] = self.shards.as_slice() {
            let mut batch = batch.into_iter().peekable();
            if batch.peek().is_some() {
                let mut sketch = shard.lock();
                for (flow, ordinal) in batch {
                    sketch.on_complete(core, flow, ordinal);
                }
            }
            return;
        }
        let parts = &mut scratch.parts;
        parts.resize_with(self.shards.len(), Vec::new);
        // Flow hashes are already splitmix-mixed; low bits shard fine.
        for (flow, ordinal) in batch {
            parts[(flow & self.mask) as usize].push((flow, ordinal));
        }
        for (part, shard) in parts.iter_mut().zip(&self.shards) {
            if part.is_empty() {
                continue;
            }
            let mut sketch = shard.lock();
            for (flow, ordinal) in part.drain(..) {
                sketch.on_complete(core, flow, ordinal);
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
#[derive(Debug, Clone, PartialEq)]
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

/// The sketch as it was first written — a `HashMap` of flows, each
/// with its own window `Vec` and a `%`-wrapped cursor, every depth
/// recorded as it comes — kept as the reference the slab-and-index
/// sketch is checked against, field for field.
#[cfg(test)]
mod reference {
    use super::{ReorderReport, DEPTH_HIST_SUB_BITS};
    use crate::hist::Histogram;
    use std::collections::HashMap;

    #[derive(Debug, Clone)]
    struct FlowReorder {
        max_ord: u64,
        count: u64,
        recent: Vec<u64>,
        next: usize,
    }

    #[derive(Debug)]
    pub struct ReorderSketch {
        window: usize,
        max_flows: usize,
        flows: HashMap<u64, FlowReorder>,
        depth_hist: Histogram,
        completions: u64,
        reordered: u64,
        untracked: u64,
        per_core: Vec<u64>,
    }

    impl ReorderSketch {
        pub fn new(window: usize, max_flows: usize) -> Self {
            ReorderSketch {
                window: window.max(1),
                max_flows: max_flows.max(1),
                flows: HashMap::new(),
                depth_hist: Histogram::new(DEPTH_HIST_SUB_BITS),
                completions: 0,
                reordered: 0,
                untracked: 0,
                per_core: Vec::new(),
            }
        }

        pub fn on_complete(&mut self, core: usize, flow: u64, ordinal: u64) -> u64 {
            let tracked = self.flows.len();
            let st = match self.flows.entry(flow) {
                std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::hash_map::Entry::Vacant(v) => {
                    if tracked >= self.max_flows {
                        self.untracked += 1;
                        return 0;
                    }
                    v.insert(FlowReorder {
                        max_ord: 0,
                        count: 0,
                        recent: Vec::with_capacity(self.window),
                        next: 0,
                    })
                }
            };
            self.completions += 1;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

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
        let mut scratch = ReorderScratch::default();
        // A batch completes on one core: cut the stream where it changes.
        for run in stream.chunk_by(|a, b| a.0 == b.0) {
            for part in run.chunks(batch) {
                let pairs = part.iter().map(|&(_, f, o)| (f, o));
                shared.on_complete_batch(part[0].0, pairs, &mut scratch);
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

    /// How a generated flow index becomes a key: mixed as the runtimes'
    /// flow hashes are, small consecutive integers, or multiples of
    /// 2^16 — which all share a home slot in any index the sketch
    /// grows to here, and all fall in shard 0.
    fn key(shape: u8, flow: u64) -> u64 {
        match shape {
            0 => {
                let mut z = flow.wrapping_add(0x9e37_79b9_7f4a_7c15);
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            }
            1 => flow + 1,
            _ => (flow + 1) << 16,
        }
    }

    proptest! {
        /// The slab-and-index sketch, sharded and fed whole batches,
        /// against the reference fed one completion at a time per
        /// shard (what the sharded sketch promises: per-shard streams
        /// in batch order, merged in shard order): equal reports, field
        /// for field, and equal per-completion depths unsharded.
        #[test]
        fn the_sketch_matches_the_reference(
            window in 1usize..=64,
            max_flows in 1usize..=48,
            shards in 1usize..=8,
            shape in 0u8..3,
            steps in vec((0u64..64, 0u64..32, 0usize..4), 1..600),
            cuts in vec(1usize..=40, 1..64),
        ) {
            // Per-flow ordinals: mostly ascending, with setbacks of up
            // to 8 that make inversions and repeats.
            let mut last = [0u64; 64];
            let stream: Vec<(usize, u64, u64)> = steps
                .iter()
                .map(|&(flow, step, core)| {
                    let ord = (last[flow as usize] + step).saturating_sub(8);
                    last[flow as usize] = ord;
                    (core, key(shape, flow), ord)
                })
                .collect();

            let shared = SharedReorderSketch::new(window, max_flows, shards);
            let n = shards.next_power_of_two();
            let mut refs: Vec<reference::ReorderSketch> = (0..n)
                .map(|_| reference::ReorderSketch::new(window, max_flows))
                .collect();
            let mut scratch = ReorderScratch::default();
            let mut rest = &stream[..];
            for &cut in cuts.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (batch, tail) = rest.split_at(cut.min(rest.len()));
                rest = tail;
                let core = batch[0].0;
                shared.on_complete_batch(core, batch.iter().map(|&(_, f, o)| (f, o)), &mut scratch);
                for &(_, flow, ord) in batch {
                    refs[(flow % n as u64) as usize].on_complete(core, flow, ord);
                }
            }
            let mut want = refs[0].report();
            for r in &refs[1..] {
                want.merge(&r.report());
            }
            prop_assert_eq!(shared.report(), want);

            let mut single = ReorderSketch::new(window, max_flows);
            let mut reference = reference::ReorderSketch::new(window, max_flows);
            for &(core, flow, ord) in &stream {
                prop_assert_eq!(
                    single.on_complete(core, flow, ord),
                    reference.on_complete(core, flow, ord)
                );
            }
            prop_assert_eq!(single.report(), reference.report());
        }
    }
}
