//! Bounded per-core trace rings and the assembled [`Trace`].
//!
//! Each core (and the ingress thread of the threaded runtime) owns one
//! [`TraceRing`] outright, so recording is lock-free by construction: a
//! bounds check and a write into the current storage chunk. When a ring
//! fills, new events are counted in [`TraceRing::dropped`] and discarded
//! — keep-oldest, so a trace's prefix is always contiguous and tracing
//! can stay enabled under overload without unbounded memory.

use crate::event::{EventKind, TraceEvent};
use serde::{Deserialize, Serialize};

/// Events per storage chunk. Sized so a chunk (~96 KiB) stays below
/// glibc's mmap threshold: chunk allocations are served from recycled
/// heap pages instead of fresh zero-fill mappings, which is what makes
/// recording cheap for short captures (a single up-front reserve of the
/// full multi-MB capacity costs a page fault per 4 KiB touched, every
/// run; so does letting a `Vec` double its way up through fresh mmaps).
const CHUNK: usize = 2048;

/// A bounded, drop-counting event buffer owned by a single core.
///
/// Storage is a sequence of fixed-size chunks allocated on demand, so
/// recording never reallocates (no copies) and short runs never touch
/// cold pages.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceRing {
    capacity: usize,
    len: usize,
    chunks: Vec<Vec<TraceEvent>>,
    dropped: u64,
}

impl TraceRing {
    /// An empty ring holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        TraceRing {
            capacity,
            len: 0,
            chunks: Vec::new(),
            dropped: 0,
        }
    }

    /// Record an event; returns false (and counts a drop) if full.
    #[inline]
    pub fn push(&mut self, ev: TraceEvent) -> bool {
        if self.len >= self.capacity {
            self.dropped += 1;
            return false;
        }
        if self.len.is_multiple_of(CHUNK) {
            self.chunks.push(Vec::with_capacity(CHUNK));
        }
        // The last chunk exists and has spare capacity by construction.
        self.chunks.last_mut().expect("chunk pushed above").push(ev);
        self.len += 1;
        true
    }

    /// True if the next [`TraceRing::push`] would be refused.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.len >= self.capacity
    }

    /// Ask before building an event: true if the next push will be
    /// kept. A full ring counts the drop here and says no, so the
    /// caller spends nothing — no sequence number, no event — on what
    /// would be discarded, and [`TraceRing::dropped`] stays exact.
    #[inline]
    pub fn admit(&mut self) -> bool {
        if self.is_full() {
            self.dropped += 1;
            return false;
        }
        true
    }

    /// Events recorded so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Events rejected because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// The aggregate counters the producing runtime reported at capture
/// time (from `MiddleboxStats`) — the ground truth the analyzer's
/// conservation check compares trace-derived counts against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExpectedCounts {
    /// Packets offered by the traffic source.
    pub offered: u64,
    /// Packets the NF processed (forwarded + NF drops).
    pub processed: u64,
    /// Packets forwarded.
    pub forwarded: u64,
    /// Packets dropped by NF verdict.
    pub nf_drops: u64,
    /// NIC Flow Director cap drops.
    pub nic_cap_drops: u64,
    /// Receive-queue overflow drops.
    pub queue_drops: u64,
    /// Inter-core ring overflow drops.
    pub ring_drops: u64,
    /// Redirects sent (consumed or dropped).
    pub redirects: u64,
}

/// Capture metadata carried alongside the events.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceMeta {
    /// Producing runtime: `"sim"` or `"threads"`.
    pub runtime: String,
    /// Timestamp ticks per microsecond: the simulator stamps
    /// picoseconds of simulated time (1_000_000), the threaded runtime
    /// nanoseconds of wall time since the run started (1_000).
    pub ticks_per_us: u64,
    /// Number of cores (workers) in the run.
    pub num_cores: usize,
    /// The runtime's own aggregate counters at capture time.
    pub expected: Option<ExpectedCounts>,
}

/// A complete captured trace: merged per-core rings in global
/// sequence order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Trace {
    /// Capture metadata.
    pub meta: TraceMeta,
    /// All events, sorted by [`TraceEvent::seq`].
    pub events: Vec<TraceEvent>,
    /// Events lost to full rings across all cores. When nonzero the
    /// trace is a prefix sample and conservation checks are advisory.
    pub dropped: u64,
}

impl Trace {
    /// Merge per-core rings into one trace in [`TraceEvent::seq`] order
    /// (equal `seq`s, which no runtime emits, in ring order).
    ///
    /// A ring a runtime wrote is already in `seq` order (one writer,
    /// sequence numbers claimed as it writes), so this is a k-way merge
    /// of the rings straight into the output, linear in the events,
    /// freeing each storage chunk as it is passed. A ring found out of
    /// order on the way (hand-built, deserialized) abandons the merge:
    /// what is left is appended and the whole is sorted.
    pub fn assemble(meta: TraceMeta, rings: Vec<TraceRing>) -> Trace {
        let mut events = Vec::with_capacity(rings.iter().map(|r| r.len()).sum());
        let dropped = rings.iter().map(|r| r.dropped).sum();
        if !merge_sorted(rings, &mut events) {
            events.sort_by_key(|e| e.seq);
        }
        Trace {
            meta,
            events,
            dropped,
        }
    }

    /// Event counts indexed by `EventKind as usize`.
    pub fn counts_by_kind(&self) -> [u64; EventKind::ALL.len()] {
        let mut counts = [0u64; EventKind::ALL.len()];
        for ev in &self.events {
            counts[ev.kind as usize] += 1;
        }
        counts
    }

    /// Count of events of one kind.
    pub fn count_of(&self, kind: EventKind) -> u64 {
        self.counts_by_kind()[kind as usize]
    }
}

/// One ring's read position in [`merge_sorted`].
struct Cursor {
    /// Chunks not yet started.
    chunks: std::vec::IntoIter<Vec<TraceEvent>>,
    /// The chunk being read, freed once read through, and how far in;
    /// `pos` is past the end only when the ring is exhausted.
    chunk: Vec<TraceEvent>,
    pos: usize,
    /// `seq` of the last event taken: the ring's own order check.
    last: u64,
}

impl Cursor {
    fn new(ring: TraceRing) -> Self {
        let mut c = Cursor {
            chunks: ring.chunks.into_iter(),
            chunk: Vec::new(),
            pos: 0,
            last: 0,
        };
        c.refill();
        c
    }

    fn rest(&self) -> &[TraceEvent] {
        &self.chunk[self.pos..]
    }

    /// Step to the next non-empty chunk once this one has run out.
    fn refill(&mut self) {
        while self.pos == self.chunk.len() {
            self.pos = 0;
            self.chunk = match self.chunks.next() {
                Some(chunk) => chunk,
                None => return self.chunk = Vec::new(),
            };
        }
    }
}

/// Merge `rings` into `out` by `(seq, ring index)`, a run at a time:
/// take from the ring whose head is least for as long as it stays below
/// the runner-up's head, one `extend_from_slice` per run and chunk.
/// Returns false — every event is then in `out`, in no useful order —
/// if some ring's events are not in non-decreasing `seq` order.
fn merge_sorted(rings: Vec<TraceRing>, out: &mut Vec<TraceEvent>) -> bool {
    let mut cursors: Vec<Cursor> = rings.into_iter().map(Cursor::new).collect();
    loop {
        // The least head and the runner-up, ties to the lower index.
        let mut best: Option<(u64, usize)> = None;
        let mut bound = (u64::MAX, usize::MAX);
        for (i, c) in cursors.iter().enumerate() {
            let Some(head) = c.rest().first() else {
                continue;
            };
            let key = (head.seq, i);
            match best {
                Some(b) if b <= key => bound = bound.min(key),
                Some(b) => {
                    bound = b;
                    best = Some(key);
                }
                None => best = Some(key),
            }
        }
        let Some((_, i)) = best else {
            return true;
        };
        let c = &mut cursors[i];
        let (mut run, mut last) = (0, c.last);
        for e in c.rest().iter().take_while(|e| (e.seq, i) < bound) {
            if e.seq < last {
                // Out of order: hand over what is left, unmerged.
                for c in &mut cursors {
                    out.extend_from_slice(c.rest());
                    out.extend(c.chunks.by_ref().flatten());
                }
                return false;
            }
            last = e.seq;
            run += 1;
        }
        debug_assert!(run > 0, "the least head is below the runner-up");
        out.extend_from_slice(&c.chunk[c.pos..c.pos + run]);
        c.pos += run;
        c.last = last;
        c.refill();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn ev(seq: u64, kind: EventKind) -> TraceEvent {
        TraceEvent {
            seq,
            ts: seq * 10,
            core: 0,
            kind,
            flow: 1,
            pkt: seq,
            aux: 0,
        }
    }

    #[test]
    fn ring_bounds_and_counts_drops() {
        let mut r = TraceRing::new(2);
        assert!(r.push(ev(0, EventKind::IngressEnqueue)));
        assert!(r.push(ev(1, EventKind::NfDone)));
        assert!(!r.push(ev(2, EventKind::NfDone)));
        assert!(!r.push(ev(3, EventKind::NfDone)));
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped(), 2);
    }

    #[test]
    fn assemble_merges_in_sequence_order() {
        let mut a = TraceRing::new(8);
        let mut b = TraceRing::new(8);
        a.push(ev(0, EventKind::IngressEnqueue));
        a.push(ev(3, EventKind::NfDone));
        b.push(ev(1, EventKind::IngressEnqueue));
        b.push(ev(2, EventKind::NfDone));
        let meta = TraceMeta {
            runtime: "sim".into(),
            ticks_per_us: 1_000_000,
            num_cores: 2,
            expected: None,
        };
        let t = Trace::assemble(meta, vec![a, b]);
        let seqs: Vec<u64> = t.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        assert_eq!(t.count_of(EventKind::NfDone), 2);
        assert_eq!(t.dropped, 0);
    }

    fn meta() -> TraceMeta {
        TraceMeta {
            runtime: "threads".into(),
            ticks_per_us: 1_000,
            num_cores: 1,
            expected: None,
        }
    }

    /// A ring of `len` events whose `seq`s climb from `start` in steps
    /// of 0..3 (so rings share values, and repeat their own); `core` is
    /// the ring's index and `pkt` the event's position in it, which
    /// tells equal `seq`s apart.
    fn climbing_ring(index: usize, start: u64, len: usize, seed: u64) -> TraceRing {
        let mut ring = TraceRing::new(len.max(1));
        let (mut seq, mut state) = (start, seed);
        for pos in 0..len {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seq += (state >> 33) % 3;
            ring.push(TraceEvent {
                core: index as u16,
                pkt: pos as u64,
                ..ev(seq, EventKind::NfDone)
            });
        }
        ring
    }

    fn events_of(ring: &TraceRing) -> impl Iterator<Item = TraceEvent> + '_ {
        ring.chunks.iter().flatten().copied()
    }

    /// What `assemble` must return for sorted rings, however it gets
    /// there.
    fn concat_then_stable_sort(rings: &[TraceRing]) -> Vec<TraceEvent> {
        let mut all: Vec<TraceEvent> = rings.iter().flat_map(events_of).collect();
        all.sort_by_key(|e| e.seq);
        all
    }

    proptest! {
        /// Sorted rings — empty ones, one-chunk and multi-chunk ones,
        /// `seq`s repeated within and across rings — merge to exactly
        /// what concatenating and stably sorting them gives; with an
        /// unsorted ring among them (the fallback) the same events
        /// still come out in `seq` order.
        #[test]
        fn assemble_is_concat_then_stable_sort(
            shapes in vec((0u64..40, 0usize..3 * CHUNK, 0u8..4, any::<u64>(), 0u64..5), 0..5),
            unsorted in prop::option::of(any::<u64>()),
        ) {
            let mut rings: Vec<TraceRing> = shapes
                .iter()
                .enumerate()
                .map(|(i, &(start, len, shape, seed, dropped))| {
                    let len = match shape {
                        0 => 0,
                        1 => len % 8,
                        _ => len,
                    };
                    let mut ring = climbing_ring(i, start, len, seed);
                    ring.dropped = dropped;
                    ring
                })
                .collect();
            if let (Some(pick), false) = (unsorted, rings.is_empty()) {
                // Send one ring's last event back before all the others.
                let ring = &mut rings[pick as usize % shapes.len()];
                if let Some(last) = ring.chunks.last_mut().and_then(|c| c.last_mut()) {
                    last.seq = 0;
                }
            }
            let mut want = concat_then_stable_sort(&rings);
            let dropped: u64 = rings.iter().map(|r| r.dropped).sum();
            let mut got = Trace::assemble(meta(), rings);
            prop_assert_eq!(got.dropped, dropped);
            if unsorted.is_some() {
                // Equal `seq`s may come out in another order.
                prop_assert!(got.events.windows(2).all(|w| w[0].seq <= w[1].seq));
                got.events.sort_by_key(|e| (e.seq, e.core, e.pkt));
                want.sort_by_key(|e| (e.seq, e.core, e.pkt));
            }
            prop_assert!(got.events == want, "merged order differs from the sort");
        }
    }

    #[test]
    fn an_unsorted_ring_takes_the_fallback_and_is_still_sorted() {
        let mut a = TraceRing::new(8);
        let mut b = TraceRing::new(8);
        for seq in [0, 5, 3, 9] {
            a.push(ev(seq, EventKind::NfStart));
        }
        for seq in [1, 4, 6] {
            b.push(ev(seq, EventKind::NfDone));
        }
        b.push(ev(7, EventKind::NfDone));
        b.push(ev(8, EventKind::NfDone));
        let mut all = Vec::new();
        assert!(!merge_sorted(vec![a.clone(), b.clone()], &mut all));
        assert_eq!(all.len(), 9, "the abandoned merge hands every event over");
        let t = Trace::assemble(meta(), vec![a, b]);
        let seqs: Vec<u64> = t.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [0, 1, 3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn admit_refuses_a_full_ring_and_counts_the_drop() {
        let mut r = TraceRing::new(1);
        assert!(!r.is_full() && r.admit());
        assert!(r.push(ev(0, EventKind::Drain)));
        assert!(r.is_full() && !r.admit() && !r.admit());
        assert_eq!((r.len(), r.dropped()), (1, 2));
    }
}
