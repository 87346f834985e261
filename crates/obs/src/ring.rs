//! Bounded per-core trace rings, the chunked event storage they share
//! with the assembled [`Trace`], and the merge between the two.
//!
//! Each core (and the ingress thread of the threaded runtime) owns one
//! [`TraceRing`] outright, so recording is lock-free by construction: a
//! bounds check and a write into the current storage chunk. When a ring
//! fills, new events are counted in [`TraceRing::dropped`] and discarded
//! — keep-oldest, so a trace's prefix is always contiguous and tracing
//! can stay enabled under overload without unbounded memory.
//!
//! A kept event is stored once, from the push that records it to the
//! caller that reads the trace: rings and [`Trace::events`] are the same
//! [`TraceEvents`], a sequence of fixed-size chunks. [`Trace::assemble`]
//! moves a lone ring's chunks into the trace as they are; several rings
//! are merged into fresh chunks, each allocated only after the input
//! chunks the merge has read through are freed. It must not copy into
//! one full-size buffer: glibc keeps freed heap chunks resident, so a
//! second copy raises the process's peak for good even when the first
//! is freed as the merge goes (on the `simtcp` benchmark's traced trial
//! it doubled the trace's 24 MiB of kept events).

use crate::event::{EventKind, TraceEvent};
use serde::{Deserialize, Serialize};

/// Events per storage chunk. Sized so a chunk (~96 KiB) stays below
/// glibc's mmap threshold: chunk allocations are served from recycled
/// heap pages instead of fresh zero-fill mappings, which is what makes
/// recording cheap for short captures (a single up-front reserve of the
/// full multi-MB capacity costs a page fault per 4 KiB touched, every
/// run; so does letting a `Vec` double its way up through fresh mmaps).
const CHUNK: usize = 2048;

/// One storage chunk: room for [`CHUNK`] events, allocated once and
/// never grown, so a chunk's buffer is never copied.
struct Chunk(Vec<TraceEvent>);

impl Chunk {
    fn new() -> Self {
        #[cfg(test)]
        census::alloc();
        Chunk(Vec::with_capacity(CHUNK))
    }
}

impl Clone for Chunk {
    fn clone(&self) -> Self {
        let mut chunk = Chunk::new();
        chunk.0.extend_from_slice(&self.0);
        chunk
    }
}

#[cfg(test)]
impl Drop for Chunk {
    fn drop(&mut self) {
        census::free();
    }
}

/// Trace events in recording (or, once assembled, `seq`) order, stored
/// in fixed-size chunks: every chunk but the last is full, and none is
/// empty. Reads like the flat `Vec<TraceEvent>` it stands for —
/// iteration, length, `==` and `Debug` see the events alone, never the
/// chunking, and serde reads and writes it as that `Vec`.
#[derive(Clone, Default, Serialize, Deserialize)]
#[serde(from = "Vec<TraceEvent>", into = "Vec<TraceEvent>")]
pub struct TraceEvents {
    chunks: Vec<Chunk>,
    len: usize,
}

impl TraceEvents {
    /// No events.
    pub fn new() -> Self {
        TraceEvents::default()
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if there are no events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append one event, opening a chunk when the last one is full.
    #[inline]
    pub fn push(&mut self, ev: TraceEvent) {
        if self.len.is_multiple_of(CHUNK) {
            self.chunks.push(Chunk::new());
        }
        // The last chunk exists and has room by construction.
        self.chunks
            .last_mut()
            .expect("chunk pushed above")
            .0
            .push(ev);
        self.len += 1;
    }

    /// Append `events` in order, a chunk's worth of room at a time.
    fn extend_from_slice(&mut self, mut events: &[TraceEvent]) {
        while !events.is_empty() {
            if self.len.is_multiple_of(CHUNK) {
                self.chunks.push(Chunk::new());
            }
            let last = self.chunks.last_mut().expect("chunk pushed above");
            let (now, rest) = events.split_at((CHUNK - last.0.len()).min(events.len()));
            last.0.extend_from_slice(now);
            self.len += now.len();
            events = rest;
        }
    }

    /// The events in order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            chunks: self.chunks.iter(),
            chunk: [].iter(),
            left: self.len,
        }
    }

    /// True if `seq` never decreases along the events.
    fn is_sorted_by_seq(&self) -> bool {
        let mut last = 0;
        self.iter().all(|e| {
            let ordered = e.seq >= last;
            last = e.seq;
            ordered
        })
    }
}

/// Iterator over [`TraceEvents`], in order.
pub struct Iter<'a> {
    chunks: std::slice::Iter<'a, Chunk>,
    chunk: std::slice::Iter<'a, TraceEvent>,
    left: usize,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a TraceEvent;

    #[inline]
    fn next(&mut self) -> Option<&'a TraceEvent> {
        loop {
            if let Some(ev) = self.chunk.next() {
                self.left -= 1;
                return Some(ev);
            }
            self.chunk = self.chunks.next()?.0.iter();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a TraceEvents {
    type Item = &'a TraceEvent;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl PartialEq for TraceEvents {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl std::fmt::Debug for TraceEvents {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl FromIterator<TraceEvent> for TraceEvents {
    fn from_iter<I: IntoIterator<Item = TraceEvent>>(iter: I) -> Self {
        let mut events = TraceEvents::new();
        for ev in iter {
            events.push(ev);
        }
        events
    }
}

impl From<Vec<TraceEvent>> for TraceEvents {
    fn from(events: Vec<TraceEvent>) -> Self {
        let mut chunked = TraceEvents::new();
        chunked.extend_from_slice(&events);
        chunked
    }
}

impl From<TraceEvents> for Vec<TraceEvent> {
    fn from(events: TraceEvents) -> Self {
        events.iter().copied().collect()
    }
}

/// A bounded, drop-counting event buffer owned by a single core.
///
/// Storage is [`TraceEvents`], chunks allocated on demand, so recording
/// never reallocates (no copies) and short runs never touch cold pages.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceRing {
    capacity: usize,
    events: TraceEvents,
    dropped: u64,
}

impl TraceRing {
    /// An empty ring holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        TraceRing {
            capacity,
            events: TraceEvents::new(),
            dropped: 0,
        }
    }

    /// Record an event; returns false (and counts a drop) if full.
    #[inline]
    pub fn push(&mut self, ev: TraceEvent) -> bool {
        if self.is_full() {
            self.dropped += 1;
            return false;
        }
        self.events.push(ev);
        true
    }

    /// True if the next [`TraceRing::push`] would be refused.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.events.len() >= self.capacity
    }

    /// Events the ring will still keep.
    #[inline]
    pub fn room(&self) -> usize {
        self.capacity.saturating_sub(self.events.len())
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
        self.events.len()
    }

    /// True if no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Capture metadata.
    pub meta: TraceMeta,
    /// All events, sorted by [`TraceEvent::seq`].
    pub events: TraceEvents,
    /// Events lost to full rings across all cores. When nonzero the
    /// trace is a prefix sample and conservation checks are advisory.
    pub dropped: u64,
}

impl Trace {
    /// Merge per-core rings into one trace in [`TraceEvent::seq`] order
    /// (equal `seq`s, which no runtime emits, in ring order).
    ///
    /// A ring a runtime wrote is already in `seq` order (one writer,
    /// sequence numbers claimed as it writes). When only one ring holds
    /// events its chunks become the trace's, uncopied. Otherwise this
    /// is a k-way merge of the rings into fresh chunks, linear in the
    /// events, freeing each input chunk once read through, so each kept
    /// event is resident once. A ring found out of order (hand-built,
    /// deserialized) abandons the merge: what is left is appended and
    /// the whole is stably sorted through one flat copy.
    pub fn assemble(meta: TraceMeta, rings: Vec<TraceRing>) -> Trace {
        let dropped = rings.iter().map(|r| r.dropped).sum();
        let mut held: Vec<TraceEvents> = rings
            .into_iter()
            .map(|r| r.events)
            .filter(|e| !e.is_empty())
            .collect();
        let events = match held.as_slice() {
            [] => TraceEvents::new(),
            [only] if only.is_sorted_by_seq() => held.pop().expect("one ring"),
            _ => {
                let mut merged = TraceEvents::new();
                if merge_sorted(held, &mut merged) {
                    merged
                } else {
                    let mut flat = Vec::from(merged);
                    flat.sort_by_key(|e| e.seq);
                    flat.into()
                }
            }
        };
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
    chunks: std::vec::IntoIter<Chunk>,
    /// The chunk being read, freed once read through (`None` when the
    /// ring is exhausted), and how far in.
    chunk: Option<Chunk>,
    pos: usize,
    /// `seq` of the last event taken: the ring's own order check.
    last: u64,
}

impl Cursor {
    fn new(events: TraceEvents) -> Self {
        let mut chunks = events.chunks.into_iter();
        Cursor {
            chunk: chunks.next(),
            chunks,
            pos: 0,
            last: 0,
        }
    }

    fn rest(&self) -> &[TraceEvent] {
        self.chunk.as_ref().map_or(&[], |c| &c.0[self.pos..])
    }

    /// Free the current chunk once read through and step to the next
    /// (chunks are never empty).
    fn refill(&mut self) {
        if self.rest().is_empty() {
            self.chunk = None;
            self.chunk = self.chunks.next();
            self.pos = 0;
        }
    }
}

/// Merge `rings` into `out` by `(seq, ring index)`, a run at a time:
/// take from the ring whose head is least for as long as it stays below
/// the runner-up's head, one copy per run and chunk. Returns false —
/// every event is then in `out`, in no useful order — if some ring's
/// events are not in non-decreasing `seq` order.
fn merge_sorted(rings: Vec<TraceEvents>, out: &mut TraceEvents) -> bool {
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
                    for chunk in c.chunks.by_ref() {
                        out.extend_from_slice(&chunk.0);
                    }
                }
                return false;
            }
            last = e.seq;
            run += 1;
        }
        debug_assert!(run > 0, "the least head is below the runner-up");
        out.extend_from_slice(&c.rest()[..run]);
        c.pos += run;
        c.last = last;
        c.refill();
    }
}

/// Live [`Chunk`]s on this thread, and the most seen since the last
/// [`census::reset_peak`]: what the merge's held-once bound is checked
/// against.
#[cfg(test)]
mod census {
    use std::cell::Cell;

    thread_local! {
        static LIVE: Cell<usize> = const { Cell::new(0) };
        static PEAK: Cell<usize> = const { Cell::new(0) };
    }

    pub(super) fn alloc() {
        let live = LIVE.get() + 1;
        LIVE.set(live);
        PEAK.set(PEAK.get().max(live));
    }

    pub(super) fn free() {
        LIVE.set(LIVE.get() - 1);
    }

    pub(super) fn live() -> usize {
        LIVE.get()
    }

    /// Start a new peak from what is live now.
    pub(super) fn reset_peak() {
        PEAK.set(LIVE.get());
    }

    pub(super) fn peak() -> usize {
        PEAK.get()
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

    /// What `assemble` must return for sorted rings, however it gets
    /// there.
    fn concat_then_stable_sort(rings: &[TraceRing]) -> Vec<TraceEvent> {
        let mut all: Vec<TraceEvent> = rings
            .iter()
            .flat_map(|r| r.events.iter().copied())
            .collect();
        all.sort_by_key(|e| e.seq);
        all
    }

    /// Up to five rings of 0-8 or up to three chunks of events.
    fn ring_shapes() -> impl Strategy<Value = Vec<(u64, usize, u8, u64, u64)>> {
        vec(
            (0u64..40, 0usize..3 * CHUNK, 0u8..4, any::<u64>(), 0u64..5),
            0..5,
        )
    }

    fn rings_of(shapes: &[(u64, usize, u8, u64, u64)]) -> Vec<TraceRing> {
        shapes
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
            .collect()
    }

    proptest! {
        /// Sorted rings — empty ones, one-chunk and multi-chunk ones,
        /// `seq`s repeated within and across rings, all but one empty
        /// (the move) — merge to exactly what concatenating and stably
        /// sorting them gives; with an unsorted ring among them or
        /// alone (the fallback) the same events still come out in
        /// `seq` order.
        #[test]
        fn assemble_is_concat_then_stable_sort(
            shapes in ring_shapes(),
            lone in prop::option::of(any::<usize>()),
            unsorted in prop::option::of(any::<usize>()),
        ) {
            let mut rings = rings_of(&shapes);
            if let (Some(keep), false) = (lone, rings.is_empty()) {
                for (i, ring) in rings.iter_mut().enumerate() {
                    if i != keep % shapes.len() {
                        ring.events = TraceEvents::new();
                    }
                }
            }
            if let (Some(pick), false) = (unsorted, rings.is_empty()) {
                // Send one ring's last event back before all the others.
                let ring = &mut rings[lone.unwrap_or(pick) % shapes.len()];
                if let Some(last) = ring.events.chunks.last_mut().and_then(|c| c.0.last_mut()) {
                    last.seq = 0;
                }
            }
            let mut want = concat_then_stable_sort(&rings);
            let dropped: u64 = rings.iter().map(|r| r.dropped).sum();
            let got = Trace::assemble(meta(), rings);
            prop_assert_eq!(got.dropped, dropped);
            prop_assert_eq!(got.events.len(), got.events.iter().count());
            let mut got = Vec::from(got.events);
            if unsorted.is_some() {
                // Equal `seq`s may come out in another order.
                prop_assert!(got.windows(2).all(|w| w[0].seq <= w[1].seq));
                got.sort_by_key(|e| (e.seq, e.core, e.pkt));
                want.sort_by_key(|e| (e.seq, e.core, e.pkt));
            }
            prop_assert!(got == want, "merged order differs from the sort");
        }

        /// Merging k sorted rings holds every kept event once: at no
        /// point are more chunks live than the rings started with plus
        /// k + 1, and the trace ends on the fewest chunks its events
        /// fit in.
        #[test]
        fn a_merge_holds_each_kept_event_once(shapes in ring_shapes()) {
            let rings = rings_of(&shapes);
            let k = rings.len();
            let kept: usize = rings.iter().map(TraceRing::len).sum();
            let start = census::live();
            census::reset_peak();
            let trace = Trace::assemble(meta(), rings);
            prop_assert!(
                census::peak() <= start + k + 1,
                "{} chunks live at the peak, {start} before the merge of {k} rings",
                census::peak()
            );
            prop_assert_eq!(census::live(), kept.div_ceil(CHUNK));
            prop_assert_eq!(trace.events.chunks.len(), kept.div_ceil(CHUNK));
        }
    }

    #[test]
    fn assembling_one_ring_moves_its_chunks() {
        let ring = climbing_ring(1, 0, 3 * CHUNK + 5, 9);
        let buffers: Vec<*const TraceEvent> =
            ring.events.chunks.iter().map(|c| c.0.as_ptr()).collect();
        let want = ring.events.clone();
        let mut empty = TraceRing::new(4);
        empty.dropped = 2;
        let start = census::live();
        census::reset_peak();
        let t = Trace::assemble(meta(), vec![empty, ring, TraceRing::new(4)]);
        assert_eq!(census::peak(), start, "no chunk allocated");
        let moved: Vec<*const TraceEvent> = t.events.chunks.iter().map(|c| c.0.as_ptr()).collect();
        assert_eq!(moved, buffers, "the ring's chunk buffers are the trace's");
        assert_eq!((t.events, t.dropped), (want, 2));
    }

    #[test]
    fn chunked_events_read_like_the_flat_vec() {
        let flat: Vec<TraceEvent> = (0..2 * CHUNK as u64 + 3)
            .map(|seq| ev(seq, EventKind::NfDone))
            .collect();
        // Built one event at a time, and a slice at a time across chunk
        // edges: every chunk but the last full either way.
        let mut pushed = TraceEvents::new();
        for &e in &flat {
            pushed.push(e);
        }
        let mut pieces = TraceEvents::new();
        for part in flat.chunks(CHUNK - 1) {
            pieces.extend_from_slice(part);
        }
        for chunked in [&pushed, &pieces] {
            let lens: Vec<usize> = chunked.chunks.iter().map(|c| c.0.len()).collect();
            assert_eq!(lens, [CHUNK, CHUNK, 3]);
        }
        assert_eq!(pushed, pieces);
        assert_ne!(pushed, TraceEvents::from(flat[1..].to_vec()));
        assert_eq!(
            (pushed.len(), pushed.iter().len()),
            (flat.len(), flat.len())
        );
        assert!(pushed.iter().eq(flat.iter()));
        assert_eq!(format!("{pushed:?}"), format!("{flat:?}"));
        assert_eq!(Vec::from(pushed), flat);
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
        let mut all = TraceEvents::new();
        assert!(!merge_sorted(
            vec![a.events.clone(), b.events.clone()],
            &mut all
        ));
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
