//! Bounded per-core trace rings, the chunked event storage they share
//! with the assembled [`Trace`], and the merge between the two.
//!
//! Each core (and the ingress thread of the threaded runtime) owns one
//! [`TraceRing`] outright, so recording is lock-free by construction: a
//! bounds check and a write into the open storage chunk. When a ring
//! fills, new events are counted in [`TraceRing::dropped`] and discarded
//! — keep-oldest, so a trace's prefix is always contiguous and tracing
//! can stay enabled under overload without unbounded memory.
//!
//! A kept event is stored once, from the push that records it to the
//! caller that reads the trace: rings and [`Trace::events`] are the same
//! [`TraceEvents`], fixed-size chunks. Events are recorded into an open
//! chunk of 48-byte [`TraceEvent`]s, sealed once full into 24-byte
//! records counted from the chunk's least `seq`, `ts` and `pkt` (kept
//! raw if some value does not fit) and then reused. [`Trace::assemble`]
//! moves a lone ring's chunks into the trace as they are; a merge of
//! several decodes each input chunk once and seals its output into the
//! storage it freed. Nothing is copied into one full-size buffer: glibc
//! keeps freed heap chunks resident, so a second copy raises the
//! process's peak for good (on the `simtcp` benchmark's traced trial it
//! doubled the trace's kept events).

use crate::event::{EventKind, TraceEvent};
use serde::{Deserialize, Serialize};

/// Events per storage chunk. Sized so a chunk (96 KiB open, 48 KiB
/// packed) stays below glibc's mmap threshold: chunk allocations are
/// served from recycled heap pages instead of fresh zero-fill mappings,
/// which is what makes recording cheap for short captures (a single
/// up-front reserve of the full multi-MB capacity costs a page fault
/// per 4 KiB touched, every run; so does letting a `Vec` double its way
/// up through fresh mmaps).
const CHUNK: usize = 2048;

/// Storage for one chunk: room for [`CHUNK`] items, allocated once and
/// never grown, so a chunk's buffer is never copied. Empty storage
/// (capacity 0) allocates nothing.
struct Buf<T>(Vec<T>);

impl<T> Buf<T> {
    fn alloc() -> Self {
        #[cfg(test)]
        census::alloc();
        Buf(Vec::with_capacity(CHUNK))
    }

    /// True if the next item needs another chunk: the open chunk is full
    /// (capacity is exactly [`CHUNK`]) or has no storage yet.
    #[inline]
    fn is_full(&self) -> bool {
        self.0.len() == self.0.capacity()
    }
}

impl<T> Default for Buf<T> {
    fn default() -> Self {
        Buf(Vec::new())
    }
}

impl<T: Clone> Clone for Buf<T> {
    fn clone(&self) -> Self {
        let mut buf = if self.0.capacity() == 0 {
            Buf::default()
        } else {
            Buf::alloc()
        };
        buf.0.extend_from_slice(&self.0);
        buf
    }
}

#[cfg(test)]
impl<T> Drop for Buf<T> {
    fn drop(&mut self) {
        if self.0.capacity() > 0 {
            census::free();
        }
    }
}

/// A sealed event: `seq`, `ts` and `pkt` as offsets from its chunk's
/// [`Base`], the rest narrowed. 24 bytes, against a [`TraceEvent`]'s 48.
#[derive(Clone, Copy)]
struct Packed {
    flow: u64,
    ts: u32,
    aux: u32,
    seq: u16,
    /// [`NO_PKT`] for [`TraceEvent::NO_PKT`].
    pkt: u16,
    core: u8,
    kind: EventKind,
}

/// The packed `pkt` that stands for [`TraceEvent::NO_PKT`].
const NO_PKT: u16 = u16::MAX;

/// A packed chunk's least `seq`, `ts` and `pkt`, which its records'
/// offsets count from.
#[derive(Clone, Copy, Default)]
struct Base {
    seq: u64,
    ts: u64,
    pkt: u64,
}

impl Base {
    /// The base of `events`, if every one of them packs against it, and
    /// whether their `seq`s never fall below `after` or each other.
    fn of(events: &[TraceEvent], after: u64) -> (Option<Base>, bool) {
        let (mut prev, mut sorted) = (after, true);
        let mut lo = Base {
            seq: u64::MAX,
            ts: u64::MAX,
            pkt: u64::MAX,
        };
        let (mut hi, mut aux, mut core) = (Base::default(), 0, 0);
        for e in events {
            (sorted, prev) = (sorted && prev <= e.seq, e.seq);
            (lo.seq, hi.seq) = (lo.seq.min(e.seq), hi.seq.max(e.seq));
            (lo.ts, hi.ts) = (lo.ts.min(e.ts), hi.ts.max(e.ts));
            if e.pkt != TraceEvent::NO_PKT {
                (lo.pkt, hi.pkt) = (lo.pkt.min(e.pkt), hi.pkt.max(e.pkt));
            }
            aux |= e.aux;
            core |= e.core;
        }
        let fits = hi.seq - lo.seq <= u64::from(u16::MAX)
            && hi.ts - lo.ts <= u64::from(u32::MAX)
            && hi.pkt.saturating_sub(lo.pkt) < u64::from(NO_PKT)
            && aux <= u64::from(u32::MAX)
            && core <= u16::from(u8::MAX);
        (fits.then_some(lo), sorted)
    }

    fn pack(&self, e: &TraceEvent) -> Packed {
        Packed {
            flow: e.flow,
            ts: (e.ts - self.ts) as u32,
            aux: e.aux as u32,
            seq: (e.seq - self.seq) as u16,
            pkt: if e.pkt == TraceEvent::NO_PKT {
                NO_PKT
            } else {
                (e.pkt - self.pkt) as u16
            },
            core: e.core as u8,
            kind: e.kind,
        }
    }

    fn unpack(&self, p: &Packed) -> TraceEvent {
        TraceEvent {
            seq: self.seq + u64::from(p.seq),
            ts: self.ts + u64::from(p.ts),
            core: u16::from(p.core),
            kind: p.kind,
            flow: p.flow,
            pkt: if p.pkt == NO_PKT {
                TraceEvent::NO_PKT
            } else {
                self.pkt + u64::from(p.pkt)
            },
            aux: u64::from(p.aux),
        }
    }
}

/// A sealed chunk: [`CHUNK`] events, packed or, if they do not fit,
/// raw.
#[derive(Clone)]
enum Chunk {
    Packed(Base, Buf<Packed>),
    Raw(Buf<TraceEvent>),
}

/// Storage freed by a merge, reused before any is allocated.
#[derive(Default)]
struct Spares {
    raw: Vec<Buf<TraceEvent>>,
    packed: Vec<Buf<Packed>>,
}

impl Spares {
    fn raw(&mut self) -> Buf<TraceEvent> {
        self.raw.pop().unwrap_or_else(Buf::alloc)
    }

    /// Packed storage for a seal; one allocated afresh replaces a raw
    /// spare, which would otherwise sit idle (seals are nearly all
    /// packed, and the ends of the rings leave raw spares behind).
    fn packed(&mut self) -> Buf<Packed> {
        self.packed.pop().unwrap_or_else(|| {
            self.raw.pop();
            Buf::alloc()
        })
    }
}

/// Trace events in recording (or, once assembled, `seq`) order, stored
/// in fixed-size chunks: sealed chunks, all full, then the open one.
/// Reads like the flat `Vec<TraceEvent>` it stands for — iteration (by
/// value), length, `==` and `Debug` see the events alone, never the
/// chunking, and serde reads and writes it as that `Vec`.
#[derive(Clone, Default, Serialize, Deserialize)]
#[serde(from = "Vec<TraceEvent>", into = "Vec<TraceEvent>")]
pub struct TraceEvents {
    sealed: Vec<Chunk>,
    open: Buf<TraceEvent>,
    /// The last sealed `seq`, and whether a seal's scan found a `seq`
    /// below the one before it: the seals keep the order, so that
    /// [`Trace::assemble`] need not read a lone ring twice.
    sealed_seq: u64,
    out_of_order: bool,
}

impl TraceEvents {
    /// No events.
    pub fn new() -> Self {
        TraceEvents::default()
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.sealed.len() * CHUNK + self.open.0.len()
    }

    /// True if there are no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sealed chunks: `(packed, raw)`, the raw ones holding values that
    /// did not fit a packed record.
    pub fn sealed_chunks(&self) -> (usize, usize) {
        let raw = self
            .sealed
            .iter()
            .filter(|c| matches!(c, Chunk::Raw(_)))
            .count();
        (self.sealed.len() - raw, raw)
    }

    /// Append one event, sealing the open chunk when it is full.
    #[inline]
    pub fn push(&mut self, ev: TraceEvent) {
        if self.open.is_full() {
            self.make_room_alone();
        }
        self.open.0.push(ev);
    }

    /// [`TraceEvents::make_room`] outside a merge, out of line: a push inlines small.
    #[cold]
    #[inline(never)]
    fn make_room_alone(&mut self) {
        self.make_room(&mut Spares::default());
    }

    /// Append `events` in order, a chunk's worth of room at a time.
    fn extend_from_slice(&mut self, mut events: &[TraceEvent], spares: &mut Spares) {
        while !events.is_empty() {
            if self.open.is_full() {
                self.make_room(spares);
            }
            let room = CHUNK - self.open.0.len();
            let (now, rest) = events.split_at(room.min(events.len()));
            self.open.0.extend_from_slice(now);
            events = rest;
        }
    }

    /// Give the open chunk room: storage if it has none, else seal it —
    /// packed, and the open chunk reused, or raw, and a fresh one opened.
    #[cold]
    fn make_room(&mut self, spares: &mut Spares) {
        if self.open.0.is_empty() {
            self.open = spares.raw();
            return;
        }
        let (base, sorted) = Base::of(&self.open.0, self.sealed_seq);
        self.out_of_order |= !sorted;
        self.sealed_seq = self.open.0.last().map_or(0, |e| e.seq);
        match base {
            Some(base) => {
                let mut packed = spares.packed();
                packed.0.extend(self.open.0.iter().map(|e| base.pack(e)));
                self.sealed.push(Chunk::Packed(base, packed));
                self.open.0.clear();
            }
            None => {
                let full = std::mem::replace(&mut self.open, spares.raw());
                self.sealed.push(Chunk::Raw(full));
            }
        }
    }

    /// True if the events are in `seq` order: what the seals saw, and a
    /// scan of the open chunk alone.
    fn in_seq_order(&self) -> bool {
        !self.out_of_order && Base::of(&self.open.0, self.sealed_seq).1
    }

    /// The events in order, by value.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = TraceEvent> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    fn get(&self, i: usize) -> TraceEvent {
        match self.sealed.get(i / CHUNK) {
            Some(Chunk::Packed(base, packed)) => base.unpack(&packed.0[i % CHUNK]),
            Some(Chunk::Raw(raw)) => raw.0[i % CHUNK],
            None => self.open.0[i % CHUNK],
        }
    }
}

impl PartialEq for TraceEvents {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
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
        iter.into_iter().for_each(|ev| events.push(ev));
        events
    }
}

impl From<Vec<TraceEvent>> for TraceEvents {
    fn from(events: Vec<TraceEvent>) -> Self {
        let mut chunked = TraceEvents::new();
        chunked.extend_from_slice(&events, &mut Spares::default());
        chunked
    }
}

impl From<TraceEvents> for Vec<TraceEvent> {
    fn from(events: TraceEvents) -> Self {
        events.iter().collect()
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
    /// sequence numbers claimed as it writes), and its seals have
    /// recorded so: no event is read again to check. When only one ring
    /// holds events its chunks become the trace's, uncopied. Otherwise
    /// this is a k-way merge of the rings, linear in the events, that
    /// seals its output into the storage of the input chunks it has
    /// read, so each kept event is resident once. If a ring is out of
    /// order (hand-built, deserialized), the rings are concatenated and
    /// stably sorted through one flat copy instead.
    pub fn assemble(meta: TraceMeta, rings: Vec<TraceRing>) -> Trace {
        let dropped = rings.iter().map(|r| r.dropped).sum();
        let mut held: Vec<TraceEvents> = rings
            .into_iter()
            .map(|r| r.events)
            .filter(|e| !e.is_empty())
            .collect();
        let events = match held.as_slice() {
            [] => TraceEvents::new(),
            [only] if only.in_seq_order() => held.pop().expect("one ring"),
            rings if rings.iter().all(TraceEvents::in_seq_order) => {
                let mut merged = TraceEvents::new();
                merge_sorted(held, &mut merged);
                merged
            }
            rings => {
                let mut flat: Vec<TraceEvent> = rings.iter().flat_map(TraceEvents::iter).collect();
                flat.sort_by_key(|e| e.seq);
                flat.into()
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
        for ev in self.events.iter() {
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
    /// Chunks not yet started, the open one last.
    chunks: std::vec::IntoIter<Chunk>,
    /// The chunk being read, decoded (no storage once the ring is
    /// exhausted), and how far in.
    buf: Buf<TraceEvent>,
    pos: usize,
}

impl Cursor {
    fn new(mut events: TraceEvents, spares: &mut Spares) -> Self {
        events.sealed.push(Chunk::Raw(events.open));
        let mut cursor = Cursor {
            chunks: events.sealed.into_iter(),
            buf: Buf::default(),
            pos: 0,
        };
        cursor.refill(spares);
        cursor
    }

    fn rest(&self) -> &[TraceEvent] {
        &self.buf.0[self.pos..]
    }

    /// Once the chunk being read is read through, step to the next: a
    /// packed one is decoded into the read buffer and its storage goes
    /// to `spares`; a raw one becomes the read buffer, the old one going
    /// to `spares`, as does an exhausted ring's.
    fn refill(&mut self, spares: &mut Spares) {
        if !self.rest().is_empty() {
            return;
        }
        self.pos = 0;
        let next = match self.chunks.next() {
            Some(Chunk::Packed(base, mut packed)) => {
                if self.buf.0.capacity() == 0 {
                    self.buf = spares.raw();
                }
                self.buf.0.clear();
                self.buf.0.extend(packed.0.iter().map(|p| base.unpack(p)));
                packed.0.clear();
                spares.packed.push(packed);
                return;
            }
            Some(Chunk::Raw(raw)) => raw,
            None => Buf::default(),
        };
        let mut done = std::mem::replace(&mut self.buf, next);
        if done.0.capacity() > 0 {
            done.0.clear();
            spares.raw.push(done);
        }
    }
}

/// Merge `rings`, each in non-decreasing `seq` order, into `out` by
/// `(seq, ring index)`, a run at a time: take from the ring whose head
/// is least for as long as it stays below the runner-up's head, one
/// copy per run and chunk.
fn merge_sorted(rings: Vec<TraceEvents>, out: &mut TraceEvents) {
    let mut spares = Spares::default();
    let mut cursors: Vec<Cursor> = rings
        .into_iter()
        .map(|r| Cursor::new(r, &mut spares))
        .collect();
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
            return;
        };
        let c = &mut cursors[i];
        let run = c.rest().iter().take_while(|e| (e.seq, i) < bound).count();
        debug_assert!(run > 0, "the least head is below the runner-up");
        out.extend_from_slice(&c.rest()[..run], &mut spares);
        c.pos += run;
        c.refill(&mut spares);
    }
}

#[cfg(test)]
/// Live chunk storage ([`Buf`]s) on this thread, and the most seen
/// since the last [`census::reset`]: what the merge's held-once bound
/// is checked against.
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
    pub(super) fn reset() {
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
        let mut all: Vec<TraceEvent> = rings.iter().flat_map(|r| r.events.iter()).collect();
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
                if let Some(last) = ring.events.open.0.last_mut() {
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

        /// Merging k sorted rings holds every kept event once: it
        /// seals into the storage of the chunks it has read, so it
        /// allocates at most k + 1 chunks (a read buffer per ring and
        /// the output's open chunk) beyond what it frees, and the trace
        /// ends on the fewest chunks its events fit in.
        #[test]
        fn a_merge_holds_each_kept_event_once(shapes in ring_shapes()) {
            let rings = rings_of(&shapes);
            let k = rings.len();
            let kept: usize = rings.iter().map(TraceRing::len).sum();
            let start = census::live();
            census::reset();
            let trace = Trace::assemble(meta(), rings);
            prop_assert!(
                census::peak() <= start + k + 1,
                "{} chunks live at the peak, {start} before the merge of {k} rings",
                census::peak()
            );
            prop_assert_eq!(census::live(), kept.div_ceil(CHUNK));
            prop_assert_eq!(trace.events.sealed.len(), kept.saturating_sub(1) / CHUNK);
        }

        /// Sealed storage reads back exactly what was pushed — through
        /// a ring, a lone ring's move and a k-ring merge — with values
        /// that now and then overflow each narrow field of a packed
        /// record, and events that carry no packet.
        #[test]
        fn sealed_storage_reads_back_what_was_pushed(
            rings in vec((0usize..3 * CHUNK + 9, any::<u64>(), any::<u8>()), 1..5),
            lone in any::<bool>(),
        ) {
            let mut pushed: Vec<Vec<TraceEvent>> = rings
                .iter()
                .enumerate()
                .map(|(i, &(len, seed, wild))| wild_events(i, len, seed, wild))
                .collect();
            if lone {
                pushed.iter_mut().skip(1).for_each(Vec::clear);
            }
            let rings: Vec<TraceRing> = pushed
                .iter()
                .map(|events| {
                    let mut ring = TraceRing::new(events.len());
                    events.iter().for_each(|&e| assert!(ring.push(e)));
                    ring
                })
                .collect();
            for (ring, events) in rings.iter().zip(&pushed) {
                prop_assert_eq!(ring.events.len(), events.len());
                prop_assert!(ring.events.iter().eq(events.iter().copied()));
            }
            let mut want: Vec<TraceEvent> = pushed.concat();
            want.sort_by_key(|e| e.seq);
            let got = Trace::assemble(meta(), rings).events;
            prop_assert!(got.iter().eq(want.iter().copied()), "assembled events differ");
            prop_assert!(got == TraceEvents::from(want), "`==` sees the chunking");
        }
    }

    /// `len` events for ring `index`, `seq`s climbing. Each set bit of
    /// `wild` turns on one kind of value a packed record cannot hold,
    /// drawn for about one event in 4 096 (so for about two chunks in
    /// five): a `seq` or `ts` jump past `u16` or `u32`, a `pkt` past a
    /// `u16` span, `core` past `u8`, `aux` past `u32`. Two more bits
    /// mix in events with no packet, and put `pkt`s just below
    /// [`TraceEvent::NO_PKT`].
    fn wild_events(index: usize, len: usize, seed: u64, wild: u8) -> Vec<TraceEvent> {
        let (mut seq, mut ts, mut state) = (index as u64, seed % 1000, seed);
        let past = |max: u64| max + 1;
        (0..len as u64)
            .map(|pos| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let roll = state >> 33;
                let rare = |bit: u8| wild & (1 << bit) != 0 && roll % 4096 == u64::from(bit);
                seq += roll % 3 + if rare(0) { past(u16::MAX.into()) } else { 0 };
                ts += roll % 50 + if rare(1) { past(u32::MAX.into()) } else { 0 };
                let pkt = if rare(2) {
                    pos + past(u16::MAX.into())
                } else if wild & 1 << 3 != 0 && roll % 7 == 0 {
                    TraceEvent::NO_PKT
                } else if wild & 1 << 4 != 0 {
                    TraceEvent::NO_PKT - 1 - pos
                } else {
                    pos
                };
                TraceEvent {
                    seq,
                    ts,
                    core: if rare(5) { 256 } else { index as u16 },
                    kind: EventKind::ALL[(roll % 7) as usize],
                    flow: state,
                    pkt,
                    aux: if rare(6) {
                        past(u32::MAX.into())
                    } else {
                        roll % 9
                    },
                }
            })
            .collect()
    }

    #[test]
    fn each_narrow_field_seals_raw_past_its_edge_and_packed_at_it() {
        const M16: u64 = u16::MAX as u64;
        const M32: u64 = u32::MAX as u64;
        // One chunk at `seq` 0..CHUNK, `ts` 7, `pkt` 5; its last event
        // takes each field to the edge of a packed record, or one past.
        type Widen = fn(&mut TraceEvent, u64);
        let cases: [(&str, Widen); 6] = [
            ("seq", |e, past| e.seq = M16 + past),
            ("ts", |e, past| e.ts = 7 + M32 + past),
            ("pkt", |e, past| e.pkt = 5 + M16 - 1 + past),
            ("aux", |e, past| e.aux = M32 + past),
            ("core", |e, past| e.core = 255 + past as u16),
            ("no pkt", |e, past| e.pkt = TraceEvent::NO_PKT - past),
        ];
        for (field, widen) in cases {
            for past in [0, 1] {
                let mut flat: Vec<TraceEvent> = (0..CHUNK as u64 + 1)
                    .map(|seq| TraceEvent {
                        seq,
                        ts: 7,
                        core: 3,
                        kind: EventKind::Drop,
                        flow: u64::MAX,
                        pkt: 5,
                        aux: 0,
                    })
                    .collect();
                widen(&mut flat[CHUNK - 1], past);
                let events = TraceEvents::from(flat.clone());
                let want = if past == 1 { (0, 1) } else { (1, 0) };
                assert_eq!(
                    events.sealed_chunks(),
                    want,
                    "{field}, {past} past the edge"
                );
                assert!(events.iter().eq(flat.iter().copied()), "{field}");
            }
        }
        assert_eq!(std::mem::size_of::<Packed>(), 24);
    }

    /// Where each chunk's storage lives.
    fn storage(events: &TraceEvents) -> Vec<*const u8> {
        let sealed = events.sealed.iter().map(|c| match c {
            Chunk::Packed(_, packed) => packed.0.as_ptr().cast(),
            Chunk::Raw(raw) => raw.0.as_ptr().cast(),
        });
        sealed.chain([events.open.0.as_ptr().cast()]).collect()
    }

    #[test]
    fn assembling_one_ring_moves_its_chunks() {
        let ring = climbing_ring(1, 0, 3 * CHUNK + 5, 9);
        let buffers = storage(&ring.events);
        let want = ring.events.clone();
        let mut empty = TraceRing::new(4);
        empty.dropped = 2;
        let start = census::live();
        census::reset();
        let t = Trace::assemble(meta(), vec![empty, ring, TraceRing::new(4)]);
        assert_eq!(census::peak(), start, "no chunk allocated");
        assert_eq!(
            storage(&t.events),
            buffers,
            "the ring's chunks are the trace's"
        );
        assert_eq!(t.events.sealed_chunks(), (3, 0));
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
            pieces.extend_from_slice(part, &mut Spares::default());
        }
        for chunked in [&pushed, &pieces] {
            assert_eq!(chunked.sealed_chunks(), (2, 0));
            assert_eq!(chunked.open.0.len(), 3);
        }
        assert_eq!(pushed, pieces);
        assert_ne!(pushed, TraceEvents::from(flat[1..].to_vec()));
        assert_eq!(
            (pushed.len(), pushed.iter().len()),
            (flat.len(), flat.len())
        );
        assert!(pushed.iter().eq(flat.iter().copied()));
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
        assert!(!a.events.in_seq_order() && b.events.in_seq_order());
        let t = Trace::assemble(meta(), vec![a, b]);
        let seqs: Vec<u64> = t.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [0, 1, 3, 4, 5, 6, 7, 8, 9]);
    }

    /// A lone ring is read once by its seals, not again at assembly:
    /// whether a `seq` falls back inside a sealed chunk, across a seal,
    /// or in the open chunk, the trace still comes out sorted.
    #[test]
    fn a_lone_ring_out_of_order_anywhere_is_sorted() {
        let n = 2 * CHUNK as u64 + 5;
        for swap in [7, CHUNK as u64 - 1, CHUNK as u64, n - 2] {
            let mut r = TraceRing::new(n as usize);
            for i in 0..n {
                let seq = if i == swap || i == swap + 1 {
                    2 * swap + 1 - i
                } else {
                    i
                };
                r.push(ev(seq, EventKind::NfDone));
            }
            assert!(!r.events.in_seq_order(), "swap at {swap}");
            let t = Trace::assemble(meta(), vec![r]);
            assert!(t.events.in_seq_order(), "swap at {swap}");
            assert!(t.events.iter().map(|e| e.seq).eq(0..n), "swap at {swap}");
        }
        let sorted: TraceRing = {
            let mut r = TraceRing::new(n as usize);
            (0..n).for_each(|seq| assert!(r.push(ev(seq, EventKind::NfDone))));
            r
        };
        assert!(sorted.events.in_seq_order());
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
