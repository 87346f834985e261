//! Open-addressing flow table: the storage engine under
//! [`crate::tables`].
//!
//! The per-core flow tables used to be `std::collections::HashMap`s.
//! That cost the hot path twice: SipHash on every lookup (the key
//! already carries a pinned [`FlowKey::stable_hash`], recomputing a
//! keyed hash is pure overhead), and `RandomState`-dependent iteration
//! order, which made migration traversals and regenerated telemetry
//! documents nondeterministic across processes.
//!
//! [`FlowTable`] replaces it with linear-probing open addressing:
//!
//! * **power-of-two slot counts** — the probe position is
//!   `stable_hash & mask`, no division;
//! * **inline entries** — key and state live in the slot array itself
//!   (one cache line for small state), no per-entry allocation;
//! * **tombstones** — removals leave a marker so probe chains stay
//!   intact; rehashes (growth) clear them;
//! * **deterministic iteration** — [`FlowTable::iter`] and
//!   [`FlowTable::drain`] walk slots in index order, a pure function of
//!   the operation history, identical on every machine and run.
//!
//! The table grows itself (doubling at ~3/4 occupancy); the *logical*
//! flow-table capacity the paper's NF configs specify is enforced above
//! this layer by [`crate::tables`], which rejects inserts past the
//! configured flow budget.
//!
//! # Flow lifecycle support
//!
//! Every live slot carries a *touch stamp*: the table's lazy clock
//! value at the entry's last write (insert, replace, or
//! [`FlowTable::get_mut`]). The runtime advances the clock with
//! [`FlowTable::set_clock`] before dispatching a batch — one store, no
//! per-packet time syscall — and the stamps feed two reclaim paths:
//!
//! * [`FlowTable::collect_idle`] — keys whose stamp is at or below a
//!   deadline (idle-timeout aging);
//! * [`FlowTable::lru_victim`] — an approximate-LRU victim chosen by a
//!   deterministic clock-hand sample of `LRU_PROBES` live slots
//!   (ties break toward the lower stamp, then the lower slot index),
//!   so the bounded-memory backstop costs O(probes), not O(table).
//!
//! Reads deliberately do *not* touch: under spraying, foreign cores
//! read a designated core's table without write access, so only writes
//! can stamp — and a flow that is read but never written is, for state
//! purposes, idle.

use sprayer_net::FlowKey;

/// Minimum slot-array size (power of two).
const MIN_SLOTS: usize = 16;

/// Live slots sampled per [`FlowTable::lru_victim`] call.
const LRU_PROBES: usize = 16;

#[derive(Debug, Clone)]
enum Slot<S> {
    /// Never occupied: a probe chain may stop here.
    Empty,
    /// Previously occupied: probe chains continue through it, inserts
    /// may reuse it.
    Tombstone,
    /// A live entry, stored inline, with its last write-touch stamp.
    Full(FlowKey, S, u64),
}

/// A linear-probing open-addressing hash table keyed by [`FlowKey`],
/// hashed with the pinned [`FlowKey::stable_hash`].
#[derive(Debug, Clone)]
pub struct FlowTable<S> {
    slots: Vec<Slot<S>>,
    mask: u64,
    len: usize,
    tombstones: usize,
    /// Lazy clock: stamps applied to write-touched entries. Advanced by
    /// the runtime ([`FlowTable::set_clock`]), never by the table.
    clock: u64,
    /// Clock hand for the LRU victim sampler (wraps over slot indices).
    hand: usize,
}

impl<S> Default for FlowTable<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S> FlowTable<S> {
    /// An empty table at the minimum slot count.
    pub fn new() -> Self {
        Self::with_slots(MIN_SLOTS)
    }

    /// An empty table pre-sized so `hint` entries fit without growth.
    pub fn with_capacity_hint(hint: usize) -> Self {
        let want = hint
            .saturating_mul(4)
            .div_ceil(3)
            .next_power_of_two()
            .max(MIN_SLOTS);
        Self::with_slots(want)
    }

    fn with_slots(slots: usize) -> Self {
        debug_assert!(slots.is_power_of_two());
        FlowTable {
            slots: (0..slots).map(|_| Slot::Empty).collect(),
            mask: (slots - 1) as u64,
            len: 0,
            tombstones: 0,
            clock: 0,
            hand: 0,
        }
    }

    /// Advance the lazy clock: subsequent write-touches stamp `now`.
    /// Monotone by contract (an older value is ignored).
    pub fn set_clock(&mut self, now: u64) {
        self.clock = self.clock.max(now);
    }

    /// The lazy clock's current value.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entry is live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current slot-array size (diagnostics; always a power of two).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Find `key`'s slot index, or `None` if absent.
    fn find(&self, key: &FlowKey) -> Option<usize> {
        let mut i = (key.stable_hash() & self.mask) as usize;
        loop {
            match &self.slots[i] {
                Slot::Empty => return None,
                Slot::Full(k, _, _) if k == key => return Some(i),
                _ => i = (i + 1) & self.mask as usize,
            }
        }
    }

    /// Shared reference to `key`'s state.
    pub fn get(&self, key: &FlowKey) -> Option<&S> {
        match self.find(key) {
            Some(i) => match &self.slots[i] {
                Slot::Full(_, s, _) => Some(s),
                _ => unreachable!("find returns Full slots"),
            },
            None => None,
        }
    }

    /// Mutable reference to `key`'s state. A write-touch: the entry's
    /// stamp advances to the current clock.
    pub fn get_mut(&mut self, key: &FlowKey) -> Option<&mut S> {
        let clock = self.clock;
        match self.find(key) {
            Some(i) => match &mut self.slots[i] {
                Slot::Full(_, s, stamp) => {
                    *stamp = clock;
                    Some(s)
                }
                _ => unreachable!("find returns Full slots"),
            },
            None => None,
        }
    }

    /// The clock value at `key`'s last write-touch.
    pub fn last_touch(&self, key: &FlowKey) -> Option<u64> {
        match self.find(key) {
            Some(i) => match &self.slots[i] {
                Slot::Full(_, _, stamp) => Some(*stamp),
                _ => unreachable!("find returns Full slots"),
            },
            None => None,
        }
    }

    /// True if `key` has a live entry.
    pub fn contains_key(&self, key: &FlowKey) -> bool {
        self.find(key).is_some()
    }

    /// Insert or replace; returns the previous state if the key was
    /// present (the `HashMap::insert` contract).
    pub fn insert(&mut self, key: FlowKey, state: S) -> Option<S> {
        // Grow before probing when occupancy (live + tombstones) would
        // pass 3/4 — keeps probe chains short and bounds the scan.
        if (self.len + self.tombstones + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let mut i = (key.stable_hash() & self.mask) as usize;
        let mut first_tombstone: Option<usize> = None;
        loop {
            match &mut self.slots[i] {
                Slot::Full(k, s, stamp) if *k == key => {
                    *stamp = self.clock;
                    return Some(std::mem::replace(s, state));
                }
                Slot::Full(..) => {}
                Slot::Tombstone => {
                    if first_tombstone.is_none() {
                        first_tombstone = Some(i);
                    }
                }
                Slot::Empty => {
                    let target = match first_tombstone {
                        Some(t) => {
                            self.tombstones -= 1;
                            t
                        }
                        None => i,
                    };
                    self.slots[target] = Slot::Full(key, state, self.clock);
                    self.len += 1;
                    return None;
                }
            }
            i = (i + 1) & self.mask as usize;
        }
    }

    /// Mutable reference to `key`'s state, inserting `default` first
    /// when the key is absent — one probe either way. A write-touch,
    /// like [`FlowTable::insert`] and [`FlowTable::get_mut`].
    pub fn get_or_insert(&mut self, key: FlowKey, default: S) -> &mut S {
        if (self.len + self.tombstones + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let mut i = (key.stable_hash() & self.mask) as usize;
        let mut first_tombstone: Option<usize> = None;
        let at = loop {
            match &self.slots[i] {
                Slot::Full(k, ..) if *k == key => break i,
                Slot::Full(..) => {}
                Slot::Tombstone => {
                    first_tombstone.get_or_insert(i);
                }
                Slot::Empty => {
                    let target = match first_tombstone {
                        Some(t) => {
                            self.tombstones -= 1;
                            t
                        }
                        None => i,
                    };
                    self.slots[target] = Slot::Full(key, default, self.clock);
                    self.len += 1;
                    break target;
                }
            }
            i = (i + 1) & self.mask as usize;
        };
        match &mut self.slots[at] {
            Slot::Full(_, s, stamp) => {
                *stamp = self.clock;
                s
            }
            _ => unreachable!("the probe ends on a Full slot"),
        }
    }

    /// Remove `key`'s entry, returning its state.
    pub fn remove(&mut self, key: &FlowKey) -> Option<S> {
        let i = self.find(key)?;
        match std::mem::replace(&mut self.slots[i], Slot::Tombstone) {
            Slot::Full(_, s, _) => {
                self.len -= 1;
                self.tombstones += 1;
                Some(s)
            }
            _ => unreachable!("find returns Full slots"),
        }
    }

    /// Keys whose last write-touch is at or below `deadline`, in slot
    /// order (deterministic). The idle-timeout sweep: the caller
    /// computes `deadline = clock - timeout` and removes the survivors
    /// it actually wants gone.
    pub fn collect_idle(&self, deadline: u64) -> Vec<FlowKey> {
        self.slots
            .iter()
            .filter_map(|slot| match slot {
                Slot::Full(k, _, stamp) if *stamp <= deadline => Some(*k),
                _ => None,
            })
            .collect()
    }

    /// Approximate-LRU victim: deterministically sample up to
    /// `LRU_PROBES` live slots from the clock hand and return the key
    /// with the oldest stamp (ties break toward the lower slot index).
    /// Advances the hand so repeated calls cycle the whole table.
    pub fn lru_victim(&mut self) -> Option<FlowKey> {
        if self.len == 0 {
            return None;
        }
        let n = self.slots.len();
        let mut best: Option<(u64, usize, FlowKey)> = None;
        let mut sampled = 0usize;
        let mut scanned = 0usize;
        let mut i = self.hand % n;
        while sampled < LRU_PROBES && scanned < n {
            if let Slot::Full(k, _, stamp) = &self.slots[i] {
                sampled += 1;
                let candidate = (*stamp, i, *k);
                best = match best {
                    Some(b) if (b.0, b.1) <= (candidate.0, candidate.1) => Some(b),
                    _ => Some(candidate),
                };
            }
            i = (i + 1) % n;
            scanned += 1;
        }
        self.hand = i;
        best.map(|(_, _, k)| k)
    }

    /// Double the slot array (or compact tombstones away) and rehash.
    fn grow(&mut self) {
        // If tombstones dominate, rehashing at the same size suffices;
        // otherwise double. Either way tombstones vanish.
        let new_slots = if self.len * 2 >= self.slots.len() {
            self.slots.len() * 2
        } else {
            self.slots.len()
        };
        let old = std::mem::replace(
            &mut self.slots,
            (0..new_slots).map(|_| Slot::Empty).collect(),
        );
        self.mask = (new_slots - 1) as u64;
        self.tombstones = 0;
        self.hand = 0;
        for slot in old {
            if let Slot::Full(key, state, stamp) = slot {
                let mut i = (key.stable_hash() & self.mask) as usize;
                while !matches!(self.slots[i], Slot::Empty) {
                    i = (i + 1) & self.mask as usize;
                }
                self.slots[i] = Slot::Full(key, state, stamp);
            }
        }
    }

    /// Iterate live entries in slot order — deterministic for a given
    /// operation history, independent of process or machine.
    pub fn iter(&self) -> impl Iterator<Item = (&FlowKey, &S)> {
        self.slots.iter().filter_map(|slot| match slot {
            Slot::Full(k, s, _) => Some((k, s)),
            _ => None,
        })
    }

    /// Remove and yield every live entry in slot order, leaving the
    /// table empty at the minimum size.
    pub fn drain(&mut self) -> impl Iterator<Item = (FlowKey, S)> {
        let old = std::mem::take(self);
        old.into_iter()
    }
}

impl<S> IntoIterator for FlowTable<S> {
    type Item = (FlowKey, S);
    type IntoIter = IntoIter<S>;

    fn into_iter(self) -> IntoIter<S> {
        IntoIter {
            slots: self.slots.into_iter(),
        }
    }
}

/// Owning slot-order iterator over a [`FlowTable`].
#[derive(Debug)]
pub struct IntoIter<S> {
    slots: std::vec::IntoIter<Slot<S>>,
}

impl<S> Iterator for IntoIter<S> {
    type Item = (FlowKey, S);

    fn next(&mut self) -> Option<(FlowKey, S)> {
        for slot in self.slots.by_ref() {
            if let Slot::Full(k, s, _) = slot {
                return Some((k, s));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprayer_net::FiveTuple;

    fn key(i: u32) -> FlowKey {
        FiveTuple::tcp(0x0a00_0000 + i, 1000, 0xc0a8_0001, 443).key()
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut t: FlowTable<u32> = FlowTable::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(key(1), 10), None);
        assert_eq!(t.insert(key(2), 20), None);
        assert_eq!(t.insert(key(1), 11), Some(10), "replace returns old");
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(&key(1)), Some(&11));
        assert_eq!(t.get(&key(3)), None);
        assert!(t.contains_key(&key(2)));
        assert_eq!(t.remove(&key(1)), Some(11));
        assert_eq!(t.remove(&key(1)), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn get_mut_mutates_in_place() {
        let mut t: FlowTable<u32> = FlowTable::new();
        t.insert(key(7), 1);
        *t.get_mut(&key(7)).unwrap() += 41;
        assert_eq!(t.get(&key(7)), Some(&42));
        assert_eq!(t.get_mut(&key(8)), None);
    }

    #[test]
    fn get_or_insert_finds_or_creates_and_touches() {
        let mut t: FlowTable<u32> = FlowTable::new();
        t.set_clock(5);
        *t.get_or_insert(key(1), 10) += 1;
        assert_eq!(t.get(&key(1)), Some(&11), "absent: the default goes in");
        assert_eq!(t.last_touch(&key(1)), Some(5));
        t.set_clock(9);
        *t.get_or_insert(key(1), 99) += 1;
        assert_eq!(t.get(&key(1)), Some(&12), "present: the default is dropped");
        assert_eq!(t.last_touch(&key(1)), Some(9), "a write-touch either way");
        assert_eq!(t.len(), 1);
        // Holes left by removals are reused, and growth keeps everyone.
        for i in 2..200u32 {
            t.get_or_insert(key(i), i);
        }
        for i in (2..200u32).step_by(2) {
            t.remove(&key(i));
        }
        for i in 2..200u32 {
            assert_eq!(*t.get_or_insert(key(i), 1_000 + i) % 1_000, i);
        }
        assert_eq!(t.len(), 199);
    }

    #[test]
    fn grows_past_initial_size_and_keeps_every_entry() {
        let mut t: FlowTable<u32> = FlowTable::new();
        let n = 10_000u32;
        for i in 0..n {
            assert_eq!(t.insert(key(i), i), None, "key {i}");
        }
        assert_eq!(t.len(), n as usize);
        assert!(t.slot_count().is_power_of_two());
        for i in 0..n {
            assert_eq!(t.get(&key(i)), Some(&i), "key {i}");
        }
    }

    #[test]
    fn tombstones_do_not_break_probe_chains() {
        // Insert colliding-ish keys, delete interior ones, and verify
        // lookups still find everything on the far side of the holes.
        let mut t: FlowTable<u32> = FlowTable::new();
        for i in 0..64u32 {
            t.insert(key(i), i);
        }
        for i in (0..64u32).step_by(2) {
            assert_eq!(t.remove(&key(i)), Some(i));
        }
        for i in 0..64u32 {
            if i % 2 == 0 {
                assert_eq!(t.get(&key(i)), None);
            } else {
                assert_eq!(t.get(&key(i)), Some(&i));
            }
        }
        // Reinsert into the holes.
        for i in (0..64u32).step_by(2) {
            assert_eq!(t.insert(key(i), i + 100), None);
        }
        assert_eq!(t.len(), 64);
        assert_eq!(t.get(&key(0)), Some(&100));
    }

    #[test]
    fn heavy_churn_stays_bounded() {
        // Repeated insert/remove of the same working set must not grow
        // the table without bound (tombstone rehash compacts).
        let mut t: FlowTable<u32> = FlowTable::new();
        for round in 0..200u32 {
            for i in 0..32u32 {
                t.insert(key(i), round);
            }
            for i in 0..32u32 {
                t.remove(&key(i));
            }
        }
        assert!(t.is_empty());
        assert!(
            t.slot_count() <= 256,
            "churn must not balloon the slot array: {}",
            t.slot_count()
        );
    }

    #[test]
    fn iteration_order_is_deterministic_and_slot_ordered() {
        let build = || {
            let mut t: FlowTable<u32> = FlowTable::new();
            for i in 0..100u32 {
                t.insert(key(i), i);
            }
            for i in (0..100u32).step_by(3) {
                t.remove(&key(i));
            }
            t
        };
        let a: Vec<_> = build().iter().map(|(k, v)| (*k, *v)).collect();
        let b: Vec<_> = build().iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(a, b, "identical histories iterate identically");
        let drained: Vec<_> = build().into_iter().collect();
        assert_eq!(a, drained, "borrowing and owning iteration agree");
    }

    #[test]
    fn drain_empties_and_yields_everything() {
        let mut t: FlowTable<u32> = FlowTable::new();
        for i in 0..50u32 {
            t.insert(key(i), i);
        }
        let mut got: Vec<u32> = t.drain().map(|(_, v)| v).collect();
        got.sort_unstable();
        assert_eq!(got, (0..50).collect::<Vec<_>>());
        assert!(t.is_empty());
        assert_eq!(t.slot_count(), MIN_SLOTS);
        // The drained table is fully reusable.
        t.insert(key(1), 1);
        assert_eq!(t.get(&key(1)), Some(&1));
    }

    #[test]
    fn capacity_hint_presizes() {
        let t: FlowTable<u32> = FlowTable::with_capacity_hint(1000);
        assert!(t.slot_count() >= 1024 + 512, "hint must leave probe slack");
    }

    #[test]
    fn write_touches_stamp_the_clock_and_reads_do_not() {
        let mut t: FlowTable<u32> = FlowTable::new();
        t.insert(key(1), 1);
        assert_eq!(t.last_touch(&key(1)), Some(0));
        t.set_clock(10);
        assert_eq!(t.get(&key(1)), Some(&1), "read…");
        assert_eq!(t.last_touch(&key(1)), Some(0), "…does not touch");
        *t.get_mut(&key(1)).unwrap() += 1;
        assert_eq!(t.last_touch(&key(1)), Some(10), "get_mut touches");
        t.set_clock(20);
        t.insert(key(1), 5);
        assert_eq!(t.last_touch(&key(1)), Some(20), "replace touches");
        t.set_clock(5);
        assert_eq!(t.clock(), 20, "the clock never runs backwards");
    }

    #[test]
    fn collect_idle_finds_exactly_the_expired_entries() {
        let mut t: FlowTable<u32> = FlowTable::new();
        for i in 0..8u32 {
            t.set_clock(u64::from(i) * 10);
            t.insert(key(i), i);
        }
        // deadline 30: entries stamped 0,10,20,30 are idle.
        let idle = t.collect_idle(30);
        assert_eq!(idle.len(), 4);
        for k in &idle {
            assert!(t.last_touch(k).unwrap() <= 30);
        }
        // A touch rescues an entry from the next sweep.
        t.set_clock(100);
        *t.get_mut(&key(0)).unwrap() = 99;
        assert!(!t.collect_idle(30).contains(&key(0)));
    }

    #[test]
    fn lru_victim_prefers_the_oldest_stamp_and_cycles() {
        let mut t: FlowTable<u32> = FlowTable::new();
        for i in 0..8u32 {
            t.set_clock(u64::from(i) * 10);
            t.insert(key(i), i);
        }
        // Repeated victim+remove drains the table oldest-first within
        // each sample window; with 8 entries and 16 probes the sample
        // covers the whole table, so eviction order is exact LRU.
        let mut order = Vec::new();
        while let Some(victim) = t.lru_victim() {
            order.push(t.last_touch(&victim).unwrap());
            t.remove(&victim);
        }
        assert_eq!(order.len(), 8);
        assert!(order.windows(2).all(|w| w[0] <= w[1]), "stamps {order:?}");
        assert!(t.lru_victim().is_none(), "empty table has no victim");
    }

    #[test]
    fn lru_victim_is_deterministic() {
        let build = || {
            let mut t: FlowTable<u32> = FlowTable::new();
            for i in 0..200u32 {
                t.set_clock(u64::from(i));
                t.insert(key(i), i);
            }
            let mut picks = Vec::new();
            for _ in 0..20 {
                let v = t.lru_victim().unwrap();
                picks.push(v);
                t.remove(&v);
            }
            picks
        };
        assert_eq!(build(), build(), "identical histories pick identically");
    }

    #[test]
    fn grow_preserves_stamps() {
        let mut t: FlowTable<u32> = FlowTable::new();
        for i in 0..1000u32 {
            t.set_clock(u64::from(i));
            t.insert(key(i), i);
        }
        for i in 0..1000u32 {
            assert_eq!(t.last_touch(&key(i)), Some(u64::from(i)), "key {i}");
        }
    }
}
