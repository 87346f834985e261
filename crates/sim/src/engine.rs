//! The generic discrete-event loop.
//!
//! A simulation is a [`Model`] — a state machine with an event type — run
//! by [`Simulation`]. Handlers schedule future events through a
//! [`Scheduler`], a view of the simulation's one [`EventQueue`].
//!
//! # Ordering contract
//!
//! Events fire in time order; events at the same instant fire in the
//! order they were scheduled — by [`Simulation::schedule`] or by any
//! handler, across the whole run — so runs are fully deterministic.
//! [`EventQueue`] keeps that order with a 16-byte heap key:
//!
//! ```text
//!  127            64 63            24 23        0
//! +----------------+----------------+-----------+
//! | time (ps, u64) | insertion seq  | slab slot |
//! +----------------+----------------+-----------+
//! ```
//!
//! The sequence number is unique and sits above the slot, so comparing
//! keys compares `(time, seq)`, and the slot — where the payload waits,
//! out of line, in a reused slab — never decides an order. Two bounds
//! follow from the widths, and each is an `assert!`, never a silent
//! misorder: at most 2^40 insertions over a queue's life
//! ([`EventQueue::MAX_INSERTIONS`]) and at most 2^24 events queued at
//! once ([`EventQueue::MAX_LIVE`]).
//!
//! # Lanes
//!
//! A model that pushes a stream of events in time order — a link's
//! departures, a fixed-delay timer — may push them on a *lane*
//! ([`EventQueue::push_lane`], [`Scheduler::at_lane`]). Each event keeps
//! the key a plain push would have given it, but only a lane's head
//! sits in the heap; the rest wait in the lane's FIFO, and popping a
//! head moves the next key of its lane into the heap. A lane's keys
//! strictly increase, so its head is its smallest key, and the smallest
//! key queued is always in the heap: pops come out in exactly the order
//! of plain pushes, and the heap holds one key per busy lane instead of
//! one per event. A lane push earlier than its lane's tail is a plain
//! push, so a lane is only a cost hint: no use of one can change the
//! order.

use crate::time::Time;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

/// A user-defined simulation model.
pub trait Model {
    /// The event alphabet of this model.
    type Event;

    /// Handle `event` occurring at `now`; schedule follow-ups on `sched`.
    fn handle(&mut self, now: Time, event: Self::Event, sched: &mut Scheduler<Self::Event>);
}

const SLOT_BITS: u32 = 24;
const SEQ_BITS: u32 = 40;
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;

/// Marks a slab slot whose key was pushed on no lane.
const NO_LANE: u32 = u32::MAX;

/// A min-queue of timed events in exact `(time, insertion)` order (see
/// the [module docs](self)). The heap holds only `u128` keys; payloads
/// sit in a slab whose slots are reused, so a push or pop moves 16 bytes
/// through the heap and the slab never outgrows the peak number of
/// events queued at once.
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<u128>>,
    /// Each live event and the lane its key was pushed on.
    slab: Vec<Option<(E, u32)>>,
    free: Vec<u32>,
    seq: u64,
    /// Each lane's keys in push order; the front one is in the heap.
    lanes: Vec<VecDeque<u128>>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            seq: 0,
            lanes: Vec::new(),
        }
    }
}

impl<E> EventQueue<E> {
    /// Insertions a queue accepts over its life (the key's `seq` field).
    pub const MAX_INSERTIONS: u64 = 1 << SEQ_BITS;
    /// Events a queue holds at once (the key's slot field).
    pub const MAX_LIVE: usize = 1 << SLOT_BITS;

    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue `event` at `at`, after every event already queued at `at`.
    pub fn push(&mut self, at: Time, event: E) {
        let key = self.key(at, event, NO_LANE);
        self.heap.push(Reverse(key));
    }

    /// [`EventQueue::push`], with the key queued behind lane `lane`'s
    /// earlier keys rather than in the heap (see [Lanes](self#lanes)).
    /// Lanes are numbered densely from 0 by the caller. A push earlier
    /// than the lane's last one is a plain push.
    pub fn push_lane(&mut self, lane: usize, at: Time, event: E) {
        assert!(
            lane < NO_LANE as usize,
            "event queue: lane {lane} out of range"
        );
        if lane >= self.lanes.len() {
            self.lanes.resize_with(lane + 1, VecDeque::new);
        }
        let tail = self.lanes[lane].back().map(|&key| (key >> 64) as u64);
        if tail.is_some_and(|tail| at.as_ps() < tail) {
            return self.push(at, event);
        }
        let key = self.key(at, event, lane as u32);
        let queue = &mut self.lanes[lane];
        if queue.is_empty() {
            self.heap.push(Reverse(key));
        }
        queue.push_back(key);
    }

    /// Store `event` in a free slot and return its key: the next
    /// insertion number, taken now, whichever lane the key waits on.
    fn key(&mut self, at: Time, event: E, lane: u32) -> u128 {
        assert!(
            self.seq < Self::MAX_INSERTIONS,
            "event queue: more than 2^{SEQ_BITS} insertions"
        );
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some((event, lane));
                slot
            }
            None => {
                assert!(
                    self.slab.len() < Self::MAX_LIVE,
                    "event queue: more than 2^{SLOT_BITS} events queued at once"
                );
                self.slab.push(Some((event, lane)));
                (self.slab.len() - 1) as u32
            }
        };
        let low = self.seq << SLOT_BITS | u64::from(slot);
        self.seq += 1;
        u128::from(at.as_ps()) << 64 | u128::from(low)
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let mut top = self.heap.peek_mut()?;
        let Reverse(key) = *top;
        let slot = (key as u64 & SLOT_MASK) as u32;
        let (event, lane) = self.slab[slot as usize]
            .take()
            .expect("a queued key names a live slot");
        self.free.push(slot);
        // A lane's next key takes its head's place: one sift, not two.
        let next = self.lanes.get_mut(lane as usize).and_then(|queue| {
            queue.pop_front();
            queue.front().copied()
        });
        match next {
            Some(next) => *top = Reverse(next),
            None => {
                PeekMut::pop(top);
            }
        }
        Some((Time::from_ps((key >> 64) as u64), event))
    }

    /// Remove and return the earliest event if it is due at or before
    /// `deadline`.
    pub fn pop_until(&mut self, deadline: Time) -> Option<(Time, E)> {
        if self.peek_time()? > deadline {
            return None;
        }
        self.pop()
    }

    /// When the earliest event is due.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap
            .peek()
            .map(|&Reverse(key)| Time::from_ps((key >> 64) as u64))
    }

    /// True when nothing is queued (a busy lane has its head in the
    /// heap).
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// A queue whose next insertion is number `seq` and whose slab
    /// already spans `slots` slots, none free — the overflow tests'
    /// shortcut to the edges of both key fields.
    #[cfg(test)]
    fn starting_at(seq: u64, slots: usize) -> Self {
        let mut slab = Vec::new();
        slab.resize_with(slots, || None);
        EventQueue {
            slab,
            seq,
            ..Self::default()
        }
    }
}

/// Handed to event handlers for scheduling future events: a view of the
/// simulation's [`EventQueue`] at the current instant.
pub struct Scheduler<E> {
    queue: EventQueue<E>,
    now: Time,
    stop: bool,
}

impl<E> Scheduler<E> {
    /// Schedule `event` at absolute time `at` (must not be in the past).
    pub fn at(&mut self, at: Time, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at:?} < {:?}",
            self.now
        );
        self.queue.push(at, event);
    }

    /// [`Scheduler::at`] on lane `lane` of the queue: for a stream of
    /// events scheduled in time order (see
    /// [`EventQueue::push_lane`]). The order events fire in is the same.
    pub fn at_lane(&mut self, lane: usize, at: Time, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at:?} < {:?}",
            self.now
        );
        self.queue.push_lane(lane, at, event);
    }

    /// Schedule `event` after a delay from now.
    pub fn after(&mut self, delay: Time, event: E) {
        self.queue.push(self.now + delay, event);
    }

    /// Schedule `event` immediately (still after the current handler
    /// returns, and after previously scheduled same-time events).
    pub fn now(&mut self, event: E) {
        self.queue.push(self.now, event);
    }

    /// The current simulated time.
    pub fn time(&self) -> Time {
        self.now
    }

    /// Request that the simulation stop once the current handler returns.
    pub fn stop(&mut self) {
        self.stop = true;
    }
}

/// The event loop driving a [`Model`].
pub struct Simulation<M: Model> {
    model: M,
    sched: Scheduler<M::Event>,
    events_processed: u64,
}

impl<M: Model> Simulation<M> {
    /// Wrap `model` with an empty event queue at time zero.
    pub fn new(model: M) -> Self {
        Simulation {
            model,
            sched: Scheduler {
                queue: EventQueue::new(),
                now: Time::ZERO,
                stop: false,
            },
            events_processed: 0,
        }
    }

    /// Schedule an initial event before running.
    pub fn schedule(&mut self, at: Time, event: M::Event) {
        self.sched.at(at, event);
    }

    /// The current simulated time.
    pub fn now(&self) -> Time {
        self.sched.now
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Access the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutable access to the model (for wiring up probes between runs).
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Consume the simulation, returning the model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// Process a single event. Returns `false` if the queue was empty or a
    /// handler requested a stop.
    pub fn step(&mut self) -> bool {
        let Some((at, event)) = self.sched.queue.pop() else {
            return false;
        };
        debug_assert!(at >= self.sched.now, "event queue yielded a past event");
        self.sched.now = at;
        self.model.handle(at, event, &mut self.sched);
        self.events_processed += 1;
        !std::mem::take(&mut self.sched.stop)
    }

    /// Run until the queue is empty or a handler stops the simulation.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Run until simulated time would exceed `deadline` (events at exactly
    /// `deadline` are processed), the queue empties, or a handler stops.
    pub fn run_until(&mut self, deadline: Time) {
        loop {
            match self.sched.queue.peek_time() {
                Some(at) if at <= deadline => {
                    if !self.step() {
                        return;
                    }
                }
                _ => {
                    // Advance the clock to the deadline so throughput
                    // denominators are well-defined even if the system
                    // went idle early.
                    if self.sched.now < deadline {
                        self.sched.now = deadline;
                    }
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A model that records (time, id) of every event it sees and can
    /// chain follow-up events.
    struct Recorder {
        seen: Vec<(Time, u32)>,
        chain: u32,
    }

    enum Ev {
        Mark(u32),
        Chain(u32),
        Stop,
    }

    impl Model for Recorder {
        type Event = Ev;
        fn handle(&mut self, now: Time, event: Ev, sched: &mut Scheduler<Ev>) {
            match event {
                Ev::Mark(id) => self.seen.push((now, id)),
                Ev::Chain(n) => {
                    self.seen.push((now, n));
                    if n < self.chain {
                        sched.after(Time::from_ns(10), Ev::Chain(n + 1));
                    }
                }
                Ev::Stop => sched.stop(),
            }
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Simulation::new(Recorder {
            seen: vec![],
            chain: 0,
        });
        sim.schedule(Time::from_ns(30), Ev::Mark(3));
        sim.schedule(Time::from_ns(10), Ev::Mark(1));
        sim.schedule(Time::from_ns(20), Ev::Mark(2));
        sim.run();
        assert_eq!(
            sim.model().seen,
            vec![
                (Time::from_ns(10), 1),
                (Time::from_ns(20), 2),
                (Time::from_ns(30), 3),
            ]
        );
        assert_eq!(sim.events_processed(), 3);
    }

    #[test]
    fn simultaneous_events_fire_in_insertion_order() {
        let mut sim = Simulation::new(Recorder {
            seen: vec![],
            chain: 0,
        });
        for id in 0..50 {
            sim.schedule(Time::from_ns(5), Ev::Mark(id));
        }
        sim.run();
        let ids: Vec<u32> = sim.model().seen.iter().map(|&(_, id)| id).collect();
        assert_eq!(ids, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn handlers_can_chain_events() {
        let mut sim = Simulation::new(Recorder {
            seen: vec![],
            chain: 5,
        });
        sim.schedule(Time::ZERO, Ev::Chain(0));
        sim.run();
        assert_eq!(sim.model().seen.len(), 6);
        assert_eq!(sim.now(), Time::from_ns(50));
    }

    #[test]
    fn stop_halts_immediately() {
        let mut sim = Simulation::new(Recorder {
            seen: vec![],
            chain: 0,
        });
        sim.schedule(Time::from_ns(1), Ev::Stop);
        sim.schedule(Time::from_ns(2), Ev::Mark(9));
        sim.run();
        assert!(sim.model().seen.is_empty());
        assert_eq!(sim.events_processed(), 1);
    }

    #[test]
    fn run_until_respects_deadline_and_advances_clock() {
        let mut sim = Simulation::new(Recorder {
            seen: vec![],
            chain: 0,
        });
        sim.schedule(Time::from_ns(10), Ev::Mark(1));
        sim.schedule(Time::from_ns(100), Ev::Mark(2));
        sim.run_until(Time::from_ns(50));
        assert_eq!(sim.model().seen, vec![(Time::from_ns(10), 1)]);
        assert_eq!(sim.now(), Time::from_ns(50));
        // The later event is still queued.
        sim.run();
        assert_eq!(sim.model().seen.len(), 2);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        struct Bad;
        impl Model for Bad {
            type Event = ();
            fn handle(&mut self, now: Time, _: (), sched: &mut Scheduler<()>) {
                sched.at(now.saturating_sub(Time::from_ns(1)), ());
            }
        }
        let mut sim = Simulation::new(Bad);
        sim.schedule(Time::from_ns(5), ());
        sim.run();
    }

    #[test]
    fn handler_events_tie_after_earlier_ones_in_call_order() {
        struct Fanout(Vec<u32>);
        impl Model for Fanout {
            type Event = u32;
            fn handle(&mut self, now: Time, id: u32, sched: &mut Scheduler<u32>) {
                self.0.push(id);
                if id == 0 {
                    sched.now(10);
                    sched.at(now, 11);
                    sched.after(Time::ZERO, 12);
                }
            }
        }
        let mut sim = Simulation::new(Fanout(vec![]));
        sim.schedule(Time::from_ns(5), 0);
        sim.schedule(Time::from_ns(5), 1);
        sim.run();
        assert_eq!(sim.model().0, vec![0, 1, 10, 11, 12]);
    }

    /// One step of the queue model test. Times come from a narrow band
    /// (or the full `u64` range) so fresh pushes collide too.
    #[derive(Debug, Clone)]
    enum QueueOp {
        Push(u64, u32),
        Pop,
        PopUntil(u64),
    }

    fn arb_time() -> impl Strategy<Value = u64> {
        prop_oneof![0u64..16, any::<u64>()]
    }

    fn arb_queue_op() -> impl Strategy<Value = QueueOp> {
        prop_oneof![
            (arb_time(), any::<u32>()).prop_map(|(t, id)| QueueOp::Push(t, id)),
            (arb_time(), any::<u32>()).prop_map(|(t, id)| QueueOp::Push(t, id)),
            Just(QueueOp::Pop),
            arb_time().prop_map(QueueOp::PopUntil),
        ]
    }

    use proptest::collection::vec;
    use proptest::prelude::*;

    proptest! {
        /// `EventQueue` against the `(time, seq, payload)` heap it
        /// replaced: every pop identical, payload included, under any
        /// push/pop interleaving — with every other push tied to the
        /// time of an earlier one — and the slab exactly as large as
        /// the most events ever queued at once.
        #[test]
        fn event_queue_matches_the_reference_heap(
            ops in vec(arb_queue_op(), 1..400),
            ties in vec(any::<prop::sample::Index>(), 400),
        ) {
            let mut queue = EventQueue::new();
            let mut reference = BinaryHeap::new();
            let (mut seq, mut pushes, mut peak) = (0u64, 0usize, 0usize);
            let mut times = Vec::new();
            for op in ops {
                match op {
                    QueueOp::Push(fresh, id) => {
                        let t = if pushes % 2 == 1 {
                            times[ties[pushes].index(times.len())]
                        } else {
                            fresh
                        };
                        pushes += 1;
                        times.push(t);
                        queue.push(Time::from_ps(t), id);
                        reference.push(Reverse((Time::from_ps(t), seq, id)));
                        seq += 1;
                    }
                    QueueOp::Pop => {
                        let want = reference.pop().map(|Reverse((t, _, id))| (t, id));
                        prop_assert_eq!(queue.pop(), want);
                    }
                    QueueOp::PopUntil(deadline) => {
                        let deadline = Time::from_ps(deadline);
                        let want = match reference.peek() {
                            Some(&Reverse((t, _, _))) if t <= deadline => {
                                reference.pop().map(|Reverse((t, _, id))| (t, id))
                            }
                            _ => None,
                        };
                        prop_assert_eq!(queue.pop_until(deadline), want);
                    }
                }
                peak = peak.max(reference.len());
                prop_assert_eq!(queue.heap.len(), reference.len());
                prop_assert_eq!(
                    queue.peek_time(),
                    reference.peek().map(|Reverse((t, _, _))| *t)
                );
                prop_assert_eq!(queue.slab.len(), peak);
            }
            while let Some(Reverse((t, _, id))) = reference.pop() {
                prop_assert_eq!(queue.pop(), Some((t, id)));
            }
            prop_assert!(queue.is_empty() && queue.pop().is_none());
        }
    }

    /// One step of the lane model test: a plain push, a lane push at a
    /// time relative to that lane's last push (`back` pushes earlier,
    /// taking the fallback), or a pop.
    #[derive(Debug, Clone)]
    enum LaneOp {
        Push(u64, u32),
        Lane {
            lane: usize,
            step: u64,
            back: bool,
            id: u32,
        },
        Pop,
        PopUntil(u64),
    }

    fn arb_lane_push(back: bool) -> impl Strategy<Value = LaneOp> {
        let step = prop_oneof![Just(0u64), 0u64..4, 0u64..64];
        (0usize..4, step, any::<u32>()).prop_map(move |(lane, step, id)| LaneOp::Lane {
            lane,
            step,
            back,
            id,
        })
    }

    fn arb_lane_op() -> impl Strategy<Value = LaneOp> {
        prop_oneof![
            (arb_time(), any::<u32>()).prop_map(|(t, id)| LaneOp::Push(t, id)),
            arb_lane_push(false),
            arb_lane_push(false),
            arb_lane_push(true),
            Just(LaneOp::Pop),
            arb_time().prop_map(LaneOp::PopUntil),
        ]
    }

    proptest! {
        /// Lane pushes mixed with plain ones on four lanes — exact ties
        /// across lanes and with plain pushes, lane pushes earlier than
        /// the lane's tail — pop exactly like the `(time, seq, payload)`
        /// heap: every `pop`, `pop_until` and `peek_time`.
        #[test]
        fn lanes_match_the_reference_heap(
            ops in vec(arb_lane_op(), 1..400),
            ties in vec(any::<prop::sample::Index>(), 400),
        ) {
            let mut queue = EventQueue::new();
            let mut reference = BinaryHeap::new();
            let (mut seq, mut peak) = (0u64, 0usize);
            let mut last = [0u64; 4];
            let mut times = Vec::new();
            for (i, op) in ops.into_iter().enumerate() {
                match op {
                    LaneOp::Push(fresh, id) => {
                        // Every other plain push ties an earlier push.
                        let t = if i % 2 == 1 && !times.is_empty() {
                            times[ties[i].index(times.len())]
                        } else {
                            fresh
                        };
                        times.push(t);
                        queue.push(Time::from_ps(t), id);
                        reference.push(Reverse((Time::from_ps(t), seq, id)));
                        seq += 1;
                    }
                    LaneOp::Lane { lane, step, back, id } => {
                        let t = if back {
                            last[lane].saturating_sub(step)
                        } else {
                            last[lane].saturating_add(step)
                        };
                        last[lane] = t;
                        times.push(t);
                        queue.push_lane(lane, Time::from_ps(t), id);
                        reference.push(Reverse((Time::from_ps(t), seq, id)));
                        seq += 1;
                    }
                    LaneOp::Pop => {
                        let want = reference.pop().map(|Reverse((t, _, id))| (t, id));
                        prop_assert_eq!(queue.pop(), want);
                    }
                    LaneOp::PopUntil(deadline) => {
                        let deadline = Time::from_ps(deadline);
                        let want = match reference.peek() {
                            Some(&Reverse((t, _, _))) if t <= deadline => {
                                reference.pop().map(|Reverse((t, _, id))| (t, id))
                            }
                            _ => None,
                        };
                        prop_assert_eq!(queue.pop_until(deadline), want);
                    }
                }
                peak = peak.max(reference.len());
                prop_assert!(queue.heap.len() <= reference.len());
                prop_assert_eq!(
                    queue.peek_time(),
                    reference.peek().map(|Reverse((t, _, _))| *t)
                );
                prop_assert_eq!(queue.slab.len(), peak);
            }
            while let Some(Reverse((t, _, id))) = reference.pop() {
                prop_assert_eq!(queue.pop(), Some((t, id)));
            }
            prop_assert!(queue.is_empty() && queue.pop().is_none());
        }
    }

    #[test]
    fn in_order_pushes_on_one_lane_keep_one_key_in_the_heap() {
        let mut queue = EventQueue::new();
        for id in 0..1_000u32 {
            queue.push_lane(2, Time::from_ns(u64::from(id / 3)), id);
            assert_eq!(queue.heap.len(), 1);
        }
        for id in 0..1_000u32 {
            assert_eq!(queue.heap.len(), 1);
            assert_eq!(queue.pop(), Some((Time::from_ns(u64::from(id / 3)), id)));
        }
        assert!(queue.is_empty());
    }

    #[test]
    fn the_last_insertions_before_the_seq_limit_still_order_exactly() {
        let mut queue = EventQueue::starting_at(EventQueue::<u32>::MAX_INSERTIONS - 3, 0);
        queue.push(Time::from_ps(u64::MAX), 0);
        queue.push(Time::from_ps(7), 1);
        queue.push(Time::from_ps(7), 2);
        let order: Vec<_> = std::iter::from_fn(|| queue.pop()).collect();
        assert_eq!(
            order,
            vec![
                (Time::from_ps(7), 1),
                (Time::from_ps(7), 2),
                (Time::from_ps(u64::MAX), 0),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "more than 2^40 insertions")]
    fn seq_overflow_panics() {
        let mut queue = EventQueue::starting_at(EventQueue::<()>::MAX_INSERTIONS - 1, 0);
        queue.push(Time::ZERO, ());
        queue.push(Time::ZERO, ());
    }

    #[test]
    #[should_panic(expected = "more than 2^24 events queued at once")]
    fn slot_overflow_panics() {
        let mut queue = EventQueue::starting_at(0, EventQueue::<()>::MAX_LIVE - 1);
        // The last slot is usable, and reusable once freed...
        queue.push(Time::ZERO, ());
        assert_eq!(queue.pop(), Some((Time::ZERO, ())));
        queue.push(Time::ZERO, ());
        // ...but a second live event has no slot to go to.
        queue.push(Time::ZERO, ());
    }
}
