//! The contract of `crossbeam::queue::ArrayQueue`, the lock-free ring
//! under every rx queue, redirect ring and SCR log of the threaded
//! runtime.
//!
//! `vendor/crossbeam` is the one crate in the tree that touches raw
//! memory (its slots are `UnsafeCell<MaybeUninit<T>>`), and it is not a
//! workspace member, so its own unit tests run under neither
//! `cargo test` nor `cargo test --workspace`. This file puts the queue
//! under the tier-1 command: a sequential model check against
//! `VecDeque`, an MPMC stress run with a depth observer, and a
//! drop-counting element type.

use crossbeam::queue::ArrayQueue;
use sprayer_net::flow::splitmix64;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

/// Capacities around the powers of two `one_lap` rounds up to, the
/// capacity-1 ring of the storm tests, and the runtime's default 512.
const CAPACITIES: [usize; 6] = [1, 2, 3, 7, 8, 512];

/// A seeded stream of pushes and pops that swings between full and
/// empty: three pushes in four while filling, one in four while
/// draining, turning around at either end.
struct OpStream {
    state: u64,
    filling: bool,
}

impl OpStream {
    fn new(seed: u64) -> Self {
        OpStream {
            state: seed,
            filling: true,
        }
    }

    /// True for a push. `len` is the model's depth before the step.
    fn next_is_push(&mut self, len: usize, capacity: usize) -> bool {
        if len == 0 {
            self.filling = true;
        } else if len == capacity {
            self.filling = false;
        }
        self.state = splitmix64(self.state);
        // The one step in four against the phase is also what pushes on
        // a full queue and pops an empty one.
        (self.state & 3 != 0) == self.filling
    }
}

fn assert_same_shape<T>(queue: &ArrayQueue<T>, model: &VecDeque<T>, capacity: usize, at: &str) {
    assert_eq!(queue.len(), model.len(), "len {at}");
    assert_eq!(queue.is_empty(), model.is_empty(), "is_empty {at}");
    assert_eq!(queue.is_full(), model.len() == capacity, "is_full {at}");
    assert_eq!(queue.capacity(), capacity, "capacity {at}");
}

#[test]
fn sequential_behaviour_matches_a_vecdeque() {
    for capacity in CAPACITIES {
        for seed in 1..=3u64 {
            let queue = ArrayQueue::new(capacity);
            let mut model = VecDeque::new();
            let mut ops = OpStream::new(seed * 0x9e37 + capacity as u64);
            let (mut pushed, mut refused, mut starved) = (0usize, 0usize, 0usize);
            let mut step = 0u64;
            // Four laps of the buffer, and both ends refused at least
            // once.
            while pushed < 4 * capacity || refused == 0 || starved == 0 {
                step += 1;
                let at = format!("at step {step}, capacity {capacity}, seed {seed}");
                if ops.next_is_push(model.len(), capacity) {
                    let expected = if model.len() == capacity {
                        refused += 1;
                        Err(step)
                    } else {
                        model.push_back(step);
                        pushed += 1;
                        Ok(())
                    };
                    assert_eq!(queue.push(step), expected, "push {at}");
                } else {
                    let expected = model.pop_front();
                    starved += usize::from(expected.is_none());
                    assert_eq!(queue.pop(), expected, "pop {at}");
                }
                assert_same_shape(&queue, &model, capacity, &at);
            }
            // What is left comes out in order.
            while let Some(expected) = model.pop_front() {
                assert_eq!(queue.pop(), Some(expected));
            }
            assert_eq!(queue.pop(), None);
        }
    }
}

const PRODUCERS: usize = 4;
const CONSUMERS: usize = 3;
const PER_PRODUCER: usize = 50_000;

/// 4 producers × 3 consumers on one queue, all released together by a
/// barrier and yielding when blocked, with an observer reading the depth
/// throughout. Returns what each consumer popped, in its pop order.
fn mpmc_stress(capacity: usize) -> Vec<Vec<(usize, usize)>> {
    let queue = ArrayQueue::new(capacity);
    let total = PRODUCERS * PER_PRODUCER;
    let popped = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let start = Barrier::new(PRODUCERS + CONSUMERS + 1);
    std::thread::scope(|s| {
        for p in 0..PRODUCERS {
            let (queue, start) = (&queue, &start);
            s.spawn(move || {
                start.wait();
                for seq in 0..PER_PRODUCER {
                    let mut item = (p, seq);
                    while let Err(back) = queue.push(item) {
                        item = back;
                        std::thread::yield_now();
                    }
                }
            });
        }
        let consumers: Vec<_> = (0..CONSUMERS)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    let mut seen = Vec::new();
                    while popped.load(Ordering::SeqCst) < total {
                        match queue.pop() {
                            Some(item) => {
                                seen.push(item);
                                popped.fetch_add(1, Ordering::SeqCst);
                            }
                            None => std::thread::yield_now(),
                        }
                    }
                    seen
                })
            })
            .collect();
        let observer = s.spawn(|| {
            start.wait();
            let mut reads = 0u64;
            while !done.load(Ordering::SeqCst) {
                let len = queue.len();
                assert!(len <= capacity, "len() read {len} on capacity {capacity}");
                reads += 1;
                std::thread::yield_now();
            }
            reads
        });
        let seen: Vec<_> = consumers
            .into_iter()
            .map(|c| c.join().expect("a consumer does not panic"))
            .collect();
        done.store(true, Ordering::SeqCst);
        let reads = observer.join().expect("len() never exceeds the capacity");
        assert!(reads > 0);
        assert!(queue.is_empty() && queue.pop().is_none());
        seen
    })
}

#[test]
fn mpmc_pops_every_item_once_and_in_producer_order() {
    for capacity in [1, 8] {
        let seen = mpmc_stress(capacity);
        let mut times_popped = vec![[0u8; PER_PRODUCER]; PRODUCERS];
        for (c, items) in seen.iter().enumerate() {
            // One producer's pushes are ordered, and so are one
            // consumer's pops: FIFO means the consumer sees that
            // producer's sequence numbers rising.
            let mut next = [0usize; PRODUCERS];
            for &(p, seq) in items {
                assert!(
                    seq >= next[p],
                    "capacity {capacity}: consumer {c} saw producer {p}'s item {seq} after {}",
                    next[p]
                );
                next[p] = seq + 1;
                times_popped[p][seq] += 1;
            }
        }
        for (p, counts) in times_popped.iter().enumerate() {
            for (seq, &n) in counts.iter().enumerate() {
                assert_eq!(
                    n, 1,
                    "capacity {capacity}: item ({p}, {seq}) popped {n} times"
                );
            }
        }
    }
}

/// Counts its own destructor runs in `drops[id]`.
#[derive(Debug)]
struct Counted {
    id: usize,
    drops: Arc<Vec<AtomicUsize>>,
}

impl Drop for Counted {
    fn drop(&mut self) {
        self.drops[self.id].fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn every_element_is_dropped_exactly_once() {
    for capacity in CAPACITIES {
        let steps = 8 * capacity + 16;
        let drops: Arc<Vec<AtomicUsize>> =
            Arc::new((0..=steps).map(|_| AtomicUsize::new(0)).collect());
        let dropped = |id: usize| drops[id].load(Ordering::SeqCst);
        let queue = ArrayQueue::new(capacity);
        let mut queued = VecDeque::new();
        let mut ops = OpStream::new(capacity as u64);
        for id in 0..steps {
            // Every step makes one element, so every id is accounted
            // for: refused and dropped by the caller, popped and dropped
            // by the caller, or left for the queue's `Drop`.
            let item = Counted {
                id,
                drops: drops.clone(),
            };
            if ops.next_is_push(queued.len(), capacity) {
                match queue.push(item) {
                    Ok(()) => queued.push_back(id),
                    Err(back) => assert_eq!(back.id, id, "a refused push hands its value back"),
                }
            } else {
                drop(item);
                let front = queue.pop();
                assert_eq!(front.as_ref().map(|c| c.id), queued.pop_front());
                if let Some(front) = front {
                    assert_eq!(dropped(front.id), 0, "pop moves the value out, undropped");
                }
            }
        }
        // Drop the queue non-empty, with the live range wherever the
        // walk left it (wrapped for the small capacities): one more
        // push either lands or finds the queue full.
        let last = Counted {
            id: steps,
            drops: drops.clone(),
        };
        if queue.push(last).is_ok() {
            queued.push_back(steps);
        }
        assert_eq!(queue.len(), queued.len());
        for &id in &queued {
            assert_eq!(dropped(id), 0, "a queued element is alive");
        }
        drop(queue);
        for id in 0..=steps {
            assert_eq!(dropped(id), 1, "capacity {capacity}: element {id}");
        }
    }
}
