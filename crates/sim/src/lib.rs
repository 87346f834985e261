//! # sprayer-sim — a deterministic discrete-event simulation engine
//!
//! The Sprayer paper's evaluation ran on a two-server 10 GbE testbed with
//! an 8-core middlebox. This crate provides the substrate that replaces
//! that hardware: a deterministic discrete-event engine with
//!
//! * [`time`] — picosecond-resolution simulated time, with conversions to
//!   CPU cycles at a configurable clock (the paper's Xeons run at 2.0 GHz),
//! * [`engine`] — a generic event loop: user models define an event type
//!   and a handler; one exact-order [`EventQueue`] breaks ties by
//!   insertion,
//! * [`queue`] — bounded FIFOs with drop accounting (NIC rx queues,
//!   inter-core descriptor rings),
//! * [`stats`] — streaming mean/variance and Jain's fairness index,
//! * [`rng`] — a small, pinned PRNG (SplitMix64 core) with uniform /
//!   exponential / shuffling helpers so experiments reproduce bit-for-bit
//!   across platforms and `rand` version bumps.
//!
//! Determinism is a design goal: the same model + seed always produces
//! the same trajectory, which the experiment harness relies on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;

pub use engine::{EventQueue, Model, Scheduler, Simulation};
pub use queue::BoundedFifo;
pub use rng::SimRng;
pub use stats::Welford;
pub use time::{ClockFreq, Time};
