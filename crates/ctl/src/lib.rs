//! # sprayer-ctl — the control plane
//!
//! Planned and unplanned epoch transitions for a running Sprayer
//! middlebox. The paper's §6 argues that spraying makes elasticity
//! cheap: because any core can process any packet, scaling up
//! "requires no migration at all", while per-flow dispatch (RSS) must
//! reprogram its indirection table and move every flow whose queue
//! changed. The same designated-core mapping makes a crash cheap too:
//! only the dead core's flows are lost. This crate turns both claims
//! into measurable experiments:
//!
//! * [`plan`] — one time-ordered [`Plan`]: rescales, worker crashes and
//!   stalls, and adversarial bursts on one simulated clock, plus the
//!   watchdog's detection deadline and the horizon, validated before
//!   the dataplane exists;
//! * [`controller`] — the one [`Controller`] that drives a
//!   [`sprayer::MiddleboxSim`] through a plan, firing actions between
//!   packets in nominal-time order and recovering each crash at
//!   `crash + detect_deadline` (the transitions themselves are
//!   [`sprayer::MiddleboxSim::reconfigure`] and
//!   [`sprayer::MiddleboxSim::recover`]);
//! * [`telemetry`] — registry export of the resulting
//!   [`sprayer::ReconfigReport`] and [`sprayer::RecoveryReport`] series
//!   (`reconfig_*`, `recovery_*` and `fault_*` metric names).
//!
//! The threaded runtime transitions at phase granularity via
//! [`sprayer::ThreadedMiddlebox::run_elastic`]; this crate drives the
//! deterministic simulator, where downtime, migration cost and
//! detection latency are exactly attributable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod controller;
pub mod plan;
pub mod telemetry;

#[cfg(test)]
mod chaos;
#[cfg(test)]
mod fault;
#[cfg(test)]
mod soak;

pub use controller::Controller;
pub use plan::{Action, AdversarialProfile, Plan, PlanError, RESCALE_WINDOW};
pub use telemetry::{export_fault_telemetry, export_reconfig_telemetry};
