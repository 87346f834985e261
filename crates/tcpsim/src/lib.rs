//! # sprayer-tcp — simulated TCP endpoints
//!
//! The paper measures Sprayer's effect on *real* TCP connections (iperf3
//! with Linux CUBIC, §5) because packet spraying reorders packets and
//! reordering can make a TCP receiver emit duplicate ACKs, tripping the
//! sender's fast-retransmit heuristic and halving its window for no good
//! reason. Reproducing Figs. 6(b) and 7(b) therefore needs a TCP model
//! that gets exactly this mechanism right.
//!
//! This crate provides discrete-event TCP endpoints:
//!
//! * [`sender`] — a window-limited bulk sender with a SACK scoreboard
//!   and RFC 6675 pipe accounting, RACK time-based loss detection with a
//!   reordering window widened on DSACK evidence, tail-loss probes, DSACK
//!   undo of spurious recoveries, RTO with exponential backoff,
//!   timestamp-style RTT sampling, and a pluggable congestion-control
//!   algorithm;
//! * [`congestion`] — [`congestion::Cubic`] (RFC 8312, the Linux default
//!   the paper uses, untuned) and [`congestion::Reno`] for comparison;
//! * [`rtt`] — RFC 6298 smoothed RTT estimation;
//! * [`receiver`] — a cumulative-ACK receiver with an out-of-order
//!   reassembly buffer, duplicate-ACK generation on every out-of-order
//!   arrival, and delayed ACKs (every second full-sized segment).
//!
//! Endpoints are *pure state machines*: the caller (a discrete-event
//! scenario in `sprayer-bench`) owns time and delivery, calling
//! [`sender::Sender::poll_segment`], [`sender::Sender::on_ack`],
//! [`receiver::Receiver::on_segment`] etc. This keeps the protocol logic
//! independently testable — including under adversarial reordering.
//!
//! Simplifications relative to a production stack (documented in
//! DESIGN.md): byte-stream only (no content), one SACK block per ACK
//! (the most recent, as RFC 2018 orders them), no window scaling limits
//! (receive window assumed ample), no Nagle (iperf bulk transfer), no
//! ECN.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod congestion;
mod ranges;
pub mod receiver;
pub mod rtt;
pub mod sender;

pub use congestion::{CongestionControl, Cubic, Reno};
pub use receiver::{AckAction, AckInfo, Receiver};
pub use rtt::RttEstimator;
pub use sender::{Segment, Sender, SenderConfig};
