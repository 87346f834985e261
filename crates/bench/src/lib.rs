//! # sprayer-bench — the experiment harness
//!
//! One binary, `sprayer-bench`, runs every table/figure of the paper's
//! evaluation (see DESIGN.md's per-experiment index) and the tools
//! around them: `run <experiment>`, `run --baselines`, `gate`, `top`,
//! `blackbox` and `trace`. The experiments live in the binary; this
//! library holds what they are built on:
//!
//! * [`scenarios::rate`] — open-loop processing-rate measurement
//!   (Figs. 6a, 7a): MoonGen-style 64 B packets at line rate into the
//!   simulated middlebox;
//! * [`scenarios::tcp`] — closed-loop TCP goodput through the middlebox
//!   (Figs. 6b, 7b, 9): CUBIC senders/receivers co-simulated with the
//!   middlebox in one event loop;
//! * [`scenarios::latency`] — open-loop Poisson load for p99 RTT
//!   (Fig. 8);
//! * [`scenarios::tail`] — the Fig. 8 workload with tail attribution,
//!   the flight recorder, and tracing on (`fig_tail`), hard-checking
//!   the online table against the offline trace replay;
//! * [`report`] — aligned table / CSV output;
//! * [`blackbox`] — post-mortem rendering of a crash flight-recorder
//!   dump (what `sprayer-bench blackbox` prints);
//! * [`livetop`] — frame rendering for the `sprayer-bench top` dashboard
//!   (per-core rates, elastic footer, stage breakdown, SLO alerts);
//! * [`gate`] — the benchmark regression gate: diffs fresh telemetry
//!   documents against the committed baselines in `results/baselines/`
//!   (driven by `sprayer-bench gate` and the `bench-gate` CI job).
//!
//! Run `cargo run --release -p sprayer-bench -- run <experiment>`;
//! experiments print the paper's series plus the values measured here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blackbox;
pub mod gate;
pub mod livetop;
pub mod report;
pub mod scenarios;
