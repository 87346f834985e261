//! The health plane's overhead budget, enforced as a test.
//!
//! The acceptance bound is: with profiling, the health bus, sampling,
//! and the flight recorder on (the planes that record at batch grain
//! only), the threaded dataplane's wall time over a fixed workload
//! must stay within 5% of the obs-off time. Per-packet planes
//! (tracing, latency probes, the reorder sketch, tail attribution) run
//! on the same batch path but label every descriptor at ingress (one
//! clock read per burst) and walk each completed batch once more; a
//! second test budgets tail attribution + flight against the
//! latency-histogram plane, which already pays for that, the same way.
//!
//! Timing a threaded run in a shared CI container is noisy, so the
//! comparison is min-of-K (the minimum is the least noisy location
//! estimator for a lower-bounded timing distribution) over runs of the
//! two sides taken in turn, one test at a time, with a small absolute
//! slack on top of the 5% relative budget.
//!
//! Both tests are `#[ignore]`d: the workspace's `default-members` make
//! a bare `cargo test` run every crate, and on a shared host this
//! estimator fails unchanged code a few runs in twelve, optimized or
//! not (a rare *fast* stretch that lands on one side is exactly what
//! that side's minimum keeps). CI runs them in a step of their own:
//! `cargo test -p sprayer-bench --test obs_overhead -- --ignored`.

use sprayer::config::{DispatchMode, ObsConfig};
use sprayer::runtime_threads::{ThreadedConfig, ThreadedMiddlebox};
use sprayer_net::flow::splitmix64;
use sprayer_net::{FiveTuple, Packet, PacketBuilder, TcpFlags};
use sprayer_nf::SyntheticNf;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Each budget test times wall-clock runs of three busy threads; run
/// side by side on a two-CPU machine they are each other's noise.
/// Whoever holds this measures alone.
static ALONE: Mutex<()> = Mutex::new(());

fn workload(packets: u32) -> Vec<Vec<Packet>> {
    let t = FiveTuple::tcp(0x0a00_0001, 40_000, 0xc0a8_0001, 443);
    let mut data = Vec::with_capacity(packets as usize);
    for i in 0..packets {
        let payload = splitmix64(u64::from(i)).to_be_bytes();
        data.push(PacketBuilder::new().tcp(t, i, 0, TcpFlags::ACK, &payload));
    }
    vec![
        vec![PacketBuilder::new().tcp(t, 0, 0, TcpFlags::SYN, b"")],
        data,
    ]
}

/// Wall time of one threaded run over the fixed workload.
fn one_run(obs: ObsConfig, packets: u32) -> Duration {
    let mut config = ThreadedConfig::new(DispatchMode::Sprayer, 2);
    config.obs = obs;
    // Closed loop: ingress waits for queue space however the scheduler
    // treats the workers, so a queue drop is a bug, not load from the
    // rest of the test suite.
    config.ingress_retries = usize::MAX;
    let nf = SyntheticNf::spinning(5_000);
    let phases = workload(packets);
    let start = Instant::now();
    let out = ThreadedMiddlebox::run(&config, &nf, phases);
    let elapsed = start.elapsed();
    assert_eq!(out.stats.unaccounted(), 0);
    assert_eq!(out.stats.processed(), u64::from(packets) + 1);
    elapsed
}

/// What `on` may cost given `off`: 5% relative plus 3 ms absolute. The
/// workload runs ~50-100 ms, so the absolute term only matters if a
/// scheduler hiccup survives min-of-K on both sides.
fn budget(off: Duration) -> Duration {
    off.mul_f64(1.05) + Duration::from_millis(3)
}

/// Min-of-K wall times of two configurations, their runs interleaved
/// (off, on, off, on, …) so a slow stretch of the machine lands on both
/// sides alike. At least `k` pairs; while the minima are still over
/// budget, up to `3 * k` — a real regression stays over budget however
/// long one looks, a scheduler hiccup does not.
fn min_of_each(k: usize, off: ObsConfig, on: ObsConfig, packets: u32) -> (Duration, Duration) {
    let (mut best_off, mut best_on) = (Duration::MAX, Duration::MAX);
    for pair in 1..=3 * k {
        best_off = best_off.min(one_run(off, packets));
        best_on = best_on.min(one_run(on, packets));
        if pair >= k && best_on <= budget(best_off) {
            break;
        }
    }
    (best_off, best_on)
}

#[test]
#[ignore = "wall-clock budget; run alone with `-- --ignored` (see module doc)"]
fn health_plane_costs_at_most_five_percent_of_the_batch_dataplane() {
    let _alone = ALONE.lock().unwrap_or_else(PoisonError::into_inner);
    let packets = 20_000;
    let k = 5;
    // Interleave warmup: one throwaway pair so neither side pays
    // first-touch costs (thread spawn paths, allocator warmup).
    let _ = one_run(ObsConfig::disabled(), packets);
    let plane = ObsConfig {
        health: true,
        sample: true,
        flight: true,
        ..ObsConfig::profiling()
    };
    let _ = one_run(plane, packets);

    let (off, on) = min_of_each(k, ObsConfig::disabled(), plane, packets);

    assert!(
        on <= budget(off),
        "health plane overhead breaks the 5% budget: off {off:?}, on {on:?} \
         (allowed {:?})",
        budget(off)
    );
}

#[test]
#[ignore = "wall-clock budget; run alone with `-- --ignored` (see module doc)"]
fn tail_attribution_and_flight_cost_at_most_five_percent_of_the_latency_plane() {
    // Tail attribution needs per-packet timestamps, so its fair
    // baseline is the latency-histogram plane (which already pays for
    // the ingress stamps and the per-packet pass over each completed
    // batch), not the obs-off run. On top of that baseline, the
    // exemplar capture + attribution table + flight ring must stay
    // within the same 5% + 3 ms budget.
    let _alone = ALONE.lock().unwrap_or_else(PoisonError::into_inner);
    let packets = 20_000;
    let k = 5;
    let baseline = ObsConfig::latency();
    let plane = ObsConfig {
        tail: true,
        flight: true,
        ..baseline
    };
    let _ = one_run(baseline, packets);
    let _ = one_run(plane, packets);

    let (off, on) = min_of_each(k, baseline, plane, packets);

    assert!(
        on <= budget(off),
        "tail+flight overhead breaks the 5% budget over the latency plane: \
         off {off:?}, on {on:?} (allowed {:?})",
        budget(off)
    );
}
