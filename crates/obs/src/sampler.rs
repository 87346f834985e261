//! Assembled per-core sampling output and live publication slots.
//!
//! [`SampleSet`] is what a runtime hands back after a sampled run: one
//! [`TimeSeries`] per core, aligned to a common bucket interval, plus
//! the tick rate needed to interpret it. On top of the aligned series it
//! derives the paper's imbalance timelines — instantaneous Jain's
//! fairness index over per-core processed counts, utilization skew
//! (max − min busy fraction), and pre-NF drop rate — and serializes the
//! whole thing as one JSON object for embedding in a
//! [`crate::MetricsRegistry`] telemetry document.
//!
//! [`LiveSlots`] is the lock-free side channel for *watching* a threaded
//! run while it executes: a flat array of per-core atomic counters that
//! workers `fetch_add` their batch deltas into (relaxed ordering — the
//! reader wants a cheap, approximately-consistent snapshot, not a
//! linearizable one). The `sprayer-bench top` dashboard polls
//! [`LiveSlots::snapshot`] and diffs successive snapshots into rates.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::series::{CoreSample, TimeSeries};

/// Jain's fairness index over a slice of per-core loads: `(Σx)² / (n·Σx²)`,
/// 1.0 for perfectly equal shares, → `1/n` when one core takes all load.
/// Empty or all-zero input reports 1.0 (nothing is unfair about silence)
/// — the same convention as `sprayer_sim::stats::jain_fairness_index`,
/// restated here because `sprayer-obs` sits below the sim crate.
fn jain(xs: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let sum: f64 = xs.iter().sum();
    let sum_sq: f64 = xs.iter().map(|x| x * x).sum();
    if n == 0.0 || sum_sq == 0.0 {
        1.0
    } else {
        (sum * sum) / (n * sum_sq)
    }
}

/// The assembled output of a sampled run: per-core bucketed delta series
/// on a common time grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleSet {
    /// Ticks per microsecond of the recording runtime (simulator:
    /// 1_000_000 — simulated picoseconds; threaded: 1_000 — wall ns).
    pub ticks_per_us: u64,
    /// Bucket width in ticks shared by every series in `cores`.
    pub interval_ticks: u64,
    /// One series per core, index = core id.
    pub cores: Vec<TimeSeries>,
}

impl SampleSet {
    /// Align `cores` to their largest interval (series downsample
    /// independently, so a busy core may be coarser than an idle one)
    /// and package them with the runtime's tick rate.
    pub fn assemble(ticks_per_us: u64, mut cores: Vec<TimeSeries>) -> Self {
        let target = cores.iter().map(TimeSeries::interval).max().unwrap_or(1);
        for s in &mut cores {
            s.downsample_to(target);
        }
        SampleSet {
            ticks_per_us,
            interval_ticks: target,
            cores,
        }
    }

    /// Number of cores sampled.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Number of buckets in the longest per-core series.
    pub fn num_buckets(&self) -> usize {
        self.cores.iter().map(TimeSeries::len).max().unwrap_or(0)
    }

    /// Bucket width in microseconds.
    pub fn interval_us(&self) -> f64 {
        self.interval_ticks as f64 / self.ticks_per_us as f64
    }

    /// Per-core lifetime totals (sum of every bucket), index = core id.
    pub fn totals(&self) -> Vec<CoreSample> {
        self.cores.iter().map(TimeSeries::total).collect()
    }

    fn per_bucket<F: Fn(&CoreSample) -> u64>(&self, bucket: usize, f: F) -> Vec<f64> {
        self.cores
            .iter()
            .map(|s| s.buckets().get(bucket).map_or(0, &f) as f64)
            .collect()
    }

    /// Instantaneous Jain's fairness index per bucket, computed over
    /// per-core processed counts. 1.0 where no core processed anything.
    pub fn jain_timeline(&self) -> Vec<f64> {
        (0..self.num_buckets())
            .map(|b| jain(&self.per_bucket(b, |s| s.processed)))
            .collect()
    }

    /// Per-bucket utilization skew: max − min busy fraction across
    /// cores, each fraction clamped to 1.0 (batch timing can overrun a
    /// bucket edge in the threaded runtime).
    pub fn util_skew_timeline(&self) -> Vec<f64> {
        let w = self.interval_ticks as f64;
        (0..self.num_buckets())
            .map(|b| {
                let utils: Vec<f64> = self
                    .per_bucket(b, |s| s.busy_ticks)
                    .into_iter()
                    .map(|t| (t / w).min(1.0))
                    .collect();
                let max = utils.iter().cloned().fold(0.0f64, f64::max);
                let min = utils.iter().cloned().fold(1.0f64, f64::min);
                if utils.is_empty() {
                    0.0
                } else {
                    max - min
                }
            })
            .collect()
    }

    /// Per-bucket pre-NF drop rate: drops / (processed + drops) summed
    /// over cores; 0.0 where the bucket saw no traffic.
    pub fn drop_rate_timeline(&self) -> Vec<f64> {
        (0..self.num_buckets())
            .map(|b| {
                let drops: f64 = self.per_bucket(b, CoreSample::pre_nf_drops).iter().sum();
                let processed: f64 = self.per_bucket(b, |s| s.processed).iter().sum();
                let denom = drops + processed;
                if denom == 0.0 {
                    0.0
                } else {
                    drops / denom
                }
            })
            .collect()
    }

    /// Serialize as one JSON object: grid metadata, the three derived
    /// timelines, and the raw per-core field arrays. Field names are
    /// telemetry schema — keep them stable.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(1024);
        let _ = write!(
            s,
            "{{\"ticks_per_us\":{},\"interval_ticks\":{},\"num_cores\":{},\"num_buckets\":{}",
            self.ticks_per_us,
            self.interval_ticks,
            self.num_cores(),
            self.num_buckets()
        );
        write_f64_array(&mut s, "jain", &self.jain_timeline());
        write_f64_array(&mut s, "util_skew", &self.util_skew_timeline());
        write_f64_array(&mut s, "drop_rate", &self.drop_rate_timeline());
        s.push_str(",\"per_core\":[");
        for (i, series) in self.cores.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            write_core_series(&mut s, series);
        }
        s.push_str("]}");
        s
    }
}

fn write_f64_array(out: &mut String, name: &str, vals: &[f64]) {
    use std::fmt::Write as _;
    let _ = write!(out, ",\"{name}\":[");
    for (i, v) in vals.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if v.is_finite() {
            let _ = write!(out, "{v:.6}");
        } else {
            out.push_str("null");
        }
    }
    out.push(']');
}

fn write_u64_array(out: &mut String, name: &str, vals: impl Iterator<Item = u64>, first: bool) {
    use std::fmt::Write as _;
    if !first {
        out.push(',');
    }
    let _ = write!(out, "\"{name}\":[");
    for (i, v) in vals.enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
}

fn write_core_series(out: &mut String, series: &TimeSeries) {
    let b = series.buckets();
    out.push('{');
    write_u64_array(out, "processed", b.iter().map(|s| s.processed), true);
    write_u64_array(out, "forwarded", b.iter().map(|s| s.forwarded), false);
    write_u64_array(out, "nf_drops", b.iter().map(|s| s.nf_drops), false);
    write_u64_array(out, "queue_drops", b.iter().map(|s| s.queue_drops), false);
    write_u64_array(out, "ring_drops", b.iter().map(|s| s.ring_drops), false);
    write_u64_array(
        out,
        "nic_cap_drops",
        b.iter().map(|s| s.nic_cap_drops),
        false,
    );
    write_u64_array(
        out,
        "redirected_in",
        b.iter().map(|s| s.redirected_in),
        false,
    );
    write_u64_array(
        out,
        "redirected_out",
        b.iter().map(|s| s.redirected_out),
        false,
    );
    write_u64_array(
        out,
        "rx_occupancy_hwm",
        b.iter().map(|s| s.rx_occupancy_hwm),
        false,
    );
    write_u64_array(
        out,
        "ring_occupancy_hwm",
        b.iter().map(|s| s.ring_occupancy_hwm),
        false,
    );
    write_u64_array(out, "busy_ticks", b.iter().map(|s| s.busy_ticks), false);
    out.push('}');
}

/// Number of [`AtomicU64`] slots [`LiveSlots`] keeps per core.
pub const LIVE_FIELDS: usize = 11;

/// One core's counters in a [`LiveSlots`] snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LiveCore {
    /// Packets the NF completed.
    pub processed: u64,
    /// Of those, forwarded.
    pub forwarded: u64,
    /// NF-verdict drops.
    pub nf_drops: u64,
    /// Pre-NF drops (queue + ring + NIC cap).
    pub drops: u64,
    /// Redirected descriptors consumed from this core's ring.
    pub redirected_in: u64,
    /// Descriptors pushed toward foreign rings.
    pub redirected_out: u64,
    /// Wall nanoseconds spent busy inside batches.
    pub busy_ns: u64,
    /// Last observed rx-queue depth (gauge, not a counter).
    pub queue_depth: u64,
    /// Last observed flow-table entry count on this core (gauge).
    pub table_occupancy: u64,
    /// High-water mark of `table_occupancy` over the run (gauge,
    /// monotone).
    pub table_hwm: u64,
    /// Flow entries this core's lifecycle evicted so far (counter:
    /// idle expiries + LRU backstop victims, hook-confirmed).
    pub evicted: u64,
}

/// Lock-free per-core counter slots for live observation of a threaded
/// run. Writers are the runtime's workers (one `fetch_add` per field per
/// batch, `Relaxed` — no ordering is needed for a monitoring readout);
/// the reader is a dashboard polling [`LiveSlots::snapshot`].
#[derive(Debug)]
pub struct LiveSlots {
    slots: Vec<[AtomicU64; LIVE_FIELDS]>,
}

impl LiveSlots {
    /// Zeroed slots for `num_cores` cores.
    pub fn new(num_cores: usize) -> Self {
        LiveSlots {
            slots: (0..num_cores)
                .map(|_| std::array::from_fn(|_| AtomicU64::new(0)))
                .collect(),
        }
    }

    /// Number of cores these slots cover.
    pub fn num_cores(&self) -> usize {
        self.slots.len()
    }

    /// Accumulate one batch's deltas for `core`. Out-of-range cores are
    /// ignored (the run may use fewer workers than the slots were sized
    /// for).
    #[inline]
    pub fn add(&self, core: usize, delta: &CoreSample) {
        let Some(s) = self.slots.get(core) else {
            return;
        };
        s[0].fetch_add(delta.processed, Ordering::Relaxed);
        s[1].fetch_add(delta.forwarded, Ordering::Relaxed);
        s[2].fetch_add(delta.nf_drops, Ordering::Relaxed);
        s[3].fetch_add(delta.pre_nf_drops(), Ordering::Relaxed);
        s[4].fetch_add(delta.redirected_in, Ordering::Relaxed);
        s[5].fetch_add(delta.redirected_out, Ordering::Relaxed);
        s[6].fetch_add(delta.busy_ticks, Ordering::Relaxed);
        s[7].store(delta.rx_occupancy_hwm, Ordering::Relaxed);
    }

    /// Publish `core`'s flow-table memory view: current entry count
    /// (gauge), its running high-water mark, and the cumulative
    /// lifecycle eviction count. Separate from [`LiveSlots::add`]
    /// because these are not batch deltas — occupancy is a gauge and
    /// `evicted` is a worker-owned running total.
    #[inline]
    pub fn table(&self, core: usize, occupancy: u64, evicted: u64) {
        let Some(s) = self.slots.get(core) else {
            return;
        };
        s[8].store(occupancy, Ordering::Relaxed);
        s[9].fetch_max(occupancy, Ordering::Relaxed);
        s[10].store(evicted, Ordering::Relaxed);
    }

    /// Read all cores' counters (relaxed loads — approximately
    /// consistent, which is all a live view needs).
    pub fn snapshot(&self) -> Vec<LiveCore> {
        self.slots
            .iter()
            .map(|s| LiveCore {
                processed: s[0].load(Ordering::Relaxed),
                forwarded: s[1].load(Ordering::Relaxed),
                nf_drops: s[2].load(Ordering::Relaxed),
                drops: s[3].load(Ordering::Relaxed),
                redirected_in: s[4].load(Ordering::Relaxed),
                redirected_out: s[5].load(Ordering::Relaxed),
                busy_ns: s[6].load(Ordering::Relaxed),
                queue_depth: s[7].load(Ordering::Relaxed),
                table_occupancy: s[8].load(Ordering::Relaxed),
                table_hwm: s[9].load(Ordering::Relaxed),
                evicted: s[10].load(Ordering::Relaxed),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series_with(processed: &[u64], interval: u64) -> TimeSeries {
        let mut s = TimeSeries::new(interval, 64);
        for (i, &p) in processed.iter().enumerate() {
            if p > 0 {
                s.record(i as u64 * interval, |b| b.processed += p);
            }
        }
        s
    }

    #[test]
    fn assemble_aligns_intervals() {
        let mut fast = TimeSeries::new(10, 4);
        for t in 0..16 {
            fast.record(t * 10, |b| b.processed += 1);
        }
        let slow = series_with(&[5], 10);
        let set = SampleSet::assemble(1_000, vec![fast.clone(), slow]);
        assert_eq!(set.interval_ticks, fast.interval());
        assert!(set.cores.iter().all(|s| s.interval() == set.interval_ticks));
        assert_eq!(set.totals()[0].processed, 16);
        assert_eq!(set.totals()[1].processed, 5);
    }

    #[test]
    fn jain_timeline_flags_imbalance() {
        let a = series_with(&[10, 10], 100);
        let b = series_with(&[10, 0], 100);
        let set = SampleSet::assemble(1_000, vec![a, b]);
        let jain = set.jain_timeline();
        assert_eq!(jain.len(), 2);
        assert!((jain[0] - 1.0).abs() < 1e-9, "balanced bucket → 1.0");
        assert!((jain[1] - 0.5).abs() < 1e-9, "one-core bucket → 1/n");
    }

    #[test]
    fn jain_of_silence_is_one() {
        assert_eq!(jain(&[]), 1.0);
        assert_eq!(jain(&[0.0, 0.0]), 1.0);
        let set = SampleSet::assemble(1_000, vec![TimeSeries::new(10, 4); 3]);
        assert!(set.jain_timeline().is_empty());
    }

    #[test]
    fn util_skew_and_drop_rate() {
        let mut a = TimeSeries::new(100, 16);
        let mut b = TimeSeries::new(100, 16);
        a.record(0, |s| {
            s.busy_ticks += 100;
            s.processed += 9;
        });
        b.record(0, |s| {
            s.busy_ticks += 25;
            s.queue_drops += 1;
        });
        let set = SampleSet::assemble(1_000, vec![a, b]);
        let skew = set.util_skew_timeline();
        assert!((skew[0] - 0.75).abs() < 1e-9);
        let dr = set.drop_rate_timeline();
        assert!((dr[0] - 0.1).abs() < 1e-9, "1 drop / (9 processed + 1)");
    }

    #[test]
    fn json_has_grid_and_timelines() {
        let set = SampleSet::assemble(1_000, vec![series_with(&[1, 2], 100); 2]);
        let j = set.to_json();
        for key in [
            "\"ticks_per_us\":1000",
            "\"interval_ticks\":100",
            "\"num_cores\":2",
            "\"num_buckets\":2",
            "\"jain\":[",
            "\"util_skew\":[",
            "\"drop_rate\":[",
            "\"per_core\":[{",
            "\"processed\":[1,2]",
            "\"busy_ticks\":[0,0]",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn live_slots_accumulate_and_snapshot() {
        let slots = LiveSlots::new(2);
        let d = CoreSample {
            processed: 5,
            forwarded: 4,
            nf_drops: 1,
            queue_drops: 2,
            busy_ticks: 700,
            rx_occupancy_hwm: 3,
            ..Default::default()
        };
        slots.add(0, &d);
        slots.add(0, &d);
        slots.add(1, &d);
        slots.add(99, &d); // out of range: ignored
        let snap = slots.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].processed, 10);
        assert_eq!(snap[0].forwarded, 8);
        assert_eq!(snap[0].drops, 4);
        assert_eq!(snap[0].busy_ns, 1400);
        assert_eq!(snap[0].queue_depth, 3);
        assert_eq!(snap[1].processed, 5);
    }

    #[test]
    fn table_slots_track_gauge_hwm_and_evictions() {
        let slots = LiveSlots::new(1);
        slots.table(0, 100, 2);
        slots.table(0, 40, 7);
        slots.table(9, 999, 999); // out of range: ignored
        let snap = slots.snapshot();
        assert_eq!(snap[0].table_occupancy, 40, "occupancy is a gauge");
        assert_eq!(snap[0].table_hwm, 100, "hwm latches the peak");
        assert_eq!(snap[0].evicted, 7, "evicted is the latest total");
    }
}
