//! Runtime statistics shared by both runtimes.
//!
//! [`MiddleboxStats`] is the single telemetry contract: the deterministic
//! simulator ([`crate::runtime_sim::MiddleboxSim::stats`]) and the
//! real-thread runtime ([`crate::runtime_threads::ThreadedOutcome::stats`])
//! both populate every field, so conservation
//! ([`MiddleboxStats::unaccounted`]) is assertable on either path and
//! experiment output carries one telemetry block regardless of runtime.

use crate::tables::LifecycleCounters;
use serde::{Deserialize, Serialize};

// The batch-size bucket math lives in `sprayer-obs` next to the
// log-linear histogram it is a special case of (octaves of `n - 1`,
// clamped to 8 buckets); re-exported here so existing callers and the
// serialized `batch_hist` field shape are unchanged while the two
// bucketings cannot drift apart.
pub use sprayer_obs::{batch_bucket, BATCH_BUCKET_LO, BATCH_HIST_BUCKETS};

/// Per-core counters.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct CoreStats {
    /// Packets fully processed on this core (NF executed here).
    pub processed: u64,
    /// Of those, connection packets.
    pub connection_packets: u64,
    /// Connection packets this core redirected to another core's ring.
    pub redirected_out: u64,
    /// Connection packets this core received via its ring.
    pub redirected_in: u64,
    /// Busy time accumulated serving packets. The unit is the runtime's
    /// native tick: the simulator charges *model cycles* (service +
    /// ring costs at the configured clock), the threaded runtime
    /// measures *wall nanoseconds* of batch execution (one clock read
    /// pair per drain, watermarked so nested drains inside a batch are
    /// never double-counted). Compare against wall/sim elapsed time for
    /// utilization; never compare across runtimes without converting.
    pub busy_cycles: u64,
    /// High-water mark of this core's receive-queue occupancy (packets),
    /// observed at enqueue/drain points.
    pub rx_occupancy_hwm: u64,
    /// High-water mark of this core's inter-core ring occupancy
    /// (descriptors).
    pub ring_occupancy_hwm: u64,
    /// Histogram of dequeue batch sizes (buckets per [`batch_bucket`]).
    /// In the threaded runtime a sample is one bounded drain of the rx
    /// queue or ring; in the simulator it is a busy burst — the number of
    /// jobs a core served between idle periods, the event-driven analogue
    /// of a poll batch.
    pub batch_hist: [u64; BATCH_HIST_BUCKETS],
}

impl CoreStats {
    /// Record one dequeue batch (or busy burst) of `n` packets.
    pub fn record_batch(&mut self, n: u64) {
        if n > 0 {
            self.batch_hist[batch_bucket(n)] += 1;
        }
    }

    /// Raise the receive-queue occupancy high-water mark to at least `depth`.
    pub fn observe_rx_depth(&mut self, depth: u64) {
        self.rx_occupancy_hwm = self.rx_occupancy_hwm.max(depth);
    }

    /// Raise the ring occupancy high-water mark to at least `depth`.
    pub fn observe_ring_depth(&mut self, depth: u64) {
        self.ring_occupancy_hwm = self.ring_occupancy_hwm.max(depth);
    }

    /// Number of recorded batches.
    pub fn batches(&self) -> u64 {
        self.batch_hist.iter().sum()
    }

    /// Fold `other` into `self`: counters add, high-water marks take the
    /// max (used by the threaded runtime to merge per-phase worker stats).
    pub fn merge(&mut self, other: &CoreStats) {
        self.processed += other.processed;
        self.connection_packets += other.connection_packets;
        self.redirected_out += other.redirected_out;
        self.redirected_in += other.redirected_in;
        self.busy_cycles += other.busy_cycles;
        self.rx_occupancy_hwm = self.rx_occupancy_hwm.max(other.rx_occupancy_hwm);
        self.ring_occupancy_hwm = self.ring_occupancy_hwm.max(other.ring_occupancy_hwm);
        for (a, b) in self.batch_hist.iter_mut().zip(other.batch_hist.iter()) {
            *a += b;
        }
    }
}

/// Aggregate middlebox statistics.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MiddleboxStats {
    /// Packets offered by the traffic source.
    pub offered: u64,
    /// Packets dropped because the NIC's Flow Director rate cap was
    /// exceeded (spray mode on the 82599).
    pub nic_cap_drops: u64,
    /// Packets dropped on receive-queue overflow.
    pub queue_drops: u64,
    /// Descriptors dropped on inter-core ring overflow.
    pub ring_drops: u64,
    /// Frames the NIC discarded because they failed to parse (truncated,
    /// garbage headers, bad checksums) — adversarial/malformed traffic
    /// never reaches a queue.
    #[serde(default)]
    pub malformed_drops: u64,
    /// Packets lost to a core failure: stranded in a dead core's queues,
    /// steered to a dead queue before the failure was detected, or
    /// redirected to a dead core's ring after bounded retries.
    #[serde(default)]
    pub lost_packets: u64,
    /// Packets forwarded (NF verdict Forward).
    pub forwarded: u64,
    /// Packets dropped by NF verdict.
    pub nf_drops: u64,
    /// State-updates published onto peer log rings
    /// ([`crate::config::DispatchMode::Scr`] only; one multicast of an
    /// update to `n-1` peers counts `n-1` here).
    #[serde(default)]
    pub scr_published: u64,
    /// Remote state-updates replayed into local replicas.
    #[serde(default)]
    pub scr_applied: u64,
    /// State-updates dropped on log-ring overflow or truncated with a
    /// dead core's log (SCR's analogue of `ring_drops` — accounted, so
    /// the SCR conservation identity [`MiddleboxStats::scr_replay_gap`]
    /// closes even under overload and crashes).
    #[serde(default)]
    pub scr_log_drops: u64,
    /// Total cycles (simulator) / nanoseconds (threaded) spent replaying
    /// remote state-updates — the CPU cost replication pays to avoid
    /// redirection.
    #[serde(default)]
    pub scr_replay_cycles: u64,
    /// High-water mark of any core's inbound state-update log occupancy.
    #[serde(default)]
    pub scr_log_occupancy_hwm: u64,
    /// Replica-lag histogram: each replayed update records how many
    /// global sequence numbers behind the log head it was when applied
    /// (buckets per [`batch_bucket`], like `batch_hist`). Lag 1 means
    /// the replica was fully caught up.
    #[serde(default)]
    pub scr_lag_hist: [u64; BATCH_HIST_BUCKETS],
    /// True when a flow-lifecycle policy (idle aging / LRU backstop)
    /// was configured for the run. Gates the flow-lifecycle block in
    /// [`MiddleboxStats::to_json`] so pre-lifecycle telemetry documents
    /// stay byte-identical (an explicit flag, not counters-nonzero:
    /// `fin_reclaimed` is live in old runs too, via NAT teardown).
    #[serde(default)]
    pub lifecycle_enabled: bool,
    /// Table entries materialized: NF inserts that landed, SCR replica
    /// `Put`s creating an entry, and epoch-transition re-materialization
    /// (see [`crate::tables::LifecycleCounters`]).
    #[serde(default)]
    pub flows_created: u64,
    /// Entries removed by the NF itself (FIN/RST-driven teardown).
    #[serde(default)]
    pub fin_reclaimed: u64,
    /// Entries reclaimed by the idle-timeout sweep.
    #[serde(default)]
    pub idle_expired: u64,
    /// Entries evicted by the bounded-memory LRU backstop.
    #[serde(default)]
    pub lru_evicted: u64,
    /// Entries removed by applying a replicated SCR `Del`.
    #[serde(default)]
    pub replica_dels: u64,
    /// Entries drained at epoch transitions or discarded by crashes.
    #[serde(default)]
    pub flows_dropped: u64,
    /// Entries currently resident across all tables (sampled at the
    /// last stats sync).
    #[serde(default)]
    pub table_live: u64,
    /// High-water mark of total table residency — the bounded-memory
    /// claim is `table_occupancy_hwm` flattening out after warm-up.
    #[serde(default)]
    pub table_occupancy_hwm: u64,
    /// Per-core breakdown.
    pub per_core: Vec<CoreStats>,
}

impl MiddleboxStats {
    /// Fresh counters for `num_cores` cores.
    pub fn new(num_cores: usize) -> Self {
        MiddleboxStats {
            per_core: vec![CoreStats::default(); num_cores],
            ..Default::default()
        }
    }

    /// Copy the table layer's cumulative lifecycle counters and its
    /// `live` entry count in, advancing the residency high-water mark —
    /// the one sync both runtimes run (the simulator at every quiet
    /// point, the threaded runtime once at the end of a run).
    #[inline]
    pub(crate) fn sync_lifecycle(&mut self, c: LifecycleCounters, live: usize) {
        self.flows_created = c.created;
        self.fin_reclaimed = c.fin_reclaimed;
        self.idle_expired = c.idle_expired;
        self.lru_evicted = c.lru_evicted;
        self.replica_dels = c.replica_dels;
        self.flows_dropped = c.dropped;
        self.table_live = live as u64;
        self.table_occupancy_hwm = self.table_occupancy_hwm.max(self.table_live);
    }

    /// Total packets the NF processed (forwarded + NF-dropped).
    pub fn processed(&self) -> u64 {
        self.forwarded + self.nf_drops
    }

    /// Total packets lost before reaching the NF.
    pub fn pre_nf_drops(&self) -> u64 {
        self.nic_cap_drops + self.queue_drops + self.ring_drops
    }

    /// Per-core processed counts, for fairness / imbalance analysis.
    pub fn per_core_processed(&self) -> Vec<u64> {
        self.per_core.iter().map(|c| c.processed).collect()
    }

    /// Total connection-packet redirects (descriptors sent to a foreign
    /// core's ring, whether or not the ring accepted them).
    pub fn redirects(&self) -> u64 {
        self.per_core.iter().map(|c| c.redirected_out).sum()
    }

    /// Highest receive-queue occupancy observed on any core.
    pub fn max_rx_occupancy(&self) -> u64 {
        self.per_core
            .iter()
            .map(|c| c.rx_occupancy_hwm)
            .max()
            .unwrap_or(0)
    }

    /// Highest inter-core ring occupancy observed on any core.
    pub fn max_ring_occupancy(&self) -> u64 {
        self.per_core
            .iter()
            .map(|c| c.ring_occupancy_hwm)
            .max()
            .unwrap_or(0)
    }

    /// Conservation check: every offered packet is accounted exactly once
    /// among forwarded, NF drops, pre-NF drops, malformed drops, and
    /// failure losses — plus those still in flight (returned as the
    /// remainder).
    pub fn unaccounted(&self) -> u64 {
        self.offered.saturating_sub(
            self.forwarded
                + self.nf_drops
                + self.pre_nf_drops()
                + self.malformed_drops
                + self.lost_packets,
        )
    }

    /// SCR conservation check: every published state-update is accounted
    /// exactly once as applied or dropped — plus those still queued in a
    /// log ring (returned as the remainder). Zero at drain.
    pub fn scr_replay_gap(&self) -> u64 {
        self.scr_published
            .saturating_sub(self.scr_applied + self.scr_log_drops)
    }

    /// Flow-entry conservation check, the table-residency analogue of
    /// [`MiddleboxStats::unaccounted`]: every entry ever created is
    /// still live or attributed to exactly one removal reason. Signed
    /// because a bug can miscount in either direction; zero when sound.
    pub fn flow_unaccounted(&self) -> i64 {
        self.flows_created as i64
            - self.table_live as i64
            - self.fin_reclaimed as i64
            - self.idle_expired as i64
            - self.lru_evicted as i64
            - self.replica_dels as i64
            - self.flows_dropped as i64
    }

    /// Total lifecycle evictions (everything reclaimed by policy rather
    /// than by the NF or an epoch transition).
    pub fn evictions(&self) -> u64 {
        self.idle_expired + self.lru_evicted
    }

    /// True if any SCR counter is live — the run used
    /// [`crate::config::DispatchMode::Scr`] and moved at least one
    /// state-update. Gates the `scr_*` block in [`MiddleboxStats::to_json`]
    /// so pre-SCR telemetry documents stay byte-identical.
    pub fn scr_active(&self) -> bool {
        self.scr_published != 0 || self.scr_applied != 0 || self.scr_log_drops != 0
    }

    /// Serialize the full telemetry block as a JSON object.
    ///
    /// Hand-rolled (every field is an integer, so there is nothing to
    /// escape); this is the telemetry block the experiment binaries embed
    /// in their result JSONs, identical for both runtimes. The `scr_*`
    /// fields appear only when [`MiddleboxStats::scr_active`], so Rss and
    /// Sprayer documents (and their committed baselines) are unchanged by
    /// the existence of the third mode; likewise the flow-lifecycle block
    /// appears only when the run configured a lifecycle policy
    /// (`lifecycle_enabled`), so pre-lifecycle documents are unchanged.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(256 + 192 * self.per_core.len());
        let _ = write!(
            s,
            "{{\"offered\":{},\"forwarded\":{},\"nf_drops\":{},\"nic_cap_drops\":{},\
             \"queue_drops\":{},\"ring_drops\":{},\"malformed_drops\":{},\
             \"lost_packets\":{},\"unaccounted\":{},\"redirects\":{},\
             \"max_rx_occupancy\":{},\"max_ring_occupancy\":{},",
            self.offered,
            self.forwarded,
            self.nf_drops,
            self.nic_cap_drops,
            self.queue_drops,
            self.ring_drops,
            self.malformed_drops,
            self.lost_packets,
            self.unaccounted(),
            self.redirects(),
            self.max_rx_occupancy(),
            self.max_ring_occupancy(),
        );
        if self.lifecycle_enabled {
            let _ = write!(
                s,
                "\"flows_created\":{},\"fin_reclaimed\":{},\"idle_expired\":{},\
                 \"lru_evicted\":{},\"replica_dels\":{},\"flows_dropped\":{},\
                 \"flow_unaccounted\":{},\"table_live\":{},\"table_occupancy_hwm\":{},",
                self.flows_created,
                self.fin_reclaimed,
                self.idle_expired,
                self.lru_evicted,
                self.replica_dels,
                self.flows_dropped,
                self.flow_unaccounted(),
                self.table_live,
                self.table_occupancy_hwm,
            );
        }
        if self.scr_active() {
            let lag: Vec<String> = self.scr_lag_hist.iter().map(u64::to_string).collect();
            let _ = write!(
                s,
                "\"scr_published\":{},\"scr_applied\":{},\"scr_log_drops\":{},\
                 \"scr_replay_gap\":{},\"scr_replay_cycles\":{},\
                 \"scr_log_occupancy_hwm\":{},\"scr_lag_hist\":[{}],",
                self.scr_published,
                self.scr_applied,
                self.scr_log_drops,
                self.scr_replay_gap(),
                self.scr_replay_cycles,
                self.scr_log_occupancy_hwm,
                lag.join(","),
            );
        }
        s.push_str("\"per_core\":[");
        for (i, c) in self.per_core.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let hist: Vec<String> = c.batch_hist.iter().map(u64::to_string).collect();
            let _ = write!(
                s,
                "{{\"processed\":{},\"connection_packets\":{},\"redirected_out\":{},\
                 \"redirected_in\":{},\"busy_cycles\":{},\"rx_occupancy_hwm\":{},\
                 \"ring_occupancy_hwm\":{},\"batch_hist\":[{}]}}",
                c.processed,
                c.connection_packets,
                c.redirected_out,
                c.redirected_in,
                c.busy_cycles,
                c.rx_occupancy_hwm,
                c.ring_occupancy_hwm,
                hist.join(",")
            );
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_identities() {
        let mut s = MiddleboxStats::new(2);
        s.offered = 100;
        s.forwarded = 80;
        s.nf_drops = 5;
        s.queue_drops = 10;
        s.nic_cap_drops = 3;
        assert_eq!(s.processed(), 85);
        assert_eq!(s.pre_nf_drops(), 13);
        assert_eq!(s.unaccounted(), 2); // still in flight
    }

    #[test]
    fn malformed_and_lost_count_toward_conservation() {
        let mut s = MiddleboxStats::new(2);
        s.offered = 100;
        s.forwarded = 90;
        s.malformed_drops = 6;
        s.lost_packets = 4;
        assert_eq!(s.pre_nf_drops(), 0, "malformed/lost are their own class");
        assert_eq!(s.unaccounted(), 0);
        let j = s.to_json();
        assert!(j.contains("\"malformed_drops\":6"), "{j}");
        assert!(j.contains("\"lost_packets\":4"), "{j}");
    }

    #[test]
    fn scr_gap_closes_and_json_block_is_gated() {
        let mut s = MiddleboxStats::new(2);
        s.offered = 10;
        s.forwarded = 10;
        assert!(!s.scr_active());
        assert!(
            !s.to_json().contains("scr_"),
            "non-SCR documents must not carry scr_* fields"
        );
        s.scr_published = 30;
        s.scr_applied = 27;
        s.scr_log_drops = 2;
        assert!(s.scr_active());
        assert_eq!(s.scr_replay_gap(), 1, "one update still queued");
        s.scr_applied = 28;
        assert_eq!(s.scr_replay_gap(), 0);
        let j = s.to_json();
        for key in [
            "\"scr_published\":30",
            "\"scr_applied\":28",
            "\"scr_log_drops\":2",
            "\"scr_replay_gap\":0",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn flow_lifecycle_block_is_gated_and_identity_closes() {
        let mut s = MiddleboxStats::new(2);
        s.offered = 10;
        s.forwarded = 10;
        // NAT teardown keeps fin_reclaimed live even in pre-lifecycle
        // runs — the JSON block must key off the explicit flag, not off
        // counters being nonzero.
        s.flows_created = 5;
        s.fin_reclaimed = 5;
        assert!(
            !s.to_json().contains("flows_created"),
            "lifecycle block must stay out of pre-lifecycle documents"
        );
        s.lifecycle_enabled = true;
        s.flows_created = 10;
        s.idle_expired = 2;
        s.lru_evicted = 1;
        s.table_live = 2;
        s.table_occupancy_hwm = 6;
        assert_eq!(s.flow_unaccounted(), 0);
        assert_eq!(s.evictions(), 3);
        let j = s.to_json();
        for key in [
            "\"flows_created\":10",
            "\"fin_reclaimed\":5",
            "\"idle_expired\":2",
            "\"lru_evicted\":1",
            "\"replica_dels\":0",
            "\"flows_dropped\":0",
            "\"flow_unaccounted\":0",
            "\"table_live\":2",
            "\"table_occupancy_hwm\":6",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        // Miscounts surface signed.
        s.table_live = 3;
        assert_eq!(s.flow_unaccounted(), -1);
    }

    #[test]
    fn per_core_processed_extracts_counts() {
        let mut s = MiddleboxStats::new(3);
        s.per_core[0].processed = 5;
        s.per_core[2].processed = 7;
        assert_eq!(s.per_core_processed(), vec![5, 0, 7]);
    }

    #[test]
    fn batch_buckets_partition_sizes() {
        assert_eq!(batch_bucket(1), 0);
        assert_eq!(batch_bucket(2), 1);
        assert_eq!(batch_bucket(4), 2);
        assert_eq!(batch_bucket(8), 3);
        assert_eq!(batch_bucket(16), 4);
        assert_eq!(batch_bucket(32), 5);
        assert_eq!(batch_bucket(64), 6);
        assert_eq!(batch_bucket(65), 7);
        assert_eq!(batch_bucket(10_000), 7);
        // Bucket lower bounds are consistent with the partition.
        for (i, &lo) in BATCH_BUCKET_LO.iter().enumerate() {
            assert_eq!(batch_bucket(lo), i);
        }
    }

    #[test]
    fn record_batch_ignores_empty_and_counts_rest() {
        let mut c = CoreStats::default();
        c.record_batch(0);
        assert_eq!(c.batches(), 0);
        c.record_batch(1);
        c.record_batch(32);
        c.record_batch(32);
        assert_eq!(c.batches(), 3);
        assert_eq!(c.batch_hist[0], 1);
        assert_eq!(c.batch_hist[5], 2);
    }

    #[test]
    fn merge_adds_counters_and_maxes_hwms() {
        let mut a = CoreStats {
            processed: 3,
            rx_occupancy_hwm: 10,
            ring_occupancy_hwm: 1,
            ..CoreStats::default()
        };
        let b = CoreStats {
            processed: 4,
            redirected_in: 2,
            rx_occupancy_hwm: 7,
            ring_occupancy_hwm: 5,
            ..CoreStats::default()
        };
        a.merge(&b);
        assert_eq!(a.processed, 7);
        assert_eq!(a.redirected_in, 2);
        assert_eq!(a.rx_occupancy_hwm, 10);
        assert_eq!(a.ring_occupancy_hwm, 5);
    }

    #[test]
    fn occupancy_observers_are_monotone() {
        let mut c = CoreStats::default();
        c.observe_rx_depth(4);
        c.observe_rx_depth(2);
        c.observe_ring_depth(1);
        c.observe_ring_depth(9);
        assert_eq!(c.rx_occupancy_hwm, 4);
        assert_eq!(c.ring_occupancy_hwm, 9);
    }

    #[test]
    fn json_telemetry_block_is_complete_and_parses_shapewise() {
        let mut s = MiddleboxStats::new(2);
        s.offered = 10;
        s.forwarded = 8;
        s.nf_drops = 1;
        s.ring_drops = 1;
        s.per_core[1].processed = 8;
        s.per_core[1].record_batch(3);
        let j = s.to_json();
        for key in [
            "\"offered\":10",
            "\"forwarded\":8",
            "\"nf_drops\":1",
            "\"ring_drops\":1",
            "\"unaccounted\":0",
            "\"per_core\":[",
            "\"batch_hist\":[0,0,1,0,0,0,0,0]",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }
}
