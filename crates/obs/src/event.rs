//! Typed dataplane trace events.
//!
//! One event is 48 bytes as recorded and 24 once its storage chunk is
//! sealed (see [`crate::ring`]); recording one is a bounds-checked `Vec`
//! push into a chunked per-core ring plus (in the threaded runtime) a
//! share of one per-batch claim on the sequence counter — cheap enough to
//! keep on under load, and a full ring is asked first, so an event it
//! would refuse costs neither. Timestamps are whatever grain the
//! runtime reads its clock at: exact in the simulator; on threads one
//! read per ingress burst and per batch boundary, shared by the packets
//! it covers.

use serde::{Deserialize, Serialize};

/// What happened. The packet life cycle is:
///
/// `IngressEnqueue → (RedirectOut → RedirectIn)? → NfStart → NfDone`
///
/// with [`EventKind::Drop`] terminating the path at the NIC, the
/// receive queue, or the inter-core ring, and [`EventKind::Drain`]
/// marking batch boundaries (no packet of its own).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[repr(u8)]
pub enum EventKind {
    /// Packet admitted by the NIC and pushed onto a core's receive
    /// queue. `core` is the steered queue.
    IngressEnqueue,
    /// A dequeue batch (or, in the simulator, a busy burst) ended on
    /// `core`; `aux` is the batch size. Carries no packet.
    Drain,
    /// A connection packet left `core` for a designated core's ring;
    /// `aux` is the target core.
    RedirectOut,
    /// A redirected descriptor was picked up by its designated `core`;
    /// `aux` is the ring transfer latency in ticks.
    RedirectIn,
    /// The NF began executing on `core`.
    NfStart,
    /// The NF finished on `core`; `aux` is 0 for a Forward verdict and
    /// 1 for an NF drop.
    NfDone,
    /// The packet was lost; `aux` is a [`DropKind`] discriminant.
    Drop,
}

impl EventKind {
    /// All kinds, in discriminant order (indexable by `as usize`).
    pub const ALL: [EventKind; 7] = [
        EventKind::IngressEnqueue,
        EventKind::Drain,
        EventKind::RedirectOut,
        EventKind::RedirectIn,
        EventKind::NfStart,
        EventKind::NfDone,
        EventKind::Drop,
    ];

    /// Stable wire name (used by the trace file format).
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::IngressEnqueue => "ingress_enqueue",
            EventKind::Drain => "drain",
            EventKind::RedirectOut => "redirect_out",
            EventKind::RedirectIn => "redirect_in",
            EventKind::NfStart => "nf_start",
            EventKind::NfDone => "nf_done",
            EventKind::Drop => "drop",
        }
    }

    /// Inverse of [`EventKind::as_str`].
    pub fn parse(s: &str) -> Option<EventKind> {
        EventKind::ALL.into_iter().find(|k| k.as_str() == s)
    }
}

impl core::fmt::Display for EventKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where a dropped packet was lost (the `aux` payload of
/// [`EventKind::Drop`]). The first three mirror the pre-NF drop
/// counters of `MiddleboxStats`; [`DropKind::DeadCore`] is part of its
/// `lost_packets`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[repr(u8)]
pub enum DropKind {
    /// Lost in the NIC to the Flow Director rate cap.
    NicCap,
    /// Receive-queue overflow.
    QueueFull,
    /// Inter-core descriptor-ring overflow.
    RingFull,
    /// Steered to the queue of a core that had failed: the NIC keeps
    /// steering there until it is reprogrammed, and nothing drains it.
    /// Trace-only — it feeds no sampled series and no flight ring.
    DeadCore,
}

impl DropKind {
    /// Encode for [`TraceEvent::aux`].
    pub fn to_aux(self) -> u64 {
        self as u64
    }

    /// Stable name for rendering and telemetry.
    pub fn as_str(self) -> &'static str {
        match self {
            DropKind::NicCap => "nic_cap",
            DropKind::QueueFull => "queue_full",
            DropKind::RingFull => "ring_full",
            DropKind::DeadCore => "dead_core",
        }
    }

    /// Decode from [`TraceEvent::aux`].
    pub fn from_aux(aux: u64) -> Option<DropKind> {
        match aux {
            0 => Some(DropKind::NicCap),
            1 => Some(DropKind::QueueFull),
            2 => Some(DropKind::RingFull),
            3 => Some(DropKind::DeadCore),
            _ => None,
        }
    }
}

/// One dataplane event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Monotonic per-middlebox sequence number: the global order events
    /// were recorded in, across all cores.
    pub seq: u64,
    /// Timestamp in the producing runtime's native ticks (see
    /// [`crate::TraceMeta::ticks_per_us`]).
    pub ts: u64,
    /// Core (worker) the event happened on. For [`EventKind::Drop`]
    /// with [`DropKind::RingFull`] this is the *target* core whose ring
    /// was full; for NIC-level drops it is the queue the packet would
    /// have been steered to.
    pub core: u16,
    /// Event type.
    pub kind: EventKind,
    /// Stable hash of the packet's flow key (direction-insensitive),
    /// or 0 for packets without a parseable five-tuple and for
    /// [`EventKind::Drain`].
    pub flow: u64,
    /// Per-middlebox packet ordinal, assigned in wire arrival order —
    /// the ground truth the reordering analysis compares completion
    /// order against. 0 is a valid id; [`EventKind::Drain`] events
    /// carry `u64::MAX`.
    pub pkt: u64,
    /// Kind-specific payload (see [`EventKind`] variants).
    pub aux: u64,
}

impl TraceEvent {
    /// The `pkt` value used by events that carry no packet.
    pub const NO_PKT: u64 = u64::MAX;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_round_trip() {
        for k in EventKind::ALL {
            assert_eq!(EventKind::parse(k.as_str()), Some(k));
        }
        assert_eq!(EventKind::parse("nonsense"), None);
    }

    #[test]
    fn drop_kind_round_trips_through_aux() {
        for d in [
            DropKind::NicCap,
            DropKind::QueueFull,
            DropKind::RingFull,
            DropKind::DeadCore,
        ] {
            assert_eq!(DropKind::from_aux(d.to_aux()), Some(d));
        }
        assert_eq!(DropKind::from_aux(99), None);
    }
}
