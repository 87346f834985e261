//! The receiving endpoint: cumulative ACKs, out-of-order buffering,
//! duplicate-ACK generation, delayed ACKs.
//!
//! This is where packet reordering becomes visible to the sender: every
//! out-of-order arrival triggers an *immediate* ACK carrying the
//! unchanged cumulative sequence number — a duplicate ACK — and a SACK
//! block. The sender's RACK loss detection decides from those SACKs
//! whether a hole is reordering or loss (see [`crate::sender`]); the
//! magnitude of Sprayer's reordering relative to its reordering window
//! is the crux of the paper's TCP results.

use crate::ranges::SeqRanges;

/// What the receiver wants to transmit after a segment arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckAction {
    /// Send an ACK now, with the cumulative sequence and (if data is
    /// buffered out of order) the first SACK block — Linux always
    /// includes SACK blocks on duplicate ACKs, and the paper's untuned
    /// CUBIC stack has SACK enabled.
    Immediate(AckInfo),
    /// ACK is pending under the delayed-ACK rule; send on the next
    /// trigger (or timer, which bulk transfers rarely hit).
    Delayed,
    /// Nothing to do (pure duplicate of already-received data).
    None,
}

/// Contents of an outgoing ACK.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckInfo {
    /// Cumulative acknowledgement (next expected byte).
    pub ack: u64,
    /// First out-of-order block `[start, end)`, if any (a 1-block SACK).
    pub sack: Option<(u64, u64)>,
    /// Duplicate-SACK block: set when the arriving segment was entirely
    /// old data, i.e. a retransmission of something already received.
    /// Linux senders use DSACKs to detect spurious retransmissions and
    /// undo the window reduction — essential under reordering.
    pub dsack: Option<(u64, u64)>,
}

/// A reassembling receiver for one direction of one connection.
#[derive(Debug, Clone)]
pub struct Receiver {
    /// Next byte expected in order.
    rcv_nxt: u64,
    /// Out-of-order blocks above `rcv_nxt`.
    ooo: SeqRanges,
    /// Delayed-ACK state: number of in-order full segments since the last
    /// ACK was emitted (ACK every second segment, RFC 5681).
    unacked_segments: u32,
    /// Total in-order bytes delivered to the "application".
    delivered: u64,
    /// Start of the out-of-order block most recently added to (RFC 2018
    /// requires the first SACK block to be the most recently received).
    recent_block: Option<u64>,
    /// Counters for diagnostics.
    dup_acks_sent: u64,
    ooo_arrivals: u64,
}

impl Receiver {
    /// A receiver expecting the first byte at `isn`.
    pub fn new(isn: u64) -> Self {
        Receiver {
            rcv_nxt: isn,
            ooo: SeqRanges::default(),
            unacked_segments: 0,
            delivered: 0,
            recent_block: None,
            dup_acks_sent: 0,
            ooo_arrivals: 0,
        }
    }

    /// Next expected sequence number (the cumulative ACK value).
    pub fn rcv_nxt(&self) -> u64 {
        self.rcv_nxt
    }

    /// Total in-order bytes received.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Duplicate ACKs emitted so far.
    pub fn dup_acks_sent(&self) -> u64 {
        self.dup_acks_sent
    }

    /// Out-of-order segment arrivals so far.
    pub fn ooo_arrivals(&self) -> u64 {
        self.ooo_arrivals
    }

    /// Bytes currently buffered out of order.
    pub fn ooo_bytes(&self) -> u64 {
        self.ooo.iter().map(|(s, e)| e - s).sum()
    }

    /// A segment `[seq, seq+len)` arrived. Returns the ACK action.
    pub fn on_segment(&mut self, seq: u64, len: u64) -> AckAction {
        if len == 0 {
            return AckAction::None;
        }
        let end = seq + len;
        if end <= self.rcv_nxt {
            // Entirely old data: the peer retransmitted something we
            // already have. Re-ACK immediately with a DSACK block.
            self.dup_acks_sent += 1;
            let mut info = self.ack_info();
            info.dsack = Some((seq, end));
            return AckAction::Immediate(info);
        }
        if seq > self.rcv_nxt {
            // A hole: buffer and emit a duplicate ACK right away
            // (RFC 5681: an out-of-order segment SHOULD be ACKed
            // immediately), carrying the SACK block.
            self.ooo_arrivals += 1;
            // Remember which (merged) block this arrival landed in: the
            // SACK option must lead with the most recent block.
            self.recent_block = Some(self.ooo.insert(seq, end).0);
            self.dup_acks_sent += 1;
            return AckAction::Immediate(self.ack_info());
        }
        // In-order (possibly overlapping the left edge).
        let old_nxt = self.rcv_nxt;
        self.rcv_nxt = end;
        self.drain_ooo();
        self.delivered += self.rcv_nxt - old_nxt;

        if self.rcv_nxt > end {
            // This segment filled a hole: ACK immediately (RFC 5681).
            self.unacked_segments = 0;
            return AckAction::Immediate(self.ack_info());
        }
        // Plain in-order delivery: delayed ACK, every second segment.
        self.unacked_segments += 1;
        if self.unacked_segments >= 2 {
            self.unacked_segments = 0;
            AckAction::Immediate(self.ack_info())
        } else {
            AckAction::Delayed
        }
    }

    /// The cumulative ACK plus the first SACK block — the block most
    /// recently added to, falling back to the lowest block (RFC 2018
    /// block-ordering rule, which RACK-style senders depend on for fresh
    /// delivery evidence).
    pub fn ack_info(&self) -> AckInfo {
        let sack = self
            .recent_block
            .and_then(|s| self.ooo.starting_at(s))
            .or_else(|| self.ooo.first());
        AckInfo {
            ack: self.rcv_nxt,
            sack,
            dsack: None,
        }
    }

    /// Force out any pending delayed ACK (the scenario's delayed-ACK
    /// timer, typically 40 ms in Linux).
    pub fn flush_delayed(&mut self) -> Option<u64> {
        if self.unacked_segments > 0 {
            self.unacked_segments = 0;
            Some(self.rcv_nxt)
        } else {
            None
        }
    }

    fn drain_ooo(&mut self) {
        while let Some((s, e)) = self.ooo.first() {
            if s > self.rcv_nxt {
                break;
            }
            self.ooo.pop_first();
            self.rcv_nxt = self.rcv_nxt.max(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const SEG: u64 = 1460;

    fn imm(ack: u64, sack: Option<(u64, u64)>) -> AckAction {
        AckAction::Immediate(AckInfo {
            ack,
            sack,
            dsack: None,
        })
    }

    #[test]
    fn in_order_segments_delay_every_other_ack() {
        let mut r = Receiver::new(0);
        assert_eq!(r.on_segment(0, SEG), AckAction::Delayed);
        assert_eq!(r.on_segment(SEG, SEG), imm(2 * SEG, None));
        assert_eq!(r.on_segment(2 * SEG, SEG), AckAction::Delayed);
        assert_eq!(r.delivered(), 3 * SEG);
        assert_eq!(r.dup_acks_sent(), 0);
    }

    #[test]
    fn out_of_order_triggers_immediate_dup_ack_with_sack() {
        let mut r = Receiver::new(0);
        r.on_segment(0, SEG);
        // Segment 2 arrives before segment 1: dup ACK carries the block.
        assert_eq!(
            r.on_segment(2 * SEG, SEG),
            imm(SEG, Some((2 * SEG, 3 * SEG)))
        );
        assert_eq!(r.dup_acks_sent(), 1);
        assert_eq!(r.ooo_bytes(), SEG);
        // The hole fills: immediate ACK for everything, no blocks left.
        assert_eq!(r.on_segment(SEG, SEG), imm(3 * SEG, None));
        assert_eq!(r.ooo_bytes(), 0);
        assert_eq!(r.delivered(), 3 * SEG);
    }

    #[test]
    fn multiple_holes_fill_in_any_order() {
        let mut r = Receiver::new(0);
        // Receive segments 0,2,4 then 3 then 1.
        r.on_segment(0, SEG);
        r.on_segment(2 * SEG, SEG);
        r.on_segment(4 * SEG, SEG);
        r.on_segment(3 * SEG, SEG);
        assert_eq!(r.rcv_nxt(), SEG);
        // After 3 fills, one merged ooo block [2*SEG, 5*SEG) remains.
        assert_eq!(r.ack_info().sack, Some((2 * SEG, 5 * SEG)));
        let act = r.on_segment(SEG, SEG);
        assert_eq!(act, imm(5 * SEG, None));
        assert_eq!(r.delivered(), 5 * SEG);
    }

    #[test]
    fn duplicate_old_data_is_reacked_with_dsack() {
        let mut r = Receiver::new(0);
        r.on_segment(0, SEG);
        r.on_segment(SEG, SEG);
        assert_eq!(
            r.on_segment(0, SEG),
            AckAction::Immediate(AckInfo {
                ack: 2 * SEG,
                sack: None,
                dsack: Some((0, SEG)),
            })
        );
    }

    #[test]
    fn overlapping_ooo_blocks_merge() {
        let mut r = Receiver::new(0);
        r.on_segment(2 * SEG, SEG);
        r.on_segment(2 * SEG + SEG / 2, SEG); // overlaps previous block
        assert_eq!(r.ooo_bytes(), SEG + SEG / 2);
        r.on_segment(0, 2 * SEG);
        assert_eq!(r.rcv_nxt(), 3 * SEG + SEG / 2);
    }

    #[test]
    fn reordered_burst_counts_dup_acks() {
        // Three consecutive segments arrive fully reversed after the
        // first: 0, 3, 2, 1 -> two dup ACKs (for 3 and 2), then a fill.
        let mut r = Receiver::new(0);
        r.on_segment(0, SEG);
        r.on_segment(3 * SEG, SEG);
        r.on_segment(2 * SEG, SEG);
        assert_eq!(r.dup_acks_sent(), 2);
        assert_eq!(r.on_segment(SEG, SEG), imm(4 * SEG, None));
    }

    #[test]
    fn flush_delayed_emits_pending_ack() {
        let mut r = Receiver::new(0);
        r.on_segment(0, SEG);
        assert_eq!(r.flush_delayed(), Some(SEG));
        assert_eq!(r.flush_delayed(), None);
    }

    #[test]
    fn zero_length_segment_is_ignored() {
        let mut r = Receiver::new(0);
        assert_eq!(r.on_segment(0, 0), AckAction::None);
        assert_eq!(r.rcv_nxt(), 0);
    }

    #[test]
    fn nonzero_isn_respected() {
        let mut r = Receiver::new(1_000_000);
        assert_eq!(r.on_segment(1_000_000, SEG), AckAction::Delayed);
        assert_eq!(r.rcv_nxt(), 1_000_000 + SEG);
    }

    /// One arrival, placed relative to the reference's `rcv_nxt`: up to
    /// three segments back (old data) to fifteen ahead, a quarter of
    /// them off the segment grid, with full-sized or arbitrary lengths.
    #[derive(Debug, Clone)]
    enum Op {
        Segment {
            back: u64,
            ahead: u64,
            off_grid: Option<u64>,
            len: u64,
        },
        Flush,
    }

    fn segment() -> impl Strategy<Value = Op> {
        (
            0u64..4,
            0u64..16,
            (0u8..4, 1u64..SEG),
            prop_oneof![Just(SEG), 0u64..3 * SEG],
        )
            .prop_map(|(back, ahead, (grid, bytes), len)| Op::Segment {
                back,
                ahead,
                off_grid: (grid == 0).then_some(bytes),
                len,
            })
    }

    fn op() -> impl Strategy<Value = Op> {
        // Two segment arms to one flush: the strategies carry no weights.
        prop_oneof![segment(), segment(), Just(Op::Flush)]
    }

    proptest! {
        /// Every arrival gets the ACK action the pre-`SeqRanges`
        /// receiver gave, and every observable agrees after it.
        #[test]
        fn receiver_matches_reference(
            isn in prop_oneof![Just(0u64), 0u64..1_000_000],
            ops in proptest::collection::vec(op(), 1..120),
        ) {
            let mut r = Receiver::new(isn);
            let mut model = super::reference::Receiver::new(isn);
            for op in ops {
                match op {
                    Op::Segment { back, ahead, off_grid, len } => {
                        let seq = (model.rcv_nxt() + ahead * SEG + off_grid.unwrap_or(0))
                            .saturating_sub(back * SEG);
                        prop_assert_eq!(r.on_segment(seq, len), model.on_segment(seq, len));
                    }
                    Op::Flush => prop_assert_eq!(r.flush_delayed(), model.flush_delayed()),
                }
                prop_assert_eq!(r.rcv_nxt(), model.rcv_nxt());
                prop_assert_eq!(r.delivered(), model.delivered());
                prop_assert_eq!(r.dup_acks_sent(), model.dup_acks_sent());
                prop_assert_eq!(r.ooo_arrivals(), model.ooo_arrivals());
                prop_assert_eq!(r.ooo_bytes(), model.ooo_bytes());
                prop_assert_eq!(r.ack_info(), model.ack_info());
            }
        }
    }
}

/// The receiver as it was before [`SeqRanges`], kept verbatim as the
/// reference the differential test compares against.
#[cfg(test)]
mod reference {
    use super::{AckAction, AckInfo};
    use std::collections::BTreeMap;

    /// A reassembling receiver for one direction of one connection.
    #[derive(Debug, Clone)]
    pub struct Receiver {
        /// Next byte expected in order.
        rcv_nxt: u64,
        /// Out-of-order blocks: start → end (exclusive), non-overlapping,
        /// non-adjacent.
        ooo: BTreeMap<u64, u64>,
        /// Delayed-ACK state: number of in-order full segments since the last
        /// ACK was emitted (ACK every second segment, RFC 5681).
        unacked_segments: u32,
        /// Total in-order bytes delivered to the "application".
        delivered: u64,
        /// Start of the out-of-order block most recently added to (RFC 2018
        /// requires the first SACK block to be the most recently received).
        recent_block: Option<u64>,
        /// Counters for diagnostics.
        dup_acks_sent: u64,
        ooo_arrivals: u64,
    }

    impl Receiver {
        /// A receiver expecting the first byte at `isn`.
        pub fn new(isn: u64) -> Self {
            Receiver {
                rcv_nxt: isn,
                ooo: BTreeMap::new(),
                unacked_segments: 0,
                delivered: 0,
                recent_block: None,
                dup_acks_sent: 0,
                ooo_arrivals: 0,
            }
        }

        /// Next expected sequence number (the cumulative ACK value).
        pub fn rcv_nxt(&self) -> u64 {
            self.rcv_nxt
        }

        /// Total in-order bytes received.
        pub fn delivered(&self) -> u64 {
            self.delivered
        }

        /// Duplicate ACKs emitted so far.
        pub fn dup_acks_sent(&self) -> u64 {
            self.dup_acks_sent
        }

        /// Out-of-order segment arrivals so far.
        pub fn ooo_arrivals(&self) -> u64 {
            self.ooo_arrivals
        }

        /// Bytes currently buffered out of order.
        pub fn ooo_bytes(&self) -> u64 {
            self.ooo.iter().map(|(&s, &e)| e - s).sum()
        }

        /// A segment `[seq, seq+len)` arrived. Returns the ACK action.
        pub fn on_segment(&mut self, seq: u64, len: u64) -> AckAction {
            if len == 0 {
                return AckAction::None;
            }
            let end = seq + len;
            if end <= self.rcv_nxt {
                // Entirely old data: the peer retransmitted something we
                // already have. Re-ACK immediately with a DSACK block.
                self.dup_acks_sent += 1;
                let mut info = self.ack_info();
                info.dsack = Some((seq, end));
                return AckAction::Immediate(info);
            }
            if seq > self.rcv_nxt {
                // A hole: buffer and emit a duplicate ACK right away
                // (RFC 5681: an out-of-order segment SHOULD be ACKed
                // immediately), carrying the SACK block.
                self.ooo_arrivals += 1;
                self.insert_ooo(seq, end);
                // Remember which (merged) block this arrival landed in: the
                // SACK option must lead with the most recent block.
                self.recent_block = self.ooo.range(..=seq).next_back().map(|(&s, _)| s);
                self.dup_acks_sent += 1;
                return AckAction::Immediate(self.ack_info());
            }
            // In-order (possibly overlapping the left edge).
            let old_nxt = self.rcv_nxt;
            self.rcv_nxt = end;
            self.drain_ooo();
            self.delivered += self.rcv_nxt - old_nxt;

            if self.rcv_nxt > end {
                // This segment filled a hole: ACK immediately (RFC 5681).
                self.unacked_segments = 0;
                return AckAction::Immediate(self.ack_info());
            }
            // Plain in-order delivery: delayed ACK, every second segment.
            self.unacked_segments += 1;
            if self.unacked_segments >= 2 {
                self.unacked_segments = 0;
                AckAction::Immediate(self.ack_info())
            } else {
                AckAction::Delayed
            }
        }

        /// The cumulative ACK plus the first SACK block — the block most
        /// recently added to, falling back to the lowest block (RFC 2018
        /// block-ordering rule, which RACK-style senders depend on for fresh
        /// delivery evidence).
        pub fn ack_info(&self) -> AckInfo {
            let sack = self
                .recent_block
                .and_then(|s| self.ooo.get(&s).map(|&e| (s, e)))
                .or_else(|| self.ooo.first_key_value().map(|(&s, &e)| (s, e)));
            AckInfo {
                ack: self.rcv_nxt,
                sack,
                dsack: None,
            }
        }

        /// Force out any pending delayed ACK (the scenario's delayed-ACK
        /// timer, typically 40 ms in Linux).
        pub fn flush_delayed(&mut self) -> Option<u64> {
            if self.unacked_segments > 0 {
                self.unacked_segments = 0;
                Some(self.rcv_nxt)
            } else {
                None
            }
        }

        fn insert_ooo(&mut self, mut start: u64, mut end: u64) {
            start = start.max(self.rcv_nxt);
            // Merge any overlapping or adjacent blocks.
            let overlapping: Vec<u64> = self
                .ooo
                .range(..=end)
                .filter(|&(&s, &e)| e >= start || s <= end)
                .map(|(&s, _)| s)
                .collect();
            for s in overlapping {
                let e = self.ooo[&s];
                if e < start || s > end {
                    continue;
                }
                start = start.min(s);
                end = end.max(e);
                self.ooo.remove(&s);
            }
            self.ooo.insert(start, end);
        }

        fn drain_ooo(&mut self) {
            while let Some((&s, &e)) = self.ooo.first_key_value() {
                if s > self.rcv_nxt {
                    break;
                }
                self.ooo.remove(&s);
                if e > self.rcv_nxt {
                    self.rcv_nxt = e;
                }
            }
        }
    }
}
