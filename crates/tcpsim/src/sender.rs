//! The sending endpoint: window-limited bulk transfer with RACK-style
//! loss detection over a SACK scoreboard and a pluggable congestion
//! controller.
//!
//! The paper runs "the standard Linux TCP implementation (CUBIC),
//! without any kind of tuning" (§5). On the testbed's kernel (Linux 4.9)
//! that stack detects loss with **RACK** (time-based: a segment is lost
//! when a segment sent *later* has been delivered and more than a
//! reordering window has passed), recovers holes using **SACK**
//! information, rescues silent tails with **TLP probes**, and uses
//! **DSACKs** both to undo spurious window reductions and to widen the
//! reordering window. This combination is exactly what makes moderate
//! packet reordering — Sprayer's cost — survivable, so the sender here
//! implements all four mechanisms:
//!
//! * SACK scoreboard + RFC 6675-style `pipe` accounting (no NewReno
//!   dup-ACK window inflation, which runs away under reordering);
//! * RACK loss marking with an adaptive reordering window
//!   (`reo_wnd = k·SRTT/4`, `k` grows on DSACK evidence, like Linux's
//!   dynamic RACK reo_wnd);
//! * tail-loss probes at ~2×SRTT of *cumulative-ACK* silence;
//! * DSACK undo of spurious congestion-window reductions.
//!
//! The scoreboard is flat and indexed by sequence number: the segments
//! in flight are a ring of slots on the `mss` grid, and the SACKed bytes
//! one sorted range vector, so an ACK costs no allocation and no tree
//! walk.

use crate::congestion::CongestionControl;
use crate::ranges::SeqRanges;
use crate::receiver::AckInfo;
use crate::rtt::RttEstimator;
use sprayer_sim::Time;
use std::collections::VecDeque;

/// A data segment the sender wants delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// First byte's sequence number.
    pub seq: u64,
    /// Payload length in bytes.
    pub len: u32,
    /// Whether this is a retransmission.
    pub is_retransmit: bool,
}

/// Sender parameters.
#[derive(Debug, Clone)]
pub struct SenderConfig {
    /// Maximum segment size in bytes (1460 for Ethernet IPv4).
    pub mss: u32,
    /// Initial window in segments (RFC 6928: 10).
    pub init_cwnd_segments: u32,
    /// Total bytes to transfer, or `None` for an unbounded (iperf-style
    /// time-limited) transfer.
    pub total_bytes: Option<u64>,
    /// Minimum retransmission timeout (Linux: 200 ms).
    pub min_rto: Time,
    /// Send-window clamp in bytes: the peer's receive window / socket
    /// buffer bound (Linux tcp_wmem-style autotuning cap). Keeps the
    /// window finite on loss-free paths.
    pub max_window_bytes: u64,
}

impl Default for SenderConfig {
    fn default() -> Self {
        SenderConfig {
            mss: 1460,
            init_cwnd_segments: 10,
            total_bytes: None,
            min_rto: Time::from_ms(200),
            max_window_bytes: 2 * 1024 * 1024,
        }
    }
}

/// One transmitted segment not yet cumulatively acknowledged.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Latest transmission.
    send_time: Time,
    len: u32,
    /// Retransmitted at least once, so `send_time` is no longer the
    /// original transmission's.
    resent: bool,
}

/// The segments in flight, oldest first: slot `i` starts at
/// `head + i·mss`.
///
/// New data leaves in `mss`-sized segments from sequence 0, and only a
/// bounded transfer's last segment is short, so every segment starts on
/// the `mss` grid and a sequence number finds its slot by one division.
/// A cumulative ACK pops slots from the front; a slot the ACK ends
/// inside stays, so `head` may lie below `snd_una`.
#[derive(Debug)]
struct Flight {
    mss: u64,
    /// Sequence number of `slots[0]`.
    head: u64,
    slots: VecDeque<Slot>,
}

impl Flight {
    fn new(mss: u32) -> Self {
        assert!(mss > 0, "mss must be positive");
        Flight {
            mss: u64::from(mss),
            head: 0,
            slots: VecDeque::new(),
        }
    }

    fn seq_of(&self, index: usize) -> u64 {
        self.head + index as u64 * self.mss
    }

    /// The slot starting exactly at `seq`.
    fn get_mut(&mut self, seq: u64) -> Option<&mut Slot> {
        let offset = seq.checked_sub(self.head)?;
        if offset % self.mss != 0 {
            return None;
        }
        let index = usize::try_from(offset / self.mss).ok()?;
        self.slots.get_mut(index)
    }

    /// Index of the first slot starting at or above `seq`.
    fn index_from(&self, seq: u64) -> usize {
        let index = seq.saturating_sub(self.head).div_ceil(self.mss);
        usize::try_from(index).map_or(self.slots.len(), |i| i.min(self.slots.len()))
    }

    /// The slots starting in `[start, end)`.
    fn starting_in(&self, start: u64, end: u64) -> impl Iterator<Item = &Slot> {
        self.slots
            .range(self.index_from(start)..self.index_from(end))
    }

    /// `(seq, slot)` for every slot starting at or above `seq`, ascending.
    fn at_or_above(&self, seq: u64) -> impl Iterator<Item = (u64, &Slot)> {
        let first = self.index_from(seq);
        self.slots
            .range(first..)
            .enumerate()
            .map(move |(i, slot)| (self.seq_of(first + i), slot))
    }

    /// Sequence number of the newest slot.
    fn last_seq(&self) -> Option<u64> {
        self.slots.len().checked_sub(1).map(|i| self.seq_of(i))
    }

    fn push(&mut self, seq: u64, slot: Slot) {
        if self.slots.is_empty() {
            self.head = seq;
        }
        debug_assert_eq!(seq, self.seq_of(self.slots.len()), "off the mss grid");
        self.slots.push_back(slot);
    }

    /// Remove the oldest slot if `ack` covers all of it.
    fn pop_acked(&mut self, ack: u64) -> Option<Slot> {
        let front = self.slots.front()?;
        if self.head + u64::from(front.len) > ack {
            return None;
        }
        self.head += self.mss;
        self.slots.pop_front()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RecoveryKind {
    /// Entered via RACK loss detection.
    Fast,
    /// Entered via retransmission timeout.
    Rto,
}

/// Loss-recovery and transfer statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct SenderStats {
    /// Segments transmitted (including retransmissions).
    pub segments_sent: u64,
    /// Retransmitted segments.
    pub retransmits: u64,
    /// Fast-recovery episodes (RACK-detected loss).
    pub fast_retransmits: u64,
    /// Retransmission timeouts fired.
    pub rtos: u64,
    /// Tail-loss probes fired.
    pub probes: u64,
    /// Recoveries undone after DSACK evidence (spurious, reordering).
    pub spurious_recoveries: u64,
}

/// A bulk-transfer TCP sender.
///
/// Clock contract: the `now` passed to [`Sender::poll_segment`],
/// [`Sender::on_ack`], [`Sender::on_timer`] and [`Sender::on_rto`] never
/// decreases from one call to the next. RACK's scan relies on it (see
/// `rack_detect`), and the congestion controllers panic on a clock that
/// runs backwards.
#[derive(Debug)]
pub struct Sender {
    cfg: SenderConfig,
    cc: Box<dyn CongestionControl>,
    rtt: RttEstimator,
    /// Oldest unacknowledged byte.
    snd_una: u64,
    /// Next new byte to transmit.
    snd_nxt: u64,
    /// In recovery until `snd_una` passes `.1`.
    recovery: Option<(RecoveryKind, u64)>,
    rto_backoff: u32,
    rto_deadline: Option<Time>,
    flight: Flight,
    /// SACK scoreboard: merged `[start, end)` ranges above `snd_una`.
    sacked: SeqRanges,
    /// Retransmissions queued by the recovery logic.
    pending_retransmits: VecDeque<u64>,
    /// RACK: latest original-transmission time among delivered segments.
    rack_time: Option<Time>,
    /// RACK: RTT of the most recently delivered segment (tracks queue
    /// growth faster than the smoothed estimate).
    rack_rtt: Option<Time>,
    /// RACK reordering window in quarters of SRTT (1 = SRTT/4). Grows on
    /// DSACK evidence, saturating at 8 (= 2×SRTT), like Linux's dynamic
    /// reo_wnd.
    reo_quarters: u32,
    /// A window reduction is pending possible undo.
    undo_armed: bool,
    /// Retransmissions sent in the current episode not yet proven
    /// unnecessary; undo fires only when this reaches zero (Linux's
    /// `undo_retrans` rule: one surviving genuine retransmission vetoes
    /// the undo).
    undo_retrans: i64,
    /// Tail-loss-probe deadline.
    probe_deadline: Option<Time>,
    probe_backoff: u32,
    /// Sequence most recently resent by a probe: a DSACK covering it is
    /// the probe's own echo, not evidence of a spurious recovery.
    probe_echo: Option<u64>,
    stats: SenderStats,
}

impl Sender {
    /// A sender starting at sequence 0 over the given controller.
    pub fn new(cfg: SenderConfig, cc: Box<dyn CongestionControl>) -> Self {
        let rtt = RttEstimator::new(cfg.min_rto);
        let flight = Flight::new(cfg.mss);
        Sender {
            cfg,
            cc,
            rtt,
            snd_una: 0,
            snd_nxt: 0,
            recovery: None,
            rto_backoff: 0,
            rto_deadline: None,
            flight,
            sacked: SeqRanges::default(),
            pending_retransmits: VecDeque::new(),
            rack_time: None,
            rack_rtt: None,
            reo_quarters: 1,
            undo_armed: false,
            undo_retrans: 0,
            probe_deadline: None,
            probe_backoff: 0,
            probe_echo: None,
            stats: SenderStats::default(),
        }
    }

    /// Bytes acknowledged by the peer so far.
    pub fn delivered(&self) -> u64 {
        self.snd_una
    }

    /// Current effective send window in bytes (congestion window clamped
    /// by the peer's receive window).
    pub fn cwnd(&self) -> u64 {
        self.cc.cwnd_bytes().min(self.cfg.max_window_bytes)
    }

    /// Bytes in flight (sequence-space occupancy).
    pub fn flight_size(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// RFC 6675-style pipe estimate: flight minus SACKed bytes. New data
    /// is admitted while `pipe < cwnd`, which keeps the sender from the
    /// classic NewReno inflation runaway during long recoveries.
    pub fn pipe(&self) -> u64 {
        let sacked: u64 = self
            .sacked
            .iter()
            .map(|(s, e)| e.min(self.snd_nxt).saturating_sub(s.max(self.snd_una)))
            .sum();
        self.flight_size().saturating_sub(sacked)
    }

    /// Transfer statistics.
    pub fn stats(&self) -> SenderStats {
        self.stats
    }

    /// Smoothed RTT estimate.
    pub fn srtt(&self) -> Option<Time> {
        self.rtt.srtt()
    }

    /// The current RACK reordering window.
    pub fn reo_wnd(&self) -> Time {
        let base = self.rtt.srtt().unwrap_or(Time::from_us(400));
        Time((base.0 / 4).saturating_mul(u64::from(self.reo_quarters)))
    }

    /// True when a bounded transfer has been fully acknowledged.
    pub fn finished(&self) -> bool {
        matches!(self.cfg.total_bytes, Some(total) if self.snd_una >= total)
    }

    /// True while the sender is in loss recovery.
    pub fn in_recovery(&self) -> bool {
        self.recovery.is_some()
    }

    /// When the retransmission timer fires next, if armed.
    pub fn rto_deadline(&self) -> Option<Time> {
        self.rto_deadline
    }

    /// The earliest pending timer (RTO or tail-loss probe). Drive it
    /// with [`Sender::on_timer`].
    pub fn timer_deadline(&self) -> Option<Time> {
        match (self.rto_deadline, self.probe_deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Fire whichever timer is due at `now`.
    pub fn on_timer(&mut self, now: Time) {
        if self.rto_deadline.is_some_and(|d| now >= d) {
            self.on_rto(now);
        } else if self.probe_deadline.is_some_and(|d| now >= d) {
            self.on_probe_timeout(now);
        }
    }

    fn arm_rto(&mut self, now: Time) {
        let backoff = 1u64 << self.rto_backoff.min(16);
        self.rto_deadline = Some(now + Time(self.rtt.rto().0.saturating_mul(backoff)));
    }

    fn arm_probe(&mut self, now: Time) {
        if self.flight_size() == 0 {
            self.probe_deadline = None;
            return;
        }
        // PTO = max(2*SRTT, 1 ms), doubled per unanswered probe.
        let base = self.rtt.srtt().map_or(Time::from_ms(10), |s| Time(s.0 * 2));
        let pto = Time(base.0.max(Time::from_ms(1).0));
        let backoff = 1u64 << self.probe_backoff.min(10);
        self.probe_deadline = Some(now + Time(pto.0.saturating_mul(backoff)));
    }

    /// Cumulative-ACK silence for a probe interval: resend the left edge
    /// to provoke a (D)SACK response instead of stalling until the RTO.
    fn on_probe_timeout(&mut self, now: Time) {
        if self.flight_size() == 0 {
            self.probe_deadline = None;
            return;
        }
        self.stats.probes += 1;
        self.probe_backoff += 1;
        // Linux TLP resends the HIGHEST-sequence segment: the SACK it
        // provokes gives RACK "later-sent was delivered" evidence for
        // every hole below, collapsing a whole lost tail into one
        // recovery round. (Probing the left edge would reveal nothing
        // and recover one segment per timeout.)
        let probe_seq = self
            .flight
            .last_seq()
            .filter(|&s| s >= self.snd_una && !self.is_sacked(s))
            .unwrap_or(self.snd_una);
        if !self.is_sacked(probe_seq) && !self.pending_retransmits.contains(&probe_seq) {
            self.pending_retransmits.push_front(probe_seq);
            self.probe_echo = Some(probe_seq);
        }
        self.arm_probe(now);
    }

    /// Ask for the next segment to transmit at `now`, if the window and
    /// data supply allow one. Call repeatedly until it returns `None`.
    pub fn poll_segment(&mut self, now: Time) -> Option<Segment> {
        // Retransmissions take priority and replace data already counted
        // in the pipe.
        while let Some(seq) = self.pending_retransmits.pop_front() {
            if seq < self.snd_una || self.is_sacked(seq) {
                continue; // already delivered while queued
            }
            let len = match self.flight.get_mut(seq) {
                Some(slot) => {
                    slot.resent = true;
                    slot.send_time = now;
                    slot.len
                }
                None => self.cfg.mss,
            };
            self.stats.segments_sent += 1;
            self.stats.retransmits += 1;
            if self.undo_armed {
                self.undo_retrans += 1;
            }
            self.arm_rto(now);
            if self.probe_deadline.is_none() {
                self.arm_probe(now);
            }
            return Some(Segment {
                seq,
                len,
                is_retransmit: true,
            });
        }

        // New data, limited by the send window (pipe-based) and the
        // transfer size.
        let cwnd = self.cwnd();
        if self.pipe() + u64::from(self.cfg.mss) > cwnd {
            return None;
        }
        let remaining = match self.cfg.total_bytes {
            Some(total) => total.saturating_sub(self.snd_nxt),
            None => u64::MAX,
        };
        if remaining == 0 {
            return None;
        }
        let len = u64::from(self.cfg.mss).min(remaining) as u32;
        let seq = self.snd_nxt;
        self.snd_nxt += u64::from(len);
        self.flight.push(
            seq,
            Slot {
                send_time: now,
                len,
                resent: false,
            },
        );
        self.stats.segments_sent += 1;
        if self.rto_deadline.is_none() {
            self.arm_rto(now);
        }
        if self.probe_deadline.is_none() {
            self.arm_probe(now);
        }
        Some(Segment {
            seq,
            len,
            is_retransmit: false,
        })
    }

    fn is_sacked(&self, seq: u64) -> bool {
        self.sacked.containing(seq).is_some()
    }

    fn record_sack(&mut self, block: (u64, u64)) {
        let (start, end) = block;
        if end <= start || end <= self.snd_una {
            return;
        }
        let start = start.max(self.snd_una);
        // RACK: delivered segments advance the rack clock. Unlike RTT
        // sampling, this includes retransmissions (their latest transmit
        // time) — without that, a rescue retransmission's SACK would
        // never produce loss evidence for the holes below it.
        let latest = self
            .flight
            .starting_in(start, end)
            .map(|s| s.send_time)
            .max();
        self.rack_time = self.rack_time.max(latest);
        self.sacked.insert(start, end);
    }

    /// RACK loss detection: any unsacked in-flight segment whose (latest)
    /// transmission predates the rack clock by more than the reordering
    /// window is deemed lost. Enters recovery (one window reduction per
    /// episode) and queues the retransmissions.
    fn rack_detect(&mut self, now: Time) {
        let Some(rack_time) = self.rack_time else {
            return;
        };
        let reo = self.reo_wnd();
        // Use the larger of the smoothed and the most recent RTT: while a
        // queue is filling, the smoothed value lags and would mis-mark
        // segments that are merely waiting in line.
        let srtt = self.rtt.srtt().unwrap_or(Time::from_ms(1));
        let rtt = self.rack_rtt.map_or(srtt, |r| r.max(srtt));
        let mut lost = [0u64; 16];
        let mut n = 0;
        let mut sacked = self.sacked.cursor();
        // Linux's RACK condition: a segment is lost when (a) something
        // sent after it has been delivered AND (b) a full RTT plus the
        // reordering window has elapsed since its transmission. The +RTT
        // term keeps segments that are merely sitting in a deep FIFO
        // from being marked.
        // Losses cluster at the left edge; bound the scan so detection
        // stays O(1) per ACK (deeper holes surface as snd_una advances).
        for (seq, slot) in self.flight.at_or_above(self.snd_una).take(128) {
            if n == lost.len() {
                break;
            }
            if slot.send_time < rack_time && now >= slot.send_time + rtt + reo {
                if !sacked.contains(seq) {
                    lost[n] = seq;
                    n += 1;
                }
            } else if !slot.resent {
                // Original transmissions leave in sequence order under a
                // monotone clock, and a retransmission only moves a send
                // time later: every slot above this one was sent no
                // earlier, so it fails the time test too.
                break;
            }
        }
        if n == 0 {
            return;
        }
        if self.recovery.is_none() {
            self.cc.on_fast_retransmit(now);
            self.recovery = Some((RecoveryKind::Fast, self.snd_nxt));
            self.undo_armed = true;
            self.undo_retrans = 0;
            self.stats.fast_retransmits += 1;
        }
        for &seq in &lost[..n] {
            if !self.pending_retransmits.contains(&seq) {
                self.pending_retransmits.push_back(seq);
            }
        }
    }

    /// A cumulative ACK arrived, optionally carrying SACK/DSACK blocks.
    pub fn on_ack(&mut self, now: Time, info: AckInfo) {
        let AckInfo { ack, sack, dsack } = info;
        if ack > self.snd_nxt {
            // Acking data never sent: ignore (corrupted peer).
            return;
        }
        if let Some(block) = dsack {
            // A probe's own echo (the tail was alive after all) proves
            // nothing about the recovery in progress; everything else
            // means some retransmission of ours was unnecessary: widen
            // the RACK reordering window (Linux's dynamic reo_wnd) and
            // undo the spurious reduction.
            let is_probe_echo = self
                .probe_echo
                .take_if(|&mut p| block.0 <= p && p < block.1)
                .is_some();
            if !is_probe_echo {
                self.reo_quarters = (self.reo_quarters + 1).min(8);
                self.undo_retrans -= 1;
                if self.undo_armed && self.undo_retrans <= 0 {
                    // Every retransmission of this episode was delivered
                    // twice: the whole recovery was spurious.
                    self.undo_armed = false;
                    self.cc.on_spurious_recovery();
                    self.stats.spurious_recoveries += 1;
                    if self.recovery.is_some() {
                        self.recovery = None;
                        self.pending_retransmits.clear();
                    }
                }
            }
        }
        if let Some(block) = sack {
            self.record_sack(block);
        }

        if ack > self.snd_una {
            let newly_acked = ack - self.snd_una;

            // RTT sample: timestamp semantics (every segment carries an
            // RFC 7323 timestamp in the modeled traffic, as on Linux), so
            // the sample comes from the *last transmission* of the
            // segment whose arrival triggered this ACK — the lowest newly
            // acked one. Segments that sat in the receiver's reassembly
            // buffer while a hole was repaired must NOT contribute: their
            // age measures the recovery, not the path. (Classic Karn-only
            // sampling without timestamps has exactly that flaw.)
            let mut sample: Option<Time> = None;
            while let Some(slot) = self.flight.pop_acked(ack) {
                sample.get_or_insert_with(|| now.saturating_sub(slot.send_time));
                self.rack_time = self.rack_time.max(Some(slot.send_time));
            }
            if let Some(rtt) = sample {
                self.rtt.sample(rtt);
                self.rack_rtt = Some(rtt);
            }

            self.snd_una = ack;
            self.rto_backoff = 0;
            self.sacked.trim_below(ack);

            match self.recovery {
                Some((kind, recover)) if ack >= recover => {
                    if kind == RecoveryKind::Fast {
                        self.cc.on_exit_recovery();
                    }
                    self.recovery = None;
                    self.pending_retransmits.clear();
                }
                Some(_) => {
                    // Partial ACK: if the hole at the new left edge was
                    // (re)lost, RACK detection below re-marks it.
                }
                None => {
                    self.cc.on_ack(now, newly_acked, self.rtt.srtt());
                }
            }

            if self.flight_size() == 0 {
                self.rto_deadline = None;
                self.probe_deadline = None;
            } else {
                // Cumulative progress resets the probe clock. Pure SACK
                // traffic deliberately does NOT — a stuck left edge must
                // eventually fire the probe even while SACKs stream in
                // (cf. Linux TLP).
                self.probe_backoff = 0;
                self.arm_rto(now);
                self.arm_probe(now);
            }
        }

        self.rack_detect(now);
    }

    /// The retransmission timer fired (caller checked
    /// [`Sender::rto_deadline`]).
    pub fn on_rto(&mut self, now: Time) {
        if self.flight_size() == 0 {
            self.rto_deadline = None;
            return;
        }
        self.stats.rtos += 1;
        self.undo_armed = false;
        self.cc.on_rto(now);
        // RTO recovery: resend the left edge; RACK re-marks the rest as
        // their delivery evidence arrives.
        self.recovery = Some((RecoveryKind::Rto, self.snd_nxt));
        self.pending_retransmits.clear();
        self.pending_retransmits.push_back(self.snd_una);
        self.rto_backoff += 1;
        self.arm_rto(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::congestion::{Cubic, Reno};
    use proptest::prelude::*;

    const MSS: u32 = 1460;

    fn ai(ack: u64) -> AckInfo {
        AckInfo {
            ack,
            sack: None,
            dsack: None,
        }
    }

    fn ai_sack(ack: u64, sack: (u64, u64)) -> AckInfo {
        AckInfo {
            ack,
            sack: Some(sack),
            dsack: None,
        }
    }

    fn sender(total: Option<u64>) -> Sender {
        let cfg = SenderConfig {
            total_bytes: total,
            ..SenderConfig::default()
        };
        let cc = Box::new(Cubic::new(cfg.mss, cfg.init_cwnd_segments));
        Sender::new(cfg, cc)
    }

    fn seg(n: u64) -> u64 {
        n * u64::from(MSS)
    }

    /// Transmit the initial window with 10 µs serialization spacing (so
    /// RACK has timing signal, as on a real link).
    fn send_initial_window(s: &mut Sender) -> Vec<Segment> {
        let mut out = Vec::new();
        let mut t = Time::ZERO;
        while let Some(sg) = s.poll_segment(t) {
            out.push(sg);
            t += Time::from_us(10);
        }
        out
    }

    #[test]
    fn initial_burst_is_init_cwnd() {
        let mut s = sender(None);
        let sent = send_initial_window(&mut s);
        assert_eq!(sent.len(), 10, "IW10");
        assert_eq!(s.flight_size(), seg(10));
    }

    #[test]
    fn acks_release_more_data_and_grow_window() {
        let mut s = sender(None);
        send_initial_window(&mut s);
        let now = Time::from_us(200);
        s.on_ack(now, ai(seg(2)));
        assert_eq!(s.delivered(), seg(2));
        let mut released = 0;
        while s.poll_segment(now).is_some() {
            released += 1;
        }
        assert_eq!(released, 4, "2 freed + 2 slow-start growth");
        assert!(s.srtt().is_some());
    }

    #[test]
    fn rack_detects_loss_from_sacked_later_segments() {
        // Segment 1 (sent at t=10us) lost; later segments delivered and
        // SACKed with timestamps beyond reo_wnd: RACK marks segment 1
        // lost and retransmits it.
        let mut s = sender(None);
        send_initial_window(&mut s);
        let now = Time::from_ms(1);
        s.on_ack(now, ai(seg(1))); // seg 0 delivered (RTT sample ~1ms)
        s.on_ack(now + Time::from_us(10), ai_sack(seg(1), (seg(2), seg(3))));
        s.on_ack(now + Time::from_us(20), ai_sack(seg(1), (seg(2), seg(4))));
        // SACK for segment 9 (sent at t=90us, i.e. 80us after segment 1);
        // still within reo_wnd (SRTT/4 = 250us)? 80us < 250us, so not yet.
        // Push the rack clock decisively past: re-send new data later and
        // SACK it.
        let t2 = now + Time::from_ms(1);
        let fresh = s.poll_segment(t2).expect("window has room");
        s.on_ack(
            t2 + Time::from_us(10),
            ai_sack(seg(1), (fresh.seq, fresh.seq + u64::from(fresh.len))),
        );
        assert!(s.in_recovery(), "RACK should have marked segment 1 lost");
        assert_eq!(s.stats().fast_retransmits, 1);
        let r = s
            .poll_segment(t2 + Time::from_us(20))
            .expect("rext pending");
        assert!(r.is_retransmit);
        assert_eq!(r.seq, seg(1));
    }

    #[test]
    fn rack_tolerates_reordering_within_reo_wnd() {
        // SACK for a segment sent only 10us after the missing one —
        // inside reo_wnd (SRTT/4 with SRTT ~1ms = 250us): no loss marked.
        let mut s = sender(None);
        send_initial_window(&mut s);
        let now = Time::from_ms(1);
        s.on_ack(now, ai(seg(1)));
        s.on_ack(now + Time::from_us(5), ai_sack(seg(1), (seg(2), seg(3))));
        assert!(!s.in_recovery(), "10us of reordering must be absorbed");
        s.on_ack(now + Time::from_us(10), ai(seg(3)));
        assert_eq!(s.stats().fast_retransmits, 0);
        assert_eq!(s.stats().retransmits, 0);
    }

    #[test]
    fn sacked_segments_are_never_retransmitted() {
        let mut s = sender(None);
        send_initial_window(&mut s);
        let now = Time::from_ms(1);
        s.on_ack(now, ai(seg(1)));
        // SACK everything from 2..10 (sent ≤90us after seg 1) plus a
        // much-later segment to push the rack clock past reo_wnd.
        s.on_ack(now + Time::from_us(10), ai_sack(seg(1), (seg(2), seg(10))));
        let t2 = now + Time::from_ms(1);
        let fresh = s.poll_segment(t2).expect("room");
        s.on_ack(
            t2 + Time::from_us(10),
            ai_sack(seg(1), (fresh.seq, fresh.seq + u64::from(fresh.len))),
        );
        assert!(s.in_recovery());
        let mut retransmitted = Vec::new();
        let mut t = t2 + Time::from_us(100);
        while let Some(r) = s.poll_segment(t) {
            if r.is_retransmit {
                retransmitted.push(r.seq);
            }
            t += Time::from_us(10);
        }
        assert!(retransmitted.contains(&seg(1)));
        assert!(
            !retransmitted
                .iter()
                .any(|&q| (seg(2)..seg(10)).contains(&q)),
            "SACKed range must not be retransmitted: {retransmitted:?}"
        );
    }

    #[test]
    fn dsack_undoes_spurious_recovery_and_widens_reo_wnd() {
        let mut s = sender(None);
        send_initial_window(&mut s);
        let now = Time::from_ms(1);
        s.on_ack(now, ai(seg(1)));
        let reo_before = s.reo_wnd();
        // Force a (spurious) RACK detection: SACK a fresh, late segment
        // while segment 1 is merely reordered.
        let t2 = now + Time::from_ms(1);
        let fresh = s.poll_segment(t2).expect("room");
        s.on_ack(
            t2 + Time::from_us(10),
            ai_sack(seg(1), (fresh.seq, fresh.seq + u64::from(fresh.len))),
        );
        assert!(s.in_recovery());
        let cwnd_reduced = s.cwnd();
        let _ = s.poll_segment(t2 + Time::from_us(20)); // spurious rext
                                                        // The "lost" original arrives: cumulative ack advances; then our
                                                        // retransmission shows up as a duplicate → DSACK.
        s.on_ack(
            t2 + Time::from_us(100),
            ai(fresh.seq + u64::from(fresh.len)),
        );
        s.on_ack(
            t2 + Time::from_us(200),
            AckInfo {
                ack: fresh.seq + u64::from(fresh.len),
                sack: None,
                dsack: Some((seg(1), seg(2))),
            },
        );
        assert_eq!(s.stats().spurious_recoveries, 1);
        assert!(s.cwnd() >= cwnd_reduced, "undo must restore the window");
        assert!(s.reo_wnd() > reo_before, "reordering window must widen");
        assert!(!s.in_recovery());
    }

    #[test]
    fn full_ack_exits_recovery_and_deflates() {
        let mut s = sender(None);
        send_initial_window(&mut s);
        let now = Time::from_ms(1);
        let cwnd_before = s.cwnd();
        s.on_ack(now, ai(seg(1)));
        let t2 = now + Time::from_ms(1);
        let fresh = s.poll_segment(t2).expect("room");
        let recover_end = fresh.seq + u64::from(fresh.len);
        s.on_ack(
            t2 + Time::from_us(10),
            ai_sack(seg(1), (fresh.seq, recover_end)),
        );
        assert!(s.in_recovery());
        let _ = s.poll_segment(t2 + Time::from_us(20));
        // Everything through the recovery point gets acked.
        s.on_ack(t2 + Time::from_ms(1), ai(recover_end));
        assert!(!s.in_recovery());
        assert!(
            s.cwnd() < cwnd_before,
            "window must shrink after genuine recovery"
        );
    }

    #[test]
    fn rto_collapses_window_and_backs_off() {
        let mut s = sender(None);
        send_initial_window(&mut s);
        let deadline = s.rto_deadline().unwrap();
        s.on_rto(deadline);
        assert_eq!(s.stats().rtos, 1);
        assert_eq!(s.cwnd(), u64::from(MSS));
        let second_deadline = s.rto_deadline().unwrap();
        assert!(
            second_deadline.saturating_sub(deadline) >= Time::from_ms(400),
            "exponential backoff doubles the (min 200ms) RTO"
        );
        let rext = s.poll_segment(deadline).unwrap();
        assert!(rext.is_retransmit);
        assert_eq!(rext.seq, 0);
    }

    #[test]
    fn probe_fires_on_cumulative_silence_and_resends_the_tail() {
        let mut s = sender(None);
        send_initial_window(&mut s);
        let now = Time::from_ms(1);
        s.on_ack(now, ai(seg(1)));
        let probe_at = s.timer_deadline().expect("probe armed");
        assert!(probe_at < s.rto_deadline().unwrap(), "probe precedes RTO");
        s.on_timer(probe_at);
        assert_eq!(s.stats().probes, 1);
        let r = s.poll_segment(probe_at).expect("probe retransmission");
        assert!(r.is_retransmit);
        // Linux TLP resends the highest outstanding segment so the
        // resulting SACK exposes every hole below it to RACK.
        assert_eq!(r.seq, seg(9));
    }

    #[test]
    fn probe_can_resend_an_already_retransmitted_edge() {
        let mut s = sender(None);
        send_initial_window(&mut s);
        let now = Time::from_ms(1);
        s.on_ack(now, ai(seg(1)));
        let t2 = now + Time::from_ms(1);
        let fresh = s.poll_segment(t2).expect("room");
        s.on_ack(
            t2 + Time::from_us(10),
            ai_sack(seg(1), (fresh.seq, fresh.seq + u64::from(fresh.len))),
        );
        let _ = s.poll_segment(t2 + Time::from_us(20)); // rext of seg 1
                                                        // That retransmission is lost too; silence → probe resends it.
        let probe_at = s.timer_deadline().unwrap().max(t2 + Time::from_ms(5));
        s.on_timer(probe_at);
        let r = s.poll_segment(probe_at);
        assert!(matches!(r, Some(sg) if sg.seq == seg(1) && sg.is_retransmit));
    }

    #[test]
    fn bounded_transfer_finishes() {
        let total = seg(5);
        let mut s = sender(Some(total));
        let mut sent = Vec::new();
        while let Some(sg) = s.poll_segment(Time::ZERO) {
            sent.push(sg);
        }
        assert_eq!(sent.len(), 5);
        assert_eq!(sent.iter().map(|x| u64::from(x.len)).sum::<u64>(), total);
        s.on_ack(Time::from_us(50), ai(total));
        assert!(s.finished());
        assert_eq!(
            s.timer_deadline(),
            None,
            "timers disarmed when flight empties"
        );
    }

    #[test]
    fn last_segment_can_be_short() {
        let total = u64::from(MSS) + 100;
        let mut s = sender(Some(total));
        let a = s.poll_segment(Time::ZERO).unwrap();
        let b = s.poll_segment(Time::ZERO).unwrap();
        assert_eq!(a.len, MSS);
        assert_eq!(b.len, 100);
        assert!(s.poll_segment(Time::ZERO).is_none());
    }

    #[test]
    fn rtt_samples_use_the_hole_fillers_latest_transmission() {
        // Timestamp semantics: after an RTO retransmission at time T, an
        // ack at T+100us samples ~100us — not the age of the original.
        let mut s = sender(None);
        send_initial_window(&mut s);
        let deadline = s.rto_deadline().unwrap();
        s.on_rto(deadline);
        let _ = s.poll_segment(deadline);
        s.on_ack(deadline + Time::from_us(100), ai(seg(1)));
        let srtt = s.srtt().expect("sampled");
        assert!(
            srtt <= Time::from_us(100),
            "sample must reflect the retransmission, got {srtt}"
        );
    }

    #[test]
    fn buffered_segments_do_not_inflate_rtt() {
        // Segments 2..9 sit in the receiver's buffer while segment 1 is
        // repaired much later; the cumulative ack covering all of them
        // must sample from the (recent) hole filler, not the old ones.
        let mut s = sender(None);
        send_initial_window(&mut s);
        let now = Time::from_ms(1);
        s.on_ack(now, ai(seg(1)));
        let t2 = now + Time::from_ms(1);
        let fresh = s.poll_segment(t2).expect("room");
        s.on_ack(
            t2 + Time::from_us(10),
            ai_sack(seg(1), (fresh.seq, fresh.seq + u64::from(fresh.len))),
        );
        assert!(s.in_recovery());
        let rext_at = t2 + Time::from_ms(50);
        let _ = s.poll_segment(rext_at).expect("rext of seg 1");
        // Hole fills 80us after the retransmission; everything is acked.
        s.on_ack(rext_at + Time::from_us(80), ai(seg(10)));
        let srtt = s.srtt().expect("sampled");
        assert!(
            srtt < Time::from_ms(5),
            "old buffered segments must not inflate srtt, got {srtt}"
        );
    }

    #[test]
    fn pipe_excludes_sacked_bytes() {
        let mut s = sender(None);
        send_initial_window(&mut s);
        assert_eq!(s.pipe(), seg(10));
        s.on_ack(Time::from_ms(1), ai_sack(seg(0), (seg(4), seg(7))));
        assert_eq!(s.flight_size(), seg(10));
        assert_eq!(s.pipe(), seg(7), "3 SACKed segments leave the pipe");
    }

    #[test]
    fn reno_sender_also_recovers() {
        let cfg = SenderConfig::default();
        let cc = Box::new(Reno::new(cfg.mss, cfg.init_cwnd_segments));
        let mut s = Sender::new(cfg, cc);
        send_initial_window(&mut s);
        let now = Time::from_ms(1);
        s.on_ack(now, ai(seg(1)));
        let t2 = now + Time::from_ms(1);
        let fresh = s.poll_segment(t2).expect("room");
        s.on_ack(
            t2 + Time::from_us(10),
            ai_sack(seg(1), (fresh.seq, fresh.seq + u64::from(fresh.len))),
        );
        assert!(s.in_recovery());
        assert_eq!(s.poll_segment(t2 + Time::from_us(20)).unwrap().seq, seg(1));
    }

    #[test]
    fn scoreboard_prunes_below_snd_una() {
        let mut s = sender(None);
        send_initial_window(&mut s);
        let now = Time::from_ms(1);
        s.on_ack(now, ai_sack(seg(1), (seg(3), seg(4))));
        assert!(s.is_sacked(seg(3)));
        s.on_ack(now + Time::from_us(10), ai(seg(5)));
        assert!(!s.is_sacked(seg(3)), "stale SACK info must be pruned");
    }

    /// A sequence number `segs` segments plus `bytes` above a base the
    /// differential test picks from the reference's state.
    #[derive(Debug, Clone, Copy)]
    struct Edge {
        segs: u64,
        bytes: u64,
    }

    impl Edge {
        fn above(self, base: u64, mss: u64) -> u64 {
            base + self.segs * mss + self.bytes
        }
    }

    /// One step of the differential test.
    #[derive(Debug, Clone)]
    enum Op {
        /// Poll both senders until the reference returns `None`.
        Poll,
        /// An ACK at `snd_una` + `ack`, a SACK block starting two
        /// segments below `snd_una` + its edge and `len` segments long,
        /// and a one-segment-ish DSACK `back` segments below `snd_una`
        /// (or `snd_nxt`, where the probe echo lives).
        Ack {
            ack: Edge,
            sack: Option<(Edge, u64)>,
            dsack: Option<(bool, u64, u64)>,
        },
        /// Advance to the earliest deadline, if any, and fire it.
        Timer,
        /// Fire the retransmission timeout now (one in 32 timer ops:
        /// each collapses the window).
        Rto,
        AdvanceUs(u64),
    }

    /// A quarter of the edges are off the segment grid.
    fn edge(max_segs: u64) -> impl Strategy<Value = Edge> {
        (0..max_segs, 0u8..4, 1u64..536).prop_map(|(segs, grid, bytes)| Edge {
            segs,
            bytes: if grid == 0 { bytes } else { 0 },
        })
    }

    fn ack() -> impl Strategy<Value = Op> {
        (
            prop_oneof![edge(3), edge(40)],
            proptest::option::of((
                prop_oneof![edge(40), edge(300)],
                prop_oneof![1u64..8, 1u64..150],
            )),
            proptest::option::of((any::<bool>(), 0u64..4, 1u64..2 * 1460)),
        )
            .prop_map(|(ack, sack, dsack)| Op::Ack { ack, sack, dsack })
    }

    fn op() -> impl Strategy<Value = Op> {
        // Arms repeat to weight them: the strategies carry no weights.
        prop_oneof![
            Just(Op::Poll),
            Just(Op::Poll),
            ack(),
            ack(),
            ack(),
            ack(),
            (0u8..32).prop_map(|k| if k == 0 { Op::Rto } else { Op::Timer }),
            (0u64..2000).prop_map(Op::AdvanceUs),
            (0u64..2000).prop_map(Op::AdvanceUs),
        ]
    }

    /// Everything a caller can observe of either sender.
    macro_rules! observe {
        ($s:expr) => {{
            let s = &$s;
            let st = s.stats();
            (
                (s.pipe(), s.flight_size(), s.cwnd(), s.delivered()),
                (s.timer_deadline(), s.rto_deadline(), s.srtt(), s.reo_wnd()),
                (s.in_recovery(), s.finished()),
                [
                    st.segments_sent,
                    st.retransmits,
                    st.fast_retransmits,
                    st.rtos,
                    st.probes,
                    st.spurious_recoveries,
                ],
            )
        }};
    }

    proptest! {
        /// The flat scoreboard sends, marks and recovers exactly as the
        /// tree-based sender it replaced: same segments from every poll
        /// and the same observable state after every operation, for
        /// bounded and unbounded transfers, flights above RACK's
        /// 128-segment scan, and ACK/SACK/DSACK edges on and off the
        /// segment grid.
        #[test]
        fn sender_matches_reference(
            mss in prop_oneof![Just(1460u32), Just(536u32)],
            init_cwnd in prop_oneof![Just(10u32), Just(200u32)],
            total in proptest::option::of((1u64..400, 0u64..536)),
            reno in any::<bool>(),
            ops in proptest::collection::vec(op(), 1..150),
        ) {
            let cfg = SenderConfig {
                mss,
                init_cwnd_segments: init_cwnd,
                total_bytes: total.map(|(segs, bytes)| segs * u64::from(mss) + bytes),
                ..SenderConfig::default()
            };
            let cc = || -> Box<dyn CongestionControl> {
                if reno {
                    Box::new(Reno::new(mss, init_cwnd))
                } else {
                    Box::new(Cubic::new(mss, init_cwnd))
                }
            };
            let mut s = Sender::new(cfg.clone(), cc());
            let mut model = super::reference::Sender::new(cfg, cc());
            let mss = u64::from(mss);
            let mut now = Time::ZERO;
            for op in ops {
                match op {
                    Op::Poll => loop {
                        let sent = model.poll_segment(now);
                        prop_assert_eq!(s.poll_segment(now), sent);
                        if sent.is_none() {
                            break;
                        }
                    },
                    Op::Ack { ack, sack, dsack } => {
                        let una = model.delivered();
                        let nxt = una + model.flight_size();
                        let info = AckInfo {
                            ack: ack.above(una, mss),
                            sack: sack.map(|(start, len)| {
                                let start = start.above(una, mss).saturating_sub(2 * mss);
                                (start, start + len * mss)
                            }),
                            dsack: dsack.map(|(at_nxt, back, len)| {
                                let base = if at_nxt { nxt } else { una };
                                let start = base.saturating_sub(back * mss);
                                (start, start + len)
                            }),
                        };
                        s.on_ack(now, info);
                        model.on_ack(now, info);
                    }
                    Op::Timer => {
                        if let Some(d) = model.timer_deadline() {
                            now = now.max(d);
                        }
                        s.on_timer(now);
                        model.on_timer(now);
                    }
                    Op::Rto => {
                        s.on_rto(now);
                        model.on_rto(now);
                    }
                    Op::AdvanceUs(us) => now += Time::from_us(us),
                }
                prop_assert_eq!(observe!(s), observe!(model));
            }
        }
    }
}

/// The sender as it was before the flat scoreboard, kept verbatim as the
/// reference the differential test compares against.
#[cfg(test)]
mod reference {
    use super::{Segment, SenderConfig, SenderStats};
    use crate::congestion::CongestionControl;
    use crate::receiver::AckInfo;
    use crate::rtt::RttEstimator;
    use sprayer_sim::Time;
    use std::collections::{BTreeMap, VecDeque};

    #[derive(Debug, Clone, Copy)]
    struct InflightInfo {
        len: u32,
        send_time: Time,
        retransmitted: bool,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum RecoveryKind {
        /// Entered via RACK loss detection.
        Fast,
        /// Entered via retransmission timeout.
        Rto,
    }

    /// A bulk-transfer TCP sender.
    #[derive(Debug)]
    pub struct Sender {
        cfg: SenderConfig,
        cc: Box<dyn CongestionControl>,
        rtt: RttEstimator,
        /// Oldest unacknowledged byte.
        snd_una: u64,
        /// Next new byte to transmit.
        snd_nxt: u64,
        /// In recovery until `snd_una` passes `.1`.
        recovery: Option<(RecoveryKind, u64)>,
        rto_backoff: u32,
        rto_deadline: Option<Time>,
        inflight: BTreeMap<u64, InflightInfo>,
        /// SACK scoreboard: merged `[start, end)` ranges above `snd_una`.
        sacked: BTreeMap<u64, u64>,
        /// Retransmissions queued by the recovery logic.
        pending_retransmits: VecDeque<u64>,
        /// RACK: latest original-transmission time among delivered segments.
        rack_time: Option<Time>,
        /// RACK: RTT of the most recently delivered segment (tracks queue
        /// growth faster than the smoothed estimate).
        rack_rtt: Option<Time>,
        /// RACK reordering window in quarters of SRTT (1 = SRTT/4). Grows on
        /// DSACK evidence, saturating at 8 (= 2×SRTT), like Linux's dynamic
        /// reo_wnd.
        reo_quarters: u32,
        /// A window reduction is pending possible undo.
        undo_armed: bool,
        /// Retransmissions sent in the current episode not yet proven
        /// unnecessary; undo fires only when this reaches zero (Linux's
        /// `undo_retrans` rule: one surviving genuine retransmission vetoes
        /// the undo).
        undo_retrans: i64,
        /// Tail-loss-probe deadline.
        probe_deadline: Option<Time>,
        probe_backoff: u32,
        /// Sequence most recently resent by a probe: a DSACK covering it is
        /// the probe's own echo, not evidence of a spurious recovery.
        probe_echo: Option<u64>,
        stats: SenderStats,
    }

    impl Sender {
        /// A sender starting at sequence 0 over the given controller.
        pub fn new(cfg: SenderConfig, cc: Box<dyn CongestionControl>) -> Self {
            let rtt = RttEstimator::new(cfg.min_rto);
            Sender {
                cfg,
                cc,
                rtt,
                snd_una: 0,
                snd_nxt: 0,
                recovery: None,
                rto_backoff: 0,
                rto_deadline: None,
                inflight: BTreeMap::new(),
                sacked: BTreeMap::new(),
                pending_retransmits: VecDeque::new(),
                rack_time: None,
                rack_rtt: None,
                reo_quarters: 1,
                undo_armed: false,
                undo_retrans: 0,
                probe_deadline: None,
                probe_backoff: 0,
                probe_echo: None,
                stats: SenderStats::default(),
            }
        }

        /// Bytes acknowledged by the peer so far.
        pub fn delivered(&self) -> u64 {
            self.snd_una
        }

        /// Current effective send window in bytes (congestion window clamped
        /// by the peer's receive window).
        pub fn cwnd(&self) -> u64 {
            self.cc.cwnd_bytes().min(self.cfg.max_window_bytes)
        }

        /// Bytes in flight (sequence-space occupancy).
        pub fn flight_size(&self) -> u64 {
            self.snd_nxt - self.snd_una
        }

        /// RFC 6675-style pipe estimate: flight minus SACKed bytes. New data
        /// is admitted while `pipe < cwnd`, which keeps the sender from the
        /// classic NewReno inflation runaway during long recoveries.
        pub fn pipe(&self) -> u64 {
            let sacked: u64 = self
                .sacked
                .iter()
                .map(|(&s, &e)| e.min(self.snd_nxt).saturating_sub(s.max(self.snd_una)))
                .sum();
            self.flight_size().saturating_sub(sacked)
        }

        /// Transfer statistics.
        pub fn stats(&self) -> SenderStats {
            self.stats
        }

        /// Smoothed RTT estimate.
        pub fn srtt(&self) -> Option<Time> {
            self.rtt.srtt()
        }

        /// The current RACK reordering window.
        pub fn reo_wnd(&self) -> Time {
            let base = self.rtt.srtt().unwrap_or(Time::from_us(400));
            Time((base.0 / 4).saturating_mul(u64::from(self.reo_quarters)))
        }

        /// True when a bounded transfer has been fully acknowledged.
        pub fn finished(&self) -> bool {
            matches!(self.cfg.total_bytes, Some(total) if self.snd_una >= total)
        }

        /// True while the sender is in loss recovery.
        pub fn in_recovery(&self) -> bool {
            self.recovery.is_some()
        }

        /// When the retransmission timer fires next, if armed.
        pub fn rto_deadline(&self) -> Option<Time> {
            self.rto_deadline
        }

        /// The earliest pending timer (RTO or tail-loss probe). Drive it
        /// with [`Sender::on_timer`].
        pub fn timer_deadline(&self) -> Option<Time> {
            match (self.rto_deadline, self.probe_deadline) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            }
        }

        /// Fire whichever timer is due at `now`.
        pub fn on_timer(&mut self, now: Time) {
            if self.rto_deadline.is_some_and(|d| now >= d) {
                self.on_rto(now);
            } else if self.probe_deadline.is_some_and(|d| now >= d) {
                self.on_probe_timeout(now);
            }
        }

        fn arm_rto(&mut self, now: Time) {
            let backoff = 1u64 << self.rto_backoff.min(16);
            self.rto_deadline = Some(now + Time(self.rtt.rto().0.saturating_mul(backoff)));
        }

        fn arm_probe(&mut self, now: Time) {
            if self.flight_size() == 0 {
                self.probe_deadline = None;
                return;
            }
            // PTO = max(2*SRTT, 1 ms), doubled per unanswered probe.
            let base = self.rtt.srtt().map_or(Time::from_ms(10), |s| Time(s.0 * 2));
            let pto = Time(base.0.max(Time::from_ms(1).0));
            let backoff = 1u64 << self.probe_backoff.min(10);
            self.probe_deadline = Some(now + Time(pto.0.saturating_mul(backoff)));
        }

        /// Cumulative-ACK silence for a probe interval: resend the left edge
        /// to provoke a (D)SACK response instead of stalling until the RTO.
        fn on_probe_timeout(&mut self, now: Time) {
            if self.flight_size() == 0 {
                self.probe_deadline = None;
                return;
            }
            self.stats.probes += 1;
            self.probe_backoff += 1;
            // Linux TLP resends the HIGHEST-sequence segment: the SACK it
            // provokes gives RACK "later-sent was delivered" evidence for
            // every hole below, collapsing a whole lost tail into one
            // recovery round. (Probing the left edge would reveal nothing
            // and recover one segment per timeout.)
            let probe_seq = self
                .inflight
                .range(self.snd_una..)
                .next_back()
                .map(|(&s, _)| s)
                .filter(|&s| !self.is_sacked(s))
                .unwrap_or(self.snd_una);
            if !self.is_sacked(probe_seq) && !self.pending_retransmits.contains(&probe_seq) {
                self.pending_retransmits.push_front(probe_seq);
                self.probe_echo = Some(probe_seq);
            }
            self.arm_probe(now);
        }

        /// Ask for the next segment to transmit at `now`, if the window and
        /// data supply allow one. Call repeatedly until it returns `None`.
        pub fn poll_segment(&mut self, now: Time) -> Option<Segment> {
            // Retransmissions take priority and replace data already counted
            // in the pipe.
            while let Some(seq) = self.pending_retransmits.pop_front() {
                if seq < self.snd_una || self.is_sacked(seq) {
                    continue; // already delivered while queued
                }
                let len = match self.inflight.get_mut(&seq) {
                    Some(info) => {
                        info.retransmitted = true;
                        info.send_time = now;
                        info.len
                    }
                    None => self.cfg.mss,
                };
                self.stats.segments_sent += 1;
                self.stats.retransmits += 1;
                if self.undo_armed {
                    self.undo_retrans += 1;
                }
                self.arm_rto(now);
                if self.probe_deadline.is_none() {
                    self.arm_probe(now);
                }
                return Some(Segment {
                    seq,
                    len,
                    is_retransmit: true,
                });
            }

            // New data, limited by the send window (pipe-based) and the
            // transfer size.
            let cwnd = self.cwnd();
            if self.pipe() + u64::from(self.cfg.mss) > cwnd {
                return None;
            }
            let remaining = match self.cfg.total_bytes {
                Some(total) => total.saturating_sub(self.snd_nxt),
                None => u64::MAX,
            };
            if remaining == 0 {
                return None;
            }
            let len = u64::from(self.cfg.mss).min(remaining) as u32;
            let seq = self.snd_nxt;
            self.snd_nxt += u64::from(len);
            self.inflight.insert(
                seq,
                InflightInfo {
                    len,
                    send_time: now,
                    retransmitted: false,
                },
            );
            self.stats.segments_sent += 1;
            if self.rto_deadline.is_none() {
                self.arm_rto(now);
            }
            if self.probe_deadline.is_none() {
                self.arm_probe(now);
            }
            Some(Segment {
                seq,
                len,
                is_retransmit: false,
            })
        }

        fn is_sacked(&self, seq: u64) -> bool {
            self.sacked
                .range(..=seq)
                .next_back()
                .is_some_and(|(_, &end)| end > seq)
        }

        fn record_sack(&mut self, block: (u64, u64)) {
            let (mut start, mut end) = block;
            if end <= start || end <= self.snd_una {
                return;
            }
            start = start.max(self.snd_una);
            // RACK: delivered segments advance the rack clock. Unlike RTT
            // sampling, this includes retransmissions (their latest transmit
            // time) — without that, a rescue retransmission's SACK would
            // never produce loss evidence for the holes below it.
            let mut latest = self.rack_time;
            for (_, info) in self.inflight.range(start..end) {
                latest = Some(latest.map_or(info.send_time, |t| t.max(info.send_time)));
            }
            self.rack_time = latest;
            // Merge with overlapping/adjacent ranges.
            let overlapping: Vec<u64> = self
                .sacked
                .range(..=end)
                .filter(|&(&s, &e)| e >= start && s <= end)
                .map(|(&s, _)| s)
                .collect();
            for s in overlapping {
                let e = self.sacked[&s];
                start = start.min(s);
                end = end.max(e);
                self.sacked.remove(&s);
            }
            self.sacked.insert(start, end);
        }

        /// RACK loss detection: any unsacked in-flight segment whose (latest)
        /// transmission predates the rack clock by more than the reordering
        /// window is deemed lost. Enters recovery (one window reduction per
        /// episode) and queues the retransmissions.
        fn rack_detect(&mut self, now: Time) {
            let Some(rack_time) = self.rack_time else {
                return;
            };
            let reo = self.reo_wnd();
            // Use the larger of the smoothed and the most recent RTT: while a
            // queue is filling, the smoothed value lags and would mis-mark
            // segments that are merely waiting in line.
            let srtt = self.rtt.srtt().unwrap_or(Time::from_ms(1));
            let rtt = self.rack_rtt.map_or(srtt, |r| r.max(srtt));
            let mut lost = Vec::new();
            // Linux's RACK condition: a segment is lost when (a) something
            // sent after it has been delivered AND (b) a full RTT plus the
            // reordering window has elapsed since its transmission. The +RTT
            // term keeps segments that are merely sitting in a deep FIFO
            // from being marked.
            // Losses cluster at the left edge; bound the scan so detection
            // stays O(1) per ACK (deeper holes surface as snd_una advances).
            for (&seq, info) in self.inflight.range(self.snd_una..).take(128) {
                if lost.len() >= 16 {
                    break;
                }
                if info.send_time < rack_time
                    && now >= info.send_time + rtt + reo
                    && !self.is_sacked(seq)
                {
                    lost.push(seq);
                }
            }
            if lost.is_empty() {
                return;
            }
            if self.recovery.is_none() {
                self.cc.on_fast_retransmit(now);
                self.recovery = Some((RecoveryKind::Fast, self.snd_nxt));
                self.undo_armed = true;
                self.undo_retrans = 0;
                self.stats.fast_retransmits += 1;
            }
            for seq in lost {
                if !self.pending_retransmits.contains(&seq) {
                    self.pending_retransmits.push_back(seq);
                }
            }
        }

        /// A cumulative ACK arrived, optionally carrying SACK/DSACK blocks.
        pub fn on_ack(&mut self, now: Time, info: AckInfo) {
            let AckInfo { ack, sack, dsack } = info;
            if ack > self.snd_nxt {
                // Acking data never sent: ignore (corrupted peer).
                return;
            }
            if let Some(block) = dsack {
                // A probe's own echo (the tail was alive after all) proves
                // nothing about the recovery in progress; everything else
                // means some retransmission of ours was unnecessary: widen
                // the RACK reordering window (Linux's dynamic reo_wnd) and
                // undo the spurious reduction.
                let is_probe_echo = self
                    .probe_echo
                    .take_if(|&mut p| block.0 <= p && p < block.1)
                    .is_some();
                if !is_probe_echo {
                    self.reo_quarters = (self.reo_quarters + 1).min(8);
                    self.undo_retrans -= 1;
                    if self.undo_armed && self.undo_retrans <= 0 {
                        // Every retransmission of this episode was delivered
                        // twice: the whole recovery was spurious.
                        self.undo_armed = false;
                        self.cc.on_spurious_recovery();
                        self.stats.spurious_recoveries += 1;
                        if self.recovery.is_some() {
                            self.recovery = None;
                            self.pending_retransmits.clear();
                        }
                    }
                }
            }
            if let Some(block) = sack {
                self.record_sack(block);
            }

            if ack > self.snd_una {
                let newly_acked = ack - self.snd_una;

                // RTT sample: timestamp semantics (every segment carries an
                // RFC 7323 timestamp in the modeled traffic, as on Linux), so
                // the sample comes from the *last transmission* of the
                // segment whose arrival triggered this ACK — the lowest newly
                // acked one. Segments that sat in the receiver's reassembly
                // buffer while a hole was repaired must NOT contribute: their
                // age measures the recovery, not the path. (Classic Karn-only
                // sampling without timestamps has exactly that flaw.)
                let mut sample: Option<Time> = None;
                let acked: Vec<u64> = self.inflight.range(..ack).map(|(&s, _)| s).collect();
                for (i, seq) in acked.iter().enumerate() {
                    let info = self.inflight[seq];
                    if seq + u64::from(info.len) <= ack {
                        if i == 0 {
                            sample = Some(now.saturating_sub(info.send_time));
                        }
                        self.rack_time = Some(
                            self.rack_time
                                .map_or(info.send_time, |t| t.max(info.send_time)),
                        );
                        self.inflight.remove(seq);
                    }
                }
                if let Some(rtt) = sample {
                    self.rtt.sample(rtt);
                    self.rack_rtt = Some(rtt);
                }

                self.snd_una = ack;
                self.rto_backoff = 0;
                // Drop scoreboard entries below the new left edge.
                let stale: Vec<u64> = self.sacked.range(..ack).map(|(&s, _)| s).collect();
                for s in stale {
                    let end = self.sacked.remove(&s).expect("keyed");
                    if end > ack {
                        self.sacked.insert(ack, end);
                    }
                }

                match self.recovery {
                    Some((kind, recover)) if ack >= recover => {
                        if kind == RecoveryKind::Fast {
                            self.cc.on_exit_recovery();
                        }
                        self.recovery = None;
                        self.pending_retransmits.clear();
                    }
                    Some(_) => {
                        // Partial ACK: if the hole at the new left edge was
                        // (re)lost, RACK detection below re-marks it.
                    }
                    None => {
                        self.cc.on_ack(now, newly_acked, self.rtt.srtt());
                    }
                }

                if self.flight_size() == 0 {
                    self.rto_deadline = None;
                    self.probe_deadline = None;
                } else {
                    // Cumulative progress resets the probe clock. Pure SACK
                    // traffic deliberately does NOT — a stuck left edge must
                    // eventually fire the probe even while SACKs stream in
                    // (cf. Linux TLP).
                    self.probe_backoff = 0;
                    self.arm_rto(now);
                    self.arm_probe(now);
                }
            }

            self.rack_detect(now);
        }

        /// The retransmission timer fired (caller checked
        /// [`Sender::rto_deadline`]).
        pub fn on_rto(&mut self, now: Time) {
            if self.flight_size() == 0 {
                self.rto_deadline = None;
                return;
            }
            self.stats.rtos += 1;
            self.undo_armed = false;
            self.cc.on_rto(now);
            // RTO recovery: resend the left edge; RACK re-marks the rest as
            // their delivery evidence arrives.
            self.recovery = Some((RecoveryKind::Rto, self.snd_nxt));
            self.pending_retransmits.clear();
            self.pending_retransmits.push_back(self.snd_una);
            // Karn: no samples from anything currently outstanding.
            for info in self.inflight.values_mut() {
                info.retransmitted = true;
            }
            self.rto_backoff += 1;
            self.arm_rto(now);
        }
    }
}
