//! Intel Flow Director as a rule-table model.
//!
//! Flow Director is the 82599 feature intended to pin specific flows to
//! specific queues. A *perfect filter* matches five-tuple fields plus an
//! optional 16-bit "flex word" at a configurable byte offset into the
//! packet; the filter table holds at most 8 K perfect filters.
//!
//! Sprayer uses it "in an unconventional manner" (§4): instead of
//! matching flows, it points the flex word at the **TCP checksum field**
//! and installs one rule per value of the checksum's low *k* bits, where
//! `2^k >= num_queues`. Since the checksum looks random, TCP packets
//! spread uniformly over queues regardless of their flow. Masking to the
//! low bits is what keeps the rule count at `2^k` instead of 64 K — the
//! paper's answer to the limited rule space.
//!
//! Packets that match no rule fall back to RSS (handled by [`crate::nic`]).

use serde::{Deserialize, Serialize};
use sprayer_net::{Packet, Protocol};

/// Maximum number of perfect filters (82599 datasheet: 8 K).
pub const FDIR_PERFECT_CAPACITY: usize = 8192;

/// Byte offset of the checksum field within a TCP header.
const TCP_CHECKSUM_OFFSET: usize = 16;

/// Match criteria of one Flow Director perfect filter.
///
/// `None` fields are wildcards. The flex word matches
/// `(flex_word & flex_mask) == flex_value` where the flex word is read
/// big-endian at `flex_offset` bytes into the *transport header*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FdirFilter {
    /// Transport protocol to match.
    pub protocol: Option<Protocol>,
    /// Exact source address.
    pub src_addr: Option<u32>,
    /// Exact destination address.
    pub dst_addr: Option<u32>,
    /// Exact source port.
    pub src_port: Option<u16>,
    /// Exact destination port.
    pub dst_port: Option<u16>,
    /// Flex-word match: (offset into L4 header, mask, expected value).
    pub flex: Option<FlexMatch>,
}

/// A masked 16-bit match at a byte offset into the transport header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlexMatch {
    /// Byte offset of the big-endian 16-bit word within the L4 header.
    pub offset: usize,
    /// Mask applied before comparison.
    pub mask: u16,
    /// Expected value (already masked).
    pub value: u16,
}

impl FdirFilter {
    /// A filter that matches nothing but the protocol.
    pub fn for_protocol(protocol: Protocol) -> Self {
        FdirFilter {
            protocol: Some(protocol),
            src_addr: None,
            dst_addr: None,
            src_port: None,
            dst_port: None,
            flex: None,
        }
    }

    /// Does `packet` satisfy every non-wildcard criterion?
    pub fn matches(&self, packet: &Packet) -> bool {
        let Some(tuple) = packet.tuple() else {
            // Non-IP / fragmented packets never match perfect filters.
            return false;
        };
        if let Some(p) = self.protocol {
            if tuple.protocol != p {
                return false;
            }
        }
        if let Some(a) = self.src_addr {
            if tuple.src_addr != a {
                return false;
            }
        }
        if let Some(a) = self.dst_addr {
            if tuple.dst_addr != a {
                return false;
            }
        }
        if let Some(p) = self.src_port {
            if tuple.src_port != p {
                return false;
            }
        }
        if let Some(p) = self.dst_port {
            if tuple.dst_port != p {
                return false;
            }
        }
        if let Some(flex) = self.flex {
            let Some(l4) = packet.meta().l4_offset else {
                return false;
            };
            let off = usize::from(l4) + flex.offset;
            let bytes = packet.bytes();
            if off + 2 > bytes.len() {
                return false;
            }
            let word = u16::from_be_bytes([bytes[off], bytes[off + 1]]);
            if word & flex.mask != flex.value {
                return false;
            }
        }
        true
    }
}

/// One installed rule: filter → target queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FdirRule {
    /// Match criteria.
    pub filter: FdirFilter,
    /// Receive queue packets matching this rule are steered to.
    pub queue: u8,
}

/// Errors installing Flow Director rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FdirError {
    /// The perfect-filter table is full (8 K rules).
    TableFull,
}

impl core::fmt::Display for FdirError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FdirError::TableFull => write!(f, "flow director perfect-filter table is full"),
        }
    }
}

impl std::error::Error for FdirError {}

/// The Flow Director rule table.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FlowDirector {
    rules: Vec<FdirRule>,
    /// Lookup counters for diagnostics.
    matched: u64,
    missed: u64,
}

impl FlowDirector {
    /// An empty rule table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install one rule. Fails when the 8 K perfect-filter table is full.
    pub fn install(&mut self, rule: FdirRule) -> Result<(), FdirError> {
        if self.rules.len() >= FDIR_PERFECT_CAPACITY {
            return Err(FdirError::TableFull);
        }
        self.rules.push(rule);
        Ok(())
    }

    /// Number of installed rules.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Remove all rules.
    pub fn clear(&mut self) {
        self.rules.clear();
    }

    /// Lookups that matched / missed since construction.
    pub fn counters(&self) -> (u64, u64) {
        (self.matched, self.missed)
    }

    /// Install Sprayer's checksum-spray rules (§4).
    ///
    /// Uses the least-significant `k` bits of the TCP checksum, with
    /// `k = ceil(log2(num_queues))`, installing `2^k` rules that exhaust
    /// every masked value — so *every* TCP packet matches some rule and
    /// none spill into the RSS path. Values are assigned to queues
    /// round-robin, which for non-power-of-two queue counts gives the
    /// residual imbalance real hardware would have.
    ///
    /// Returns the number of rules installed.
    pub fn install_checksum_spray(&mut self, num_queues: usize) -> Result<usize, FdirError> {
        assert!((1..=128).contains(&num_queues));
        let k = usize::BITS - (num_queues - 1).leading_zeros(); // ceil(log2)
        let values = 1usize << k;
        let mask = (values - 1) as u16;
        if self.rules.len() + values > FDIR_PERFECT_CAPACITY {
            return Err(FdirError::TableFull);
        }
        for v in 0..values {
            let rule = FdirRule {
                filter: FdirFilter {
                    flex: Some(FlexMatch {
                        offset: TCP_CHECKSUM_OFFSET,
                        mask,
                        value: v as u16,
                    }),
                    ..FdirFilter::for_protocol(Protocol::Tcp)
                },
                queue: (v % num_queues) as u8,
            };
            self.install(rule)?;
        }
        Ok(values)
    }

    /// Look up the queue for `packet`: first matching rule wins (the
    /// hardware reports a single match). `None` means fall back to RSS.
    pub fn lookup(&mut self, packet: &Packet) -> Option<u8> {
        for rule in &self.rules {
            if rule.filter.matches(packet) {
                self.matched += 1;
                return Some(rule.queue);
            }
        }
        self.missed += 1;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprayer_net::{FiveTuple, PacketBuilder, TcpFlags};

    fn tcp_packet(payload: &[u8]) -> Packet {
        let t = FiveTuple::tcp(0x0a000001, 40000, 0x0a000002, 443);
        PacketBuilder::new().tcp(t, 0, 0, TcpFlags::ACK, payload)
    }

    #[test]
    fn spray_rules_cover_every_tcp_packet() {
        let mut fdir = FlowDirector::new();
        let n = fdir.install_checksum_spray(8).unwrap();
        assert_eq!(n, 8);
        for i in 0..200u32 {
            let p = tcp_packet(&i.to_be_bytes());
            assert!(
                fdir.lookup(&p).is_some(),
                "packet {i} must match a spray rule"
            );
        }
        let (matched, missed) = fdir.counters();
        assert_eq!(matched, 200);
        assert_eq!(missed, 0);
    }

    #[test]
    fn spray_queue_equals_checksum_low_bits() {
        let mut fdir = FlowDirector::new();
        fdir.install_checksum_spray(8).unwrap();
        for i in 0..64u32 {
            let p = tcp_packet(&i.to_be_bytes());
            let checksum = p.meta().tcp_checksum.unwrap();
            assert_eq!(fdir.lookup(&p), Some((checksum & 0x7) as u8));
        }
    }

    #[test]
    fn spray_rules_ignore_udp() {
        let mut fdir = FlowDirector::new();
        fdir.install_checksum_spray(8).unwrap();
        let t = FiveTuple::udp(0x0a000001, 5000, 0x0a000002, 53);
        let p = PacketBuilder::new().udp(t, b"x");
        assert_eq!(fdir.lookup(&p), None, "non-TCP must fall back to RSS");
    }

    #[test]
    fn non_power_of_two_queue_counts_round_robin() {
        let mut fdir = FlowDirector::new();
        let n = fdir.install_checksum_spray(6).unwrap();
        assert_eq!(n, 8, "k=3 for 6 queues");
        // Values 0..5 -> queues 0..5, values 6,7 -> queues 0,1.
        let mut queues_seen = std::collections::HashSet::new();
        for i in 0..512u32 {
            let p = tcp_packet(&i.to_be_bytes());
            let q = fdir.lookup(&p).unwrap();
            assert!(q < 6);
            queues_seen.insert(q);
        }
        assert_eq!(queues_seen.len(), 6);
    }

    #[test]
    fn table_capacity_is_enforced() {
        let mut fdir = FlowDirector::new();
        let rule = FdirRule {
            filter: FdirFilter::for_protocol(Protocol::Tcp),
            queue: 0,
        };
        for _ in 0..FDIR_PERFECT_CAPACITY {
            fdir.install(rule).unwrap();
        }
        assert_eq!(fdir.install(rule), Err(FdirError::TableFull));
    }

    #[test]
    fn five_tuple_perfect_filter_matches_exactly() {
        let mut fdir = FlowDirector::new();
        let t = FiveTuple::tcp(0x0a000001, 40000, 0x0a000002, 443);
        fdir.install(FdirRule {
            filter: FdirFilter {
                protocol: Some(Protocol::Tcp),
                src_addr: Some(t.src_addr),
                dst_addr: Some(t.dst_addr),
                src_port: Some(t.src_port),
                dst_port: Some(t.dst_port),
                flex: None,
            },
            queue: 5,
        })
        .unwrap();
        let hit = PacketBuilder::new().tcp(t, 0, 0, TcpFlags::ACK, b"");
        assert_eq!(fdir.lookup(&hit), Some(5));
        let other = FiveTuple::tcp(t.src_addr, 40001, t.dst_addr, 443);
        let miss = PacketBuilder::new().tcp(other, 0, 0, TcpFlags::ACK, b"");
        assert_eq!(fdir.lookup(&miss), None);
    }

    #[test]
    fn first_matching_rule_wins() {
        let mut fdir = FlowDirector::new();
        fdir.install(FdirRule {
            filter: FdirFilter::for_protocol(Protocol::Tcp),
            queue: 1,
        })
        .unwrap();
        fdir.install(FdirRule {
            filter: FdirFilter::for_protocol(Protocol::Tcp),
            queue: 2,
        })
        .unwrap();
        assert_eq!(fdir.lookup(&tcp_packet(b"")), Some(1));
    }

    #[test]
    fn spray_respects_remaining_capacity() {
        let mut fdir = FlowDirector::new();
        let rule = FdirRule {
            filter: FdirFilter::for_protocol(Protocol::Udp),
            queue: 0,
        };
        for _ in 0..FDIR_PERFECT_CAPACITY - 4 {
            fdir.install(rule).unwrap();
        }
        assert_eq!(fdir.install_checksum_spray(8), Err(FdirError::TableFull));
        assert_eq!(fdir.install_checksum_spray(4).unwrap(), 4);
    }
}
