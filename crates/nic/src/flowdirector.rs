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
//!
//! ## Lookup
//!
//! The hardware matches every perfect filter in parallel; a model that
//! scans the rule list pays per rule instead. So [`FlowDirector::install`]
//! files each rule under its *shape* — which fields it sets, plus the
//! flex word's offset and mask — in an exact-match index from the masked
//! key to the lowest rule index with that key. [`FlowDirector::lookup`]
//! probes each shape once and keeps the lowest index hit, which is
//! first-match-wins over the whole list. The checksum-spray table is a
//! single shape, so steering a sprayed packet is one probe whatever the
//! rule count; the linear scan lives on only as the tests' reference.

use serde::{Deserialize, Serialize};
use sprayer_net::{Packet, Protocol};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

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

    /// Which fields this filter compares, and where its flex word sits.
    fn shape(&self) -> Shape {
        let set = |on: bool| if on { u32::MAX } else { 0 };
        Shape {
            mask: pack_key(
                (set(self.protocol.is_some()) & 0x1ff) as u16,
                set(self.src_addr.is_some()),
                set(self.dst_addr.is_some()),
                set(self.src_port.is_some()) as u16,
                set(self.dst_port.is_some()) as u16,
                self.flex.map_or(0, |f| f.mask),
            ),
            flex_offset: self.flex.map(|f| f.offset),
        }
    }

    /// The key this filter is filed under in its shape's index. A flex
    /// value with bits outside its mask is kept as is: no packet's
    /// masked key can equal it, exactly as no packet satisfies it.
    fn key(&self) -> u128 {
        pack_key(
            self.protocol.map_or(0, protocol_code),
            self.src_addr.unwrap_or(0),
            self.dst_addr.unwrap_or(0),
            self.src_port.unwrap_or(0),
            self.dst_port.unwrap_or(0),
            self.flex.map_or(0, |f| f.value),
        )
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

/// What a filter compares: a mask over the packed key (its set fields
/// and flex mask) and its flex word's offset. Filters of one shape
/// differ only in their values, so one exact-match probe decides among
/// all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Shape {
    mask: u128,
    flex_offset: Option<usize>,
}

impl Shape {
    /// `packet`'s key under this shape. `None` when no filter of this
    /// shape can match — no five-tuple, or no flex word inside the frame.
    #[inline]
    fn key_of(&self, packet: &Packet) -> Option<u128> {
        let tuple = packet.tuple()?;
        let flex = match self.flex_offset {
            None => 0,
            Some(offset) => {
                let off = usize::from(packet.meta().l4_offset?) + offset;
                let word = packet.bytes().get(off..off + 2)?;
                u16::from_be_bytes([word[0], word[1]])
            }
        };
        let key = pack_key(
            protocol_code(tuple.protocol),
            tuple.src_addr,
            tuple.dst_addr,
            tuple.src_port,
            tuple.dst_port,
            flex,
        );
        Some(key & self.mask)
    }
}

/// A protocol as a 9-bit key field: TCP and UDP stay distinct from an
/// `Other` carrying their numbers, as they are under `==`.
fn protocol_code(p: Protocol) -> u16 {
    match p {
        Protocol::Tcp => 0x100,
        Protocol::Udp => 0x101,
        Protocol::Other(n) => u16::from(n),
    }
}

/// The 121 key bits in one word: the flex word, ports and protocol
/// low, the addresses high.
#[inline]
fn pack_key(protocol: u16, src_addr: u32, dst_addr: u32, sp: u16, dp: u16, flex: u16) -> u128 {
    let lo =
        u64::from(flex) | u64::from(sp) << 16 | u64::from(dp) << 32 | u64::from(protocol) << 48;
    let hi = u64::from(src_addr) | u64::from(dst_addr) << 32;
    u128::from(lo) | u128::from(hi) << 64
}

/// One multiply-fold per key: the probe is on every packet's path. The
/// keys an index holds are installed rules (configuration, at most
/// 8 K); a packet only probes, so no packet can lengthen a chain.
#[derive(Debug, Default, Clone, Copy)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    #[inline]
    fn write_u128(&mut self, key: u128) {
        let (lo, hi) = (key as u64, (key >> 64) as u64);
        let h = (lo ^ hi.wrapping_mul(0x9e37_79b9_7f4a_7c15)).wrapping_mul(0xff51_afd7_ed55_8ccd);
        self.0 = h ^ (h >> 32);
    }
}

/// One shape's exact-match index: masked key → lowest rule index.
#[derive(Debug, Clone)]
struct ShapeIndex {
    shape: Shape,
    /// The lowest rule index filed here; shapes are kept in ascending
    /// `first` order, which is the order they first appeared in.
    first: usize,
    rules: HashMap<u128, usize, BuildHasherDefault<KeyHasher>>,
}

/// The Flow Director rule table.
#[derive(Debug, Clone, Default)]
pub struct FlowDirector {
    rules: Vec<FdirRule>,
    /// The rules compiled by shape, see the module docs.
    index: Vec<ShapeIndex>,
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
        let at = self.rules.len();
        let shape = rule.filter.shape();
        let slot = match self.index.iter().position(|s| s.shape == shape) {
            Some(slot) => slot,
            None => {
                self.index.push(ShapeIndex {
                    shape,
                    first: at,
                    rules: HashMap::default(),
                });
                self.index.len() - 1
            }
        };
        // A duplicate key keeps the earlier rule: first match wins.
        self.index[slot]
            .rules
            .entry(rule.filter.key())
            .or_insert(at);
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
        self.index.clear();
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
    /// One probe per shape, stopping at the first shape whose rules all
    /// come after the best hit so far.
    pub fn lookup(&mut self, packet: &Packet) -> Option<u8> {
        let mut best: Option<usize> = None;
        for shape in &self.index {
            if best.is_some_and(|b| b < shape.first) {
                break;
            }
            if let Some(&at) = shape.shape.key_of(packet).and_then(|k| shape.rules.get(&k)) {
                best = Some(best.map_or(at, |b| b.min(at)));
            }
        }
        match best {
            Some(at) => {
                self.matched += 1;
                Some(self.rules[at].queue)
            }
            None => {
                self.missed += 1;
                None
            }
        }
    }

    /// The reference [`FlowDirector::lookup`]: the rule list scanned in
    /// order, first match wins.
    #[cfg(test)]
    fn lookup_linear(&mut self, packet: &Packet) -> Option<u8> {
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

    mod index_vs_scan {
        use super::super::*;
        use proptest::prelude::*;
        use sprayer_net::{
            incremental_update16, EtherType, EthernetHeader, FiveTuple, MacAddr, PacketBuilder,
            TcpFlags, ETHERNET_HEADER_LEN,
        };

        // Small pools, so random rules and random packets meet.
        const ADDRS: [u32; 3] = [0x0a00_0001, 0x0a00_0002, 0xc0a8_0101];
        const PORTS: [u16; 3] = [80, 443, 40000];

        fn addr() -> impl Strategy<Value = u32> {
            (0usize..3).prop_map(|i| ADDRS[i])
        }

        fn port() -> impl Strategy<Value = u16> {
            (0usize..3).prop_map(|i| PORTS[i])
        }

        fn protocol() -> impl Strategy<Value = Protocol> {
            prop_oneof![
                Just(Protocol::Tcp),
                Just(Protocol::Udp),
                // 6 and 17 included: `Other(6)` is not TCP.
                any::<u8>().prop_map(Protocol::Other),
            ]
        }

        fn flex() -> impl Strategy<Value = FlexMatch> {
            let mask = prop_oneof![
                Just(0u16),
                Just(1u16),
                Just(3u16),
                Just(0x7fu16),
                Just(0xffffu16),
                any::<u16>(),
            ];
            (0usize..40, mask, any::<u16>(), any::<bool>()).prop_map(|(offset, mask, v, masked)| {
                FlexMatch {
                    offset,
                    mask,
                    // Now and then a value no masked word can equal.
                    value: if masked { v & mask } else { v },
                }
            })
        }

        fn filter() -> impl Strategy<Value = FdirFilter> {
            let any_shape = (
                proptest::option::of(protocol()),
                proptest::option::of(addr()),
                proptest::option::of(addr()),
                proptest::option::of(port()),
                proptest::option::of(port()),
                proptest::option::of(flex()),
            )
                .prop_map(
                    |(protocol, src_addr, dst_addr, src_port, dst_port, flex)| FdirFilter {
                        protocol,
                        src_addr,
                        dst_addr,
                        src_port,
                        dst_port,
                        flex,
                    },
                );
            let five_tuple =
                (protocol(), addr(), addr(), port(), port()).prop_map(|(p, sa, da, sp, dp)| {
                    FdirFilter {
                        protocol: Some(p),
                        src_addr: Some(sa),
                        dst_addr: Some(da),
                        src_port: Some(sp),
                        dst_port: Some(dp),
                        flex: None,
                    }
                });
            prop_oneof![
                protocol().prop_map(FdirFilter::for_protocol),
                five_tuple,
                (protocol(), flex()).prop_map(|(p, f)| FdirFilter {
                    flex: Some(f),
                    ..FdirFilter::for_protocol(p)
                }),
                any_shape,
            ]
        }

        /// Rules, then copies of some of them re-installed later under
        /// other queues, with a spray table for 1–128 queues at a random
        /// point of the list.
        fn table() -> impl Strategy<Value = FlowDirector> {
            (
                proptest::collection::vec((filter(), any::<u8>()), 1..=64),
                proptest::collection::vec((any::<usize>(), any::<u8>()), 0..8),
                proptest::option::of((1usize..=128, any::<usize>())),
            )
                .prop_map(|(rules, dups, spray)| {
                    let mut rules: Vec<FdirRule> = rules
                        .into_iter()
                        .map(|(filter, queue)| FdirRule { filter, queue })
                        .collect();
                    for (i, queue) in dups {
                        let filter = rules[i % rules.len()].filter;
                        rules.push(FdirRule { filter, queue });
                    }
                    let mut fdir = FlowDirector::new();
                    let at = spray.map_or(rules.len(), |(_, at)| at % (rules.len() + 1));
                    for rule in &rules[..at] {
                        fdir.install(*rule).unwrap();
                    }
                    if let Some((queues, _)) = spray {
                        fdir.install_checksum_spray(queues).unwrap();
                    }
                    for rule in &rules[at..] {
                        fdir.install(*rule).unwrap();
                    }
                    fdir
                })
        }

        fn fragment(p: Packet) -> Packet {
            let mut bytes = p.into_bytes();
            let at = ETHERNET_HEADER_LEN + 6;
            let old = u16::from_be_bytes([bytes[at], bytes[at + 1]]);
            let new = old | 0x2000; // more fragments
            let sum_at = ETHERNET_HEADER_LEN + 10;
            let sum = u16::from_be_bytes([bytes[sum_at], bytes[sum_at + 1]]);
            bytes[sum_at..sum_at + 2]
                .copy_from_slice(&incremental_update16(sum, old, new).to_be_bytes());
            bytes[at..at + 2].copy_from_slice(&new.to_be_bytes());
            Packet::parse(bytes).unwrap()
        }

        fn non_ip() -> Packet {
            let mut data = vec![0u8; 60];
            EthernetHeader {
                dst: MacAddr::BROADCAST,
                src: MacAddr::from_index(3),
                ethertype: EtherType::Arp,
            }
            .emit(&mut data)
            .unwrap();
            Packet::parse(data).unwrap()
        }

        fn packet() -> impl Strategy<Value = Packet> {
            prop_oneof![
                (
                    addr(),
                    port(),
                    addr(),
                    port(),
                    proptest::collection::vec(any::<u8>(), 0..24)
                )
                    .prop_map(|(sa, sp, da, dp, payload)| PacketBuilder::new()
                        .tcp(
                            FiveTuple::tcp(sa, sp, da, dp),
                            0,
                            0,
                            TcpFlags::ACK,
                            &payload
                        )),
                (
                    addr(),
                    port(),
                    addr(),
                    port(),
                    proptest::collection::vec(any::<u8>(), 0..24)
                )
                    .prop_map(|(sa, sp, da, dp, payload)| {
                        PacketBuilder::new().udp(FiveTuple::udp(sa, sp, da, dp), &payload)
                    }),
                // Short L4: unpadded frames end where the headers (and a
                // few payload bytes) do, so far flex words fall outside.
                (addr(), port(), addr(), port(), 0usize..4, any::<bool>()).prop_map(
                    |(sa, sp, da, dp, len, tcp)| {
                        let b = PacketBuilder::new().no_padding();
                        let payload = vec![0xa5; len];
                        if tcp {
                            b.tcp(
                                FiveTuple::tcp(sa, sp, da, dp),
                                0,
                                0,
                                TcpFlags::SYN,
                                &payload,
                            )
                        } else {
                            b.udp(FiveTuple::udp(sa, sp, da, dp), &payload)
                        }
                    }
                ),
                (addr(), port(), addr(), port(), any::<u32>()).prop_map(|(sa, sp, da, dp, seq)| {
                    fragment(PacketBuilder::new().tcp(
                        FiveTuple::tcp(sa, sp, da, dp),
                        seq,
                        0,
                        TcpFlags::ACK,
                        b"frag",
                    ))
                }),
                Just(()).prop_map(|()| non_ip()),
            ]
        }

        proptest! {
            /// The per-shape index returns what the rule scan returns —
            /// queue, miss, and both counters — for any table and packet.
            #[test]
            fn lookup_matches_the_linear_scan(
                fdir in table(),
                packets in proptest::collection::vec(packet(), 1..32),
            ) {
                let (mut indexed, mut scanned) = (fdir.clone(), fdir);
                for p in &packets {
                    prop_assert_eq!(indexed.lookup(p), scanned.lookup_linear(p));
                }
                prop_assert_eq!(indexed.counters(), scanned.counters());
            }
        }
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
