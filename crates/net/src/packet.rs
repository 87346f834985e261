//! Owned packets: wire bytes plus a parsed metadata view.
//!
//! [`Packet`] is what flows through the simulated NIC, the dispatch
//! policies, and the network functions. It always carries real wire bytes
//! (built by [`PacketBuilder`] with correct checksums), and a
//! [`PacketMeta`] summary extracted once at parse time so hot paths don't
//! re-parse.

use crate::checksum::{incremental_update16, incremental_update32};
use crate::ethernet::{self, EtherType, EthernetHeader, ETHERNET_HEADER_LEN};
use crate::flow::{FiveTuple, Protocol};
use crate::ipv4::{self, proto, Ipv4Header};
use crate::mac::MacAddr;
use crate::tcp::{self, TcpFlags, TcpHeader};
use crate::udp::{UdpHeader, UDP_HEADER_LEN};
use crate::{be16, put16, put32, NetError, Result};
use serde::{Deserialize, Serialize};

/// Minimum Ethernet frame length (without FCS).
pub const MIN_FRAME_LEN: usize = 60;
/// Conventional Ethernet MTU.
pub const MTU: usize = 1500;

/// Parsed summary of a frame, extracted once.
///
/// Offsets and lengths are `u16`: headers end within 14 + 60 + 60 bytes
/// of the frame start and the transport payload is bounded by the IPv4
/// `total_len`, itself a `u16` — so the narrow fields cannot truncate,
/// whatever the frame length. The frame length is [`Packet::len`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PacketMeta {
    /// EtherType of the L3 payload.
    pub ethertype: EtherType,
    /// Five-tuple, if the packet is IPv4 TCP/UDP.
    pub tuple: Option<FiveTuple>,
    /// TCP flags, if TCP.
    pub tcp_flags: Option<TcpFlags>,
    /// The on-wire TCP checksum, if TCP — the field Flow Director's
    /// spraying rule matches on.
    pub tcp_checksum: Option<u16>,
    /// Byte offset of the IP header.
    pub l3_offset: u16,
    /// Byte offset of the transport header, if IPv4.
    pub l4_offset: Option<u16>,
    /// Byte offset of the transport payload, if TCP/UDP.
    pub payload_offset: Option<u16>,
    /// Transport payload length in bytes, if TCP/UDP — bounded by the IP
    /// total length, so Ethernet minimum-frame padding is excluded.
    pub payload_len: Option<u16>,
}

impl PacketMeta {
    /// Whether this is a *connection packet* in the paper's sense (§3.2):
    /// a TCP packet flagged SYN, FIN, or RST.
    pub fn is_connection_packet(&self) -> bool {
        self.tcp_flags.is_some_and(|f| f.is_connection_packet())
    }

    /// Whether this is a TCP packet (sprayable under Sprayer's NIC config).
    pub fn is_tcp(&self) -> bool {
        matches!(self.tuple, Some(t) if t.protocol == Protocol::Tcp)
    }
}

/// An owned Ethernet frame with parsed metadata.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Packet {
    data: Vec<u8>,
    meta: PacketMeta,
}

// The handle every queue, ring and scratch buffer moves by value: one
// cache line (ISSUE 12 sizing table, DESIGN.md "Bytes moved per packet").
const _: () = assert!(core::mem::size_of::<Packet>() <= 64);

/// `ETHERNET_HEADER_LEN` as the `u16` the metadata offsets are kept in.
const L3_OFFSET: u16 = ETHERNET_HEADER_LEN as u16;

impl Packet {
    /// Parse a frame from owned bytes. Non-IP or fragmented payloads still
    /// parse (middleboxes must pass them through); their `tuple` is `None`.
    ///
    /// Builds no header structs: each layer's `validate` checks the header
    /// in place and hands back the few fields the summary keeps.
    pub fn parse(data: Vec<u8>) -> Result<Self> {
        let ethertype = ethernet::validate(&data)?;
        let mut meta = PacketMeta {
            ethertype,
            tuple: None,
            tcp_flags: None,
            tcp_checksum: None,
            l3_offset: L3_OFFSET,
            l4_offset: None,
            payload_offset: None,
            payload_len: None,
        };
        if ethertype == EtherType::Ipv4 {
            let ip = ipv4::validate(&data[ETHERNET_HEADER_LEN..])?;
            let l4_offset = L3_OFFSET + u16::from(ip.header_len);
            meta.l4_offset = Some(l4_offset);
            let l4 = &data[usize::from(l4_offset)..];
            // (protocol, ports, transport header length). Fragments are
            // never classified by ports, so their payload is not looked at.
            let transport = match ip.protocol {
                _ if ip.is_fragment => None,
                proto::TCP => {
                    let tcp = tcp::validate(l4)?;
                    meta.tcp_flags = Some(tcp.flags);
                    meta.tcp_checksum = Some(tcp.checksum);
                    Some((Protocol::Tcp, tcp.src_port, tcp.dst_port, tcp.header_len))
                }
                proto::UDP => {
                    let udp = UdpHeader::parse(l4)?;
                    Some((
                        Protocol::Udp,
                        udp.src_port,
                        udp.dst_port,
                        UDP_HEADER_LEN as u8,
                    ))
                }
                _ => None,
            };
            if let Some((protocol, src_port, dst_port, header_len)) = transport {
                meta.tuple = Some(FiveTuple {
                    src_addr: ip.src,
                    dst_addr: ip.dst,
                    src_port,
                    dst_port,
                    protocol,
                });
                let off = l4_offset + u16::from(header_len);
                meta.payload_offset = Some(off);
                // What the datagram claims, cut to what the frame holds.
                let by_ip = ip.total_len.saturating_sub(off - L3_OFFSET);
                let by_frame = data.len().saturating_sub(usize::from(off));
                meta.payload_len = Some(u16::try_from(by_frame).map_or(by_ip, |f| f.min(by_ip)));
            }
        }
        Ok(Packet { data, meta })
    }

    /// The parsed metadata summary.
    pub fn meta(&self) -> &PacketMeta {
        &self.meta
    }

    /// The five-tuple, if IPv4 TCP/UDP.
    pub fn tuple(&self) -> Option<FiveTuple> {
        self.meta.tuple
    }

    /// The raw frame bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Frame length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the frame is empty (never for parsed packets).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Transport payload bytes, if TCP/UDP. Excludes Ethernet
    /// minimum-frame padding (bounded by the IP total length).
    pub fn payload(&self) -> Option<&[u8]> {
        match (self.meta.payload_offset, self.meta.payload_len) {
            (Some(o), Some(len)) => {
                let o = usize::from(o);
                Some(&self.data[o..o + usize::from(len)])
            }
            _ => None,
        }
    }

    /// Whether this is a connection packet (§3.2).
    pub fn is_connection_packet(&self) -> bool {
        self.meta.is_connection_packet()
    }

    /// Consume and return the raw bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.data
    }

    /// Rewrite the IPv4 source (address, port), updating the IP header
    /// checksum and TCP/UDP checksum incrementally (as a real NAT does).
    pub fn rewrite_src(&mut self, addr: u32, port: u16) -> Result<()> {
        self.rewrite_endpoint(addr, port, true)
    }

    /// Rewrite the IPv4 destination (address, port); see [`Packet::rewrite_src`].
    pub fn rewrite_dst(&mut self, addr: u32, port: u16) -> Result<()> {
        self.rewrite_endpoint(addr, port, false)
    }

    fn rewrite_endpoint(&mut self, addr: u32, port: u16, src: bool) -> Result<()> {
        let tuple = self.meta.tuple.ok_or(NetError::Unsupported)?;
        let l3 = usize::from(self.meta.l3_offset);
        let l4 = usize::from(self.meta.l4_offset.ok_or(NetError::Unsupported)?);

        let (old_addr, old_port, addr_off, port_off) = if src {
            (tuple.src_addr, tuple.src_port, l3 + 12, l4)
        } else {
            (tuple.dst_addr, tuple.dst_port, l3 + 16, l4 + 2)
        };

        // IP header checksum covers the address only.
        let ip_sum_off = l3 + 10;
        let ip_sum = be16(&self.data, ip_sum_off);
        put16(
            &mut self.data,
            ip_sum_off,
            incremental_update32(ip_sum, old_addr, addr),
        );
        put32(&mut self.data, addr_off, addr);

        // Transport checksum covers the pseudo-header (address) and port.
        let l4_sum_off = match tuple.protocol {
            Protocol::Tcp => Some(l4 + 16),
            Protocol::Udp => Some(l4 + 6),
            Protocol::Other(_) => None,
        };
        if let Some(off) = l4_sum_off {
            let mut sum = be16(&self.data, off);
            // A UDP checksum of 0 means "absent"; leave it absent.
            let absent = tuple.protocol == Protocol::Udp && sum == 0;
            if !absent {
                sum = incremental_update32(sum, old_addr, addr);
                sum = incremental_update16(sum, old_port, port);
                if tuple.protocol == Protocol::Udp && sum == 0 {
                    sum = 0xffff;
                }
                put16(&mut self.data, off, sum);
            }
        }
        put16(&mut self.data, port_off, port);

        // Keep the metadata view coherent.
        let t = self.meta.tuple.as_mut().expect("checked above");
        if src {
            t.src_addr = addr;
            t.src_port = port;
        } else {
            t.dst_addr = addr;
            t.dst_port = port;
        }
        if tuple.protocol == Protocol::Tcp {
            self.meta.tcp_checksum = Some(be16(&self.data, l4 + 16));
        }
        Ok(())
    }

    /// Decrement the IPv4 TTL, updating the header checksum incrementally.
    /// Returns the new TTL, or an error for non-IPv4 frames.
    pub fn decrement_ttl(&mut self) -> Result<u8> {
        if self.meta.ethertype != EtherType::Ipv4 {
            return Err(NetError::Unsupported);
        }
        let l3 = usize::from(self.meta.l3_offset);
        let ttl = self.data[l3 + 8];
        if ttl == 0 {
            return Err(NetError::BadLength);
        }
        let new_ttl = ttl - 1;
        // TTL shares a 16-bit word with the protocol field at offset 8.
        let old_word = be16(&self.data, l3 + 8);
        let new_word = (u16::from(new_ttl) << 8) | (old_word & 0x00ff);
        let sum = be16(&self.data, l3 + 10);
        put16(
            &mut self.data,
            l3 + 10,
            incremental_update16(sum, old_word, new_word),
        );
        self.data[l3 + 8] = new_ttl;
        Ok(new_ttl)
    }
}

/// Builds complete frames with correct checksums.
///
/// Defaults: locally administered MACs, TTL 64, don't-fragment, window
/// 0xffff. Frames shorter than [`MIN_FRAME_LEN`] are zero-padded (padding
/// is outside the IP `total_len`, as on real Ethernet).
#[derive(Debug, Clone)]
pub struct PacketBuilder {
    src_mac: MacAddr,
    dst_mac: MacAddr,
    ttl: u8,
    window: u16,
    pad_to_min: bool,
}

impl Default for PacketBuilder {
    fn default() -> Self {
        PacketBuilder {
            src_mac: MacAddr::from_index(1),
            dst_mac: MacAddr::from_index(2),
            ttl: 64,
            window: 0xffff,
            pad_to_min: true,
        }
    }
}

impl PacketBuilder {
    /// A builder with default link-layer parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the MAC addresses.
    pub fn macs(mut self, src: MacAddr, dst: MacAddr) -> Self {
        self.src_mac = src;
        self.dst_mac = dst;
        self
    }

    /// Set the IPv4 TTL.
    pub fn ttl(mut self, ttl: u8) -> Self {
        self.ttl = ttl;
        self
    }

    /// Set the advertised TCP window.
    pub fn window(mut self, window: u16) -> Self {
        self.window = window;
        self
    }

    /// Disable padding to the 60-byte Ethernet minimum.
    pub fn no_padding(mut self) -> Self {
        self.pad_to_min = false;
        self
    }

    /// Build a TCP/IPv4 frame.
    pub fn tcp(
        &self,
        tuple: FiveTuple,
        seq: u32,
        ack: u32,
        flags: TcpFlags,
        payload: &[u8],
    ) -> Packet {
        self.tcp_in(Vec::new(), tuple, seq, ack, flags, payload)
    }

    /// [`PacketBuilder::tcp`] into `data`, whatever it held: a caller
    /// that recycles frame buffers ([`Packet::into_bytes`]) builds
    /// without allocating.
    pub fn tcp_in(
        &self,
        mut data: Vec<u8>,
        tuple: FiveTuple,
        seq: u32,
        ack: u32,
        flags: TcpFlags,
        payload: &[u8],
    ) -> Packet {
        assert_eq!(tuple.protocol, Protocol::Tcp, "tuple must be TCP");
        let tcp_len = crate::tcp::TCP_HEADER_LEN + payload.len();
        let mut ip = Ipv4Header::simple(tuple.src_addr, tuple.dst_addr, proto::TCP, tcp_len as u16);
        ip.ttl = self.ttl;
        let frame_len = ETHERNET_HEADER_LEN + ip.header_len() + tcp_len;
        data.clear();
        data.resize(
            frame_len.max(if self.pad_to_min { MIN_FRAME_LEN } else { 0 }),
            0,
        );

        let eth = EthernetHeader {
            dst: self.dst_mac,
            src: self.src_mac,
            ethertype: EtherType::Ipv4,
        };
        eth.emit(&mut data).expect("buffer sized above");
        let ip_len = ip
            .emit(&mut data[ETHERNET_HEADER_LEN..])
            .expect("buffer sized above");
        let l4 = ETHERNET_HEADER_LEN + ip_len;

        let mut tcp = TcpHeader::simple(tuple.src_port, tuple.dst_port, seq, flags);
        tcp.ack = ack;
        tcp.window = self.window;
        let pseudo = ip.pseudo_header();
        let tcp_hlen = tcp
            .emit(&mut data[l4..], pseudo, payload)
            .expect("buffer sized above");
        data[l4 + tcp_hlen..l4 + tcp_hlen + payload.len()].copy_from_slice(payload);

        Packet::parse(data).expect("builder emits well-formed frames")
    }

    /// Build a UDP/IPv4 frame.
    pub fn udp(&self, tuple: FiveTuple, payload: &[u8]) -> Packet {
        assert_eq!(tuple.protocol, Protocol::Udp, "tuple must be UDP");
        let udp_len = UDP_HEADER_LEN + payload.len();
        let mut ip = Ipv4Header::simple(tuple.src_addr, tuple.dst_addr, proto::UDP, udp_len as u16);
        ip.ttl = self.ttl;
        let frame_len = ETHERNET_HEADER_LEN + ip.header_len() + udp_len;
        let mut data = vec![0u8; frame_len.max(if self.pad_to_min { MIN_FRAME_LEN } else { 0 })];

        let eth = EthernetHeader {
            dst: self.dst_mac,
            src: self.src_mac,
            ethertype: EtherType::Ipv4,
        };
        eth.emit(&mut data).expect("buffer sized above");
        let ip_len = ip
            .emit(&mut data[ETHERNET_HEADER_LEN..])
            .expect("buffer sized above");
        let l4 = ETHERNET_HEADER_LEN + ip_len;

        let udp = UdpHeader::simple(tuple.src_port, tuple.dst_port, payload.len() as u16);
        let pseudo = ip.pseudo_header();
        udp.emit(&mut data[l4..], pseudo, payload)
            .expect("buffer sized above");
        data[l4 + UDP_HEADER_LEN..l4 + udp_len].copy_from_slice(payload);

        Packet::parse(data).expect("builder emits well-formed frames")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum::pseudo_header_v4;

    fn tcp_tuple() -> FiveTuple {
        FiveTuple::tcp(0xc0a8_0001, 40000, 0x0a00_002a, 443)
    }

    fn verify_tcp_checksum(p: &Packet) -> bool {
        let l3 = usize::from(p.meta().l3_offset);
        let ip = Ipv4Header::parse(&p.bytes()[l3..]).unwrap();
        let l4 = l3 + ip.header_len();
        let seg_len = ip.total_len as usize - ip.header_len();
        let pseudo = pseudo_header_v4(ip.src, ip.dst, ip.protocol, seg_len as u16);
        TcpHeader::verify_checksum(pseudo, &p.bytes()[l4..l4 + seg_len])
    }

    #[test]
    fn builder_emits_parseable_tcp_frame() {
        let p = PacketBuilder::new().tcp(tcp_tuple(), 100, 0, TcpFlags::SYN, b"");
        assert_eq!(p.tuple(), Some(tcp_tuple()));
        assert!(p.is_connection_packet());
        assert_eq!(p.len(), MIN_FRAME_LEN);
        assert!(verify_tcp_checksum(&p));
    }

    #[test]
    fn payload_round_trips() {
        let p = PacketBuilder::new().tcp(tcp_tuple(), 1, 2, TcpFlags::ACK, b"data!");
        assert_eq!(p.payload().unwrap(), b"data!");
        assert!(!p.is_connection_packet());
    }

    #[test]
    fn payload_excludes_minimum_frame_padding() {
        // A 60-byte frame with a 4-byte payload has 2 bytes of padding
        // beyond the IP datagram; payload() must not expose them.
        let p = PacketBuilder::new().tcp(tcp_tuple(), 1, 2, TcpFlags::ACK, b"tiny");
        assert_eq!(p.len(), MIN_FRAME_LEN);
        assert_eq!(p.payload().unwrap(), b"tiny");
        let empty = PacketBuilder::new().tcp(tcp_tuple(), 1, 2, TcpFlags::ACK, b"");
        assert_eq!(empty.payload().unwrap(), b"");
    }

    #[test]
    fn a_recycled_buffer_builds_the_same_frame() {
        let b = PacketBuilder::new();
        let fresh = b.tcp(tcp_tuple(), 7, 9, TcpFlags::ACK, b"tiny");
        let big = b.tcp(tcp_tuple(), 1, 2, TcpFlags::PSH, &[0xff; 200]);
        let reused = b.tcp_in(big.into_bytes(), tcp_tuple(), 7, 9, TcpFlags::ACK, b"tiny");
        assert_eq!(reused.bytes(), fresh.bytes());
        assert_eq!(reused.meta(), fresh.meta());
    }

    #[test]
    fn udp_frame_parses_with_tuple() {
        let t = FiveTuple::udp(0x0a000001, 5000, 0x0a000002, 53);
        let p = PacketBuilder::new().udp(t, b"query");
        assert_eq!(p.tuple(), Some(t));
        assert!(!p.meta().is_tcp());
        assert!(p.meta().tcp_checksum.is_none());
    }

    #[test]
    fn rewrite_src_keeps_checksums_valid() {
        let mut p = PacketBuilder::new().tcp(tcp_tuple(), 10, 20, TcpFlags::ACK, b"x");
        p.rewrite_src(0x0101_0101, 6666).unwrap();
        let t = p.tuple().unwrap();
        assert_eq!(t.src_addr, 0x0101_0101);
        assert_eq!(t.src_port, 6666);
        // Both checksums must still verify after the incremental update.
        let reparsed = Packet::parse(p.bytes().to_vec()).unwrap();
        assert_eq!(reparsed.tuple().unwrap(), t);
        assert!(verify_tcp_checksum(&p));
    }

    #[test]
    fn rewrite_dst_keeps_checksums_valid() {
        let mut p = PacketBuilder::new().tcp(tcp_tuple(), 10, 20, TcpFlags::ACK, b"hi");
        p.rewrite_dst(0x0202_0202, 7777).unwrap();
        assert!(verify_tcp_checksum(&p));
        assert_eq!(p.tuple().unwrap().dst_port, 7777);
    }

    #[test]
    fn rewrite_updates_meta_tcp_checksum() {
        let mut p = PacketBuilder::new().tcp(tcp_tuple(), 10, 20, TcpFlags::ACK, b"zz");
        let before = p.meta().tcp_checksum.unwrap();
        p.rewrite_src(0xdead_beef, 1).unwrap();
        let after = p.meta().tcp_checksum.unwrap();
        assert_ne!(before, after);
        // Meta must match the wire.
        let reparsed = Packet::parse(p.bytes().to_vec()).unwrap();
        assert_eq!(reparsed.meta().tcp_checksum, Some(after));
    }

    #[test]
    fn udp_rewrite_keeps_checksum_valid() {
        let t = FiveTuple::udp(0x0a000001, 5000, 0x0a000002, 53);
        let mut p = PacketBuilder::new().udp(t, b"abcd");
        p.rewrite_src(0x0b000001, 5001).unwrap();
        let l3 = usize::from(p.meta().l3_offset);
        let ip = Ipv4Header::parse(&p.bytes()[l3..]).unwrap();
        let l4 = l3 + ip.header_len();
        let seg_len = ip.total_len as usize - ip.header_len();
        let mut sum = pseudo_header_v4(ip.src, ip.dst, ip.protocol, seg_len as u16);
        sum.add_bytes(&p.bytes()[l4..l4 + seg_len]);
        assert_eq!(sum.finish(), 0);
    }

    #[test]
    fn decrement_ttl_keeps_ip_checksum_valid() {
        let mut p = PacketBuilder::new()
            .ttl(17)
            .tcp(tcp_tuple(), 0, 0, TcpFlags::ACK, b"");
        assert_eq!(p.decrement_ttl().unwrap(), 16);
        // Re-parse verifies the IP checksum.
        let reparsed = Packet::parse(p.bytes().to_vec()).unwrap();
        assert_eq!(
            reparsed.bytes()[usize::from(reparsed.meta().l3_offset) + 8],
            16
        );
    }

    #[test]
    fn decrement_ttl_zero_fails() {
        let mut p = PacketBuilder::new()
            .ttl(0)
            .tcp(tcp_tuple(), 0, 0, TcpFlags::ACK, b"");
        assert!(p.decrement_ttl().is_err());
    }

    #[test]
    fn variable_payload_produces_variable_checksum() {
        // MoonGen-style 64 B packets with varying payload must yield
        // varying TCP checksums — the entropy source for spraying.
        let mut seen = std::collections::HashSet::new();
        for i in 0u16..64 {
            let payload = i.to_be_bytes();
            let p = PacketBuilder::new().tcp(tcp_tuple(), 0, 0, TcpFlags::ACK, &payload);
            seen.insert(p.meta().tcp_checksum.unwrap());
        }
        assert!(
            seen.len() >= 60,
            "checksums should be near-distinct, got {}",
            seen.len()
        );
    }

    #[test]
    fn padding_is_outside_ip_total_len() {
        let p = PacketBuilder::new().tcp(tcp_tuple(), 0, 0, TcpFlags::ACK, b"");
        let ip = Ipv4Header::parse(&p.bytes()[ETHERNET_HEADER_LEN..]).unwrap();
        assert_eq!(ip.total_len as usize, IPV4_TOTAL_FOR_EMPTY_TCP);
        assert_eq!(p.len(), MIN_FRAME_LEN);
    }

    const IPV4_TOTAL_FOR_EMPTY_TCP: usize = 40;

    #[test]
    fn non_ip_frame_parses_without_tuple() {
        let mut data = vec![0u8; MIN_FRAME_LEN];
        EthernetHeader {
            dst: MacAddr::BROADCAST,
            src: MacAddr::from_index(9),
            ethertype: EtherType::Arp,
        }
        .emit(&mut data)
        .unwrap();
        let p = Packet::parse(data).unwrap();
        assert_eq!(p.tuple(), None);
        assert!(!p.is_connection_packet());
        assert_eq!(p.meta().ethertype, EtherType::Arp);
    }

    #[test]
    fn fragment_has_no_tuple() {
        // Build a TCP frame, then mark it as a fragment and re-parse.
        let p = PacketBuilder::new().tcp(tcp_tuple(), 0, 0, TcpFlags::ACK, b"abc");
        let mut bytes = p.into_bytes();
        let l3 = ETHERNET_HEADER_LEN;
        // Set more-fragments and fix the IP checksum.
        let old = be16(&bytes, l3 + 6);
        let new = old | 0x2000;
        let sum = be16(&bytes, l3 + 10);
        put16(&mut bytes, l3 + 10, incremental_update16(sum, old, new));
        put16(&mut bytes, l3 + 6, new);
        let p = Packet::parse(bytes).unwrap();
        assert_eq!(p.tuple(), None, "fragments must not be classified by ports");
    }
}
