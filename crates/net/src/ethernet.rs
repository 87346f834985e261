//! Ethernet II framing.

use crate::mac::MacAddr;
use crate::{be16, check_len, put16, NetError, Result};
use serde::{Deserialize, Serialize};

/// Length of an Ethernet II header (no 802.1Q tag).
pub const ETHERNET_HEADER_LEN: usize = 14;

/// EtherType values this stack understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EtherType {
    /// IPv4 (0x0800).
    Ipv4,
    /// IPv6 (0x86dd).
    Ipv6,
    /// ARP (0x0806) — recognized so middleboxes can pass it through.
    Arp,
    /// Anything else, preserved verbatim.
    Other(u16),
}

impl EtherType {
    /// The on-wire 16-bit value.
    pub fn to_u16(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::Ipv6 => 0x86dd,
            EtherType::Arp => 0x0806,
            EtherType::Other(v) => v,
        }
    }

    /// Decode from the on-wire value.
    pub fn from_u16(value: u16) -> Self {
        match value {
            0x0800 => EtherType::Ipv4,
            0x86dd => EtherType::Ipv6,
            0x0806 => EtherType::Arp,
            other => EtherType::Other(other),
        }
    }
}

/// A parsed Ethernet II header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EthernetHeader {
    /// Destination MAC.
    pub dst: MacAddr,
    /// Source MAC.
    pub src: MacAddr,
    /// Payload protocol.
    pub ethertype: EtherType,
}

/// Check that `buf` starts with a well-formed Ethernet II header and
/// return its EtherType — the one statement of the header's validity
/// rules, shared by [`EthernetHeader::parse`] and
/// [`crate::Packet::parse`].
#[inline]
pub fn validate(buf: &[u8]) -> Result<EtherType> {
    check_len(buf, ETHERNET_HEADER_LEN)?;
    let ethertype = be16(buf, 12);
    if ethertype < 0x0600 {
        // 802.3 length field rather than an EtherType; the paper's
        // middlebox only sees Ethernet II traffic.
        return Err(NetError::Unsupported);
    }
    Ok(EtherType::from_u16(ethertype))
}

impl EthernetHeader {
    /// Parse a header from the start of `buf`.
    pub fn parse(buf: &[u8]) -> Result<Self> {
        let ethertype = validate(buf)?;
        let mut dst = [0u8; 6];
        dst.copy_from_slice(&buf[0..6]);
        let mut src = [0u8; 6];
        src.copy_from_slice(&buf[6..12]);
        Ok(EthernetHeader {
            dst: MacAddr(dst),
            src: MacAddr(src),
            ethertype,
        })
    }

    /// Serialize into the first [`ETHERNET_HEADER_LEN`] bytes of `buf`.
    pub fn emit(&self, buf: &mut [u8]) -> Result<()> {
        check_len(buf, ETHERNET_HEADER_LEN)?;
        buf[0..6].copy_from_slice(&self.dst.0);
        buf[6..12].copy_from_slice(&self.src.0);
        put16(buf, 12, self.ethertype.to_u16());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EthernetHeader {
        EthernetHeader {
            dst: MacAddr::new(0x02, 0x00, 0x00, 0x00, 0x00, 0x01),
            src: MacAddr::new(0x02, 0x00, 0x00, 0x00, 0x00, 0x02),
            ethertype: EtherType::Ipv4,
        }
    }

    #[test]
    fn round_trip() {
        let hdr = sample();
        let mut buf = [0u8; ETHERNET_HEADER_LEN];
        hdr.emit(&mut buf).unwrap();
        assert_eq!(EthernetHeader::parse(&buf).unwrap(), hdr);
    }

    #[test]
    fn parse_rejects_short_buffer() {
        assert!(matches!(
            EthernetHeader::parse(&[0u8; 13]),
            Err(NetError::Truncated {
                needed: 14,
                available: 13
            })
        ));
    }

    #[test]
    fn parse_rejects_8023_length_field() {
        let mut buf = [0u8; ETHERNET_HEADER_LEN];
        sample().emit(&mut buf).unwrap();
        buf[12] = 0x00;
        buf[13] = 0x40; // length 64 < 0x600
        assert_eq!(EthernetHeader::parse(&buf), Err(NetError::Unsupported));
    }

    #[test]
    fn ethertype_codes_round_trip() {
        for et in [
            EtherType::Ipv4,
            EtherType::Ipv6,
            EtherType::Arp,
            EtherType::Other(0x88cc),
        ] {
            assert_eq!(EtherType::from_u16(et.to_u16()), et);
        }
    }
}
