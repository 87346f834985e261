//! TCP header parsing and emission.
//!
//! The checksum field here is load-bearing for the whole reproduction:
//! Sprayer configures Flow Director to direct packets to queues using the
//! low bits of this field (§4 of the paper), so the simulated NIC reads
//! the very bytes emitted by [`TcpHeader::emit`].

use crate::checksum::Checksum;
use crate::{be16, be32, check_len, put16, put32, NetError, Result};
use serde::{Deserialize, Serialize};

/// Length of a TCP header without options.
pub const TCP_HEADER_LEN: usize = 20;

/// TCP flag bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// FIN flag.
    pub const FIN: TcpFlags = TcpFlags(0x01);
    /// SYN flag.
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// RST flag.
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// PSH flag.
    pub const PSH: TcpFlags = TcpFlags(0x08);
    /// ACK flag.
    pub const ACK: TcpFlags = TcpFlags(0x10);
    /// URG flag.
    pub const URG: TcpFlags = TcpFlags(0x20);

    /// The empty flag set.
    pub const NONE: TcpFlags = TcpFlags(0);

    /// True if every bit in `other` is set in `self`.
    pub fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// True if any bit in `other` is set in `self`.
    pub fn intersects(self, other: TcpFlags) -> bool {
        self.0 & other.0 != 0
    }

    /// Whether this packet can modify TCP connection state.
    ///
    /// This is the paper's *connection packet* predicate (§3.2): packets
    /// flagged SYN, FIN, or RST; everything else is a *regular packet*.
    pub fn is_connection_packet(self) -> bool {
        self.intersects(TcpFlags(Self::SYN.0 | Self::FIN.0 | Self::RST.0))
    }
}

impl core::ops::BitOr for TcpFlags {
    type Output = TcpFlags;
    fn bitor(self, rhs: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | rhs.0)
    }
}

impl core::fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let names = [
            (Self::SYN, "SYN"),
            (Self::ACK, "ACK"),
            (Self::FIN, "FIN"),
            (Self::RST, "RST"),
            (Self::PSH, "PSH"),
            (Self::URG, "URG"),
        ];
        let mut first = true;
        for (bit, name) in names {
            if self.contains(bit) {
                if !first {
                    write!(f, "|")?;
                }
                write!(f, "{name}")?;
                first = false;
            }
        }
        if first {
            write!(f, "-")?;
        }
        Ok(())
    }
}

/// What [`validate`] proved about a header, plus the fields frame
/// classification reads: enough for [`crate::Packet::parse`] to build a
/// five-tuple and find the payload without a [`TcpHeader`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValidTcp {
    /// Header length in bytes including options (20..=60, a multiple
    /// of 4, and no longer than the buffer).
    pub header_len: u8,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Flag bits.
    pub flags: TcpFlags,
    /// Checksum as found on the wire (recorded, not verified).
    pub checksum: u16,
}

/// Check that `buf` starts with a well-formed TCP header (fixed part
/// present, data offset in range and inside the buffer) — the one
/// statement of the header's validity rules, shared by
/// [`TcpHeader::parse`] and [`crate::Packet::parse`].
#[inline]
pub fn validate(buf: &[u8]) -> Result<ValidTcp> {
    check_len(buf, TCP_HEADER_LEN)?;
    // A 4-bit word count: at most 60 bytes.
    let header_len = (buf[12] >> 4) * 4;
    let data_offset = usize::from(header_len);
    if data_offset < TCP_HEADER_LEN {
        return Err(NetError::BadLength);
    }
    check_len(buf, data_offset)?;
    Ok(ValidTcp {
        header_len,
        src_port: be16(buf, 0),
        dst_port: be16(buf, 2),
        flags: TcpFlags(buf[13] & 0x3f),
        checksum: be16(buf, 16),
    })
}

/// A parsed TCP header (options preserved as raw bytes).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgement number.
    pub ack: u32,
    /// Flag bits.
    pub flags: TcpFlags,
    /// Receive window.
    pub window: u16,
    /// Checksum as found on the wire (recomputed by [`TcpHeader::emit`]).
    pub checksum: u16,
    /// Urgent pointer.
    pub urgent: u16,
    /// Raw option bytes (multiple of 4, at most 40).
    pub options: Vec<u8>,
}

impl TcpHeader {
    /// A header with common defaults for the given endpoints.
    pub fn simple(src_port: u16, dst_port: u16, seq: u32, flags: TcpFlags) -> Self {
        TcpHeader {
            src_port,
            dst_port,
            seq,
            ack: 0,
            flags,
            window: 0xffff,
            checksum: 0,
            urgent: 0,
            options: Vec::new(),
        }
    }

    /// Header length in bytes including options.
    pub fn header_len(&self) -> usize {
        TCP_HEADER_LEN + self.options.len()
    }

    /// Parse from the start of `buf`. Checksum is *recorded*, not verified
    /// (verification needs the IP pseudo-header; see [`TcpHeader::verify_checksum`]).
    pub fn parse(buf: &[u8]) -> Result<Self> {
        let valid = validate(buf)?;
        Ok(TcpHeader {
            src_port: valid.src_port,
            dst_port: valid.dst_port,
            seq: be32(buf, 4),
            ack: be32(buf, 8),
            flags: valid.flags,
            window: be16(buf, 14),
            checksum: valid.checksum,
            urgent: be16(buf, 18),
            options: buf[TCP_HEADER_LEN..usize::from(valid.header_len)].to_vec(),
        })
    }

    /// Serialize into `buf` followed by `payload` coverage for the
    /// checksum. `pseudo` must be the IP pseudo-header seed covering
    /// header + payload length.
    ///
    /// Only the header bytes are written (the caller places the payload);
    /// returns the header length.
    pub fn emit(&self, buf: &mut [u8], pseudo: Checksum, payload: &[u8]) -> Result<usize> {
        let hlen = self.header_len();
        if hlen > 60 || !self.options.len().is_multiple_of(4) {
            return Err(NetError::Unsupported);
        }
        check_len(buf, hlen)?;
        put16(buf, 0, self.src_port);
        put16(buf, 2, self.dst_port);
        put32(buf, 4, self.seq);
        put32(buf, 8, self.ack);
        buf[12] = ((hlen / 4) as u8) << 4;
        buf[13] = self.flags.0;
        put16(buf, 14, self.window);
        put16(buf, 16, 0);
        put16(buf, 18, self.urgent);
        buf[TCP_HEADER_LEN..hlen].copy_from_slice(&self.options);
        let mut sum = pseudo;
        sum.add_bytes(&buf[..hlen]);
        sum.add_bytes(payload);
        // TCP transmits a computed 0 verbatim (the 0 -> 0xffff remap is a
        // UDP rule); this keeps the field's distribution uniform, which the
        // spraying trick relies on.
        put16(buf, 16, sum.finish());
        Ok(hlen)
    }

    /// Verify the checksum over `segment` (header + payload bytes as they
    /// appear on the wire) against the pseudo-header seed.
    pub fn verify_checksum(pseudo: Checksum, segment: &[u8]) -> bool {
        let mut sum = pseudo;
        sum.add_bytes(segment);
        sum.finish() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum::pseudo_header_v4;
    use crate::ipv4::proto;

    fn pseudo(len: u16) -> Checksum {
        pseudo_header_v4(0xc0a8_0001, 0x0a00_002a, proto::TCP, len)
    }

    #[test]
    fn round_trip_and_checksum_verifies() {
        let hdr = TcpHeader {
            src_port: 443,
            dst_port: 51234,
            seq: 0xdead_beef,
            ack: 0x0102_0304,
            flags: TcpFlags::SYN | TcpFlags::ACK,
            window: 29200,
            checksum: 0,
            urgent: 0,
            options: vec![0x02, 0x04, 0x05, 0xb4], // MSS 1460
        };
        let payload = b"hello sprayer";
        let seg_len = (hdr.header_len() + payload.len()) as u16;
        let mut buf = vec![0u8; 128];
        let hlen = hdr.emit(&mut buf, pseudo(seg_len), payload).unwrap();
        assert_eq!(hlen, 24);
        buf.truncate(hlen);
        buf.extend_from_slice(payload);

        let parsed = TcpHeader::parse(&buf).unwrap();
        assert_eq!(parsed.src_port, hdr.src_port);
        assert_eq!(parsed.dst_port, hdr.dst_port);
        assert_eq!(parsed.seq, hdr.seq);
        assert_eq!(parsed.ack, hdr.ack);
        assert_eq!(parsed.flags, hdr.flags);
        assert_eq!(parsed.options, hdr.options);
        assert!(TcpHeader::verify_checksum(pseudo(seg_len), &buf));
    }

    #[test]
    fn checksum_detects_payload_corruption() {
        let hdr = TcpHeader::simple(1, 2, 3, TcpFlags::ACK);
        let payload = b"payload bytes";
        let seg_len = (hdr.header_len() + payload.len()) as u16;
        let mut buf = vec![0u8; 64];
        let hlen = hdr.emit(&mut buf, pseudo(seg_len), payload).unwrap();
        buf.truncate(hlen);
        buf.extend_from_slice(payload);
        buf[hlen] ^= 0x01;
        assert!(!TcpHeader::verify_checksum(pseudo(seg_len), &buf));
    }

    #[test]
    fn connection_packet_predicate_matches_paper() {
        assert!(TcpFlags::SYN.is_connection_packet());
        assert!(TcpFlags::FIN.is_connection_packet());
        assert!(TcpFlags::RST.is_connection_packet());
        assert!((TcpFlags::SYN | TcpFlags::ACK).is_connection_packet());
        assert!((TcpFlags::FIN | TcpFlags::ACK).is_connection_packet());
        assert!(!TcpFlags::ACK.is_connection_packet());
        assert!(!(TcpFlags::ACK | TcpFlags::PSH).is_connection_packet());
        assert!(!TcpFlags::NONE.is_connection_packet());
    }

    #[test]
    fn parse_rejects_bad_data_offset() {
        let mut buf = [0u8; TCP_HEADER_LEN];
        buf[12] = 0x40; // offset 4 words = 16 bytes < 20
        assert_eq!(TcpHeader::parse(&buf), Err(NetError::BadLength));
    }

    #[test]
    fn flags_display_is_readable() {
        assert_eq!((TcpFlags::SYN | TcpFlags::ACK).to_string(), "SYN|ACK");
        assert_eq!(TcpFlags::NONE.to_string(), "-");
    }

    #[test]
    fn payload_changes_checksum_field() {
        // Different payload content must yield a different checksum — the
        // property the spraying trick depends on.
        let hdr = TcpHeader::simple(1000, 2000, 7, TcpFlags::ACK);
        let seg_len = (hdr.header_len() + 4) as u16;
        let mut b1 = vec![0u8; 32];
        let mut b2 = vec![0u8; 32];
        hdr.emit(&mut b1, pseudo(seg_len), &[1, 2, 3, 4]).unwrap();
        hdr.emit(&mut b2, pseudo(seg_len), &[1, 2, 3, 5]).unwrap();
        assert_ne!(be16(&b1, 16), be16(&b2, 16));
    }
}
