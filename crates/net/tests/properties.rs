//! Property-based tests for the wire-format crate.

use proptest::prelude::*;
use sprayer_net::checksum::{incremental_update16, internet_checksum, Checksum};
use sprayer_net::ethernet::{EtherType, EthernetHeader, ETHERNET_HEADER_LEN};
use sprayer_net::flow::{FiveTuple, Protocol};
use sprayer_net::ipv4::{proto, Ipv4Header};
use sprayer_net::packet::{Packet, PacketBuilder, PacketMeta};
use sprayer_net::tcp::{TcpFlags, TcpHeader};
use sprayer_net::udp::{UdpHeader, UDP_HEADER_LEN};
use sprayer_net::{MacAddr, NetError};

fn arb_tuple() -> impl Strategy<Value = FiveTuple> {
    (
        any::<u32>(),
        any::<u16>(),
        any::<u32>(),
        any::<u16>(),
        prop_oneof![Just(true), Just(false)],
    )
        .prop_map(|(sa, sp, da, dp, is_tcp)| {
            if is_tcp {
                FiveTuple::tcp(sa, sp, da, dp)
            } else {
                FiveTuple::udp(sa, sp, da, dp)
            }
        })
}

proptest! {
    /// Splitting the input at any point must not change the checksum.
    #[test]
    fn checksum_split_invariance(data in proptest::collection::vec(any::<u8>(), 0..512), split in any::<prop::sample::Index>()) {
        let whole = internet_checksum(&data);
        let at = if data.is_empty() { 0 } else { split.index(data.len()) };
        let mut c = Checksum::new();
        c.add_bytes(&data[..at]);
        c.add_bytes(&data[at..]);
        prop_assert_eq!(c.finish(), whole);
    }

    /// The wide-word (8-bytes-per-step) summation in `add_bytes` must be
    /// bit-identical to the byte-pair definition of RFC 1071 for any
    /// input, including inputs fed in odd-length fragments (which shift
    /// the word alignment seen by the wide loop).
    #[test]
    fn checksum_wide_path_matches_bytepair_definition(
        data in proptest::collection::vec(any::<u8>(), 0..512),
        splits in proptest::collection::vec(any::<prop::sample::Index>(), 0..4),
    ) {
        // Reference: the RFC's definition, one 16-bit word at a time.
        let mut reference = 0u64;
        for pair in data.chunks(2) {
            let word = if pair.len() == 2 {
                u16::from_be_bytes([pair[0], pair[1]])
            } else {
                u16::from_be_bytes([pair[0], 0])
            };
            reference += u64::from(word);
        }
        while reference >> 16 != 0 {
            reference = (reference & 0xffff) + (reference >> 16);
        }
        let reference = !(reference as u16);

        // One-shot (hits the wide loop for data >= 8 bytes).
        prop_assert_eq!(internet_checksum(&data), reference);

        // Fragmented at arbitrary points: the pending-byte machinery must
        // re-pair across boundaries and still match.
        let mut at: Vec<usize> = splits
            .iter()
            .map(|s| if data.is_empty() { 0 } else { s.index(data.len()) })
            .collect();
        at.sort_unstable();
        let mut c = Checksum::new();
        let mut prev = 0;
        for &cut in &at {
            c.add_bytes(&data[prev..cut]);
            prev = cut;
        }
        c.add_bytes(&data[prev..]);
        prop_assert_eq!(c.finish(), reference);
    }

    /// Incremental update must always agree with full recomputation.
    #[test]
    fn incremental_matches_recompute(
        mut data in proptest::collection::vec(any::<u8>(), 20..64),
        word_idx in 0usize..9,
        new_word in any::<u16>(),
    ) {
        // Treat offset 18 as the checksum field; change word at 2*word_idx.
        let csum_off = 18;
        data[csum_off] = 0;
        data[csum_off + 1] = 0;
        let sum = internet_checksum(&data);
        data[csum_off..csum_off + 2].copy_from_slice(&sum.to_be_bytes());

        let off = word_idx * 2;
        let old_word = u16::from_be_bytes([data[off], data[off + 1]]);
        data[off..off + 2].copy_from_slice(&new_word.to_be_bytes());
        let updated = incremental_update16(sum, old_word, new_word);

        data[csum_off] = 0;
        data[csum_off + 1] = 0;
        let expect = internet_checksum(&data);
        prop_assert_eq!(updated, expect);
    }

    /// A filled-in checksum always self-verifies.
    #[test]
    fn filled_checksum_verifies(data in proptest::collection::vec(any::<u8>(), 2..256)) {
        let mut data = data;
        data[0] = 0;
        data[1] = 0;
        let sum = internet_checksum(&data);
        data[..2].copy_from_slice(&sum.to_be_bytes());
        prop_assert_eq!(internet_checksum(&data), 0);
    }

    /// Flow keys are direction-insensitive and injective on unordered pairs.
    #[test]
    fn flow_key_symmetry(t in arb_tuple()) {
        prop_assert_eq!(t.key(), t.reversed().key());
        prop_assert_eq!(t.key().stable_hash(), t.reversed().key().stable_hash());
    }

    /// Builder output always re-parses to the same five-tuple, flags and
    /// payload, and its TCP checksum verifies.
    #[test]
    fn built_tcp_frames_roundtrip(
        sa in any::<u32>(), sp in any::<u16>(), da in any::<u32>(), dp in any::<u16>(),
        seq in any::<u32>(), ack in any::<u32>(),
        flags in 0u8..0x40,
        payload in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let tuple = FiveTuple::tcp(sa, sp, da, dp);
        let p = PacketBuilder::new().tcp(tuple, seq, ack, TcpFlags(flags), &payload);
        let reparsed = Packet::parse(p.bytes().to_vec()).unwrap();
        prop_assert_eq!(reparsed.tuple(), Some(tuple));
        prop_assert_eq!(reparsed.meta().tcp_flags, Some(TcpFlags(flags)));
        prop_assert_eq!(&reparsed.payload().unwrap()[..payload.len()], &payload[..]);

        // Verify the transport checksum end to end.
        let l3 = usize::from(reparsed.meta().l3_offset);
        let ip = Ipv4Header::parse(&reparsed.bytes()[l3..]).unwrap();
        prop_assert_eq!(ip.protocol, proto::TCP);
        let l4 = l3 + ip.header_len();
        let seg = ip.total_len as usize - ip.header_len();
        prop_assert!(TcpHeader::verify_checksum(
            ip.pseudo_header(),
            &reparsed.bytes()[l4..l4 + seg]
        ));
    }

    /// Endpoint rewrites preserve checksum validity for any rewrite target.
    #[test]
    fn rewrites_preserve_validity(
        t in arb_tuple(),
        new_addr in any::<u32>(),
        new_port in any::<u16>(),
        rewrite_src in any::<bool>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut p = match t.protocol {
            Protocol::Tcp => PacketBuilder::new().tcp(t, 1, 2, TcpFlags::ACK, &payload),
            Protocol::Udp => PacketBuilder::new().udp(t, &payload),
            Protocol::Other(_) => unreachable!(),
        };
        if rewrite_src {
            p.rewrite_src(new_addr, new_port).unwrap();
        } else {
            p.rewrite_dst(new_addr, new_port).unwrap();
        }
        // Reparsing verifies the IP header checksum and structure.
        let reparsed = Packet::parse(p.bytes().to_vec()).unwrap();
        let got = reparsed.tuple().unwrap();
        if rewrite_src {
            prop_assert_eq!((got.src_addr, got.src_port), (new_addr, new_port));
        } else {
            prop_assert_eq!((got.dst_addr, got.dst_port), (new_addr, new_port));
        }

        // And the transport checksum still folds to zero.
        let l3 = usize::from(reparsed.meta().l3_offset);
        let ip = Ipv4Header::parse(&reparsed.bytes()[l3..]).unwrap();
        let l4 = l3 + ip.header_len();
        let seg = ip.total_len as usize - ip.header_len();
        let mut sum = ip.pseudo_header();
        sum.add_bytes(&reparsed.bytes()[l4..l4 + seg]);
        let folded = sum.finish();
        // UDP checksum may be "absent" only if it was never set; our
        // builder always sets it, so both protocols must verify.
        prop_assert_eq!(folded, 0);
    }
}

// ---------------------------------------------------------------------
// Parse oracle. `Packet::parse` validates and reads its fields in place
// (no header structs, `u16` offsets); the reference below is the
// composition of the public header parsers it replaced, computed in
// `usize`. The two must agree on every input: the same `PacketMeta` or
// the same `NetError`, and no reference value may fail to fit the
// narrowed field.
// ---------------------------------------------------------------------

/// A reference offset or length as the `u16` the metadata keeps; a value
/// that does not fit is the truncation the oracle exists to catch.
fn narrow(v: usize) -> u16 {
    u16::try_from(v).expect("reference value does not fit the narrowed PacketMeta field")
}

/// The frame summary by header-struct composition.
fn reference_meta(data: &[u8]) -> Result<PacketMeta, NetError> {
    let eth = EthernetHeader::parse(data)?;
    let mut meta = PacketMeta {
        ethertype: eth.ethertype,
        tuple: None,
        tcp_flags: None,
        tcp_checksum: None,
        l3_offset: narrow(ETHERNET_HEADER_LEN),
        l4_offset: None,
        payload_offset: None,
        payload_len: None,
    };
    if eth.ethertype != EtherType::Ipv4 {
        return Ok(meta);
    }
    let ip = Ipv4Header::parse(&data[ETHERNET_HEADER_LEN..])?;
    let l4 = ETHERNET_HEADER_LEN + ip.header_len();
    meta.l4_offset = Some(narrow(l4));
    if ip.fragment_offset != 0 || ip.more_fragments {
        return Ok(meta);
    }
    let (protocol, src_port, dst_port, header_len) = match ip.protocol {
        proto::TCP => {
            let tcp = TcpHeader::parse(&data[l4..])?;
            meta.tcp_flags = Some(tcp.flags);
            meta.tcp_checksum = Some(tcp.checksum);
            (Protocol::Tcp, tcp.src_port, tcp.dst_port, tcp.header_len())
        }
        proto::UDP => {
            let udp = UdpHeader::parse(&data[l4..])?;
            (Protocol::Udp, udp.src_port, udp.dst_port, UDP_HEADER_LEN)
        }
        _ => return Ok(meta),
    };
    meta.tuple = Some(FiveTuple {
        src_addr: ip.src,
        dst_addr: ip.dst,
        src_port,
        dst_port,
        protocol,
    });
    let off = l4 + header_len;
    meta.payload_offset = Some(narrow(off));
    meta.payload_len = Some(narrow(
        (ETHERNET_HEADER_LEN + usize::from(ip.total_len))
            .saturating_sub(off)
            .min(data.len().saturating_sub(off)),
    ));
    Ok(meta)
}

/// Hold `Packet::parse` to the reference on one input.
fn check_against_reference(data: &[u8]) -> Result<(), TestCaseError> {
    let expected = reference_meta(data);
    let parsed = Packet::parse(data.to_vec());
    prop_assert_eq!(
        parsed.as_ref().map(|p| *p.meta()),
        expected.as_ref().map(|m| *m)
    );
    if let (Ok(p), Ok(m)) = (&parsed, &expected) {
        prop_assert_eq!(p.len(), data.len());
        let payload = m.payload_offset.zip(m.payload_len).map(|(o, n)| {
            let o = usize::from(o);
            &data[o..o + usize::from(n)]
        });
        prop_assert_eq!(p.payload(), payload);
    }
    Ok(())
}

/// What rides in the IPv4 payload of a [`FrameSpec`].
#[derive(Debug, Clone, Copy)]
enum Transport {
    Tcp,
    Udp,
    Icmp,
}

/// A frame that is valid except where a field below says otherwise.
#[derive(Debug, Clone)]
struct FrameSpec {
    ethertype: EtherType,
    transport: Transport,
    /// Option words (4 bytes each) in the IPv4 and TCP headers.
    ip_option_words: usize,
    tcp_option_words: usize,
    more_fragments: bool,
    fragment_offset: u16,
    payload: Vec<u8>,
    /// Added to the true IPv4 `total_len` (negative: the datagram claims
    /// less than the frame holds; positive: more).
    total_len_delta: i32,
    /// Bytes appended after the datagram (Ethernet padding).
    padding: usize,
}

impl FrameSpec {
    fn build(&self) -> Vec<u8> {
        let tcp = TcpHeader {
            options: vec![0x01; 4 * self.tcp_option_words],
            ..TcpHeader::simple(40_000, 443, 7, TcpFlags::ACK | TcpFlags::PSH)
        };
        let (ip_proto, l4_header_len) = match self.transport {
            Transport::Tcp => (proto::TCP, tcp.header_len()),
            Transport::Udp => (proto::UDP, UDP_HEADER_LEN),
            Transport::Icmp => (proto::ICMP, 0),
        };
        let l4_len = l4_header_len + self.payload.len();
        let mut ip = Ipv4Header::simple(0x0a00_0001, 0xc0a8_0001, ip_proto, l4_len as u16);
        ip.options = vec![0x01; 4 * self.ip_option_words];
        ip.more_fragments = self.more_fragments;
        ip.fragment_offset = self.fragment_offset;
        let true_total = ip.header_len() + l4_len;
        ip.total_len = (true_total as i32 + self.total_len_delta).clamp(0, 0xffff) as u16;

        let mut data = vec![0u8; ETHERNET_HEADER_LEN + true_total + self.padding];
        EthernetHeader {
            dst: MacAddr::from_index(2),
            src: MacAddr::from_index(1),
            ethertype: self.ethertype,
        }
        .emit(&mut data)
        .unwrap();
        // `emit` computes the header checksum over whatever `total_len`
        // says, so a lying length still passes the checksum.
        let l4 = ETHERNET_HEADER_LEN + ip.emit(&mut data[ETHERNET_HEADER_LEN..]).unwrap();
        let pseudo = ip.pseudo_header();
        match self.transport {
            Transport::Tcp => {
                tcp.emit(&mut data[l4..], pseudo, &self.payload).unwrap();
            }
            Transport::Udp => {
                UdpHeader::simple(5353, 53, self.payload.len() as u16)
                    .emit(&mut data[l4..], pseudo, &self.payload)
                    .unwrap();
            }
            Transport::Icmp => {}
        }
        let off = l4 + l4_header_len;
        data[off..off + self.payload.len()].copy_from_slice(&self.payload);
        data
    }
}

fn arb_frame_spec() -> impl Strategy<Value = FrameSpec> {
    (
        prop_oneof![
            Just(EtherType::Ipv4),
            Just(EtherType::Ipv4),
            Just(EtherType::Ipv4),
            Just(EtherType::Ipv6),
            Just(EtherType::Arp),
            Just(EtherType::Other(0x88cc)),
        ],
        prop_oneof![
            Just(Transport::Tcp),
            Just(Transport::Tcp),
            Just(Transport::Udp),
            Just(Transport::Icmp),
        ],
        0usize..=10,
        0usize..=10,
        // One frame in eight is a fragment of either kind.
        (0u8..8, 0u8..8, 1u16..0x2000),
        proptest::collection::vec(any::<u8>(), 0..96),
        // Half exact; half off by up to 80 bytes either way.
        prop_oneof![Just(80i32), 0i32..=160],
        0usize..24,
    )
        .prop_map(
            |(
                ethertype,
                transport,
                ip_words,
                tcp_words,
                (mf, frag, frag_off),
                payload,
                delta,
                padding,
            )| {
                FrameSpec {
                    ethertype,
                    transport,
                    ip_option_words: ip_words,
                    tcp_option_words: tcp_words,
                    more_fragments: mf == 0,
                    fragment_offset: if frag == 0 { frag_off } else { 0 },
                    payload,
                    total_len_delta: delta - 80,
                    padding,
                }
            },
        )
}

proptest! {
    /// Arbitrary bytes: almost all malformed, so this walks the error
    /// precedence (which check fires first, with which `Truncated` sizes).
    #[test]
    fn parse_matches_reference_on_arbitrary_bytes(
        data in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        check_against_reference(&data)?;
    }

    /// Valid and near-valid frames: IP and TCP options, both kinds of
    /// fragment, UDP, other IP protocols, non-IP EtherTypes, `total_len`
    /// on either side of the frame length, trailing padding.
    #[test]
    fn parse_matches_reference_on_generated_frames(spec in arb_frame_spec()) {
        check_against_reference(&spec.build())?;
    }

    /// The same frames cut at a random length and with one byte flipped
    /// (length, version, IHL, data-offset and checksum fields included).
    #[test]
    fn parse_matches_reference_on_mutated_frames(
        spec in arb_frame_spec(),
        cut in any::<prop::sample::Index>(),
        flip in any::<prop::sample::Index>(),
        bits in 1u8..=255,
    ) {
        let mut data = spec.build();
        data.truncate(cut.index(data.len() + 1));
        check_against_reference(&data)?;
        let mut data = spec.build();
        let at = flip.index(data.len());
        data[at] ^= bits;
        check_against_reference(&data)?;
    }
}

/// Truncation at *every* length, for one frame of each shape.
#[test]
fn parse_matches_reference_at_every_truncation() {
    let base = FrameSpec {
        ethertype: EtherType::Ipv4,
        transport: Transport::Tcp,
        ip_option_words: 0,
        tcp_option_words: 0,
        more_fragments: false,
        fragment_offset: 0,
        payload: b"sixteen byte pay".to_vec(),
        total_len_delta: 0,
        padding: 0,
    };
    let shapes = [
        base.clone(),
        FrameSpec {
            ip_option_words: 10,
            tcp_option_words: 10,
            ..base.clone()
        },
        FrameSpec {
            transport: Transport::Udp,
            ip_option_words: 3,
            ..base.clone()
        },
        FrameSpec {
            transport: Transport::Icmp,
            ..base.clone()
        },
        FrameSpec {
            more_fragments: true,
            ..base.clone()
        },
        FrameSpec {
            ethertype: EtherType::Arp,
            ..base.clone()
        },
        FrameSpec {
            total_len_delta: 40,
            padding: 6,
            ..base.clone()
        },
        FrameSpec {
            total_len_delta: -30,
            tcp_option_words: 2,
            ..base
        },
    ];
    for spec in shapes {
        let full = spec.build();
        for len in 0..=full.len() {
            check_against_reference(&full[..len])
                .unwrap_or_else(|e| panic!("{spec:?} cut to {len} bytes: {e}"));
        }
    }
}

/// A frame longer than any `u16`: the offsets stay small and the payload
/// length stays bounded by `total_len`, so nothing narrows lossily.
#[test]
fn parse_matches_reference_on_an_oversized_frame() {
    for (transport, total_len_delta) in [
        (Transport::Tcp, 0x1_0000),
        (Transport::Tcp, 0),
        (Transport::Udp, 0x1_0000),
        (Transport::Tcp, -20),
    ] {
        let spec = FrameSpec {
            ethertype: EtherType::Ipv4,
            transport,
            ip_option_words: 10,
            tcp_option_words: 10,
            more_fragments: false,
            fragment_offset: 0,
            payload: vec![0xab; 100],
            total_len_delta,
            padding: 70_000,
        };
        let data = spec.build();
        assert!(data.len() > usize::from(u16::MAX));
        check_against_reference(&data).unwrap_or_else(|e| panic!("{spec:?}: {e}"));
        let parsed = Packet::parse(data.clone()).unwrap();
        assert_eq!(parsed.len(), data.len());
        let claimed = usize::from(parsed.meta().payload_len.unwrap());
        assert!(
            claimed <= usize::from(u16::MAX) - 20 - 8,
            "bounded by total_len"
        );
        if total_len_delta == 0x1_0000 {
            // total_len saturated at 65 535: the payload runs to the
            // datagram's claimed end, far past the 100 real bytes.
            assert_eq!(
                claimed,
                0xffff - (usize::from(parsed.meta().payload_offset.unwrap()) - ETHERNET_HEADER_LEN)
            );
        }
    }
}
