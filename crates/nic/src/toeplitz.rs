//! The Toeplitz hash used by Receive-Side Scaling.
//!
//! RSS computes a 32-bit hash over the five-tuple fields; the hash's low
//! bits index an indirection table that picks the receive queue. The hash
//! is defined by a 40-byte secret key: for each set bit *i* of the input,
//! the result XORs in the 32-bit window of the key starting at bit *i*.
//!
//! Two keys matter for this reproduction:
//!
//! * [`MICROSOFT_KEY`] — the de-facto standard default key, for which the
//!   RSS specification publishes verification vectors (tested below);
//! * [`SYMMETRIC_KEY`] — `0x6d5a` repeated. Because the key is periodic
//!   with the period of the port fields (16 bits) and address fields
//!   (32 bits), swapping (src ↔ dst) leaves the hash unchanged, so both
//!   directions of a connection reach the same core. The paper's RSS
//!   baseline is configured this way (§5, citing Woo et al. \[44\]).

use sprayer_net::{FiveTuple, FiveTupleV6};

/// The longest input a 40-byte key supports: the 36-byte IPv6 four-tuple
/// (36 bytes of input plus the trailing 32-bit window fill the key).
pub const MAX_INPUT_LEN: usize = 36;

/// A 40-byte RSS hash key (enough for IPv6 four-tuples: 36 bytes of input
/// plus the 32-bit window).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RssKey(pub [u8; 40]);

/// The default key from the Microsoft RSS verification suite.
pub const MICROSOFT_KEY: RssKey = RssKey([
    0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2, 0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0,
    0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4, 0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30, 0xf2, 0x0c,
    0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
]);

/// The symmetric key of Woo & Park: `0x6d5a` repeated 20 times. Maps both
/// directions of a connection to the same hash value.
pub const SYMMETRIC_KEY: RssKey = RssKey([
    0x6d, 0x5a, 0x6d, 0x5a, 0x6d, 0x5a, 0x6d, 0x5a, 0x6d, 0x5a, 0x6d, 0x5a, 0x6d, 0x5a, 0x6d, 0x5a,
    0x6d, 0x5a, 0x6d, 0x5a, 0x6d, 0x5a, 0x6d, 0x5a, 0x6d, 0x5a, 0x6d, 0x5a, 0x6d, 0x5a, 0x6d, 0x5a,
    0x6d, 0x5a, 0x6d, 0x5a, 0x6d, 0x5a, 0x6d, 0x5a,
]);

/// Compute the Toeplitz hash of `data` under `key`.
///
/// Bit-serial reference implementation: clear, obviously correct, and
/// fast enough for a simulator (the real NIC does this in silicon).
pub fn toeplitz_hash(key: &RssKey, data: &[u8]) -> u32 {
    assert!(
        data.len() + 4 <= key.0.len(),
        "input of {} bytes needs a key of at least {} bytes",
        data.len(),
        data.len() + 4
    );
    let mut result = 0u32;
    // The 32-bit key window starting at bit 0.
    let mut window = u32::from_be_bytes([key.0[0], key.0[1], key.0[2], key.0[3]]);
    let mut next_key_bit = 32usize;
    for &byte in data {
        for bit in 0..8 {
            if byte & (0x80 >> bit) != 0 {
                result ^= window;
            }
            // Slide the window one bit left, pulling in the next key bit.
            let incoming = (key.0[next_key_bit / 8] >> (7 - next_key_bit % 8)) & 1;
            window = (window << 1) | u32::from(incoming);
            next_key_bit += 1;
        }
    }
    result
}

/// The RSS-specified input layout for an IPv4 four-tuple:
/// src addr, dst addr, src port, dst port, all big-endian.
fn v4_tuple_input(tuple: &FiveTuple) -> [u8; 12] {
    let mut input = [0u8; 12];
    input[0..4].copy_from_slice(&tuple.src_addr.to_be_bytes());
    input[4..8].copy_from_slice(&tuple.dst_addr.to_be_bytes());
    input[8..10].copy_from_slice(&tuple.src_port.to_be_bytes());
    input[10..12].copy_from_slice(&tuple.dst_port.to_be_bytes());
    input
}

/// The input layout for the address-only "IPv4" hash type.
fn v4_addrs_input(src: u32, dst: u32) -> [u8; 8] {
    let mut input = [0u8; 8];
    input[0..4].copy_from_slice(&src.to_be_bytes());
    input[4..8].copy_from_slice(&dst.to_be_bytes());
    input
}

/// The 36-byte input layout for the `TCP_IPV6`/`UDP_IPV6` hash types.
fn v6_tuple_input(tuple: &FiveTupleV6) -> [u8; 36] {
    let mut input = [0u8; 36];
    input[0..16].copy_from_slice(&tuple.src_addr);
    input[16..32].copy_from_slice(&tuple.dst_addr);
    input[32..34].copy_from_slice(&tuple.src_port.to_be_bytes());
    input[34..36].copy_from_slice(&tuple.dst_port.to_be_bytes());
    input
}

/// Hash an IPv4 four-tuple (src addr, dst addr, src port, dst port) —
/// the input layout mandated by the RSS specification.
pub fn hash_v4_tuple(key: &RssKey, tuple: &FiveTuple) -> u32 {
    toeplitz_hash(key, &v4_tuple_input(tuple))
}

/// Hash only the IPv4 address pair (the RSS "IPv4" hash type, used for
/// fragments and non-TCP/UDP IP packets).
pub fn hash_v4_addrs(key: &RssKey, src: u32, dst: u32) -> u32 {
    toeplitz_hash(key, &v4_addrs_input(src, dst))
}

/// Hash an IPv6 four-tuple (src addr, dst addr, src port, dst port): the
/// 36-byte input layout the RSS specification mandates for the
/// `TCP_IPV6`/`UDP_IPV6` hash types. This is the maximum input the
/// 40-byte key supports (36 bytes plus the 32-bit window).
pub fn hash_v6_tuple(key: &RssKey, tuple: &FiveTupleV6) -> u32 {
    toeplitz_hash(key, &v6_tuple_input(tuple))
}

/// A byte-at-a-time Toeplitz evaluator: for every input byte position and
/// byte value, the 32-bit XOR contribution is precomputed, so hashing is
/// one table load and one XOR per input byte instead of eight
/// test-and-shift steps. This is how software RSS implementations (DPDK's
/// `rte_thash`, for one) make the hash cheap enough for a per-packet hot
/// path; the table costs 36 KiB per key and is built once at config time.
///
/// Produces bit-identical results to [`toeplitz_hash`], which stays as
/// the executable specification (asserted against the published
/// verification vectors and by the equivalence proptests).
#[derive(Clone)]
pub struct ToeplitzLut {
    key: RssKey,
    /// `table[pos][b]` = XOR contribution of byte value `b` at input
    /// byte position `pos`.
    table: Box<[[u32; 256]; MAX_INPUT_LEN]>,
}

impl ToeplitzLut {
    /// Precompute the per-position contribution tables for `key`.
    pub fn new(key: RssKey) -> Self {
        let mut table = Box::new([[0u32; 256]; MAX_INPUT_LEN]);
        // Slide the 32-bit key window bit by bit, exactly as the
        // reference does, capturing the window at each of the 8 bit
        // offsets within every byte position.
        let mut window = u32::from_be_bytes([key.0[0], key.0[1], key.0[2], key.0[3]]);
        let mut next_key_bit = 32usize;
        for row in table.iter_mut() {
            let mut bit_windows = [0u32; 8];
            for bw in bit_windows.iter_mut() {
                *bw = window;
                let incoming = (key.0[next_key_bit / 8] >> (7 - next_key_bit % 8)) & 1;
                window = (window << 1) | u32::from(incoming);
                next_key_bit += 1;
            }
            // A byte's contribution is the XOR of the windows its set
            // bits select (XOR is linear, so all 256 values follow from
            // the 8 single-bit windows).
            for (value, slot) in row.iter_mut().enumerate().skip(1) {
                let mut h = 0u32;
                for (bit, bw) in bit_windows.iter().enumerate() {
                    if value & (0x80 >> bit) != 0 {
                        h ^= bw;
                    }
                }
                *slot = h;
            }
        }
        ToeplitzLut { key, table }
    }

    /// The key the table was built from.
    pub fn key(&self) -> &RssKey {
        &self.key
    }

    /// Hash `data` — one table row per input byte, XOR-folded.
    pub fn hash(&self, data: &[u8]) -> u32 {
        assert!(
            data.len() <= MAX_INPUT_LEN,
            "input of {} bytes exceeds the {MAX_INPUT_LEN}-byte table",
            data.len()
        );
        let mut h = 0u32;
        for (row, &b) in self.table.iter().zip(data) {
            h ^= row[usize::from(b)];
        }
        h
    }

    /// LUT counterpart of [`hash_v4_tuple`].
    pub fn hash_v4_tuple(&self, tuple: &FiveTuple) -> u32 {
        self.hash(&v4_tuple_input(tuple))
    }

    /// LUT counterpart of [`hash_v4_addrs`].
    pub fn hash_v4_addrs(&self, src: u32, dst: u32) -> u32 {
        self.hash(&v4_addrs_input(src, dst))
    }

    /// LUT counterpart of [`hash_v6_tuple`].
    pub fn hash_v6_tuple(&self, tuple: &FiveTupleV6) -> u32 {
        self.hash(&v6_tuple_input(tuple))
    }
}

impl std::fmt::Debug for ToeplitzLut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The 36 KiB table is derived data; show only the key.
        f.debug_struct("ToeplitzLut")
            .field("key", &self.key)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Endpoint = (u32, u16);

    /// The Microsoft RSS verification suite, IPv4 with ports.
    /// (dst addr:port, src addr:port, expected 4-tuple hash)
    const MSFT_VECTORS_4TUPLE: &[(Endpoint, Endpoint, u32)] = &[
        // 161.142.100.80:1766  <- 66.9.149.187:2794
        (
            ((161 << 24) | (142 << 16) | (100 << 8) | 80, 1766),
            ((66 << 24) | (9 << 16) | (149 << 8) | 187, 2794),
            0x51ccc178,
        ),
        // 65.69.140.83:4739 <- 199.92.111.2:14230
        (
            ((65 << 24) | (69 << 16) | (140 << 8) | 83, 4739),
            ((199 << 24) | (92 << 16) | (111 << 8) | 2, 14230),
            0xc626b0ea,
        ),
        // 12.22.207.184:38024 <- 24.19.198.95:12898
        (
            ((12 << 24) | (22 << 16) | (207 << 8) | 184, 38024),
            ((24 << 24) | (19 << 16) | (198 << 8) | 95, 12898),
            0x5c2b394a,
        ),
        // 209.142.163.6:2217 <- 38.27.205.30:48228
        (
            ((209 << 24) | (142 << 16) | (163 << 8) | 6, 2217),
            ((38 << 24) | (27 << 16) | (205 << 8) | 30, 48228),
            0xafc7327f,
        ),
        // 202.188.127.2:1303 <- 153.39.163.191:44251
        (
            ((202 << 24) | (188 << 16) | (127 << 8) | 2, 1303),
            ((153 << 24) | (39 << 16) | (163 << 8) | 191, 44251),
            0x10e828a2,
        ),
    ];

    /// Same suite, 2-tuple (addresses only) hashes.
    const MSFT_VECTORS_2TUPLE: &[(u32, u32, u32)] = &[
        (
            (161 << 24) | (142 << 16) | (100 << 8) | 80,
            (66 << 24) | (9 << 16) | (149 << 8) | 187,
            0x323e8fc2,
        ),
        (
            (65 << 24) | (69 << 16) | (140 << 8) | 83,
            (199 << 24) | (92 << 16) | (111 << 8) | 2,
            0xd718262a,
        ),
        (
            (12 << 24) | (22 << 16) | (207 << 8) | 184,
            (24 << 24) | (19 << 16) | (198 << 8) | 95,
            0xd2d0a5de,
        ),
        (
            (209 << 24) | (142 << 16) | (163 << 8) | 6,
            (38 << 24) | (27 << 16) | (205 << 8) | 30,
            0x82989176,
        ),
        (
            (202 << 24) | (188 << 16) | (127 << 8) | 2,
            (153 << 24) | (39 << 16) | (163 << 8) | 191,
            0x5d1809c5,
        ),
    ];

    #[test]
    fn microsoft_4tuple_vectors() {
        for &((dst, dport), (src, sport), expected) in MSFT_VECTORS_4TUPLE {
            let tuple = FiveTuple::tcp(src, sport, dst, dport);
            assert_eq!(
                hash_v4_tuple(&MICROSOFT_KEY, &tuple),
                expected,
                "vector {src:#x}:{sport} -> {dst:#x}:{dport}"
            );
        }
    }

    #[test]
    fn microsoft_2tuple_vectors() {
        for &(dst, src, expected) in MSFT_VECTORS_2TUPLE {
            assert_eq!(hash_v4_addrs(&MICROSOFT_KEY, src, dst), expected);
        }
    }

    #[test]
    fn symmetric_key_is_direction_insensitive() {
        let tuples = [
            FiveTuple::tcp(0xc0a8_0001, 40000, 0x0a00_002a, 443),
            FiveTuple::tcp(0x0102_0304, 1, 0x0506_0708, 65535),
            FiveTuple::udp(0xdead_beef, 53, 0xcafe_babe, 5353),
        ];
        for t in tuples {
            assert_eq!(
                hash_v4_tuple(&SYMMETRIC_KEY, &t),
                hash_v4_tuple(&SYMMETRIC_KEY, &t.reversed()),
                "symmetric key must hash both directions identically: {t}"
            );
        }
    }

    #[test]
    fn microsoft_key_is_not_symmetric() {
        // Sanity check: the standard key does NOT have the symmetric
        // property; this is exactly why the paper swaps keys.
        let t = FiveTuple::tcp(0xc0a8_0001, 40000, 0x0a00_002a, 443);
        assert_ne!(
            hash_v4_tuple(&MICROSOFT_KEY, &t),
            hash_v4_tuple(&MICROSOFT_KEY, &t.reversed())
        );
    }

    #[test]
    fn symmetric_key_is_direction_insensitive_for_v6() {
        let a = [
            0x3f, 0xfe, 0x25, 0x01, 0x02, 0x00, 0x00, 0x03, 0, 0, 0, 0, 0, 0, 0, 1,
        ];
        let b = [
            0x3f, 0xfe, 0x25, 0x01, 0x02, 0x00, 0x1f, 0xff, 0, 0, 0, 0, 0, 0, 0, 7,
        ];
        let tuples = [
            FiveTupleV6::tcp(a, 1766, b, 2794),
            // Port 0 and identical-endpoint corner cases must stay
            // symmetric too (the coremap edge cases).
            FiveTupleV6::tcp(a, 0, b, 443),
            FiveTupleV6::udp(a, 9, a, 9),
        ];
        for t in tuples {
            assert_eq!(
                hash_v6_tuple(&SYMMETRIC_KEY, &t),
                hash_v6_tuple(&SYMMETRIC_KEY, &t.reversed()),
                "symmetric key must hash both v6 directions identically"
            );
        }
    }

    #[test]
    fn v6_input_fills_the_key_exactly() {
        // 36 bytes of input is the documented maximum; the assert in
        // toeplitz_hash admits it and a 37th byte would panic.
        let t = FiveTupleV6::tcp([0xff; 16], 65535, [0xaa; 16], 1);
        let _ = hash_v6_tuple(&MICROSOFT_KEY, &t);
    }

    #[test]
    fn zero_input_hashes_to_zero() {
        assert_eq!(toeplitz_hash(&MICROSOFT_KEY, &[0u8; 12]), 0);
    }

    #[test]
    #[should_panic(expected = "needs a key")]
    fn oversized_input_panics() {
        let _ = toeplitz_hash(&MICROSOFT_KEY, &[0u8; 37]);
    }

    #[test]
    fn lut_reproduces_the_microsoft_vectors() {
        let lut = ToeplitzLut::new(MICROSOFT_KEY);
        for &((dst, dport), (src, sport), expected) in MSFT_VECTORS_4TUPLE {
            let tuple = FiveTuple::tcp(src, sport, dst, dport);
            assert_eq!(lut.hash_v4_tuple(&tuple), expected);
        }
        for &(dst, src, expected) in MSFT_VECTORS_2TUPLE {
            assert_eq!(lut.hash_v4_addrs(src, dst), expected);
        }
    }

    #[test]
    fn lut_matches_bit_serial_reference_at_every_length() {
        for key in [MICROSOFT_KEY, SYMMETRIC_KEY] {
            let lut = ToeplitzLut::new(key);
            // A deterministic but bit-diverse input stream.
            let data: Vec<u8> = (0..MAX_INPUT_LEN as u64)
                .map(|i| (sprayer_net::flow::splitmix64(i) >> 13) as u8)
                .collect();
            for len in 0..=MAX_INPUT_LEN {
                assert_eq!(
                    lut.hash(&data[..len]),
                    toeplitz_hash(&key, &data[..len]),
                    "length {len}"
                );
            }
        }
    }

    #[test]
    fn lut_matches_reference_for_v6_tuples() {
        let lut = ToeplitzLut::new(MICROSOFT_KEY);
        let t = FiveTupleV6::tcp([0x3f; 16], 1766, [0xbe; 16], 2794);
        assert_eq!(lut.hash_v6_tuple(&t), hash_v6_tuple(&MICROSOFT_KEY, &t));
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn lut_oversized_input_panics() {
        let _ = ToeplitzLut::new(MICROSOFT_KEY).hash(&[0u8; 37]);
    }

    #[test]
    fn single_bit_inputs_select_key_windows() {
        // Input with only the top bit set hashes to the first 32 key bits.
        let mut input = [0u8; 12];
        input[0] = 0x80;
        assert_eq!(toeplitz_hash(&MICROSOFT_KEY, &input), 0x6d5a56da);
        // Only the second bit: window starting at bit 1 is the key
        // shifted left one bit, pulling in bit 32 of the key (0x25's MSB,
        // which is 0): 0x6d5a56da << 1 = 0xdab4adb4.
        input[0] = 0x40;
        assert_eq!(toeplitz_hash(&MICROSOFT_KEY, &input), 0xdab4adb4);
    }
}
