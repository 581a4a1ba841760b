//! The Toeplitz hash used by receive-side scaling.
//!
//! Implements the Microsoft RSS specification's Toeplitz hash over the
//! IPv4/TCP 4-tuple, verified against the specification's published test
//! vectors. Intel 82599 NICs (the paper's testbed) use this function for
//! both RSS and Flow Director signatures.
//!
//! [`toeplitz_hash`] is the specification's bit-serial definition; the
//! steering paths use [`ToeplitzTable`], which precomputes it per input
//! byte and is tested against it.

use sim_net::FlowTuple;

/// The de-facto standard 40-byte RSS secret key (Microsoft's
/// verification-suite key, shipped as the default by many drivers).
pub const RSS_KEY: [u8; 40] = [
    0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2, 0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0,
    0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4, 0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30, 0xf2, 0x0c,
    0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
];

/// Length of the IPv4/TCP hash input: source address, destination
/// address, source port, destination port.
pub const TUPLE_LEN: usize = 12;

/// The tables of [`RSS_KEY`], built at compile time.
pub static RSS_TABLE: ToeplitzTable = ToeplitzTable::new(&RSS_KEY);

/// Computes the Toeplitz hash of `input` under `key`.
///
/// For each set bit of the input (most-significant first), the running
/// result is XORed with the 32-bit window of the key starting at that
/// bit position.
pub fn toeplitz_hash(key: &[u8; 40], input: &[u8]) -> u32 {
    assert!(
        input.len() * 8 + 32 <= key.len() * 8,
        "input too long for key"
    );
    let mut result = 0u32;
    // Current 32-bit key window, advanced one bit per input bit.
    let mut window = u32::from_be_bytes([key[0], key[1], key[2], key[3]]);
    let mut next_key_bit = 32usize;
    for &byte in input {
        for bit in (0..8).rev() {
            if byte >> bit & 1 == 1 {
                result ^= window;
            }
            // Shift the window left by one, pulling in the next key bit.
            let incoming = key[next_key_bit / 8] >> (7 - next_key_bit % 8) & 1;
            window = window << 1 | u32::from(incoming);
            next_key_bit += 1;
        }
    }
    result
}

/// The 32-bit key window starting at key bit `bit`, most significant bit
/// first: what input bit `bit` XORs into the hash when it is set.
const fn key_window(key: &[u8; 40], bit: usize) -> u32 {
    let first = bit / 8;
    let mut bits = 0u64;
    let mut i = 0;
    while i < 5 {
        bits = bits << 8 | key[first + i] as u64;
        i += 1;
    }
    // `bits` holds key bits [8 * first, 8 * first + 40); keep the 32
    // that start `bit % 8` in.
    (bits >> (8 - bit % 8)) as u32
}

/// The Toeplitz hash of [`TUPLE_LEN`]-byte inputs under one key, one
/// table lookup per input byte instead of one step per input bit.
///
/// The hash is GF(2)-linear, so an input hashes to the XOR of the hashes
/// of its bytes taken one at a time: `bytes[i][b]` is the hash of the
/// input whose only non-zero byte is `b` at position `i`.
pub struct ToeplitzTable {
    bytes: [[u32; 256]; TUPLE_LEN],
}

impl ToeplitzTable {
    /// Precomputes the tables for `key`.
    const fn new(key: &[u8; 40]) -> Self {
        let mut bytes = [[0u32; 256]; TUPLE_LEN];
        let mut i = 0;
        while i < TUPLE_LEN {
            let mut b: usize = 1;
            while b < 256 {
                // `b` is `b & (b - 1)` plus its lowest set bit, which is
                // input bit `8 * i + 7 - low` (most significant first).
                let low = b.trailing_zeros() as usize;
                bytes[i][b] = bytes[i][b & (b - 1)] ^ key_window(key, 8 * i + 7 - low);
                b += 1;
            }
            i += 1;
        }
        ToeplitzTable { bytes }
    }

    /// The hash of `input`.
    pub fn hash(&self, input: &[u8; TUPLE_LEN]) -> u32 {
        input
            .iter()
            .zip(&self.bytes)
            .fold(0, |h, (&b, table)| h ^ table[usize::from(b)])
    }

    /// The hash of `flow` in the standard RSS input layout.
    pub fn hash_flow(&self, flow: &FlowTuple) -> u32 {
        self.hash(&tuple_bytes(flow))
    }
}

/// The standard RSS input layout of a flow tuple.
fn tuple_bytes(flow: &FlowTuple) -> [u8; TUPLE_LEN] {
    let mut input = [0u8; TUPLE_LEN];
    input[0..4].copy_from_slice(&flow.src_ip.octets());
    input[4..8].copy_from_slice(&flow.dst_ip.octets());
    input[8..10].copy_from_slice(&flow.src_port.to_be_bytes());
    input[10..12].copy_from_slice(&flow.dst_port.to_be_bytes());
    input
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    /// One verification vector: (dst ip:port, src ip:port, hash).
    type Vector = ((u8, u8, u8, u8, u16), (u8, u8, u8, u8, u16), u32);

    /// The Microsoft RSS verification-suite vectors for IPv4-with-TCP.
    const VECTORS: [Vector; 5] = [
        (
            (161, 142, 100, 80, 1766),
            (66, 9, 149, 187, 2794),
            0x51cc_c178,
        ),
        (
            (65, 69, 140, 83, 4739),
            (199, 92, 111, 2, 14230),
            0xc626_b0ea,
        ),
        (
            (12, 22, 207, 184, 38024),
            (24, 19, 198, 95, 12898),
            0x5c2b_394a,
        ),
        (
            (209, 142, 163, 6, 2217),
            (38, 27, 205, 30, 48228),
            0xafc7_327f,
        ),
        (
            (202, 188, 127, 2, 1303),
            (153, 39, 163, 191, 44251),
            0x10e8_28a2,
        ),
    ];

    #[test]
    fn matches_microsoft_test_vectors() {
        for (dst, src, expect) in VECTORS {
            let flow = FlowTuple::new(
                Ipv4Addr::new(src.0, src.1, src.2, src.3),
                src.4,
                Ipv4Addr::new(dst.0, dst.1, dst.2, dst.3),
                dst.4,
            );
            assert_eq!(RSS_TABLE.hash_flow(&flow), expect, "vector for flow {flow}");
            assert_eq!(toeplitz_hash(&RSS_KEY, &tuple_bytes(&flow)), expect);
        }
    }

    #[test]
    fn zero_input_hashes_to_zero() {
        assert_eq!(toeplitz_hash(&RSS_KEY, &[0u8; 12]), 0);
        assert_eq!(RSS_TABLE.hash(&[0u8; 12]), 0);
    }

    #[test]
    fn table_matches_the_bit_serial_definition() {
        let mut x: u64 = 0x5eed_0f_7a_b1e5;
        for _ in 0..2_000 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let mut input = [0u8; TUPLE_LEN];
            for (i, b) in input.iter_mut().enumerate() {
                *b = (x >> (i * 5 % 57)) as u8;
            }
            assert_eq!(RSS_TABLE.hash(&input), toeplitz_hash(&RSS_KEY, &input));
        }
    }

    #[test]
    fn hash_is_linear_in_xor() {
        // Toeplitz is GF(2)-linear: H(a ^ b) == H(a) ^ H(b).
        let a = [
            0x12u8, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0, 0x11, 0x22, 0x33, 0x44,
        ];
        let b = [
            0xffu8, 0x00, 0xff, 0x00, 0x0f, 0xf0, 0x55, 0xaa, 0x77, 0x88, 0x99, 0xaa,
        ];
        let xored: [u8; TUPLE_LEN] = std::array::from_fn(|i| a[i] ^ b[i]);
        assert_eq!(
            toeplitz_hash(&RSS_KEY, &xored),
            toeplitz_hash(&RSS_KEY, &a) ^ toeplitz_hash(&RSS_KEY, &b)
        );
        assert_eq!(
            RSS_TABLE.hash(&xored),
            RSS_TABLE.hash(&a) ^ RSS_TABLE.hash(&b)
        );
    }

    #[test]
    fn direction_sensitivity() {
        // RSS without symmetric-key tricks maps the two directions of a
        // flow to different hashes in general.
        let flow = FlowTuple::new(
            Ipv4Addr::new(10, 0, 0, 2),
            40_000,
            Ipv4Addr::new(10, 0, 0, 1),
            80,
        );
        assert_ne!(
            RSS_TABLE.hash_flow(&flow),
            RSS_TABLE.hash_flow(&flow.reversed())
        );
    }

    #[test]
    #[should_panic(expected = "input too long")]
    fn over_long_input_rejected() {
        let input = [0u8; 37]; // 37*8 + 32 > 320
        let _ = toeplitz_hash(&RSS_KEY, &input);
    }
}
