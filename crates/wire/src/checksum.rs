//! The Internet checksum (RFC 1071) used by IPv4, TCP, UDP and ICMP.

use crate::ipv4;

/// Ones-complement sum of `data` read as big-endian 16-bit words (an odd
/// trailing byte is zero-padded), carries not yet folded: add further
/// words to it, then [`fold`] it into the wire value.
///
/// Eight bytes per step. A big-endian `u64` is four such words, and
/// because 2¹⁶ ≡ 1 modulo 0xFFFF, a `u64` sum with end-around carry is
/// congruent to the 16-bit word sum. It is zero only for all-zero data,
/// like the word sum, so folding either gives the same checksum. The
/// result stays below 2¹⁹: a caller may add thousands of 16-bit words to
/// it before folding.
pub(crate) fn word_sum(data: &[u8]) -> u32 {
    let mut acc = 0u64;
    let mut carries = 0u64;
    let (words, rest) = data.as_chunks::<8>();
    for w in words {
        let w = u64::from_be_bytes(*w);
        let (sum, carried) = acc.overflowing_add(w);
        acc = sum;
        carries += u64::from(carried);
    }
    // End-around carry: each 2⁶⁴ that overflowed is worth 1.
    let (sum, carried) = acc.overflowing_add(carries);
    let acc = sum + u64::from(carried);
    let mut s = (acc & 0xFFFF) + ((acc >> 16) & 0xFFFF) + ((acc >> 32) & 0xFFFF) + (acc >> 48);
    let (pairs, last) = rest.as_chunks::<2>();
    for pair in pairs {
        s += u64::from(u16::from_be_bytes(*pair));
    }
    if let [last] = last {
        s += u64::from(u16::from_be_bytes([*last, 0]));
    }
    // At most seven words of 0xFFFF: well inside a u32.
    s as u32
}

/// Fold the carries of a [`word_sum`] (plus any words added to it) and
/// complement it: the checksum as written on the wire.
pub(crate) fn fold(mut s: u32) -> u16 {
    while s > 0xFFFF {
        s = (s & 0xFFFF) + (s >> 16);
    }
    !(s as u16)
}

/// Incremental ones-complement sum over byte data.
///
/// Fold with [`Checksum::finish`] to obtain the 16-bit checksum value.
#[derive(Debug, Clone, Copy, Default)]
pub struct Checksum {
    sum: u32,
}

impl Checksum {
    /// Start a new checksum computation.
    pub fn new() -> Self {
        Checksum { sum: 0 }
    }

    /// Feed bytes into the sum. Data fed across multiple calls must be
    /// 16-bit aligned at call boundaries (each call treats its slice as a
    /// fresh run of 16-bit words, padding a trailing odd byte with zero).
    pub fn add_bytes(&mut self, data: &[u8]) -> &mut Self {
        self.sum += word_sum(data);
        self
    }

    /// Feed a 16-bit word.
    pub fn add_u16(&mut self, v: u16) -> &mut Self {
        self.sum += v as u32;
        self
    }

    /// Fold carries and return the ones-complement checksum.
    pub fn finish(&self) -> u16 {
        fold(self.sum)
    }
}

/// Compute the checksum of a contiguous buffer (e.g. an IPv4 header with its
/// checksum field zeroed).
pub fn of(data: &[u8]) -> u16 {
    let mut c = Checksum::new();
    c.add_bytes(data);
    c.finish()
}

/// Compute a TCP/UDP checksum including the IPv4 pseudo-header.
///
/// `segment` must be the full transport header + payload with the checksum
/// field zeroed.
pub fn transport(src: ipv4::Addr, dst: ipv4::Addr, protocol: u8, segment: &[u8]) -> u16 {
    let mut c = Checksum::new();
    c.add_bytes(&src.octets());
    c.add_bytes(&dst.octets());
    c.add_u16(protocol as u16);
    c.add_u16(segment.len() as u16);
    c.add_bytes(segment);
    c.finish()
}

/// Verify a buffer whose checksum field is *included*: a correct buffer sums
/// to zero after folding.
pub fn verify(data: &[u8]) -> bool {
    of(data) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_example() {
        // Example adapted from RFC 1071 §3: {00 01, f2 03, f4 f5, f6 f7}.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        // Sum = 0x0001 + 0xf203 + 0xf4f5 + 0xf6f7 = 0x2ddf0 -> fold 0xddf2
        assert_eq!(of(&data), !0xddf2u16);
    }

    #[test]
    fn odd_length_pads_zero() {
        assert_eq!(of(&[0xFF]), !0xFF00u16);
    }

    #[test]
    fn verify_includes_checksum_field() {
        // Known-good IPv4 header from RFC 1071-era literature.
        let mut hdr = [
            0x45u8, 0x00, 0x00, 0x3c, 0x1c, 0x46, 0x40, 0x00, 0x40, 0x06, 0x00, 0x00, 0xac, 0x10,
            0x0a, 0x63, 0xac, 0x10, 0x0a, 0x0c,
        ];
        let ck = of(&hdr);
        hdr[10..12].copy_from_slice(&ck.to_be_bytes());
        assert!(verify(&hdr));
        hdr[4] ^= 0xFF;
        assert!(!verify(&hdr));
    }

    #[test]
    fn transport_pseudo_header_changes_sum() {
        let seg = [0u8; 8];
        let a = transport(ipv4::Addr::new(10, 0, 0, 1), ipv4::Addr::new(10, 0, 0, 2), 6, &seg);
        let b = transport(ipv4::Addr::new(10, 0, 0, 1), ipv4::Addr::new(10, 0, 0, 3), 6, &seg);
        assert_ne!(a, b);
    }

    /// The two-byte loop the eight-byte [`word_sum`] replaced, kept as its
    /// reference.
    fn word_sum_by_pairs(data: &[u8]) -> u32 {
        let mut s = 0u32;
        let mut chunks = data.chunks_exact(2);
        for c in &mut chunks {
            s += u16::from_be_bytes([c[0], c[1]]) as u32;
        }
        if let [last] = chunks.remainder() {
            s += u16::from_be_bytes([*last, 0]) as u32;
        }
        s
    }

    #[test]
    fn eight_byte_sum_folds_like_the_two_byte_loop() {
        let mut x = crate::test_rng::X(0x0C5E_C0DE_2048_0001);
        for len in 0..=2048usize {
            let random: Vec<u8> = (0..len).map(|_| x.next_u64() as u8).collect();
            for data in [random, vec![0xFF; len], vec![0; len]] {
                let (new, old) = (word_sum(&data), word_sum_by_pairs(&data));
                assert_eq!(fold(new), fold(old), "len {len}");
                // Partial sums stay equal once more words are added.
                assert_eq!(fold(new + 0xFFFF + 7), fold(old + 0xFFFF + 7), "len {len} + words");
            }
        }
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0u8..64).collect();
        let mut c = Checksum::new();
        c.add_bytes(&data[..32]).add_bytes(&data[32..]);
        assert_eq!(c.finish(), of(&data));
    }
}
