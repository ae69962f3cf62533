//! Host-pair steering: map flows onto one of N `ConnTable` shards.
//!
//! **No product code calls these any more.** `ent-core` ingests on at most
//! one worker lane, which needs no steering; the functions stay only
//! because `benchmark/` reports its `flow.steer_*` metrics through them
//! (and `tests/tests/alloc_pin.rs` pins that they never allocate). ROADMAP
//! item 1 deletes them together with those metrics.
//!
//! A frame is routed by the *unordered host pair* of its IPv4 addresses,
//! hashed with the same [`fasthash`](crate::fasthash) FxHash that keys the
//! connection tables themselves.
//!
//! Steering by host pair — not by 5-tuple — is a deliberate superset of
//! flow affinity:
//!
//! * Both orientations of a flow reach the same shard (the pair is sorted
//!   before hashing), so a connection's packets can never split.
//! * *Every* flow between two hosts lands on one shard, so per-host-pair
//!   coupled state (dynamically learned DCE/RPC endpoint-mapper ports,
//!   which are keyed by server address and probed by the same client)
//!   stays shard-local without any cross-shard channel.
//!
//! Frames with no IPv4 addresses to hash — non-IP traffic (ARP, IPX,
//! other L3) and frames the dissector rejects — route to the fixed
//! [`DESIGNATED_SHARD`], so their accounting is deterministic and no
//! shard-count-dependent state sharing can arise.

use crate::fasthash::FxHasher;
use crate::key::FlowKey;
use core::hash::Hasher;
use ent_wire::{ipv4, Packet};

/// The shard that absorbs traffic with no IPv4 host pair to steer by:
/// non-IP frames and undissectable frames.
pub const DESIGNATED_SHARD: usize = 0;

/// Steer an unordered host pair onto one of `n` shards. The pair is
/// sorted (smaller address first) before hashing, so the result is
/// orientation-invariant; the hash is the table's own FxHash, seeded and
/// deterministic across runs and platforms.
#[inline]
pub fn shard_of_pair(a: ipv4::Addr, b: ipv4::Addr, n: usize) -> usize {
    if n <= 1 {
        return 0;
    }
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    let mut h = FxHasher::default();
    h.write_u32(lo.0);
    h.write_u32(hi.0);
    (h.finish() % n as u64) as usize
}

/// Steer a flow key: both orientations of the same key always agree,
/// because [`FlowKey::host_pair`] sorts the addresses.
#[inline]
pub fn shard_of_key(key: &FlowKey, n: usize) -> usize {
    let (a, b) = key.host_pair();
    shard_of_pair(a, b, n)
}

/// Steer a parsed frame: IPv4 packets go by host pair, everything else to
/// the [`DESIGNATED_SHARD`]. Agrees with [`shard_of_key`] for any flow key
/// derived from the packet (flow keys carry the packet's own addresses).
#[inline]
pub fn shard_of_packet(pkt: &Packet<'_>, n: usize) -> usize {
    match pkt.ipv4_addrs() {
        Some((src, dst)) => shard_of_pair(src, dst, n),
        // Always in range: DESIGNATED_SHARD is 0 and every shard count
        // yields at least shard 0.
        None => DESIGNATED_SHARD,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::{Endpoint, Proto};

    /// xorshift64* — deterministic adversarial key streams without a
    /// dependency.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }

    fn random_key(rng: &mut Rng) -> FlowKey {
        let proto = match rng.next() % 3 {
            0 => Proto::Tcp,
            1 => Proto::Udp,
            _ => Proto::Icmp,
        };
        FlowKey {
            proto,
            orig: Endpoint::new(ipv4::Addr(rng.next() as u32), rng.next() as u16),
            resp: Endpoint::new(ipv4::Addr(rng.next() as u32), rng.next() as u16),
        }
    }

    #[test]
    fn both_orientations_steer_identically() {
        // Seeded adversarial streams: fully random keys, plus the nastier
        // cases — equal addresses, addresses differing in one bit.
        for seed in [1u64, 2005, 0xDEAD_BEEF] {
            let mut rng = Rng(seed);
            for _ in 0..10_000 {
                let mut k = random_key(&mut rng);
                match rng.next() % 4 {
                    0 => k.resp.addr = k.orig.addr,
                    1 => k.resp.addr = ipv4::Addr(k.orig.addr.0 ^ (1 << (rng.next() % 32))),
                    _ => {}
                }
                for n in [1usize, 2, 4, 8] {
                    let s = shard_of_key(&k, n);
                    assert!(s < n);
                    assert_eq!(s, shard_of_key(&k.reversed(), n), "key {k} n {n}");
                    let (a, b) = k.host_pair();
                    assert_eq!(s, shard_of_pair(a, b, n));
                    assert_eq!(s, shard_of_pair(b, a, n));
                }
            }
        }
    }

    #[test]
    fn one_shard_is_always_zero() {
        let mut rng = Rng(7);
        for _ in 0..100 {
            let k = random_key(&mut rng);
            assert_eq!(shard_of_key(&k, 1), 0);
            assert_eq!(shard_of_key(&k, 0), 0);
        }
    }

    #[test]
    fn shards_are_all_populated() {
        // FxHash over sorted pairs must actually spread: with 4 shards and
        // 1000 random pairs every shard sees a healthy share.
        let mut rng = Rng(2005);
        let mut counts = [0usize; 4];
        for _ in 0..1000 {
            let k = random_key(&mut rng);
            counts[shard_of_key(&k, 4)] += 1;
        }
        for (i, c) in counts.iter().enumerate() {
            assert!(*c > 100, "shard {i} starved: {counts:?}");
        }
    }

    #[test]
    fn packet_steering_agrees_with_key_steering() {
        // A UDP frame in both directions must steer like the flow key
        // carrying the same addresses.
        use ent_wire::{build, ethernet::MacAddr};
        let frame = |src_ip, dst_ip, sp, dp| {
            build::udp_frame(
                &build::UdpFrameSpec {
                    src_mac: MacAddr::from_host_id(1),
                    dst_mac: MacAddr::from_host_id(2),
                    src_ip,
                    dst_ip,
                    src_port: sp,
                    dst_port: dp,
                    ttl: 64,
                },
                b"payload",
            )
        };
        let (c, s) = (ipv4::Addr::new(10, 1, 2, 3), ipv4::Addr::new(10, 9, 8, 7));
        let fwd = frame(c, s, 5353, 53);
        let rev = frame(s, c, 53, 5353);
        let pf = Packet::parse(&fwd).expect("fwd parses");
        let pr = Packet::parse(&rev).expect("rev parses");
        let key = FlowKey {
            proto: Proto::Udp,
            orig: Endpoint::new(c, 5353),
            resp: Endpoint::new(s, 53),
        };
        for n in [1usize, 2, 4, 8] {
            let shard = shard_of_key(&key, n);
            assert_eq!(shard_of_packet(&pf, n), shard);
            assert_eq!(shard_of_packet(&pr, n), shard);
        }
    }

    #[test]
    fn non_ip_routes_to_designated_shard() {
        // A non-IP ethertype (LLDP) has no host pair to steer by.
        let mut f = vec![0u8; 14];
        f[12..14].copy_from_slice(&[0x88, 0xCC]);
        let pkt = Packet::parse(&f).expect("non-IP frame parses");
        assert_eq!(pkt.ipv4_addrs(), None);
        for n in [1usize, 2, 4, 8] {
            assert_eq!(shard_of_packet(&pkt, n), DESIGNATED_SHARD);
        }
    }
}
