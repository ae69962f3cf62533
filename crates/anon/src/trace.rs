//! Trace anonymization, one frame at a time: rewrite a frame's MAC and
//! IPv4 addresses, repairing the IPv4 header checksum (transport
//! checksums are recomputed where the full segment was captured, and
//! zeroed otherwise, as tcpmkpub does for truncated captures). A capture
//! is anonymized by running every record through [`anonymize_frame`]
//! under one [`Anonymizer`], as `entreport anonymize` does.

use crate::prefix::Anonymizer;
use ent_wire::{checksum, ethernet, ipv4};

/// Anonymize one frame in place; returns false if the frame was not
/// rewritable (non-IPv4/ARP frames pass through with only MAC rewriting).
pub fn anonymize_frame(anon: &mut Anonymizer, frame: &mut [u8]) -> bool {
    if frame.len() < ethernet::HEADER_LEN {
        return false;
    }
    // MACs.
    let dst = {
        let mut m = [0u8; 6];
        m.copy_from_slice(&frame[0..6]);
        ethernet::MacAddr(m)
    };
    let src = {
        let mut m = [0u8; 6];
        m.copy_from_slice(&frame[6..12]);
        ethernet::MacAddr(m)
    };
    frame[0..6].copy_from_slice(&anon.mac(dst).0);
    frame[6..12].copy_from_slice(&anon.mac(src).0);
    let ethertype = u16::from_be_bytes([frame[12], frame[13]]);
    match ethertype {
        0x0800 => anonymize_ipv4(anon, &mut frame[ethernet::HEADER_LEN..]),
        0x0806 => anonymize_arp(anon, &mut frame[ethernet::HEADER_LEN..]),
        _ => true, // IPX et al. carry no IP addresses
    }
}

fn anonymize_ipv4(anon: &mut Anonymizer, ip: &mut [u8]) -> bool {
    if ip.len() < 20 || ip[0] >> 4 != 4 {
        return false;
    }
    let ihl = (ip[0] & 0x0F) as usize * 4;
    if ip.len() < ihl {
        return false;
    }
    let src = ipv4::Addr(u32::from_be_bytes([ip[12], ip[13], ip[14], ip[15]]));
    let dst = ipv4::Addr(u32::from_be_bytes([ip[16], ip[17], ip[18], ip[19]]));
    // Multicast/broadcast destinations keep their group semantics.
    let new_src = anon.ip(src);
    let new_dst = if dst.is_multicast() || dst.is_broadcast() {
        dst
    } else {
        anon.ip(dst)
    };
    ip[12..16].copy_from_slice(&new_src.octets());
    ip[16..20].copy_from_slice(&new_dst.octets());
    // Repair the header checksum.
    ip[10] = 0;
    ip[11] = 0;
    let ck = checksum::of(&ip[..ihl]);
    ip[10..12].copy_from_slice(&ck.to_be_bytes());
    // Repair (or zero) the transport checksum.
    let total_len = u16::from_be_bytes([ip[2], ip[3]]) as usize;
    let proto = ip[9];
    let have_full = ip.len() >= total_len;
    let seg_end = total_len.min(ip.len());
    if ihl < seg_end {
        let (_, rest) = ip.split_at_mut(ihl);
        let seg = &mut rest[..seg_end - ihl];
        let ck_off = match proto {
            6 => Some(16),  // TCP
            17 => Some(6),  // UDP
            _ => None,
        };
        if let Some(off) = ck_off {
            if seg.len() >= off + 2 {
                seg[off] = 0;
                seg[off + 1] = 0;
                if have_full {
                    let ck = checksum::transport(new_src, new_dst, proto, seg);
                    let ck = if proto == 17 && ck == 0 { 0xFFFF } else { ck };
                    seg[off..off + 2].copy_from_slice(&ck.to_be_bytes());
                }
                // Truncated capture: leave zeroed (cannot recompute).
            }
        }
    }
    true
}

fn anonymize_arp(anon: &mut Anonymizer, arp: &mut [u8]) -> bool {
    if arp.len() < 28 {
        return false;
    }
    for off in [8usize, 18] {
        let mut m = [0u8; 6];
        m.copy_from_slice(&arp[off..off + 6]);
        let out = anon.mac(ethernet::MacAddr(m));
        arp[off..off + 6].copy_from_slice(&out.0);
    }
    for off in [14usize, 24] {
        let a = ipv4::Addr(u32::from_be_bytes([
            arp[off],
            arp[off + 1],
            arp[off + 2],
            arp[off + 3],
        ]));
        let out = anon.ip(a);
        arp[off..off + 4].copy_from_slice(&out.octets());
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use ent_wire::{build, tcp, Packet};

    fn sample_frame() -> Vec<u8> {
        build::tcp_frame(
            &build::TcpFrameSpec {
                src_mac: ethernet::MacAddr::from_host_id(1),
                dst_mac: ethernet::MacAddr::from_host_id(2),
                src_ip: ipv4::Addr::new(131, 243, 7, 9),
                dst_ip: ipv4::Addr::new(131, 243, 7, 77),
                src_port: 40000,
                dst_port: 80,
                seq: 1,
                ack: 2,
                flags: tcp::Flags::ACK | tcp::Flags::PSH,
                window: 100,
                ttl: 64,
            },
            b"GET / HTTP/1.1\r\n\r\n",
        )
    }

    #[test]
    fn frame_rewritten_and_checksums_valid() {
        let mut anon = Anonymizer::new("s");
        let mut frame = sample_frame();
        assert!(anonymize_frame(&mut anon, &mut frame));
        let pkt = Packet::parse(&frame).unwrap();
        let (src, dst) = pkt.ipv4_addrs().unwrap();
        assert_ne!(src, ipv4::Addr::new(131, 243, 7, 9));
        assert_ne!(dst, ipv4::Addr::new(131, 243, 7, 77));
        // Same /24 relationship preserved.
        assert!(crate::prefix::common_prefix_len(src, dst) >= 24);
        // Ports and payload untouched.
        assert_eq!(pkt.tcp().unwrap().dst_port, 80);
        assert_eq!(pkt.payload(), b"GET / HTTP/1.1\r\n\r\n");
        // IP header checksum repaired.
        assert!(checksum::verify(&frame[14..34]));
        // TCP checksum recomputed and valid.
        assert_eq!(checksum::transport(src, dst, 6, &frame[34..]), 0);
    }

    #[test]
    fn consistency_across_packets() {
        let mut anon = Anonymizer::new("s");
        let mut f1 = sample_frame();
        let mut f2 = sample_frame();
        anonymize_frame(&mut anon, &mut f1);
        anonymize_frame(&mut anon, &mut f2);
        assert_eq!(f1, f2);
    }

    #[test]
    fn multicast_destination_preserved() {
        let mut anon = Anonymizer::new("s");
        let mut frame = build::udp_frame(
            &build::UdpFrameSpec {
                src_mac: ethernet::MacAddr::from_host_id(1),
                dst_mac: ethernet::MacAddr([0x01, 0, 0x5E, 1, 1, 1]),
                src_ip: ipv4::Addr::new(131, 243, 1, 1),
                dst_ip: ipv4::Addr::new(239, 1, 1, 1),
                src_port: 1000,
                dst_port: 9875,
                ttl: 16,
            },
            &[0u8; 20],
        );
        anonymize_frame(&mut anon, &mut frame);
        let pkt = Packet::parse(&frame).unwrap();
        assert_eq!(pkt.ipv4_addrs().unwrap().1, ipv4::Addr::new(239, 1, 1, 1));
        assert!(pkt.is_multicast());
    }

    #[test]
    fn truncated_capture_zeroes_transport_checksum() {
        let mut anon = Anonymizer::new("s");
        let frame = sample_frame();
        let mut truncated = frame[..60].to_vec();
        assert!(anonymize_frame(&mut anon, &mut truncated));
        // TCP checksum field (14 + 20 + 16) zeroed.
        assert_eq!(&truncated[50..52], &[0, 0]);
        // IP checksum still valid.
        assert!(checksum::verify(&truncated[14..34]));
    }

    #[test]
    fn arp_addresses_rewritten() {
        let mut anon = Anonymizer::new("s");
        let arp = ent_wire::arp::Packet {
            operation: ent_wire::arp::Operation::Request,
            sender_mac: ethernet::MacAddr::from_host_id(9),
            sender_ip: ipv4::Addr::new(131, 243, 1, 9),
            target_mac: ethernet::MacAddr([0; 6]),
            target_ip: ipv4::Addr::new(131, 243, 1, 1),
        };
        let mut frame = ethernet::emit(
            ethernet::MacAddr::BROADCAST,
            arp.sender_mac,
            ethernet::EtherType::Arp,
            &arp.emit(),
        );
        anonymize_frame(&mut anon, &mut frame);
        let pkt = Packet::parse(&frame).unwrap();
        match pkt.net {
            ent_wire::NetLayer::Arp(a) => {
                assert_ne!(a.sender_ip, ipv4::Addr::new(131, 243, 1, 9));
                assert!(
                    crate::prefix::common_prefix_len(a.sender_ip, a.target_ip) >= 24
                );
            }
            _ => panic!("not ARP"),
        }
    }
}
