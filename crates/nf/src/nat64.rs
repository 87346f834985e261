//! An IPv4→IPv6 translator (stateful NAT64-style, RFC 6146 flavored).
//!
//! Shares Table 1's first row with the NAT: a **flow map** (per-flow,
//! read every packet, written at flow start/end) and a **pool of
//! IPs/ports** (global, written at flow start/end). The translator
//! rewrites IPv4 TCP packets from legacy clients into IPv6 packets
//! toward v6-only servers, tracking per-connection port bindings.
//!
//! Like the NAT, the designated-core discipline holds because both
//! directions of a binding are keyed and stored on the v4 connection's
//! designated core; the v6-side reverse lookup is by the allocated
//! (address, port) binding carried in the flow entry.
//!
//! The data path emits genuine IPv6 frames (via `sprayer-net`'s
//! [`sprayer_net::Ipv6Header`]) with recomputed TCP checksums over the
//! v6 pseudo-header.

use parking_lot::Mutex;
use sprayer::api::{
    Access, FlowStateApi, InsertOutcome, NetworkFunction, NfDescriptor, Scope, Verdict,
};
use sprayer_net::{EtherType, EthernetHeader, Ipv6Header, MacAddr, Packet, TcpFlags, TcpHeader};
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-flow binding: the v6 source endpoint this v4 connection maps to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Binding {
    /// Translator-owned v6 source address for this binding.
    pub v6_src: [u8; 16],
    /// Allocated source port on the v6 side.
    pub v6_port: u16,
    /// FINs observed; removed at 2 or on RST.
    pub fins: u8,
}

/// The IPv4→IPv6 translator NF.
pub struct Nat64Nf {
    /// The translator's v6 prefix for synthesizing server addresses
    /// (RFC 6052's 96-bit prefix convention: server v6 = prefix ++ v4).
    prefix96: [u8; 12],
    /// The translator's own v6 address used as the source of translated
    /// packets.
    v6_self: [u8; 16],
    /// Free source ports on the v6 side (global pool, flow-writes only).
    pool: Mutex<Vec<u16>>,
    /// Connections translated.
    pub translations: AtomicU64,
    /// SYNs dropped on pool exhaustion.
    pub pool_exhausted: AtomicU64,
    /// Packets dropped for missing bindings.
    pub no_binding: AtomicU64,
}

impl Nat64Nf {
    /// A translator with the given RFC 6052 prefix and port range.
    pub fn new(prefix96: [u8; 12], v6_self: [u8; 16], ports: std::ops::Range<u16>) -> Self {
        Nat64Nf {
            prefix96,
            v6_self,
            pool: Mutex::new(ports.rev().collect()),
            translations: AtomicU64::new(0),
            pool_exhausted: AtomicU64::new(0),
            no_binding: AtomicU64::new(0),
        }
    }

    /// Free ports remaining.
    pub fn pool_len(&self) -> usize {
        self.pool.lock().len()
    }

    /// Synthesize the v6 address embedding a v4 server address.
    pub fn embed(&self, v4: u32) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..12].copy_from_slice(&self.prefix96);
        out[12..].copy_from_slice(&v4.to_be_bytes());
        out
    }

    /// Translate a v4 TCP packet into a fresh v6 frame.
    fn translate(&self, pkt: &Packet, binding: &Binding) -> Option<Packet> {
        let tuple = pkt.tuple()?;
        let l4 = usize::from(pkt.meta().l4_offset?);
        let tcp = TcpHeader::parse(&pkt.bytes()[l4..]).ok()?;
        let payload = pkt.payload()?;

        let mut out_tcp = tcp.clone();
        out_tcp.src_port = binding.v6_port;
        // Destination port unchanged.
        let tcp_len = (out_tcp.header_len() + payload.len()) as u16;

        let ip6 = Ipv6Header::simple(binding.v6_src, self.embed(tuple.dst_addr), 6, tcp_len);
        let frame_len = 14 + sprayer_net::IPV6_HEADER_LEN + usize::from(tcp_len);
        let mut data = vec![0u8; frame_len.max(60)];
        EthernetHeader {
            dst: MacAddr::from_index(6),
            src: MacAddr::from_index(4),
            ethertype: EtherType::Ipv6,
        }
        .emit(&mut data)
        .ok()?;
        ip6.emit(&mut data[14..]).ok()?;
        let l4o = 14 + sprayer_net::IPV6_HEADER_LEN;
        let hlen = out_tcp
            .emit(&mut data[l4o..], ip6.pseudo_header(), payload)
            .ok()?;
        data[l4o + hlen..l4o + hlen + payload.len()].copy_from_slice(payload);
        Packet::parse(data).ok()
    }
}

impl NetworkFunction for Nat64Nf {
    type Flow = Binding;

    fn descriptor(&self) -> NfDescriptor {
        NfDescriptor::named("IPv4 to IPv6")
            .with_state("Flow map", Scope::PerFlow, Access::Read, Access::ReadWrite)
            .with_state(
                "Pool of IPs/ports",
                Scope::Global,
                Access::None,
                Access::ReadWrite,
            )
    }

    fn connection_packets(&self, pkt: &mut Packet, ctx: &mut dyn FlowStateApi<Binding>) -> Verdict {
        let Some(tuple) = pkt.tuple() else {
            return Verdict::Forward;
        };
        let flags = pkt.meta().tcp_flags.unwrap_or_default();
        let key = tuple.key();

        if flags.contains(TcpFlags::RST) {
            if let Some(b) = ctx.remove_local_flow(&key) {
                self.pool.lock().push(b.v6_port);
            }
            return Verdict::Forward;
        }
        if flags.contains(TcpFlags::FIN) {
            let mut fins = 0;
            ctx.modify_local_flow(&key, &mut |b| {
                b.fins += 1;
                fins = b.fins;
            });
            let verdict = self.regular_packets(pkt, ctx);
            if fins >= 2 {
                if let Some(b) = ctx.remove_local_flow(&key) {
                    self.pool.lock().push(b.v6_port);
                }
            }
            return verdict;
        }
        if !flags.contains(TcpFlags::SYN) || flags.contains(TcpFlags::ACK) {
            return self.regular_packets(pkt, ctx);
        }
        if ctx.get_local_flow(&key).is_some() {
            return self.regular_packets(pkt, ctx); // retransmitted SYN
        }

        let Some(port) = self.pool.lock().pop() else {
            self.pool_exhausted.fetch_add(1, Ordering::Relaxed);
            return Verdict::Drop;
        };
        let binding = Binding {
            v6_src: self.v6_self,
            v6_port: port,
            fins: 0,
        };
        if ctx.insert_local_flow(key, binding.clone()) == InsertOutcome::TableFull {
            self.pool.lock().push(port);
            self.pool_exhausted.fetch_add(1, Ordering::Relaxed);
            return Verdict::Drop;
        }
        self.translations.fetch_add(1, Ordering::Relaxed);
        match self.translate(pkt, &binding) {
            Some(v6) => {
                *pkt = v6;
                Verdict::Forward
            }
            None => Verdict::Drop,
        }
    }

    fn regular_packets(&self, pkt: &mut Packet, ctx: &mut dyn FlowStateApi<Binding>) -> Verdict {
        let Some(tuple) = pkt.tuple() else {
            return Verdict::Forward;
        };
        match ctx.get_flow(&tuple.key()) {
            Some(binding) => match self.translate(pkt, &binding) {
                Some(v6) => {
                    *pkt = v6;
                    Verdict::Forward
                }
                None => Verdict::Drop,
            },
            None => {
                self.no_binding.fetch_add(1, Ordering::Relaxed);
                Verdict::Drop
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprayer::config::DispatchMode;
    use sprayer::coremap::CoreMap;
    use sprayer::tables::LocalTables;
    use sprayer_net::{FiveTuple, PacketBuilder};

    const PREFIX: [u8; 12] = [0x00, 0x64, 0xff, 0x9b, 0, 0, 0, 0, 0, 0, 0, 0]; // 64:ff9b::/96
    const SELF6: [u8; 16] = [
        0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x64,
    ];

    fn harness() -> (Nat64Nf, LocalTables<Binding>, CoreMap) {
        let map = CoreMap::new(DispatchMode::Sprayer, 8);
        (
            Nat64Nf::new(PREFIX, SELF6, 20_000..20_100),
            LocalTables::new(map.clone(), 256),
            map,
        )
    }

    fn conn() -> FiveTuple {
        FiveTuple::tcp(0x0a00_0001, 40_000, 0x5db8_d822, 80)
    }

    #[test]
    fn syn_produces_an_ipv6_frame() {
        let (nf, mut tables, map) = harness();
        let mut syn = PacketBuilder::new().tcp(conn(), 0, 0, TcpFlags::SYN, b"");
        let core = map.designated_for_tuple(&conn());
        assert_eq!(
            nf.connection_packets(&mut syn, &mut tables.ctx(core)),
            Verdict::Forward
        );

        assert_eq!(syn.meta().ethertype, EtherType::Ipv6);
        let ip6 = Ipv6Header::parse(&syn.bytes()[14..]).unwrap();
        assert_eq!(ip6.src, SELF6);
        assert_eq!(
            &ip6.dst[..12],
            &PREFIX,
            "server address embeds the RFC 6052 prefix"
        );
        assert_eq!(&ip6.dst[12..], &0x5db8_d822u32.to_be_bytes());
        assert_eq!(nf.pool_len(), 99);
    }

    #[test]
    fn translated_checksum_verifies_over_v6_pseudo_header() {
        let (nf, mut tables, map) = harness();
        let core = map.designated_for_tuple(&conn());
        let mut syn = PacketBuilder::new().tcp(conn(), 0, 0, TcpFlags::SYN, b"");
        nf.connection_packets(&mut syn, &mut tables.ctx(core));
        let mut data = PacketBuilder::new().tcp(conn(), 5, 1, TcpFlags::ACK, b"hello v6");
        assert_eq!(
            nf.regular_packets(&mut data, &mut tables.ctx(0)),
            Verdict::Forward
        );

        let ip6 = Ipv6Header::parse(&data.bytes()[14..]).unwrap();
        let l4 = 14 + sprayer_net::IPV6_HEADER_LEN;
        let seg = usize::from(ip6.payload_len);
        assert!(TcpHeader::verify_checksum(
            ip6.pseudo_header(),
            &data.bytes()[l4..l4 + seg]
        ));
        // Payload carried through.
        assert!(data.bytes()[l4..].windows(8).any(|w| w == b"hello v6"));
    }

    #[test]
    fn regular_packets_translate_from_any_core() {
        let (nf, mut tables, map) = harness();
        let core = map.designated_for_tuple(&conn());
        let mut syn = PacketBuilder::new().tcp(conn(), 0, 0, TcpFlags::SYN, b"");
        nf.connection_packets(&mut syn, &mut tables.ctx(core));
        let syn_ip6 = Ipv6Header::parse(&syn.bytes()[14..]).unwrap();
        let syn_tcp = TcpHeader::parse(&syn.bytes()[14 + sprayer_net::IPV6_HEADER_LEN..]).unwrap();

        for c in 0..8 {
            let mut data = PacketBuilder::new().tcp(conn(), 9, 1, TcpFlags::ACK, b"x");
            assert_eq!(
                nf.regular_packets(&mut data, &mut tables.ctx(c)),
                Verdict::Forward
            );
            let ip6 = Ipv6Header::parse(&data.bytes()[14..]).unwrap();
            let tcp = TcpHeader::parse(&data.bytes()[14 + sprayer_net::IPV6_HEADER_LEN..]).unwrap();
            assert_eq!(ip6.src, syn_ip6.src, "stable binding address");
            assert_eq!(tcp.src_port, syn_tcp.src_port, "stable binding port");
        }
    }

    #[test]
    fn unbound_traffic_is_dropped() {
        let (nf, mut tables, _) = harness();
        let mut stray = PacketBuilder::new().tcp(conn(), 1, 1, TcpFlags::ACK, b"");
        assert_eq!(
            nf.regular_packets(&mut stray, &mut tables.ctx(0)),
            Verdict::Drop
        );
        assert_eq!(nf.no_binding.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn teardown_returns_the_port() {
        let (nf, mut tables, map) = harness();
        let core = map.designated_for_tuple(&conn());
        let mut syn = PacketBuilder::new().tcp(conn(), 0, 0, TcpFlags::SYN, b"");
        nf.connection_packets(&mut syn, &mut tables.ctx(core));
        assert_eq!(nf.pool_len(), 99);
        let mut rst = PacketBuilder::new().tcp(conn(), 1, 0, TcpFlags::RST, b"");
        nf.connection_packets(&mut rst, &mut tables.ctx(core));
        assert_eq!(nf.pool_len(), 100);
        assert_eq!(tables.total_entries(), 0);
    }

    #[test]
    fn pool_exhaustion_drops_new_connections() {
        let map = CoreMap::new(DispatchMode::Sprayer, 8);
        let mut tables: LocalTables<Binding> = LocalTables::new(map.clone(), 256);
        let nf = Nat64Nf::new(PREFIX, SELF6, 30_000..30_002);
        let mut ok = 0;
        for i in 0..5u32 {
            let t = FiveTuple::tcp(0x0a00_0001 + i, 40_000, 0x5db8_d822, 80);
            let core = map.designated_for_tuple(&t);
            let mut syn = PacketBuilder::new().tcp(t, 0, 0, TcpFlags::SYN, b"");
            if nf.connection_packets(&mut syn, &mut tables.ctx(core)) == Verdict::Forward {
                ok += 1;
            }
        }
        assert_eq!(ok, 2, "two ports, two connections");
        assert_eq!(nf.pool_exhausted.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn descriptor_matches_table_1_row() {
        let (nf, _, _) = harness();
        let d = nf.descriptor();
        assert!(d.sprayer_compatible);
        assert!(!d.writes_flow_state_per_packet());
        assert_eq!(d.states.len(), 2);
    }
}
