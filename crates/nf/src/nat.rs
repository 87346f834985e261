//! A NAT (source network address translation), after the paper's Fig. 5.
//!
//! State (Table 1 row "NAT"):
//! * **flow map** — per-flow, read on every packet, written at flow
//!   start/end;
//! * **pool of IPs/ports** — global, written at flow start/end only.
//!
//! The `connection_packets` handler reacts to the *first* SYN of a
//! connection: it draws an external port from the global pool and
//! installs two entries in the local (designated-core) flow table — one
//! keyed by the original connection, one keyed by the translated
//! connection, so packets from either side resolve their rewrite with a
//! single [`FlowStateApi::get_flow`]. Everything after the first SYN
//! (including SYN-ACK) is handled as a regular packet, exactly as in the
//! paper's listing.
//!
//! **Port selection and the designated core.** The translated connection
//! (server ↔ NAT-external) hashes differently from the original
//! connection (client ↔ server). If the external port were arbitrary,
//! connection packets arriving from the server side would be redirected
//! to a *different* designated core than the one holding the state. We
//! therefore pick the external port such that both connections map to the
//! same designated core — an expected `num_cores` pool probes, costing a
//! handful of hashes at connection setup only. This preserves both of the
//! paper's invariants: write partition, and "the designated core is the
//! same for both sides of the same TCP connection".

use parking_lot::Mutex;
use sprayer::api::{
    Access, EvictReason, FlowStateApi, InsertOutcome, NetworkFunction, NfDescriptor, Scope, Verdict,
};
use sprayer::scr::ReplicaMerge;
use sprayer_net::{FiveTuple, FlowKey, Packet, TcpFlags};
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-flow NAT state: which side the packet matches and how to rewrite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NatEntry {
    /// Keyed by the original (client ↔ server) connection: rewrite the
    /// client's source endpoint to the external endpoint.
    Outward {
        /// The internal (client) endpoint being hidden.
        internal: (u32, u16),
        /// The external (NAT) endpoint replacing it.
        external: (u32, u16),
        /// FIN directions seen, as a bitmask: bit 0 when the FIN
        /// resolved through this Outward entry (the client side), bit 1
        /// when it resolved through the paired Inward entry (the server
        /// side). The pair is removed at `0b11` or on RST. A bitmask so
        /// SCR replica merges union the two directions commutatively —
        /// FINs landing on different cores cannot lose each other to
        /// last-writer-wins and leak the translation.
        fins: u8,
    },
    /// Keyed by the translated (server ↔ NAT-external) connection:
    /// rewrite the destination back to the internal endpoint.
    Inward {
        /// The external endpoint the server addresses.
        external: (u32, u16),
        /// The internal endpoint to restore.
        internal: (u32, u16),
    },
}

/// Global NAT counters.
#[derive(Debug, Default)]
pub struct NatStats {
    /// Connections successfully translated.
    pub translations: AtomicU64,
    /// SYNs dropped because the pool was exhausted (or no port matched
    /// the designated core).
    pub pool_exhausted: AtomicU64,
    /// Packets dropped for missing translations.
    pub no_translation: AtomicU64,
    /// Connections torn down (RST or both FINs).
    pub teardowns: AtomicU64,
    /// Entries exported by [`NetworkFunction::freeze_flow`] during
    /// elastic reconfigurations.
    pub frozen: AtomicU64,
    /// Entries imported by [`NetworkFunction::adopt_flow`]. Every export
    /// must be matched by an import (`frozen == adopted` once a
    /// reconfiguration completes) or an external port has leaked: the
    /// teardown path returns ports to the pool by looking the entry up,
    /// which only works if migration never loses one.
    pub adopted: AtomicU64,
    /// External ports returned to the pool by the table's eviction hook
    /// (idle aging or the LRU backstop) rather than by a FIN/RST
    /// teardown — translations the lifecycle reclaimed from under a
    /// silent or abandoned connection.
    pub ports_reclaimed: AtomicU64,
}

/// Source NAT over a single external IP.
pub struct NatNf {
    external_ip: u32,
    /// Free external ports (global state, flow-granularity writes only).
    pool: Mutex<Vec<u16>>,
    /// Global counters.
    pub stats: NatStats,
}

impl NatNf {
    /// A NAT owning `external_ip` and the port range `ports`.
    pub fn new(external_ip: u32, ports: std::ops::Range<u16>) -> Self {
        NatNf {
            external_ip,
            pool: Mutex::new(ports.rev().collect()),
            stats: NatStats::default(),
        }
    }

    /// Free ports remaining in the pool.
    pub fn pool_len(&self) -> usize {
        self.pool.lock().len()
    }

    /// Pick an external port whose translated connection maps to the same
    /// designated core as the original connection (see module docs).
    fn select_port(&self, original: &FiveTuple, ctx: &dyn FlowStateApi<NatEntry>) -> Option<u16> {
        let designated = ctx.designated_core(&original.key());
        let mut pool = self.pool.lock();
        // Scan from the top; expected num_cores probes.
        for idx in (0..pool.len()).rev() {
            let port = pool[idx];
            let translated =
                FiveTuple::tcp(self.external_ip, port, original.dst_addr, original.dst_port);
            if ctx.designated_core(&translated.key()) == designated {
                pool.swap_remove(idx);
                return Some(port);
            }
        }
        None
    }

    fn teardown(&self, key_tuple: &FiveTuple, ctx: &mut dyn FlowStateApi<NatEntry>) {
        // `key_tuple` may be either side; resolve to the Outward entry.
        let (orig_key, trans_key, external) = match ctx.get_flow(&key_tuple.key()) {
            Some(NatEntry::Outward {
                internal: _,
                external,
                ..
            }) => {
                let trans = FiveTuple::tcp(
                    external.0,
                    external.1,
                    key_tuple.dst_addr,
                    key_tuple.dst_port,
                );
                (key_tuple.key(), trans.key(), external)
            }
            Some(NatEntry::Inward { external, internal }) => {
                // Reconstruct the original connection: the server is the
                // endpoint of this tuple that is not the external one.
                let server = if (key_tuple.src_addr, key_tuple.src_port) == external {
                    (key_tuple.dst_addr, key_tuple.dst_port)
                } else {
                    (key_tuple.src_addr, key_tuple.src_port)
                };
                let orig = FiveTuple::tcp(internal.0, internal.1, server.0, server.1);
                (orig.key(), key_tuple.key(), external)
            }
            None => return,
        };
        ctx.remove_local_flow(&orig_key);
        ctx.remove_local_flow(&trans_key);
        // Under SCR two cores can each observe the completed FIN pair
        // (one via its own FIN, one via a merged replica) and both run
        // teardown; guard the push so the port returns to the pool only
        // once. (A port re-allocated between the two frees would still
        // slip through the guard — an accepted race: the deterministic
        // sim serializes teardowns, and in the threaded runtime the
        // window is a replication round-trip.)
        let freed = {
            let mut pool = self.pool.lock();
            if pool.contains(&external.1) {
                false
            } else {
                pool.push(external.1);
                true
            }
        };
        if freed {
            self.stats.teardowns.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The per-packet translation fast path, with the miss counter
    /// accumulated by the caller so a batch touches the atomic once.
    fn translate_data(
        &self,
        pkt: &mut Packet,
        ctx: &mut dyn FlowStateApi<NatEntry>,
        misses: &mut u64,
    ) -> Verdict {
        let Some(tuple) = pkt.tuple() else {
            return Verdict::Forward;
        };
        match ctx.get_flow(&tuple.key()) {
            Some(NatEntry::Outward {
                internal, external, ..
            }) => {
                if (tuple.src_addr, tuple.src_port) == internal {
                    pkt.rewrite_src(external.0, external.1)
                        .expect("TCP rewrite");
                } else {
                    // Shouldn't occur: the reverse of the original
                    // connection addresses the internal host directly.
                    pkt.rewrite_dst(internal.0, internal.1)
                        .expect("TCP rewrite");
                }
                Verdict::Forward
            }
            Some(NatEntry::Inward { external, internal }) => {
                if (tuple.dst_addr, tuple.dst_port) == external {
                    pkt.rewrite_dst(internal.0, internal.1)
                        .expect("TCP rewrite");
                } else {
                    pkt.rewrite_src(external.0, external.1)
                        .expect("TCP rewrite");
                }
                Verdict::Forward
            }
            None => {
                // "no translation found for this flow id" (Fig. 5).
                *misses += 1;
                Verdict::Drop
            }
        }
    }
}

impl NetworkFunction for NatNf {
    type Flow = NatEntry;

    fn descriptor(&self) -> NfDescriptor {
        NfDescriptor::named("NAT")
            .with_state("Flow map", Scope::PerFlow, Access::Read, Access::ReadWrite)
            .with_state(
                "Pool of IPs/ports",
                Scope::Global,
                Access::None,
                Access::ReadWrite,
            )
    }

    fn connection_packets(
        &self,
        pkt: &mut Packet,
        ctx: &mut dyn FlowStateApi<NatEntry>,
    ) -> Verdict {
        let Some(tuple) = pkt.tuple() else {
            return Verdict::Forward; // non-TCP passthrough
        };
        let flags = pkt.meta().tcp_flags.unwrap_or_default();

        // Teardown first: RST from either side, or the second FIN.
        if flags.contains(TcpFlags::RST) {
            self.teardown(&tuple, ctx);
            return Verdict::Forward;
        }
        if flags.contains(TcpFlags::FIN) {
            // Record the FIN's direction on the Outward entry (which
            // side it resolved through); translate the packet like a
            // regular one afterwards.
            let mut fin_count = 0;
            let (key, bit) = match ctx.get_flow(&tuple.key()) {
                Some(NatEntry::Outward { .. }) => (Some(tuple.key()), 0b01),
                Some(NatEntry::Inward { external, internal }) => {
                    let server = if (tuple.src_addr, tuple.src_port) == external {
                        (tuple.dst_addr, tuple.dst_port)
                    } else {
                        (tuple.src_addr, tuple.src_port)
                    };
                    (
                        Some(FiveTuple::tcp(internal.0, internal.1, server.0, server.1).key()),
                        0b10,
                    )
                }
                None => (None, 0),
            };
            if let Some(key) = key {
                ctx.modify_local_flow(&key, &mut |e| {
                    if let NatEntry::Outward { fins, .. } = e {
                        *fins |= bit;
                        fin_count = *fins;
                    }
                });
            }
            let verdict = self.regular_packets(pkt, ctx);
            if fin_count == 0b11 {
                self.teardown(&tuple, ctx);
            }
            return verdict;
        }

        // "we only care about the first SYN packet" (Fig. 5): SYN-ACK and
        // anything else translates as a regular packet.
        if !flags.contains(TcpFlags::SYN) || flags.contains(TcpFlags::ACK) {
            return self.regular_packets(pkt, ctx);
        }

        if ctx.get_flow(&tuple.key()).is_some() {
            // Retransmitted SYN: translation already exists.
            return self.regular_packets(pkt, ctx);
        }

        let Some(port) = self.select_port(&tuple, ctx) else {
            self.stats.pool_exhausted.fetch_add(1, Ordering::Relaxed);
            return Verdict::Drop;
        };
        let internal = (tuple.src_addr, tuple.src_port);
        let external = (self.external_ip, port);
        let translated = FiveTuple::tcp(external.0, external.1, tuple.dst_addr, tuple.dst_port);

        let out = ctx.insert_local_flow(
            tuple.key(),
            NatEntry::Outward {
                internal,
                external,
                fins: 0,
            },
        );
        if out == InsertOutcome::TableFull {
            self.pool.lock().push(port);
            self.stats.pool_exhausted.fetch_add(1, Ordering::Relaxed);
            return Verdict::Drop;
        }
        // "we also include the other side" (Fig. 5 lines 22-25).
        let inw = ctx.insert_local_flow(translated.key(), NatEntry::Inward { external, internal });
        if inw == InsertOutcome::TableFull {
            ctx.remove_local_flow(&tuple.key());
            self.pool.lock().push(port);
            self.stats.pool_exhausted.fetch_add(1, Ordering::Relaxed);
            return Verdict::Drop;
        }
        self.stats.translations.fetch_add(1, Ordering::Relaxed);

        pkt.rewrite_src(external.0, external.1)
            .expect("TCP packet rewrites");
        Verdict::Forward
    }

    fn regular_packets(&self, pkt: &mut Packet, ctx: &mut dyn FlowStateApi<NatEntry>) -> Verdict {
        let mut misses = 0;
        let verdict = self.translate_data(pkt, ctx, &mut misses);
        if misses > 0 {
            self.stats
                .no_translation
                .fetch_add(misses, Ordering::Relaxed);
        }
        verdict
    }

    fn handle_batch(
        &self,
        pkts: &mut [Packet],
        conn: &[bool],
        ctx: &mut dyn FlowStateApi<NatEntry>,
        out: &mut sprayer::api::VerdictSink,
    ) {
        debug_assert_eq!(pkts.len(), conn.len());
        // The steady state is pure translation (Fig. 5's lookup+rewrite);
        // batch it with one miss-counter flush. Connection packets keep
        // the scalar setup/teardown machinery (pool, paired entries).
        let mut misses = 0u64;
        for (pkt, &is_conn) in pkts.iter_mut().zip(conn) {
            let verdict = if is_conn {
                self.connection_packets(pkt, ctx)
            } else {
                self.translate_data(pkt, ctx, &mut misses)
            };
            out.push(verdict);
        }
        if misses > 0 {
            self.stats
                .no_translation
                .fetch_add(misses, Ordering::Relaxed);
        }
    }

    fn merge_replica(
        &self,
        _key: &FlowKey,
        existing: Option<&NatEntry>,
        incoming: &NatEntry,
        newer: bool,
    ) -> ReplicaMerge<NatEntry> {
        // Union the per-direction FIN bits of Outward entries (monotone
        // set, commutative); the translation endpoints are written once
        // at SYN time. Never `Remove` here: the port pool is global
        // state only the packet-handling teardown path may touch, so a
        // replica whose union completes the close keeps the entry until
        // either the origin's teardown ships the `Del`s or a FIN
        // retransmit / RST lands locally and finishes the job (the
        // guarded pool push makes that teardown idempotent).
        if let (
            Some(NatEntry::Outward {
                fins: existing_fins,
                ..
            }),
            NatEntry::Outward {
                internal,
                external,
                fins,
            },
        ) = (existing, incoming)
        {
            return ReplicaMerge::Store(NatEntry::Outward {
                internal: *internal,
                external: *external,
                fins: existing_fins | fins,
            });
        }
        if newer {
            ReplicaMerge::Store(incoming.clone())
        } else {
            ReplicaMerge::Keep
        }
    }

    fn freeze_flow(&self, _key: &sprayer_net::FlowKey, _state: &mut NatEntry) {
        // NatEntry carries no core-local references — endpoints and FIN
        // counts travel as-is. The export is still accounted so the port
        // pool can be audited: a flow frozen but never adopted would
        // strand its external port (teardown resolves the port through
        // the table entry).
        self.stats.frozen.fetch_add(1, Ordering::Relaxed);
    }

    fn adopt_flow(&self, _key: &sprayer_net::FlowKey, _state: &mut NatEntry, _new_core: usize) {
        // Note the new owner may break the designated-core alignment the
        // port was chosen for (select_port aligned both sides under the
        // *old* map); correctness is unaffected — regular packets read
        // foreign state — and connection packets simply redirect to the
        // new designated core.
        self.stats.adopted.fetch_add(1, Ordering::Relaxed);
    }

    fn evict_flow(&self, _key: &FlowKey, state: &mut NatEntry, _reason: EvictReason) {
        // The Outward entry owns the external port: return it to the
        // pool when the lifecycle reclaims the entry, or the translation
        // leaks the port forever. The push reuses the teardown guard so
        // a duplicate eviction (SCR's accepted replication races, or an
        // eviction racing a FIN teardown) cannot double-free. The paired
        // Inward entry is left to its own idle expiry — evicting it
        // frees nothing, deliberately: only the Outward owner may
        // release the port, so the pair's two evictions release exactly
        // once.
        let NatEntry::Outward { external, .. } = state else {
            return;
        };
        let mut pool = self.pool.lock();
        if !pool.contains(&external.1) {
            pool.push(external.1);
            self.stats.ports_reclaimed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprayer::config::DispatchMode;
    use sprayer::coremap::CoreMap;
    use sprayer::scr::UpdateOp;
    use sprayer::tables::LocalTables;
    use sprayer_net::PacketBuilder;

    const CLIENT: u32 = 0x0a00_0001; // 10.0.0.1
    const SERVER: u32 = 0x5db8_d822; // 93.184.216.34
    const NAT_IP: u32 = 0xc633_640a; // 198.51.100.10

    fn conn() -> FiveTuple {
        FiveTuple::tcp(CLIENT, 40_000, SERVER, 443)
    }

    struct Harness {
        nat: NatNf,
        tables: LocalTables<NatEntry>,
        map: CoreMap,
    }

    impl Harness {
        fn new() -> Self {
            let map = CoreMap::new(DispatchMode::Sprayer, 8);
            Harness {
                nat: NatNf::new(NAT_IP, 10_000..10_128),
                tables: LocalTables::new(map.clone(), 1024),
                map,
            }
        }

        /// Run a packet through the right handler on the right core, as
        /// the runtime would.
        fn run(&mut self, pkt: &mut Packet) -> Verdict {
            let tuple = pkt.tuple().unwrap();
            if pkt.is_connection_packet() {
                let core = self.map.designated_for_tuple(&tuple);
                let mut ctx = self.tables.ctx(core);
                self.nat.connection_packets(pkt, &mut ctx)
            } else {
                // Regular packets may run anywhere; pick an arbitrary core
                // different from the designated one to prove get_flow works.
                let core = (self.map.designated_for_tuple(&tuple) + 3) % 8;
                let mut ctx = self.tables.ctx(core);
                self.nat.regular_packets(pkt, &mut ctx)
            }
        }
    }

    #[test]
    fn syn_allocates_and_translates() {
        let mut h = Harness::new();
        let mut syn = PacketBuilder::new().tcp(conn(), 0, 0, TcpFlags::SYN, b"");
        assert_eq!(h.run(&mut syn), Verdict::Forward);
        let t = syn.tuple().unwrap();
        assert_eq!(
            t.src_addr, NAT_IP,
            "source must be rewritten to the external IP"
        );
        assert!((10_000..10_128).contains(&t.src_port));
        assert_eq!(t.dst_addr, SERVER);
        assert_eq!(h.nat.pool_len(), 127);
        assert_eq!(h.nat.stats.translations.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn both_directions_translate_via_regular_packets() {
        let mut h = Harness::new();
        let mut syn = PacketBuilder::new().tcp(conn(), 0, 0, TcpFlags::SYN, b"");
        h.run(&mut syn);
        let ext_port = syn.tuple().unwrap().src_port;

        // Outbound data.
        let mut data = PacketBuilder::new().tcp(conn(), 1, 1, TcpFlags::ACK, b"req");
        assert_eq!(h.run(&mut data), Verdict::Forward);
        assert_eq!(data.tuple().unwrap().src_addr, NAT_IP);
        assert_eq!(data.tuple().unwrap().src_port, ext_port);

        // Inbound reply addresses the external endpoint.
        let reply_tuple = FiveTuple::tcp(SERVER, 443, NAT_IP, ext_port);
        let mut reply = PacketBuilder::new().tcp(reply_tuple, 9, 2, TcpFlags::ACK, b"resp");
        assert_eq!(h.run(&mut reply), Verdict::Forward);
        let rt = reply.tuple().unwrap();
        assert_eq!(
            (rt.dst_addr, rt.dst_port),
            (CLIENT, 40_000),
            "dst restored to client"
        );
    }

    #[test]
    fn syn_ack_is_treated_as_regular() {
        let mut h = Harness::new();
        let mut syn = PacketBuilder::new().tcp(conn(), 0, 0, TcpFlags::SYN, b"");
        h.run(&mut syn);
        let ext_port = syn.tuple().unwrap().src_port;

        let synack_tuple = FiveTuple::tcp(SERVER, 443, NAT_IP, ext_port);
        let mut synack =
            PacketBuilder::new().tcp(synack_tuple, 0, 1, TcpFlags::SYN | TcpFlags::ACK, b"");
        assert_eq!(h.run(&mut synack), Verdict::Forward);
        assert_eq!(synack.tuple().unwrap().dst_addr, CLIENT);
        // No extra pool allocation happened.
        assert_eq!(h.nat.pool_len(), 127);
    }

    #[test]
    fn selected_port_preserves_designated_core() {
        let mut h = Harness::new();
        for i in 0..64u32 {
            let c = FiveTuple::tcp(CLIENT + i, 40_000 + (i as u16), SERVER, 443);
            let mut syn = PacketBuilder::new().tcp(c, 0, 0, TcpFlags::SYN, b"");
            if h.run(&mut syn) == Verdict::Forward {
                let translated = syn.tuple().unwrap();
                assert_eq!(
                    h.map.designated_for_tuple(&c),
                    h.map.designated_for_tuple(&translated),
                    "flow {i}: external port must keep the designated core"
                );
            }
        }
    }

    #[test]
    fn eviction_hook_reclaims_the_port_exactly_once() {
        let mut h = Harness::new();
        let mut syn = PacketBuilder::new().tcp(conn(), 0, 0, TcpFlags::SYN, b"");
        h.run(&mut syn);
        let ext_port = syn.tuple().unwrap().src_port;
        assert_eq!(h.nat.pool_len(), 127);

        // The lifecycle reclaims both entries of the pair (order
        // mirrors an idle sweep: the Outward entry first).
        let orig_key = conn().key();
        let trans_key = FiveTuple::tcp(NAT_IP, ext_port, SERVER, 443).key();
        let core = h.map.designated_for_key(&orig_key);
        let mut ctx = h.tables.ctx(core);
        let mut outward = ctx.remove_local_flow(&orig_key).expect("outward entry");
        h.nat.evict_flow(&orig_key, &mut outward, EvictReason::Idle);
        assert_eq!(h.nat.pool_len(), 128, "outward eviction frees the port");
        assert_eq!(h.nat.stats.ports_reclaimed.load(Ordering::Relaxed), 1);

        // A duplicate eviction of the same entry (replication race)
        // must not double-free...
        h.nat
            .evict_flow(&orig_key, &mut outward.clone(), EvictReason::Capacity);
        assert_eq!(h.nat.pool_len(), 128);
        assert_eq!(h.nat.stats.ports_reclaimed.load(Ordering::Relaxed), 1);

        // ...and the orphaned Inward pair frees nothing either.
        let inward_core = h.map.designated_for_key(&trans_key);
        let mut ctx = h.tables.ctx(inward_core);
        if let Some(mut inward) = ctx.remove_local_flow(&trans_key) {
            h.nat.evict_flow(&trans_key, &mut inward, EvictReason::Idle);
        }
        assert_eq!(h.nat.pool_len(), 128);
        assert_eq!(
            h.nat.pool.lock().iter().filter(|p| **p == ext_port).count(),
            1,
            "the port must appear in the pool exactly once"
        );
    }

    #[test]
    fn packets_without_translation_are_dropped() {
        let mut h = Harness::new();
        let mut stray = PacketBuilder::new().tcp(conn(), 5, 5, TcpFlags::ACK, b"");
        assert_eq!(h.run(&mut stray), Verdict::Drop);
        assert_eq!(h.nat.stats.no_translation.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn rst_tears_down_and_returns_port() {
        let mut h = Harness::new();
        let mut syn = PacketBuilder::new().tcp(conn(), 0, 0, TcpFlags::SYN, b"");
        h.run(&mut syn);
        assert_eq!(h.nat.pool_len(), 127);

        let mut rst = PacketBuilder::new().tcp(conn(), 1, 0, TcpFlags::RST, b"");
        assert_eq!(h.run(&mut rst), Verdict::Forward);
        assert_eq!(h.nat.pool_len(), 128, "port must return to the pool");
        assert_eq!(h.nat.stats.teardowns.load(Ordering::Relaxed), 1);

        // Subsequent data is dropped.
        let mut data = PacketBuilder::new().tcp(conn(), 2, 0, TcpFlags::ACK, b"");
        assert_eq!(h.run(&mut data), Verdict::Drop);
    }

    #[test]
    fn two_fins_tear_down() {
        let mut h = Harness::new();
        let mut syn = PacketBuilder::new().tcp(conn(), 0, 0, TcpFlags::SYN, b"");
        h.run(&mut syn);
        let ext_port = syn.tuple().unwrap().src_port;

        let mut fin1 = PacketBuilder::new().tcp(conn(), 10, 1, TcpFlags::FIN | TcpFlags::ACK, b"");
        assert_eq!(h.run(&mut fin1), Verdict::Forward);
        assert_eq!(
            fin1.tuple().unwrap().src_addr,
            NAT_IP,
            "FIN is still translated"
        );
        assert_eq!(h.nat.pool_len(), 127, "one FIN does not tear down");

        let fin2_tuple = FiveTuple::tcp(SERVER, 443, NAT_IP, ext_port);
        let mut fin2 =
            PacketBuilder::new().tcp(fin2_tuple, 20, 11, TcpFlags::FIN | TcpFlags::ACK, b"");
        assert_eq!(h.run(&mut fin2), Verdict::Forward);
        assert_eq!(h.nat.pool_len(), 128, "second FIN frees the port");
    }

    #[test]
    fn pool_exhaustion_drops_new_connections() {
        let map = CoreMap::new(DispatchMode::Sprayer, 8);
        let mut tables: LocalTables<NatEntry> = LocalTables::new(map.clone(), 1024);
        let nat = NatNf::new(NAT_IP, 10_000..10_001); // one port

        let mut accepted = 0;
        let mut dropped = 0;
        for i in 0..16u32 {
            let c = FiveTuple::tcp(CLIENT + i, 40_000, SERVER, 443);
            let core = map.designated_for_tuple(&c);
            let mut ctx = tables.ctx(core);
            let mut syn = PacketBuilder::new().tcp(c, 0, 0, TcpFlags::SYN, b"");
            match nat.connection_packets(&mut syn, &mut ctx) {
                Verdict::Forward => accepted += 1,
                Verdict::Drop => dropped += 1,
            }
        }
        // The single port can serve at most one connection — and only one
        // whose designated core matches; the rest must be dropped.
        assert!(accepted <= 1);
        assert_eq!(accepted + dropped, 16);
        assert!(nat.stats.pool_exhausted.load(Ordering::Relaxed) >= 15);
    }

    #[test]
    fn migration_preserves_translations_and_pool_accounting() {
        // Open connections under an elastic RSS map, shrink 4 -> 2 (the
        // migration-heavy path), and verify: every export was imported
        // (no port can leak), both directions still translate, and
        // teardown still returns the port — through migrated entries.
        let map = CoreMap::elastic(DispatchMode::Rss, 4);
        let mut tables: LocalTables<NatEntry> = LocalTables::new(map.clone(), 1024);
        let nat = NatNf::new(NAT_IP, 10_000..10_128);

        let conns: Vec<FiveTuple> = (0..32u32)
            .map(|i| FiveTuple::tcp(CLIENT + i, 40_000, SERVER, 443))
            .collect();
        let mut ext = Vec::new();
        for c in &conns {
            let mut syn = PacketBuilder::new().tcp(*c, 0, 0, TcpFlags::SYN, b"");
            let core = map.designated_for_tuple(c);
            assert_eq!(
                nat.connection_packets(&mut syn, &mut tables.ctx(core)),
                Verdict::Forward
            );
            ext.push(syn.tuple().unwrap().src_port);
        }

        let new_map = map.rescaled(2);
        let moved = tables.rescale(new_map.clone(), &mut |key, state, _from, to| {
            nat.freeze_flow(key, state);
            nat.adopt_flow(key, state, to);
        });
        assert!(moved.migrated_flows > 0, "RSS shrink must migrate entries");
        assert_eq!(
            nat.stats.frozen.load(Ordering::Relaxed),
            moved.migrated_flows,
            "one export per migrated entry"
        );
        assert_eq!(
            nat.stats.frozen.load(Ordering::Relaxed),
            nat.stats.adopted.load(Ordering::Relaxed),
            "every exported entry must be imported (port-leak audit)"
        );

        // Both directions still translate through the migrated tables.
        for (c, port) in conns.iter().zip(&ext) {
            let mut data = PacketBuilder::new().tcp(*c, 1, 1, TcpFlags::ACK, b"req");
            assert_eq!(
                nat.regular_packets(&mut data, &mut tables.ctx(0)),
                Verdict::Forward
            );
            assert_eq!(data.tuple().unwrap().src_port, *port);
            let reply = FiveTuple::tcp(SERVER, 443, NAT_IP, *port);
            let mut rp = PacketBuilder::new().tcp(reply, 9, 2, TcpFlags::ACK, b"resp");
            assert_eq!(
                nat.regular_packets(&mut rp, &mut tables.ctx(1)),
                Verdict::Forward
            );
            assert_eq!(rp.tuple().unwrap().dst_addr, CLIENT + (c.src_addr - CLIENT));
        }

        // Teardown through the *new* designated core frees every port.
        assert_eq!(nat.pool_len(), 128 - 32);
        for c in &conns {
            let core = new_map.designated_for_tuple(c);
            let mut rst = PacketBuilder::new().tcp(*c, 2, 0, TcpFlags::RST, b"");
            assert_eq!(
                nat.connection_packets(&mut rst, &mut tables.ctx(core)),
                Verdict::Forward
            );
        }
        assert_eq!(nat.pool_len(), 128, "all ports back after teardown");
    }

    #[test]
    fn checksums_remain_valid_after_translation() {
        let mut h = Harness::new();
        let mut syn = PacketBuilder::new().tcp(conn(), 0, 0, TcpFlags::SYN, b"");
        h.run(&mut syn);
        let mut data = PacketBuilder::new().tcp(conn(), 1, 1, TcpFlags::ACK, b"payload");
        h.run(&mut data);
        // Reparsing verifies the IP checksum; verify TCP via pseudo-header.
        let reparsed = Packet::parse(data.bytes().to_vec()).unwrap();
        let l3 = usize::from(reparsed.meta().l3_offset);
        let ip = sprayer_net::Ipv4Header::parse(&reparsed.bytes()[l3..]).unwrap();
        let l4 = l3 + ip.header_len();
        let seg = ip.total_len as usize - ip.header_len();
        assert!(sprayer_net::TcpHeader::verify_checksum(
            ip.pseudo_header(),
            &reparsed.bytes()[l4..l4 + seg]
        ));
    }

    #[test]
    fn replicate_ships_both_sides_of_the_translation() {
        // Tracked replication under SCR: the SYN installs both entries
        // → two Puts; a pure data read ships nothing; teardown removes
        // both entries → two Dels (the paired entry must not stay live
        // on peers).
        let map = CoreMap::new(DispatchMode::Scr, 8);
        let mut tables: LocalTables<NatEntry> = LocalTables::new(map, 1024);
        let nat = NatNf::new(NAT_IP, 10_000..10_128);
        let mut syn = PacketBuilder::new().tcp(conn(), 0, 0, TcpFlags::SYN, b"");
        assert_eq!(
            nat.connection_packets(&mut syn, &mut tables.ctx(0)),
            Verdict::Forward
        );
        // The SYN left the handler rewritten: its tuple now hashes to
        // the Inward (translated) key only.
        let trans_key = syn.tuple().unwrap().key();
        let orig_key = conn().key();
        assert_ne!(trans_key, orig_key);

        let mut ops = Vec::new();
        nat.replicate_updates(&[], &[], &tables.ctx(0), &mut ops);
        assert_eq!(ops.len(), 2, "the paired entry must ship too: {ops:?}");
        for key in [orig_key, trans_key] {
            let op = ops
                .iter()
                .find(|op| *op.key() == key)
                .expect("both sides shipped");
            match op {
                UpdateOp::Put(key, state) => {
                    assert_eq!(tables.ctx(0).get_local_flow(key).as_ref(), Some(state));
                }
                UpdateOp::Del(_) => panic!("live translation must ship Puts"),
            }
        }
        tables.clear_batch_log(0);

        // A data packet only reads the translation — nothing ships.
        let mut data = PacketBuilder::new().tcp(conn(), 1, 1, TcpFlags::ACK, b"req");
        assert_eq!(
            nat.regular_packets(&mut data, &mut tables.ctx(0)),
            Verdict::Forward
        );
        let mut ops = Vec::new();
        nat.replicate_updates(&[], &[], &tables.ctx(0), &mut ops);
        assert!(ops.is_empty(), "reads must not ship: {ops:?}");

        // Teardown removes both entries and ships a Del for each.
        let mut rst = PacketBuilder::new().tcp(conn(), 2, 2, TcpFlags::RST, b"");
        nat.connection_packets(&mut rst, &mut tables.ctx(0));
        let mut ops = Vec::new();
        nat.replicate_updates(&[], &[], &tables.ctx(0), &mut ops);
        assert_eq!(ops.len(), 2, "teardown must ship both Dels: {ops:?}");
        assert!(ops
            .iter()
            .any(|op| matches!(op, UpdateOp::Del(k) if *k == orig_key)));
        assert!(ops
            .iter()
            .any(|op| matches!(op, UpdateOp::Del(k) if *k == trans_key)));
    }

    #[test]
    fn merge_unions_outward_fins_and_never_removes() {
        let nat = NatNf::new(NAT_IP, 10_000..10_001);
        let k = conn().key();
        let mk = |fins| NatEntry::Outward {
            internal: (CLIENT, 40_000),
            external: (NAT_IP, 10_000),
            fins,
        };
        // Opposite half-closes union; the entry survives the merge (the
        // teardown path owns the pool) no matter which copy is newer.
        for newer in [true, false] {
            assert_eq!(
                nat.merge_replica(&k, Some(&mk(0b01)), &mk(0b10), newer),
                ReplicaMerge::Store(mk(0b11))
            );
        }
        // Non-Outward pairs fall back to last-writer-wins.
        let inw = NatEntry::Inward {
            external: (NAT_IP, 10_000),
            internal: (CLIENT, 40_000),
        };
        assert_eq!(
            nat.merge_replica(&k, Some(&mk(0b01)), &inw, true),
            ReplicaMerge::Store(inw.clone())
        );
        assert_eq!(
            nat.merge_replica(&k, Some(&mk(0b01)), &inw, false),
            ReplicaMerge::Keep
        );
    }

    #[test]
    fn duplicate_teardown_cannot_double_free_a_port() {
        let mut h = Harness::new();
        let mut syn = PacketBuilder::new().tcp(conn(), 0, 0, TcpFlags::SYN, b"");
        h.run(&mut syn);
        let port = syn.tuple().unwrap().src_port;
        assert_eq!(h.nat.pool_len(), 127);
        // A peer that saw the same completed FIN pair already returned
        // the port (under SCR teardown can run on two cores for one
        // connection); the local teardown's push must be a no-op.
        h.nat.pool.lock().push(port);
        let mut rst = PacketBuilder::new().tcp(conn(), 2, 0, TcpFlags::RST, b"");
        h.run(&mut rst);
        assert_eq!(h.nat.pool_len(), 128);
        assert_eq!(
            h.nat.pool.lock().iter().filter(|p| **p == port).count(),
            1,
            "the guarded push must not duplicate the port"
        );
    }
}
