//! The synthetic NF of the paper's evaluation (§5).
//!
//! "To systematically emulate NFs with different complexities, we
//! implement a simple NF on top of Sprayer. This NF creates a new entry
//! in the flow table at every new connection. Moreover, for every packet
//! it receives, it retrieves the flow state, modifies the header, and
//! busy loops for a given number of cycles."
//!
//! The busy loop has two representations:
//! * in the deterministic simulator, the loop's cost is charged by the
//!   cycle model (`MiddleboxConfig::nf_cycles`), so [`SyntheticNf`] is
//!   constructed with `spin: false` and does only the real work (state
//!   lookup + header modification);
//! * in the real-thread runtime, `spin: true` makes it actually burn the
//!   cycles, pinned against compiler elision via `std::hint::black_box`.

use sprayer::api::{Access, FlowStateApi, NetworkFunction, NfDescriptor, Scope, Verdict};
use sprayer_net::{Packet, TcpFlags};
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-flow state: a counter the NF reads on every packet.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SynFlow {
    /// Packets seen when the entry was installed (always 0; present so
    /// the entry has realistic, non-zero size).
    pub opened_at: u64,
}

/// The synthetic evaluation NF.
pub struct SyntheticNf {
    /// Busy-loop iterations per packet (≈ cycles when spinning).
    pub cycles: u64,
    /// Actually spin (threads) vs. let the simulator charge the cost.
    pub spin: bool,
    /// Packets processed.
    pub processed: AtomicU64,
    /// Packets that found no flow state (forwarded anyway — the paper's
    /// NF does not police; it emulates work).
    pub missing_state: AtomicU64,
}

impl SyntheticNf {
    /// For the deterministic simulator: cost charged by the cycle model.
    pub fn for_simulator() -> Self {
        SyntheticNf {
            cycles: 0,
            spin: false,
            processed: AtomicU64::new(0),
            missing_state: AtomicU64::new(0),
        }
    }

    /// For the thread runtime: really burn `cycles` per packet.
    pub fn spinning(cycles: u64) -> Self {
        SyntheticNf {
            cycles,
            spin: true,
            processed: AtomicU64::new(0),
            missing_state: AtomicU64::new(0),
        }
    }

    fn busy_loop(&self) {
        if self.spin {
            let mut acc = 0u64;
            for i in 0..self.cycles {
                acc = std::hint::black_box(acc.wrapping_add(i));
            }
            std::hint::black_box(acc);
        }
    }
}

impl NetworkFunction for SyntheticNf {
    type Flow = SynFlow;

    fn descriptor(&self) -> NfDescriptor {
        // "Our NF does a flow-state lookup, updates the header, and
        // busy-loops" (§5 fn. 4) — the same shape as the firewall row.
        NfDescriptor::named("Synthetic (eval §5)").with_state(
            "Connection context",
            Scope::PerFlow,
            Access::Read,
            Access::ReadWrite,
        )
    }

    fn profile_label(&self) -> String {
        // The per-packet cost is the configuration, so the flame view
        // needs it to tell variants apart.
        if self.spin {
            format!("synthetic/spin:{}", self.cycles)
        } else {
            "synthetic/modelled".to_string()
        }
    }

    fn connection_packets(&self, pkt: &mut Packet, ctx: &mut dyn FlowStateApi<SynFlow>) -> Verdict {
        self.lifecycle(pkt, ctx);
        self.touch(pkt, ctx)
    }

    fn regular_packets(&self, pkt: &mut Packet, ctx: &mut dyn FlowStateApi<SynFlow>) -> Verdict {
        self.touch(pkt, ctx)
    }

    fn handle_batch(
        &self,
        pkts: &mut [Packet],
        conn: &[bool],
        ctx: &mut dyn FlowStateApi<SynFlow>,
        out: &mut sprayer::api::VerdictSink,
    ) {
        debug_assert_eq!(pkts.len(), conn.len());
        // Two atomic touches per batch instead of up to two per packet;
        // the lookup, header write, and busy loop remain per-packet (the
        // busy loop *is* the emulated work and must burn per packet).
        let mut missing = 0u64;
        for (pkt, &is_conn) in pkts.iter_mut().zip(conn) {
            if is_conn {
                self.lifecycle(pkt, ctx);
            }
            out.push(self.touch_with(pkt, ctx, &mut missing));
        }
        if missing > 0 {
            self.missing_state.fetch_add(missing, Ordering::Relaxed);
        }
        self.processed
            .fetch_add(pkts.len() as u64, Ordering::Relaxed);
    }

    // `replicate_updates` stays at the tracked default: only `lifecycle`
    // writes the table (SYN insert, FIN/RST remove), so the batch
    // mutation log ships connection keys alone — the per-packet body
    // reads, rewrites the header, and spins, and reads never ship. That
    // keeps the synthetic NF's SCR log cost scaling with flow arrival
    // rate — the knob the paper's evaluation sweeps.
}

impl SyntheticNf {
    /// The connection-lifecycle half of `connection_packets`: table entry
    /// creation at SYN, removal at FIN/RST.
    fn lifecycle(&self, pkt: &mut Packet, ctx: &mut dyn FlowStateApi<SynFlow>) {
        let Some(tuple) = pkt.tuple() else {
            return;
        };
        let flags = pkt.meta().tcp_flags.unwrap_or_default();
        let key = tuple.key();
        if flags.contains(TcpFlags::SYN) {
            // "creates a new entry in the flow table at every new
            // connection".
            if ctx.get_local_flow(&key).is_none() {
                ctx.insert_local_flow(key, SynFlow::default());
            }
        } else if flags.intersects(TcpFlags::FIN | TcpFlags::RST) {
            ctx.remove_local_flow(&key);
        }
    }

    /// The per-packet body: state lookup, header modification, busy loop.
    fn touch(&self, pkt: &mut Packet, ctx: &mut dyn FlowStateApi<SynFlow>) -> Verdict {
        let mut missing = 0;
        let verdict = self.touch_with(pkt, ctx, &mut missing);
        if missing > 0 {
            self.missing_state.fetch_add(missing, Ordering::Relaxed);
        }
        self.processed.fetch_add(1, Ordering::Relaxed);
        verdict
    }

    /// [`Self::touch`] with the counters accumulated by the caller.
    fn touch_with(
        &self,
        pkt: &mut Packet,
        ctx: &mut dyn FlowStateApi<SynFlow>,
        missing: &mut u64,
    ) -> Verdict {
        if let Some(tuple) = pkt.tuple() {
            if ctx.get_flow(&tuple.key()).is_none() {
                *missing += 1;
            }
        }
        // "modifies the header": decrement TTL like a router would.
        let _ = pkt.decrement_ttl();
        self.busy_loop();
        Verdict::Forward
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprayer::config::DispatchMode;
    use sprayer::coremap::CoreMap;
    use sprayer::scr::UpdateOp;
    use sprayer::tables::LocalTables;
    use sprayer_net::{FiveTuple, PacketBuilder};

    #[test]
    fn profile_label_encodes_the_cost_variant() {
        assert_eq!(
            SyntheticNf::for_simulator().profile_label(),
            "synthetic/modelled"
        );
        assert_eq!(
            SyntheticNf::spinning(5_000).profile_label(),
            "synthetic/spin:5000"
        );
    }

    #[test]
    fn modifies_header_and_counts() {
        let nf = SyntheticNf::for_simulator();
        let map = CoreMap::new(DispatchMode::Sprayer, 4);
        let mut tables = LocalTables::new(map.clone(), 64);
        let t = FiveTuple::tcp(1, 2, 3, 4);
        let core = map.designated_for_tuple(&t);

        let mut syn = PacketBuilder::new()
            .ttl(64)
            .tcp(t, 0, 0, TcpFlags::SYN, b"");
        assert_eq!(
            nf.connection_packets(&mut syn, &mut tables.ctx(core)),
            Verdict::Forward
        );
        let l3 = usize::from(syn.meta().l3_offset);
        assert_eq!(syn.bytes()[l3 + 8], 63, "TTL decremented");

        let mut data = PacketBuilder::new()
            .ttl(64)
            .tcp(t, 1, 0, TcpFlags::ACK, b"");
        nf.regular_packets(&mut data, &mut tables.ctx(0));
        assert_eq!(nf.processed.load(Ordering::Relaxed), 2);
        assert_eq!(
            nf.missing_state.load(Ordering::Relaxed),
            0,
            "state was found"
        );
    }

    #[test]
    fn missing_state_is_counted_not_dropped() {
        let nf = SyntheticNf::for_simulator();
        let map = CoreMap::new(DispatchMode::Sprayer, 4);
        let mut tables = LocalTables::new(map, 64);
        let t = FiveTuple::tcp(1, 2, 3, 4);
        let mut data = PacketBuilder::new().tcp(t, 1, 0, TcpFlags::ACK, b"");
        assert_eq!(
            nf.regular_packets(&mut data, &mut tables.ctx(0)),
            Verdict::Forward
        );
        assert_eq!(nf.missing_state.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn fin_removes_the_entry() {
        let nf = SyntheticNf::for_simulator();
        let map = CoreMap::new(DispatchMode::Sprayer, 4);
        let mut tables = LocalTables::new(map.clone(), 64);
        let t = FiveTuple::tcp(9, 9, 9, 9);
        let core = map.designated_for_tuple(&t);
        let mut syn = PacketBuilder::new().tcp(t, 0, 0, TcpFlags::SYN, b"");
        nf.connection_packets(&mut syn, &mut tables.ctx(core));
        assert_eq!(tables.entries_on(core), 1);
        let mut fin = PacketBuilder::new().tcp(t, 1, 0, TcpFlags::FIN | TcpFlags::ACK, b"");
        nf.connection_packets(&mut fin, &mut tables.ctx(core));
        assert_eq!(tables.entries_on(core), 0);
    }

    #[test]
    fn spinning_takes_longer_than_not() {
        let fast = SyntheticNf::spinning(0);
        let slow = SyntheticNf::spinning(2_000_000);
        let map = CoreMap::new(DispatchMode::Sprayer, 1);
        let mut tables = LocalTables::new(map, 64);
        let t = FiveTuple::tcp(1, 2, 3, 4);

        let timer = std::time::Instant::now();
        for _ in 0..10 {
            let mut p = PacketBuilder::new().tcp(t, 0, 0, TcpFlags::ACK, b"");
            fast.regular_packets(&mut p, &mut tables.ctx(0));
        }
        let t_fast = timer.elapsed();

        let timer = std::time::Instant::now();
        for _ in 0..10 {
            let mut p = PacketBuilder::new().tcp(t, 0, 0, TcpFlags::ACK, b"");
            slow.regular_packets(&mut p, &mut tables.ctx(0));
        }
        let t_slow = timer.elapsed();
        assert!(
            t_slow > t_fast,
            "busy loop must consume real time: {t_fast:?} vs {t_slow:?}"
        );
    }

    #[test]
    fn replicate_ships_lifecycle_writes_only() {
        // Under SCR the tracked default ships the SYN's insert and the
        // FIN's removal; the per-packet body (lookup + TTL + spin)
        // writes no flow state and ships nothing.
        let nf = SyntheticNf::for_simulator();
        let map = CoreMap::new(DispatchMode::Scr, 4);
        let mut tables = LocalTables::new(map, 64);
        let t = FiveTuple::tcp(0x0a000001, 4000, 0x0a000002, 80);

        let mut syn = PacketBuilder::new().tcp(t, 0, 0, TcpFlags::SYN, b"");
        nf.connection_packets(&mut syn, &mut tables.ctx(0));
        let mut data = PacketBuilder::new().tcp(t, 1, 0, TcpFlags::ACK, b"");
        nf.regular_packets(&mut data, &mut tables.ctx(0));

        let mut ops = Vec::new();
        nf.replicate_updates(&[], &[], &tables.ctx(0), &mut ops);
        assert!(matches!(&ops[..], [UpdateOp::Put(key, _)] if *key == t.key()));
        tables.clear_batch_log(0);

        let mut fin = PacketBuilder::new().tcp(t, 2, 0, TcpFlags::FIN, b"");
        nf.connection_packets(&mut fin, &mut tables.ctx(0));
        let mut ops = Vec::new();
        nf.replicate_updates(&[], &[], &tables.ctx(0), &mut ops);
        assert!(matches!(&ops[..], [UpdateOp::Del(key)] if *key == t.key()));
    }
}
