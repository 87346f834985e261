//! Closed-loop TCP goodput through the middlebox (Figs. 6b, 7b, 9).
//!
//! Reproduces the paper's iperf3 setup: `num_flows` CUBIC bulk transfers
//! from client hosts to server hosts, every packet of both directions
//! traversing the simulated middlebox. The co-simulation couples three
//! models in one deterministic event loop:
//!
//! * [`sprayer_tcp`] senders/receivers (window dynamics, dup-ACK fast
//!   retransmit — the mechanism reordering attacks),
//! * shared 10 GbE access links on either side of the middlebox
//!   (serialization spacing, which bounds how much spraying can reorder),
//! * the [`MiddleboxSim`] with the synthetic NF at the configured
//!   cycles/packet.
//!
//! Modeling notes (also in DESIGN.md):
//! * Data segments are *logically* MSS-sized; the simulated frames carry
//!   a small random payload so the TCP checksum — the NIC's spray key —
//!   is uniformly distributed, as it is for real traffic (payload
//!   entropy + TCP timestamps). Wire timing uses the logical size.
//! * Pure ACKs carry a 12-byte timestamp-style option with varying
//!   contents for the same reason (RFC 7323 timestamps vary per packet
//!   on real Linux).

use sprayer::config::{DispatchMode, MiddleboxConfig, ObsConfig};
use sprayer::runtime_sim::MiddleboxSim;
use sprayer::FlowTable;
use sprayer_net::{FiveTuple, Packet, PacketBuilder, TcpFlags};
use sprayer_nf::SyntheticNf;
use sprayer_sim::stats::jain_fairness_index;
use sprayer_sim::time::LinkSpeed;
use sprayer_sim::{Model, Scheduler, SimRng, Simulation, Time};
use sprayer_tcp::{
    AckAction, AckInfo, CongestionControl, Cubic, Receiver, Reno, Sender, SenderConfig,
};

/// Congestion-control choice for the senders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cc {
    /// Linux default, used by the paper.
    Cubic,
    /// For the "other TCP implementations" question in §5's summary.
    Reno,
}

/// Parameters of a TCP goodput run.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Dispatch mode under test.
    pub mode: DispatchMode,
    /// NF busy-loop cycles per (payload-carrying) packet.
    pub nf_cycles: u64,
    /// Concurrent iperf-style flows.
    pub num_flows: usize,
    /// Warm-up before measurement (slow start, queue fill).
    pub warmup: Time,
    /// Measured window.
    pub duration: Time,
    /// Congestion control algorithm.
    pub cc: Cc,
    /// One-way delay of each hop outside the middlebox (NIC + cable +
    /// generator stack); the paper's testbed is back-to-back.
    pub hop_delay: Time,
    /// Random endpoints seed.
    pub seed: u64,
    /// Observability switches applied to the middlebox (tracing, latency
    /// histograms). Disabled — and zero-cost — by default.
    pub obs: ObsConfig,
}

impl TcpConfig {
    /// Defaults mirroring §5 (1500 B MTU, CUBIC untuned).
    pub fn paper(mode: DispatchMode, nf_cycles: u64, num_flows: usize, seed: u64) -> Self {
        TcpConfig {
            mode,
            nf_cycles,
            num_flows,
            warmup: Time::from_ms(60),
            duration: Time::from_ms(300),
            cc: Cc::Cubic,
            hop_delay: Time::from_us(2),
            seed,
            obs: ObsConfig::disabled(),
        }
    }
}

/// Result of a TCP run.
#[derive(Debug, Clone)]
pub struct TcpResult {
    /// Tail-loss probes fired across senders.
    pub probes: u64,
    /// Spurious recoveries undone via DSACK.
    pub spurious: u64,
    /// Final RACK reordering windows per flow (µs).
    pub reo_wnd_us: Vec<f64>,
    /// Total bytes each sender delivered (lifetime, incl. warmup).
    pub delivered: Vec<u64>,
    /// Per-flow goodput (bits/s) over the measured window.
    pub per_flow_bps: Vec<f64>,
    /// Aggregate goodput (bits/s).
    pub total_bps: f64,
    /// Jain's fairness index over per-flow goodput (Fig. 9).
    pub jain: f64,
    /// Fast-retransmit episodes across all senders.
    pub fast_retransmits: u64,
    /// RTO events across all senders.
    pub rtos: u64,
    /// Out-of-order arrivals observed by receivers.
    pub ooo_arrivals: u64,
    /// Duplicate ACKs the receivers emitted.
    pub dup_acks: u64,
    /// Middlebox telemetry for the whole run (warmup included), same
    /// block as [`crate::scenarios::rate::RateResult::stats`].
    pub stats: sprayer::stats::MiddleboxStats,
    /// The captured event trace when [`TcpConfig::obs`] requested one
    /// (covers the whole run, warmup included).
    pub trace: Option<sprayer_obs::Trace>,
    /// Latency histograms when requested; values are nanoseconds of
    /// simulated time. (`probes` was taken: tail-loss probes above.)
    pub latency_probes: Option<sprayer_obs::LatencyProbes>,
    /// Per-core time-series samples when [`TcpConfig::obs`] enabled
    /// sampling (covers the whole run, warmup included; ticks are
    /// picoseconds of simulated time).
    pub samples: Option<sprayer_obs::SampleSet>,
}

impl TcpResult {
    /// Aggregate goodput in Gbit/s.
    pub fn gbps(&self) -> f64 {
        self.total_bps / 1e9
    }
}

const MSS: u32 = 1460;
/// Wire size of a full data frame: Ethernet + IP + TCP + 12 B options + MSS.
const DATA_FRAME: usize = 14 + 20 + 32 + MSS as usize;
/// Wire size of a pure-ACK frame.
const ACK_FRAME: usize = 66;

// Event-queue lanes (`Scheduler::at_lane`): each carries a stream the
// model schedules in time order, so only its next event sits in the
// queue's heap. A lane cannot change the order events fire in.

/// Client-link departures (`IngressClient`): they leave at the link's
/// free time, which only grows.
const CLIENT_LINK: usize = 0;
/// Server-link re-entries (`IngressServerNow`), likewise.
const SERVER_LINK: usize = 1;
/// Delayed-ACK timers: one fixed delay after a clock that never runs
/// backwards.
const DELAYED_ACKS: usize = 2;
/// Middlebox egress reaching an endpoint one hop delay later.
const DELIVERIES: usize = 3;

struct Flow {
    tuple: FiveTuple,
    sender: Sender,
    receiver: Receiver,
    established: bool,
    delivered_at_snapshot: u64,
    /// Earliest timer event scheduled for this flow (dedup — see
    /// `next_tick` for the rationale).
    timer_at: Option<Time>,
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Open connection `f` (send its SYN).
    Start(usize),
    /// A client-side frame enters the middlebox now.
    IngressClient(usize, ClientFrame),
    /// A server-side frame requests link serialization.
    IngressServer(usize, ServerFrame),
    /// A server-side frame enters the middlebox now (already serialized).
    IngressServerNow(usize, ServerFrame),
    /// Drive the middlebox's internal event queue.
    MbTick,
    /// A data segment reaches the receiver of flow `f`.
    DeliveredData(usize, u64),
    /// The SYN-ACK reached the client: connection established.
    EstablishedAt(usize),
    /// A cumulative ACK (with optional SACK block) reaches the sender.
    AckAtSender(usize, AckInfo),
    /// Retransmission-timer check for flow `f`.
    RtoCheck(usize),
    /// Delayed-ACK timer for flow `f`.
    DelayedAck(usize),
    /// Snapshot per-flow delivered bytes (measurement start).
    Snapshot,
    /// End of the measured window.
    Finish,
}

#[derive(Debug, Clone, Copy)]
enum ClientFrame {
    Syn,
    Data { seq: u64 },
}

#[derive(Debug, Clone, Copy)]
enum ServerFrame {
    SynAck,
    Ack { info: AckInfo },
}

struct TcpScenario {
    cfg: TcpConfig,
    mb: MiddleboxSim<SyntheticNf>,
    flows: Vec<Flow>,
    /// Flow index by five-tuple key (either direction).
    by_key: FlowTable<usize>,
    client_link_free: Time,
    server_link_free: Time,
    data_frame_time: Time,
    ack_frame_time: Time,
    builder: PacketBuilder,
    /// Frame buffers of delivered packets, reused by the next frames
    /// built: the steady state allocates none.
    frames: Vec<Vec<u8>>,
    /// TCP option bytes of the frame being built, reused likewise.
    opts: Vec<u8>,
    rng: SimRng,
    finished: bool,
    /// Earliest MbTick currently scheduled (dedup: without this, every
    /// handler would schedule another tick chain and the event count
    /// becomes quadratic).
    next_tick: Option<Time>,
}

impl TcpScenario {
    fn with_mb_config(cfg: TcpConfig, mb_config: MiddleboxConfig) -> Self {
        let mb = MiddleboxSim::new(mb_config, SyntheticNf::for_simulator());
        let mut rng = SimRng::seed_from(cfg.seed);
        let mut flows = Vec::new();
        let mut by_key = FlowTable::new();
        for i in 0..cfg.num_flows {
            let tuple = FiveTuple::tcp(
                rng.next_u32() | 0x0a00_0000,
                (rng.next_u32() % 64_511 + 1_024) as u16,
                rng.next_u32() | 0x0a00_0000,
                5_201, // iperf3 port
            );
            let sender_cfg = SenderConfig {
                mss: MSS,
                ..SenderConfig::default()
            };
            let cc: Box<dyn CongestionControl> = match cfg.cc {
                Cc::Cubic => Box::new(Cubic::new(MSS, sender_cfg.init_cwnd_segments)),
                Cc::Reno => Box::new(Reno::new(MSS, sender_cfg.init_cwnd_segments)),
            };
            by_key.insert(tuple.key(), i);
            flows.push(Flow {
                tuple,
                sender: Sender::new(sender_cfg, cc),
                receiver: Receiver::new(0),
                established: false,
                delivered_at_snapshot: 0,
                timer_at: None,
            });
        }
        TcpScenario {
            cfg,
            mb,
            flows,
            by_key,
            client_link_free: Time::ZERO,
            server_link_free: Time::ZERO,
            data_frame_time: LinkSpeed::TEN_GBE.frame_time(DATA_FRAME),
            ack_frame_time: LinkSpeed::TEN_GBE.frame_time(ACK_FRAME),
            builder: PacketBuilder::new(),
            frames: Vec::new(),
            opts: Vec::new(),
            rng,
            finished: false,
            next_tick: None,
        }
    }

    /// Start the option bytes with 12 bytes of timestamp-style TCP
    /// options with varying content, so checksums are uniform as on real
    /// traffic.
    fn ts_option(&mut self) {
        let v = self.rng.next_u64();
        self.opts.clear();
        self.opts.extend_from_slice(&[0x01, 0x01, 0x08, 0x0a]); // NOP NOP TS(10)
        self.opts.extend_from_slice(&v.to_be_bytes());
    }

    fn build_data(&mut self, f: usize, seq: u64) -> Packet {
        // Small random payload stands in for the MSS body (see module
        // docs); seq is truncated to 32 bits for the header, full value
        // travels in the event.
        let payload = self.rng.next_u64().to_be_bytes();
        let buf = self.frames.pop().unwrap_or_default();
        self.builder.tcp_in(
            buf,
            self.flows[f].tuple,
            seq as u32,
            0,
            TcpFlags::ACK,
            &payload,
        )
    }

    /// A payload-free frame with the current option bytes, in a
    /// recycled buffer.
    fn build_control(&mut self, tuple: FiveTuple, ack: u32, flags: TcpFlags) -> Packet {
        let mut hdr = sprayer_net::TcpHeader::simple(tuple.src_port, tuple.dst_port, 0, flags);
        hdr.ack = ack;
        hdr.options = std::mem::take(&mut self.opts);
        let pkt = build_frame(self.frames.pop().unwrap_or_default(), tuple, &hdr);
        self.opts = hdr.options;
        pkt
    }

    /// Build a pure ACK carrying a timestamp option (checksum entropy)
    /// and real SACK/DSACK blocks (RFC 2018/2883: a DSACK rides as the
    /// first SACK block). Sequence numbers in a run stay below 2^32, so
    /// the 32-bit wire fields are lossless.
    fn build_ack(&mut self, f: usize, info: AckInfo) -> Packet {
        let tuple = self.flows[f].tuple.reversed();
        let blocks = info.dsack.into_iter().chain(info.sack);
        let n = blocks.clone().count();
        self.ts_option();
        if n > 0 {
            // NOP NOP SACK(len)
            self.opts
                .extend_from_slice(&[0x01, 0x01, 0x05, 2 + 8 * n as u8]);
            for (start, end) in blocks {
                self.opts.extend_from_slice(&(start as u32).to_be_bytes());
                self.opts.extend_from_slice(&(end as u32).to_be_bytes());
            }
        }
        self.build_control(tuple, info.ack as u32, TcpFlags::ACK)
    }

    /// Decode SACK/DSACK blocks from raw TCP option bytes: blocks ending
    /// at or below the cumulative ACK are DSACKs (RFC 2883).
    #[allow(clippy::type_complexity)]
    fn decode_sack(options: &[u8], ack: u64) -> (Option<(u64, u64)>, Option<(u64, u64)>) {
        let mut sack = None;
        let mut dsack = None;
        let mut i = 0;
        while i < options.len() {
            match options[i] {
                0 => break,
                1 => i += 1,
                5 if i + 2 <= options.len() => {
                    let len = usize::from(options[i + 1]);
                    let mut j = i + 2;
                    while j + 8 <= i + len && j + 8 <= options.len() {
                        let s = u32::from_be_bytes(options[j..j + 4].try_into().unwrap());
                        let e = u32::from_be_bytes(options[j + 4..j + 8].try_into().unwrap());
                        let block = (u64::from(s), u64::from(e));
                        if block.1 <= ack {
                            dsack = Some(block);
                        } else {
                            sack = Some(block);
                        }
                        j += 8;
                    }
                    i += len.max(2);
                }
                _ if i + 1 < options.len() && options[i + 1] >= 2 => {
                    i += usize::from(options[i + 1]);
                }
                _ => break,
            }
        }
        (sack, dsack)
    }

    fn schedule_mb_tick(&mut self, sched: &mut Scheduler<Ev>) {
        if let Some(t) = self.mb.next_event_time() {
            let t = t.max(sched.time());
            if self.next_tick.is_none_or(|cur| t < cur) {
                self.next_tick = Some(t);
                sched.at(t, Ev::MbTick);
            }
        }
    }

    /// Pump sender `f` and serialize its frames onto the client link.
    fn pump_sender(&mut self, f: usize, now: Time, sched: &mut Scheduler<Ev>) {
        if !self.flows[f].established || self.finished {
            return;
        }
        while let Some(seg) = self.flows[f].sender.poll_segment(now) {
            let depart = self.client_link_free.max(now);
            self.client_link_free = depart + self.data_frame_time;
            sched.at_lane(
                CLIENT_LINK,
                depart,
                Ev::IngressClient(f, ClientFrame::Data { seq: seg.seq }),
            );
        }
        self.schedule_timer(f, sched);
    }

    /// Schedule the flow's next RTO/probe check, deduplicated.
    fn schedule_timer(&mut self, f: usize, sched: &mut Scheduler<Ev>) {
        if let Some(d) = self.flows[f].sender.timer_deadline() {
            let d = d.max(sched.time());
            if self.flows[f].timer_at.is_none_or(|cur| d < cur) {
                self.flows[f].timer_at = Some(d);
                sched.at(d, Ev::RtoCheck(f));
            }
        }
    }

    /// Route one middlebox egress packet to its endpoint. (Takes the
    /// fields it reads, not `&self`: the caller holds `mb` draining.)
    fn route_egress(
        flows: &[Flow],
        by_key: &FlowTable<usize>,
        hop_delay: Time,
        at: Time,
        pkt: &Packet,
        sched: &mut Scheduler<Ev>,
    ) {
        let Some(tuple) = pkt.tuple() else { return };
        let Some(&f) = by_key.get(&tuple.key()) else {
            return;
        };
        let flags = pkt.meta().tcp_flags.unwrap_or_default();
        let forward =
            tuple.src_addr == flows[f].tuple.src_addr && tuple.src_port == flows[f].tuple.src_port;
        let deliver = at.max(sched.time()) + hop_delay;
        // Read in place (`TcpHeader::parse` would copy the options out).
        // The middlebox forwards only frames `Packet::parse` validated,
        // so a TCP flow's header is whole.
        const PARSED: &str = "egress frames are TCP frames Packet::parse validated";
        let tcp = &pkt.bytes()[usize::from(pkt.meta().l4_offset.expect(PARSED))..];
        let header = sprayer_net::tcp::validate(tcp).expect(PARSED);
        let word = |off: usize| {
            u64::from(u32::from_be_bytes(
                tcp[off..off + 4].try_into().expect("a 4-byte slice"),
            ))
        };
        let event = if forward {
            if flags.contains(TcpFlags::SYN) {
                // (The server's SYN-ACK is serialized when it enters the
                // middlebox, not here; see IngressServer.)
                Ev::IngressServer(f, ServerFrame::SynAck)
            } else if pkt.payload().is_some_and(|p| !p.is_empty()) {
                // Data arriving at the receiver.
                Ev::DeliveredData(f, word(4))
            } else {
                return;
            }
        } else if flags.contains(TcpFlags::SYN) {
            // Reverse direction reaching the client.
            Ev::EstablishedAt(f)
        } else {
            let ack = word(8);
            let options = &tcp[sprayer_net::TCP_HEADER_LEN..usize::from(header.header_len)];
            let (sack, dsack) = Self::decode_sack(options, ack);
            Ev::AckAtSender(f, AckInfo { ack, sack, dsack })
        };
        sched.at_lane(DELIVERIES, deliver, event);
    }
}

/// A payload-free TCP/IPv4 frame with `tcp`'s header, options included,
/// written into `data` (whatever it held).
fn build_frame(mut data: Vec<u8>, tuple: FiveTuple, tcp: &sprayer_net::TcpHeader) -> Packet {
    use sprayer_net::{EtherType, EthernetHeader, Ipv4Header, MacAddr};
    let tcp_len = tcp.header_len();
    let ip = Ipv4Header::simple(tuple.src_addr, tuple.dst_addr, 6, tcp_len as u16);
    let frame_len = 14 + ip.header_len() + tcp_len;
    data.clear();
    data.resize(frame_len.max(60), 0);
    EthernetHeader {
        dst: MacAddr::from_index(2),
        src: MacAddr::from_index(1),
        ethertype: EtherType::Ipv4,
    }
    .emit(&mut data)
    .expect("sized");
    let ip_len = ip.emit(&mut data[14..]).expect("sized");
    tcp.emit(&mut data[14 + ip_len..], ip.pseudo_header(), &[])
        .expect("sized");
    Packet::parse(data).expect("well-formed")
}

impl Model for TcpScenario {
    type Event = Ev;

    fn handle(&mut self, now: Time, event: Ev, sched: &mut Scheduler<Ev>) {
        match event {
            Ev::Start(f) => {
                let depart = self.client_link_free.max(now);
                self.client_link_free = depart + self.ack_frame_time;
                sched.at_lane(CLIENT_LINK, depart, Ev::IngressClient(f, ClientFrame::Syn));
            }
            Ev::IngressClient(f, frame) => {
                let pkt = match frame {
                    ClientFrame::Syn => {
                        self.ts_option();
                        self.build_control(self.flows[f].tuple, 0, TcpFlags::SYN)
                    }
                    ClientFrame::Data { seq } => self.build_data(f, seq),
                };
                self.mb.ingress(now, pkt);
                self.drain_and_tick(sched);
            }
            Ev::IngressServer(f, frame) => {
                // Frames from the server side serialize on the server link.
                let depart = self.server_link_free.max(now);
                self.server_link_free = depart + self.ack_frame_time;
                if depart > now {
                    // Re-enter at the serialized time.
                    sched.at_lane(SERVER_LINK, depart, Ev::IngressServerNow(f, frame));
                    return;
                }
                self.ingress_server_now(f, frame, now, sched);
            }
            Ev::IngressServerNow(f, frame) => {
                self.ingress_server_now(f, frame, now, sched);
            }
            Ev::MbTick => {
                if self.next_tick == Some(now) {
                    self.next_tick = None;
                }
                self.mb.advance_until(now);
                self.drain_and_tick(sched);
            }
            Ev::DeliveredData(f, seq) => {
                let action = self.flows[f].receiver.on_segment(seq, u64::from(MSS));
                match action {
                    AckAction::Immediate(info) => {
                        sched.now(Ev::IngressServer(f, ServerFrame::Ack { info }));
                    }
                    AckAction::Delayed => {
                        sched.at_lane(DELAYED_ACKS, now + Time::from_us(200), Ev::DelayedAck(f));
                    }
                    AckAction::None => {}
                }
            }
            Ev::DelayedAck(f) => {
                if let Some(ack) = self.flows[f].receiver.flush_delayed() {
                    let info = AckInfo {
                        ack,
                        sack: None,
                        dsack: None,
                    };
                    sched.now(Ev::IngressServer(f, ServerFrame::Ack { info }));
                }
            }
            Ev::EstablishedAt(f) => {
                if !self.flows[f].established {
                    self.flows[f].established = true;
                    self.pump_sender(f, now, sched);
                }
            }
            Ev::AckAtSender(f, info) => {
                self.flows[f].sender.on_ack(now, info);
                self.pump_sender(f, now, sched);
            }
            Ev::RtoCheck(f) => {
                if self.flows[f].timer_at == Some(now) {
                    self.flows[f].timer_at = None;
                }
                if let Some(deadline) = self.flows[f].sender.timer_deadline() {
                    if now >= deadline {
                        self.flows[f].sender.on_timer(now);
                    }
                    self.pump_sender(f, now, sched);
                    self.schedule_timer(f, sched);
                }
            }
            Ev::Snapshot => {
                for flow in &mut self.flows {
                    flow.delivered_at_snapshot = flow.sender.delivered();
                }
            }
            Ev::Finish => {
                self.finished = true;
                sched.stop();
            }
        }
    }
}

impl TcpScenario {
    fn ingress_server_now(
        &mut self,
        f: usize,
        frame: ServerFrame,
        now: Time,
        sched: &mut Scheduler<Ev>,
    ) {
        let pkt = match frame {
            ServerFrame::SynAck => {
                self.ts_option();
                let tuple = self.flows[f].tuple.reversed();
                self.build_control(tuple, 1, TcpFlags::SYN | TcpFlags::ACK)
            }
            ServerFrame::Ack { info } => self.build_ack(f, info),
        };
        self.mb.ingress(now, pkt);
        self.drain_and_tick(sched);
    }

    /// Route what the middlebox forwarded, keep the frames' buffers,
    /// and wake the middlebox for its next event.
    fn drain_and_tick(&mut self, sched: &mut Scheduler<Ev>) {
        let TcpScenario {
            mb,
            flows,
            by_key,
            cfg,
            frames,
            ..
        } = self;
        for (at, pkt) in mb.take_egress() {
            Self::route_egress(flows, by_key, cfg.hop_delay, at, &pkt, sched);
            frames.push(pkt.into_bytes());
        }
        self.schedule_mb_tick(sched);
    }
}

/// Run a TCP goodput experiment.
pub fn run(cfg: &TcpConfig) -> TcpResult {
    let mb_config = MiddleboxConfig::paper_testbed_with_cycles(cfg.mode, cfg.nf_cycles);
    run_with_mb_config(cfg, mb_config)
}

/// Run with an explicit middlebox model (ablations: subset spraying,
/// ring-cost variants, uncapped NIC). The scenario's [`TcpConfig::obs`]
/// switches override the model's.
pub fn run_with_mb_config(cfg: &TcpConfig, mut mb_config: MiddleboxConfig) -> TcpResult {
    mb_config.obs = cfg.obs;
    let warmup = cfg.warmup;
    let horizon = cfg.warmup + cfg.duration;
    let mut sim = Simulation::new(TcpScenario::with_mb_config(cfg.clone(), mb_config));
    for f in 0..cfg.num_flows {
        // Slight stagger avoids a perfectly synchronized SYN burst.
        sim.schedule(Time::from_us(3 * f as u64), Ev::Start(f));
    }
    sim.schedule(warmup, Ev::Snapshot);
    sim.schedule(horizon, Ev::Finish);
    sim.run();

    let mut scenario = sim.into_model();
    let secs = cfg.duration.as_secs_f64();
    let mut per_flow_bps = Vec::new();
    let mut fast_retransmits = 0;
    let mut rtos = 0;
    let mut ooo = 0;
    let mut dup_acks = 0;
    let mut probes = 0;
    let mut spurious = 0;
    let mut reo_wnd_us = Vec::new();
    let mut delivered = Vec::new();
    for flow in &scenario.flows {
        let bytes = flow
            .sender
            .delivered()
            .saturating_sub(flow.delivered_at_snapshot);
        per_flow_bps.push(bytes as f64 * 8.0 / secs);
        fast_retransmits += flow.sender.stats().fast_retransmits;
        rtos += flow.sender.stats().rtos;
        ooo += flow.receiver.ooo_arrivals();
        dup_acks += flow.receiver.dup_acks_sent();
        probes += flow.sender.stats().probes;
        spurious += flow.sender.stats().spurious_recoveries;
        reo_wnd_us.push(flow.sender.reo_wnd().as_us_f64());
        delivered.push(flow.sender.delivered());
    }
    let total_bps = per_flow_bps.iter().sum();
    let obs = scenario.mb.take_obs();
    TcpResult {
        jain: jain_fairness_index(&per_flow_bps),
        per_flow_bps,
        total_bps,
        fast_retransmits,
        rtos,
        ooo_arrivals: ooo,
        dup_acks,
        probes,
        spurious,
        reo_wnd_us,
        delivered,
        stats: scenario.mb.stats().clone(),
        latency_probes: obs.probes,
        trace: obs.trace,
        samples: obs.samples,
    }
}

/// Mean/σ of aggregate Gbps over seeds, plus Jain statistics
/// (mean, min, max) — the error-bar semantics of Figs. 7(b) and 9.
pub struct SeedSweep {
    /// Mean aggregate goodput in Gbps.
    pub gbps_mean: f64,
    /// Goodput standard deviation.
    pub gbps_sd: f64,
    /// Mean Jain index.
    pub jain_mean: f64,
    /// Minimum Jain index observed.
    pub jain_min: f64,
    /// Maximum Jain index observed.
    pub jain_max: f64,
}

/// Run over several seeds.
pub fn run_seeds(base: &TcpConfig, seeds: &[u64]) -> SeedSweep {
    let mut gbps = sprayer_sim::Welford::new();
    let mut jain_mean = 0.0;
    let mut jain_min = f64::INFINITY;
    let mut jain_max = f64::NEG_INFINITY;
    for &seed in seeds {
        let r = run(&TcpConfig {
            seed,
            ..base.clone()
        });
        gbps.add(r.gbps());
        jain_mean += r.jain;
        jain_min = jain_min.min(r.jain);
        jain_max = jain_max.max(r.jain);
    }
    SeedSweep {
        gbps_mean: gbps.mean(),
        gbps_sd: gbps.std_dev(),
        jain_mean: jain_mean / seeds.len() as f64,
        jain_min,
        jain_max,
    }
}
