//! # Sprayer — packet spraying for software middleboxes
//!
//! A Rust reproduction of *"A Case for Spraying Packets in Software
//! Middleboxes"* (Sadok, Campista, Costa — HotNets-XVII, 2018).
//!
//! Software middleboxes conventionally assign packets to CPU cores at
//! *flow* granularity (RSS). That wastes cores when few flows are
//! concurrently active — the common case, per the paper's trace study —
//! and hash collisions make it unfair. Sprayer instead **sprays packets
//! over all cores at packet granularity**, and tames the resulting
//! flow-state problem with one observation: most NFs only *write* flow
//! state when connections start or finish. So:
//!
//! * every flow has a deterministic **designated core** (symmetric hash
//!   of the five-tuple — both directions map to the same core);
//! * **connection packets** (SYN/FIN/RST) are redirected to the
//!   designated core via descriptor rings; only that core ever writes the
//!   flow's state (**write partition**);
//! * **regular packets** are processed wherever the NIC sprayed them,
//!   reading any core's flow table through [`api::FlowStateApi::get_flow`].
//!
//! ## Crate layout
//!
//! | module | role |
//! |---|---|
//! | [`api`] | the flow-state API of the paper's Table 2 + the [`api::NetworkFunction`] programming model (§3.4), batch-native via [`api::NetworkFunction::handle_batch`] |
//! | [`engine`] | the shared per-packet pipeline (classify once, redirect decision, batch NF invocation) both runtimes drive |
//! | [`coremap`] | designated-core mapping, mode-aware (RSS vs. spray) |
//! | [`flowtable`] | the open-addressing flow-table primitive (power-of-two slots, pinned hash, deterministic iteration) |
//! | [`tables`] | the one per-core flow table (mutations, lifecycle accounting, epoch transitions) and the two ways to reach it: a plain `Vec` for the deterministic simulator, one `RwLock` each for real threads — both enforcing write partition by construction |
//! | [`elastic`] | elastic reconfiguration: epoch transitions, flow-state migration accounting ([`elastic::ReconfigReport`]) |
//! | [`config`] | middlebox model parameters (cores, clock, cycle costs) |
//! | [`scr`] | State-Compute Replication: the per-core state-update log, version guard and replay body both runtimes run behind the third dispatch mode, [`config::DispatchMode::Scr`] |
//! | [`runtime_sim`] | the deterministic discrete-event middlebox used by every experiment |
//! | [`runtime_threads`] | a real `std::thread` runtime over crossbeam rings, functionally equivalent |
//! | [`stats`] | per-core and aggregate runtime statistics |
//! | [`obs_sink`] | the observation seam: both runtimes report datapath events to one sink (hub / lane / [`obs_sink::ObsReport`]) that owns the eight [`config::ObsConfig`] planes |
//!
//! The planes' primitives (rings, histograms, sketches) live in the
//! `sprayer-obs` crate and are switched on per run via
//! [`config::ObsConfig`] (off — and zero-cost — by default).
//!
//! ## Quick start
//!
//! ```
//! use sprayer::api::{NetworkFunction, NfDescriptor, Verdict, FlowStateApi};
//! use sprayer::config::{DispatchMode, MiddleboxConfig};
//! use sprayer::runtime_sim::MiddleboxSim;
//! use sprayer_net::{FiveTuple, PacketBuilder, TcpFlags, Packet};
//! use sprayer_sim::Time;
//!
//! /// Counts packets per flow: state is written only at SYN time.
//! struct Counter;
//! impl NetworkFunction for Counter {
//!     type Flow = u64;
//!     fn descriptor(&self) -> NfDescriptor {
//!         NfDescriptor::named("counter")
//!     }
//!     fn connection_packets(
//!         &self,
//!         pkt: &mut Packet,
//!         ctx: &mut dyn FlowStateApi<u64>,
//!     ) -> Verdict {
//!         if let Some(t) = pkt.tuple() {
//!             ctx.insert_local_flow(t.key(), 0);
//!         }
//!         Verdict::Forward
//!     }
//!     fn regular_packets(
//!         &self,
//!         pkt: &mut Packet,
//!         ctx: &mut dyn FlowStateApi<u64>,
//!     ) -> Verdict {
//!         // Regular packets may land on any core; flow state is readable
//!         // from all of them.
//!         match pkt.tuple().and_then(|t| ctx.get_flow(&t.key())) {
//!             Some(_) => Verdict::Forward,
//!             None => Verdict::Drop,
//!         }
//!     }
//! }
//!
//! let config = MiddleboxConfig::paper_testbed(DispatchMode::Sprayer);
//! let mut mb = MiddleboxSim::new(config, Counter);
//! let flow = FiveTuple::tcp(0x0a000001, 40000, 0x0a000002, 443);
//! let syn = PacketBuilder::new().tcp(flow, 0, 0, TcpFlags::SYN, b"");
//! mb.ingress(Time::ZERO, syn);
//! mb.run_until(Time::from_ms(1));
//! assert_eq!(mb.stats().forwarded, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod config;
pub mod coremap;
pub mod elastic;
pub mod engine;
pub mod flowtable;
pub mod obs_sink;
pub mod runtime_sim;
pub mod runtime_threads;
pub mod scr;
pub mod stats;
pub mod tables;

pub use api::{
    Access, FlowStateApi, InsertOutcome, NetworkFunction, NfDescriptor, Scope, StateDecl, Verdict,
    VerdictSink,
};
pub use config::{DispatchMode, MiddleboxConfig, ObsConfig};
pub use coremap::CoreMap;
pub use elastic::{ReconfigReport, RecoveryReport};
pub use engine::{Engine, PacketClass};
pub use flowtable::FlowTable;
pub use obs_sink::ObsReport;
pub use runtime_sim::MiddleboxSim;
pub use runtime_threads::{ThreadedMiddlebox, WorkerFailure};
pub use scr::{SharedScrPlane, StateUpdate, UpdateOp};
pub use stats::MiddleboxStats;
pub use tables::{FailoverStats, MigrationStats};
