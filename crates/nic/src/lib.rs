//! # sprayer-nic — a model of a multi-queue commodity NIC
//!
//! Models the receive-side packet classification of an Intel 82599-class
//! NIC, the hardware the Sprayer paper runs on:
//!
//! * [`toeplitz`] — the Toeplitz hash used by Receive-Side Scaling,
//!   verified against the Microsoft test vectors, with both the standard
//!   key and the *symmetric* key (`0x6d5a` repeated) that maps both
//!   directions of a connection to the same queue — the paper configures
//!   its RSS baseline this way (§5, citing Woo et al.),
//! * [`rss`] — RSS proper: key + 128-entry indirection table,
//! * [`flowdirector`] — Intel Flow Director as a rule table with perfect
//!   filters, flex-word matching, and the documented 8 K rule capacity,
//!   compiled into one exact-match index per filter shape so a lookup
//!   costs one probe per shape, not one comparison per rule.
//!   Sprayer's trick (§4) — rules that match the low bits of the TCP
//!   *checksum* field so packets spread over queues regardless of flow —
//!   is [`flowdirector::FlowDirector::install_checksum_spray`], a single
//!   shape,
//! * [`nic`] — the assembled receive path: Flow Director first (as in the
//!   82599 pipeline), RSS as fallback, per-queue counters, and the
//!   empirically observed ~10 Mpps Flow Director rate limitation exposed
//!   as a model parameter for the simulator.
//!
//! The classifier consumes real wire bytes via `sprayer-net`'s
//! [`sprayer_net::Packet`], so the checksum bits it sprays on are the
//! genuine article.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flowdirector;
pub mod nic;
pub mod rss;
pub mod toeplitz;

pub use flowdirector::{FdirFilter, FdirRule, FlowDirector, FDIR_PERFECT_CAPACITY};
pub use nic::{Nic, NicConfig, QueueId, RxSteering};
pub use rss::{RssConfig, INDIRECTION_TABLE_SIZE};
pub use toeplitz::{
    hash_v6_tuple, toeplitz_hash, RssKey, ToeplitzLut, MICROSOFT_KEY, SYMMETRIC_KEY,
};
