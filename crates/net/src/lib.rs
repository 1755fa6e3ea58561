//! # sram-net — the network-facing serving tier
//!
//! The ROADMAP's "millions of users" leg made concrete: a hand-rolled,
//! std-only evented TCP front door over the hybrid 8T-6T synaptic store.
//! No async runtime, no epoll crate — non-blocking sockets and a
//! `poll(2)` readiness loop, the same no-external-deps discipline as the
//! workspace shims.
//!
//! Three layers:
//!
//! * [`proto`] — the length-prefixed binary wire protocol. Total decoding
//!   (never panics, never over-allocates), incremental frame reassembly,
//!   and the order-invariant response digest the determinism gate pins.
//! * [`registry`] — the multi-tenant model registry: many resident ANNs
//!   (digits, spectra, a million-synapse synthetic) laid back to back in
//!   one shared [`ShardedMemory`], each bank window under its tenant's
//!   own significance/voltage policy, served through per-tenant seed
//!   streams.
//! * [`server`] + [`loadgen`] — the evented IO loop with backpressure
//!   (per-connection and global in-flight bounds → explicit `Overloaded`
//!   shedding; a soft watermark that degrades tenants to their drowsy
//!   retention tier) feeding workers on `sram_serve`'s micro-batch
//!   scheduler, and the open-loop load generator that measures sojourn
//!   time against a seeded arrival schedule instead of a closed loop.
//!
//! **Determinism contract.** Tenant `t`, request `id` draws faults from
//! `derive_seed(derive_seed(base_seed, t), id)`. Same seed + same request
//! stream ⇒ byte-identical predictions and fault accounting at any worker
//! count, connection count, and interleaving; the `net-load` CI job
//! (`cargo xtask net-report --gate`) pins digest equality across two
//! connection counts over real sockets.
//!
//! The `net_bench` binary spawns the server and drives it:
//! `cargo run --release -p sram_net --bin net_bench -- --rate 600`.
//!
//! [`ShardedMemory`]: sram_array::sharded::ShardedMemory

#![warn(missing_docs)]

pub mod loadgen;
pub mod proto;
pub mod registry;
pub mod server;

pub use loadgen::{arrival_schedule_ns, LoadOptions, LoadReport, TenantStream};
pub use proto::{
    decode_request, decode_response, encode_request, encode_response, response_mix, ClassifyReply,
    FrameDecoder, ProtoError, Request, RequestBody, Response, Status, MAX_FRAME,
};
pub use registry::{ModelRegistry, TenantSpec};
pub use server::{NetReport, NetServerOptions, RunningServer, TenantReport};
