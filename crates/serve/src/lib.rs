//! # sram-serve — concurrent batched inference serving
//!
//! The ROADMAP's north star is a system that serves heavy traffic, not a
//! single-shot simulator. This crate is the throughput layer over the
//! paper's hybrid 8T-6T synaptic memory: a micro-batch [`scheduler`] that
//! both serving tiers share, per-request seed streams so
//! fault injection under load replays the serving-Vdd bit-error rates
//! bit-identically at any worker count, a per-significance-band drowsy
//! voltage policy, and per-request metrics (latency histogram, energy per
//! inference, observed bit-error rate).
//!
//! The pipeline (see [`server`] for the full diagram):
//!
//! ```text
//! requests → BatchQueue → adaptive micro-batches → workers
//!          → classify_micro_batch → one ShardedMemory bank fetch per batch
//! ```
//!
//! **Determinism contract.** Request `id`'s randomness is
//! `derive_seed(base_seed, id)`; results are slotted by id. Predictions are
//! bit-identical across worker counts and batch sizes — the `serve-load` CI
//! job and this crate's tests pin it. Latency/throughput numbers are wall
//! clock; only their aggregation is order-invariant.
//!
//! The `serve_bench` binary is the load generator (`cargo run --release -p
//! sram_serve --bin serve_bench`), and `cargo xtask serve-report` turns two
//! runs of it into the throughput/latency/energy table CI gates and
//! archives; `scale_bench` + `cargo xtask scale-report` do the same for
//! the sharded store's million-synapse scaling.

#![warn(missing_docs)]

pub mod fixture;
pub mod metrics;
pub mod policy;
pub mod resilience;
pub mod scheduler;
pub mod server;

pub use metrics::{byte_digest, prediction_digest, LatencyHistogram};
pub use policy::{
    apply_ber_feedback, drowsy_plan, BandVoltage, DrowsyPlan, DrowsyPolicy, ShardRetention,
};
pub use resilience::{
    apply_chaos_event, BerGovernorConfig, ResilienceConfig, ResilienceController,
    ResilienceCounters,
};
pub use scheduler::{classify_micro_batch, BatchQueue, Completion, DEFAULT_MAX_BATCH};
pub use server::{InferenceServer, ServeOptions, ServeReport};
