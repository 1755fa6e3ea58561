//! # sram-ann-repro
//!
//! Umbrella crate for the reproduction of *Significance Driven Hybrid 8T-6T
//! SRAM for Energy-Efficient Synaptic Storage in Artificial Neural Networks*
//! (Srinivasan, Wijesinghe, Sarwar, Jaiswal, Roy — DATE 2016).
//!
//! The implementation lives in the workspace crates, re-exported here:
//!
//! * [`exec`] — the deterministic parallel execution engine (scoped worker
//!   pool, per-task seed streams, characterization memo cache) every
//!   fan-out-shaped hot path runs on;
//! * [`device`] — 22 nm device models, units, threshold-voltage variation;
//! * [`spice`] — the `nanospice` DC/transient circuit solver and SPICE deck
//!   parser/writer;
//! * [`bitcell`] — 6T/8T characterization and Monte Carlo failure analysis;
//! * [`array`](mod@array) — sub-array/bank organization, power/area rollups
//!   (with optional periphery), redundancy repair, the address-keyed
//!   fault-stream contract and the sharded bank-parallel fault-injecting
//!   store;
//! * [`ecc`] — SECDED Hamming codes and overhead models (the ECC baseline);
//! * [`ann`] — the from-scratch MLP, datasets, quantization, evaluation;
//! * [`faults`] — bit-level fault models and protection policies;
//! * [`system`] — NPEs, controller, per-inference energy, voltage-frequency
//!   scaling;
//! * [`serve`] — the concurrent batched inference serving layer (admission
//!   queue, adaptive micro-batching, latency/energy metrics, per-shard
//!   drowsy voltage policy) with its `serve_bench` and `scale_bench`
//!   load generators;
//! * [`net`] — the network-facing tier: a std-only evented TCP server
//!   with a length-prefixed binary protocol, backpressure and SLO-aware
//!   admission, a multi-tenant model registry over one shared store, and
//!   the `net_bench` open-loop load generator;
//! * [`gen`] — the config-driven SRAM macro generator: a TOML spec front
//!   end that validates totally (typed errors, no panics) and emits a
//!   complete organization — layout, SPICE netlists, area/power rollups,
//!   memoized characterization, and a fault-injected inference smoke —
//!   with its `gen_report` design-space sweep binary;
//! * [`core`] — the paper's contribution: configurations, the
//!   circuit-to-system framework, the allocation optimizer, and every
//!   experiment (Table I, Figs. 5-9, plus the extension studies).
//!
//! See the `examples/` directory for runnable entry points and
//! `crates/bench` for the figure-regeneration harness.

pub use fault_inject as faults;
pub use hybrid_sram as core;
pub use nanospice as spice;
pub use neural as ann;
pub use neuro_system as system;
pub use sram_array as array;
pub use sram_bitcell as bitcell;
pub use sram_device as device;
pub use sram_ecc as ecc;
pub use sram_exec as exec;
pub use sram_gen as gen;
pub use sram_net as net;
pub use sram_serve as serve;
