//! # neuro-system
//!
//! Behavioral model of the paper's digital neuromorphic ASIC (Fig. 2):
//! fixed-point [`npe`]s with a sigmoid LUT, the [`controller`] that streams
//! weights out of the behavioral synaptic memory (so per-access read faults
//! land exactly where hardware would see them), the network-to-memory
//! [`layout`], and per-inference [`energy`] accounting.
//!
//! # Examples
//!
//! See [`controller::NeuromorphicSystem`] for an end-to-end inference run;
//! the `system_inference` example at the workspace root classifies synthetic
//! digits through a voltage-scaled memory.

#![warn(missing_docs)]

pub mod controller;
pub mod energy;
pub mod layout;
pub mod npe;
pub mod timing;

// The per-request test oracle lives with the integration tests; the unit
// tests include the same file, which names this crate by its public name.
#[cfg(test)]
extern crate self as neuro_system;
#[cfg(test)]
#[path = "../tests/oracle/mod.rs"]
mod oracle;

/// Convenient glob import for downstream crates.
pub mod prelude {
    pub use crate::controller::{InferContext, NeuromorphicSystem};
    pub use crate::energy::{
        inference_energy, system_inference_energy, InferenceEnergy, LogicEnergyModel,
        SystemEnergyModel, SystemEnergyReport,
    };
    pub use crate::layout::{bank_words, bias_offset, flatten, unflatten, weight_offset};
    pub use crate::npe::{decode_activation, encode_activation, Npe};
    pub use crate::timing::DelayModel;
}
