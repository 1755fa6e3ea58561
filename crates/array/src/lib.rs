//! # sram-array
//!
//! Array and bank [`organization`] of the synaptic memory (256×256
//! sub-arrays, one bank per ANN layer for the sensitivity-driven
//! architecture of paper Fig. 3c), the array-level [`power`] and [`area`]
//! rollups behind Figs. 7b/8b/8c/9, the [`behavioral`] fault-stream
//! contract, the [`sharded`] bank-parallel fault-injecting store the
//! system level reads weights through,
//! and the runtime-resilience layers over it: a march-test [`bist`] that
//! maps weak cells at boot and an online ECC [`scrub`]ber that sweeps the
//! store between serving batches.
//!
//! # Examples
//!
//! Area overhead of the paper's (3,5) hybrid configuration:
//!
//! ```
//! use sram_array::prelude::*;
//! use fault_inject::prelude::ProtectionPolicy;
//!
//! let map = SynapticMemoryMap::new(
//!     &[10_000],
//!     &ProtectionPolicy::MsbProtected { msb_8t: 3 },
//!     SubArrayDims::PAPER,
//! );
//! let overhead = area_overhead_vs_all_6t(&map);
//! assert!((overhead - 0.1387).abs() < 1e-3, "paper Fig. 8c: 13.9 %");
//! ```

#![warn(missing_docs)]

pub mod area;
pub mod behavioral;
pub mod bist;
pub mod organization;
pub mod periphery;
pub mod power;
pub mod redundancy;
pub mod scrub;
pub mod sharded;

// The scalar test oracle lives with the integration tests; the unit tests
// include the same file, which names this crate by its public name.
#[cfg(test)]
extern crate self as sram_array;
#[cfg(test)]
#[path = "../tests/oracle/mod.rs"]
mod oracle;

/// Convenient glob import for downstream crates.
pub mod prelude {
    pub use crate::area::{area_overhead_vs_all_6t, memory_area};
    pub use crate::behavioral::AccessCounts;
    pub use crate::bist::{run_bist, BistReport, WeakWord};
    pub use crate::organization::{MemoryBank, SubArrayDims, SynapticMemoryMap, WordAddress};
    pub use crate::periphery::{PeripheryEnergy, PeripheryModel};
    pub use crate::power::{
        memory_power, memory_power_with_periphery, MemoryPowerReport, PowerConvention,
    };
    pub use crate::redundancy::{
        effective_failure_probability, simulate_repair, RedundancyConfig, RepairOutcome,
    };
    pub use crate::scrub::{scrub_pass, EccSidecar, ScrubOutcome};
    pub use crate::sharded::{ShardRange, ShardedMemory, StuckRange};
}
