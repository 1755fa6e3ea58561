//! Spec → organization: the generated [`SynapticMemoryMap`] and its digest.
//!
//! Building is a thin, checked layer over `sram_array::organization` — the
//! generator emits the *same* artifact type the hand-wired fixtures use, so
//! every downstream consumer (power/area rollups, the sharded store, the
//! multi-tenant registry's `concat`) works on generated macros unchanged.

use crate::error::GenError;
use crate::spec::{BankSpec, SramSpec};
use neural::network::Mlp;
use neural::quant::{Encoding, QuantizedMlp};
use sram_array::organization::SynapticMemoryMap;
use sram_exec::{fnv1a, fnv1a_u64, FNV_OFFSET};

/// A built organization: the spec, its memory map, and (for workload
/// specs) the deterministic quantized network whose weights the smoke
/// serves.
#[derive(Debug, Clone)]
pub struct GeneratedOrganization {
    /// The validated source spec.
    pub spec: SramSpec,
    /// The generated bank layout (same type the hand-wired fixtures use).
    pub map: SynapticMemoryMap,
    /// The workload network, when banks come from `banks.layers`.
    pub network: Option<QuantizedMlp>,
}

impl GeneratedOrganization {
    /// Builds the organization for a validated spec.
    ///
    /// # Errors
    ///
    /// Propagates [`SramSpec::bank_words`] overflow errors. All other
    /// constraints were checked at validation time.
    pub fn build(spec: &SramSpec) -> Result<Self, GenError> {
        let words = spec.bank_words()?;
        let map = SynapticMemoryMap::new(&words, &spec.policy(), spec.dims);
        let network = match &spec.banks {
            BankSpec::Words(_) => None,
            BankSpec::Layers { sizes, seed } => Some(QuantizedMlp::from_mlp(
                &Mlp::new(sizes, *seed),
                Encoding::TwosComplement,
            )),
        };
        Ok(Self {
            spec: spec.clone(),
            map,
            network,
        })
    }

    /// Sense amplifiers per sub-array under the spec's column mux.
    pub fn sense_amps_per_subarray(&self) -> usize {
        self.spec.dims.cols / self.spec.mux
    }

    /// Total sub-arrays across banks.
    pub fn subarrays(&self) -> usize {
        self.map
            .banks()
            .iter()
            .map(|b| b.subarrays(self.spec.dims))
            .sum()
    }

    /// Layout digest of the generated map (see [`layout_digest`]).
    pub fn layout_digest(&self) -> u64 {
        layout_digest(&self.map)
    }
}

/// FNV-1a digest of a memory map's complete layout: sub-array dimensions,
/// then per bank the word count and the 8T/6T assignment mask. Two maps
/// digest equal iff they are `PartialEq`-equal, so the golden test can pin
/// a generated layout byte-for-byte against a hand-wired fixture.
pub fn layout_digest(map: &SynapticMemoryMap) -> u64 {
    let mut h = FNV_OFFSET;
    h = fnv1a_u64(h, map.dims().rows as u64);
    h = fnv1a_u64(h, map.dims().cols as u64);
    h = fnv1a_u64(h, map.banks().len() as u64);
    for bank in map.banks() {
        h = fnv1a_u64(h, bank.words as u64);
        h = fnv1a(h, &[bank.assignment.mask()]);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SramSpec;
    use fault_inject::protection::ProtectionPolicy;
    use sram_array::organization::SubArrayDims;

    #[test]
    fn generated_map_matches_hand_wired_construction() {
        let spec = SramSpec::sample(7);
        let org = GeneratedOrganization::build(&spec).expect("builds");
        let by_hand =
            SynapticMemoryMap::new(&spec.bank_words().unwrap(), &spec.policy(), spec.dims);
        assert_eq!(org.map, by_hand);
        assert_eq!(org.layout_digest(), layout_digest(&by_hand));
    }

    #[test]
    fn digest_separates_distinct_layouts() {
        let a = SynapticMemoryMap::new(
            &[100, 50],
            &ProtectionPolicy::MsbProtected { msb_8t: 3 },
            SubArrayDims::PAPER,
        );
        let b = SynapticMemoryMap::new(
            &[100, 50],
            &ProtectionPolicy::MsbProtected { msb_8t: 4 },
            SubArrayDims::PAPER,
        );
        let c = SynapticMemoryMap::new(
            &[100, 51],
            &ProtectionPolicy::MsbProtected { msb_8t: 3 },
            SubArrayDims::PAPER,
        );
        assert_ne!(layout_digest(&a), layout_digest(&b));
        assert_ne!(layout_digest(&a), layout_digest(&c));
        assert_eq!(layout_digest(&a), layout_digest(&a.clone()));
    }

    #[test]
    fn workload_specs_carry_a_network_whose_layout_matches() {
        let spec = SramSpec::from_toml_str(
            "[array]\nrows = 64\ncols = 64\nmux = 2\n[banks]\nlayers = [12, 6, 3]\n\
             [supply]\nvdd = 0.8\ndrowsy = 0.5\n",
        )
        .expect("valid");
        let org = GeneratedOrganization::build(&spec).expect("builds");
        let network = org.network.as_ref().expect("workload network");
        assert_eq!(
            neuro_system::layout::bank_words(network),
            spec.bank_words().unwrap()
        );
    }
}
