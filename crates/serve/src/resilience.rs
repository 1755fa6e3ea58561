//! The serving-side resilience loop: boot-time BIST, online ECC
//! scrubbing, spare-row repair, and BER-fed drowsy feedback.
//!
//! ```text
//!        boot                         between batches
//!  ┌──────────────┐      ┌──────────────────────────────────────┐
//!  │ march BIST   │      │ scrub sweep (SECDED decode per word) │
//!  │  weak-cell   │      │   corrected bits ──▶ BER governor    │
//!  │  map         │      │   flagged rows  ──▶ spare-row repair │
//!  └──────┬───────┘      └──────────────┬───────────────────────┘
//!         │ weak rows ≥ threshold       │ boosts per shard
//!         ▼                             ▼
//!   spare-row repair            retention-voltage feedback
//!   (golden data)               (policy::apply_ber_feedback)
//! ```
//!
//! A [`ResilienceController`] owns the ECC sidecar, the BIST report, the
//! spare-row budget, and the per-shard governor state. It is built once
//! over a freshly loaded store ([`ResilienceController::new`]) and then
//! driven between serving batches ([`ResilienceController::maintain`]).
//! Every decision it makes — weak-cell map, scrub counters, repair
//! choices — is a pure function of the store's observed image and the
//! configured seeds, so the whole loop is bit-identical at any worker or
//! shard count (pinned by the `resilience` determinism tests and the
//! chaos gate).

use crate::policy::{apply_ber_feedback, DrowsyPlan, ShardRetention};
use fault_inject::chaos::ChaosEvent;
use sram_array::bist::{run_bist, BistReport};
use sram_array::scrub::{scrub_pass, EccSidecar, ScrubOutcome};
use sram_array::sharded::ShardedMemory;
use sram_device::units::Volt;
use std::collections::BTreeSet;

/// Knobs of the per-shard BER-fed drowsy governor.
#[derive(Debug, Clone, PartialEq)]
pub struct BerGovernorConfig {
    /// Corrected-BER (corrected bits / shard data bits per sweep) above
    /// which a shard's retention voltage is boosted one step.
    pub raise_threshold: f64,
    /// Consecutive quiet sweeps (BER at or below threshold) before one
    /// boost step is walked back.
    pub quiet_windows: u32,
    /// Boost ceiling per shard.
    pub max_boosts: u32,
    /// Voltage added per boost step (capped at the active supply).
    pub step: Volt,
}

impl Default for BerGovernorConfig {
    fn default() -> Self {
        Self {
            raise_threshold: 1e-4,
            quiet_windows: 2,
            max_boosts: 4,
            step: Volt::new(0.05),
        }
    }
}

/// Configuration of the whole resilience loop.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceConfig {
    /// Seed of the BIST read-pass streams.
    pub bist_seed: u64,
    /// Run the ECC scrub sweep during [`ResilienceController::maintain`].
    pub scrub: bool,
    /// Remap flagged/weak rows onto spare rows.
    pub repair: bool,
    /// Spare-row budget (rows, shared across the whole store).
    pub spare_rows: usize,
    /// Weak bits a row needs before boot-time BIST repair claims a spare.
    pub bist_weak_bits_threshold: u32,
    /// BER-fed drowsy governor knobs.
    pub governor: BerGovernorConfig,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            bist_seed: 0xB157_5EED,
            scrub: true,
            repair: true,
            spare_rows: 128,
            bist_weak_bits_threshold: 8,
            governor: BerGovernorConfig::default(),
        }
    }
}

/// Snapshot of the resilience loop's counters (carried in
/// [`ServeReport`](crate::ServeReport) and the chaos-gate table).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ResilienceCounters {
    /// Weak words the boot BIST mapped.
    pub bist_weak_words: usize,
    /// Weak bits the boot BIST mapped.
    pub bist_weak_bits: u64,
    /// FNV-1a digest of the weak-cell map.
    pub bist_digest: u64,
    /// Scrub sweeps run so far.
    pub scrub_sweeps: u64,
    /// Words corrected across all sweeps.
    pub corrected_words: u64,
    /// Bits corrected across all sweeps.
    pub corrected_bits: u64,
    /// Uncorrectable words seen across all sweeps.
    pub uncorrectable_words: u64,
    /// Rows remapped onto spares (boot + online).
    pub rows_repaired: usize,
    /// Spare rows still available.
    pub spare_rows_free: usize,
    /// Governor boost steps issued across all sweeps.
    pub governor_boosts: u64,
}

/// The live resilience state over one serving store. See the
/// [module docs](self).
#[derive(Debug, Clone)]
pub struct ResilienceController {
    config: ResilienceConfig,
    bist: BistReport,
    sidecar: EccSidecar,
    /// The post-boot observed image — the baseline the serving accuracy is
    /// measured against, the sidecar protects, and repairs restore.
    reference: Vec<u8>,
    /// Row starts already remapped onto spares.
    repaired: BTreeSet<usize>,
    spare_rows_free: usize,
    /// Current boost level per shard.
    boosts: Vec<u32>,
    /// Consecutive quiet sweeps per shard.
    quiet: Vec<u32>,
    scrub_sweeps: u64,
    corrected_words: u64,
    corrected_bits: u64,
    uncorrectable_words: u64,
    governor_boosts: u64,
}

impl ResilienceController {
    /// Boots the resilience loop over a freshly loaded store: runs the
    /// march BIST, remaps rows whose weak-bit count reaches the configured
    /// threshold onto spares holding `golden` (the pre-quantization-load
    /// flattened weights — boot repair restores true values for the
    /// weakest rows), snapshots the resulting observed image as the
    /// protected reference, and builds the ECC sidecar over it.
    ///
    /// # Panics
    ///
    /// Panics if `golden` is shorter than the store.
    pub fn new(memory: &mut ShardedMemory, golden: &[u8], config: ResilienceConfig) -> Self {
        assert!(
            golden.len() >= memory.len(),
            "golden image must cover the store"
        );
        let bist = run_bist(memory, config.bist_seed);
        let mut repaired = BTreeSet::new();
        let mut spare_rows_free = config.spare_rows;
        if config.repair {
            for row in bist.weak_rows(memory, config.bist_weak_bits_threshold) {
                if spare_rows_free == 0 {
                    break;
                }
                let (start, words) = memory.row_span(row);
                memory.repair_row(start, &golden[start..start + words]);
                repaired.insert(start);
                spare_rows_free -= 1;
            }
        }
        let mut reference = Vec::with_capacity(memory.len());
        memory.observe_range(0, memory.len(), &mut reference);
        let sidecar = EccSidecar::protect(memory);
        let shards = memory.shard_count();
        Self {
            config,
            bist,
            sidecar,
            reference,
            repaired,
            spare_rows_free,
            boosts: vec![0; shards],
            quiet: vec![0; shards],
            scrub_sweeps: 0,
            corrected_words: 0,
            corrected_bits: 0,
            uncorrectable_words: 0,
            governor_boosts: 0,
        }
    }

    /// One maintenance window (run between serving batches): scrub sweep,
    /// spare-row repair of the rows the sweep flagged (restored from the
    /// protected reference), and the per-shard governor update. Returns
    /// the sweep's outcome (`None` when scrubbing is disabled).
    pub fn maintain(&mut self, memory: &mut ShardedMemory) -> Option<ScrubOutcome> {
        if !self.config.scrub {
            return None;
        }
        let outcome = scrub_pass(memory, &mut self.sidecar, true);
        self.scrub_sweeps += 1;
        self.corrected_words += outcome.corrected_words as u64;
        self.corrected_bits += outcome.corrected_bits;
        self.uncorrectable_words += outcome.uncorrectable_words as u64;
        if self.config.repair {
            for &row in &outcome.flagged_rows {
                if self.spare_rows_free == 0 {
                    break;
                }
                if self.repaired.contains(&row) {
                    continue;
                }
                let (start, words) = memory.row_span(row);
                memory.repair_row(start, &self.reference[start..start + words]);
                self.repaired.insert(start);
                self.spare_rows_free -= 1;
            }
        }
        // Governor: each shard's corrected-BER this sweep either boosts
        // its retention voltage or counts toward walking a boost back.
        let ranges = memory.shard_ranges();
        for (shard, range) in ranges.iter().enumerate() {
            let bits = (range.words * 8) as f64;
            let ber = if bits > 0.0 {
                outcome.per_shard_corrected_bits[shard] as f64 / bits
            } else {
                0.0
            };
            if ber > self.config.governor.raise_threshold {
                if self.boosts[shard] < self.config.governor.max_boosts {
                    self.boosts[shard] += 1;
                    self.governor_boosts += 1;
                }
                self.quiet[shard] = 0;
            } else {
                self.quiet[shard] += 1;
                if self.quiet[shard] >= self.config.governor.quiet_windows && self.boosts[shard] > 0
                {
                    self.boosts[shard] -= 1;
                    self.quiet[shard] = 0;
                }
            }
        }
        Some(outcome)
    }

    /// The boot-time weak-cell map.
    pub fn bist(&self) -> &BistReport {
        &self.bist
    }

    /// Current boost level per shard.
    pub fn boosts(&self) -> &[u32] {
        &self.boosts
    }

    /// The configuration the controller was booted with.
    pub fn config(&self) -> &ResilienceConfig {
        &self.config
    }

    /// The per-shard retention plan of `plan` over `memory`, with the
    /// governor's current boosts applied — the voltages the drowsy shards
    /// actually hold.
    pub fn adjusted_retention(
        &self,
        plan: &DrowsyPlan,
        memory: &ShardedMemory,
    ) -> Vec<ShardRetention> {
        let retention = plan.shard_retention(memory);
        apply_ber_feedback(
            &retention,
            &self.boosts,
            self.config.governor.step,
            plan.active_vdd,
        )
    }

    /// Counter snapshot.
    pub fn counters(&self) -> ResilienceCounters {
        ResilienceCounters {
            bist_weak_words: self.bist.weak_words(),
            bist_weak_bits: self.bist.weak_bits(),
            bist_digest: self.bist.digest(),
            scrub_sweeps: self.scrub_sweeps,
            corrected_words: self.corrected_words,
            corrected_bits: self.corrected_bits,
            uncorrectable_words: self.uncorrectable_words,
            rows_repaired: self.repaired.len(),
            spare_rows_free: self.spare_rows_free,
            governor_boosts: self.governor_boosts,
        }
    }
}

/// Applies one chaos-schedule event to the store: persistent corruption
/// for [`ChaosEvent::ElevatedBer`] and [`ChaosEvent::RetentionDrop`], a
/// stuck-at overlay for [`ChaosEvent::StuckRows`]. Returns the number of
/// bits flipped (stuck spans report zero — they corrupt sensing, not
/// storage).
pub fn apply_chaos_event(memory: &mut ShardedMemory, event: &ChaosEvent) -> u64 {
    match *event {
        ChaosEvent::ElevatedBer {
            start,
            words,
            per_bit,
            seed,
        }
        | ChaosEvent::RetentionDrop {
            start,
            words,
            per_bit,
            seed,
        } => memory.corrupt_stored_range(start, words, seed, per_bit),
        ChaosEvent::StuckRows {
            start,
            words,
            or_mask,
            and_mask,
        } => {
            memory.inject_stuck_range(start, words, or_mask, and_mask);
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fault_inject::model::{BitErrorRates, WordFailureModel};
    use fault_inject::protection::ProtectionPolicy;
    use sram_array::organization::{SubArrayDims, SynapticMemoryMap};

    fn store(write_p: f64, shards: usize) -> (ShardedMemory, Vec<u8>) {
        let policy = ProtectionPolicy::Uniform6T;
        let map = SynapticMemoryMap::new(&[512], &policy, SubArrayDims::PAPER);
        let rates = BitErrorRates {
            read_6t: 0.0,
            write_6t: write_p,
            read_8t: 0.0,
            write_8t: 0.0,
        };
        let model = WordFailureModel::new(&rates, &policy.assignment(0));
        let mut m = ShardedMemory::new(map, vec![model], 31, shards);
        let golden: Vec<u8> = (0..512).map(|i| (i * 7) as u8).collect();
        m.load(&golden);
        (m, golden)
    }

    #[test]
    fn boot_repairs_weak_rows_from_golden() {
        let (mut m, golden) = store(0.08, 2);
        let config = ResilienceConfig {
            bist_weak_bits_threshold: 1,
            ..ResilienceConfig::default()
        };
        let ctl = ResilienceController::new(&mut m, &golden, config);
        let counters = ctl.counters();
        assert!(counters.bist_weak_words > 0, "8% write BER must map cells");
        assert!(counters.rows_repaired > 0);
        assert_eq!(
            counters.spare_rows_free,
            128 - counters.rows_repaired,
            "budget accounting"
        );
        // Repaired rows read golden data verbatim.
        for (start, words) in m.repaired_rows() {
            for (i, &g) in golden.iter().enumerate().skip(start).take(words) {
                assert_eq!(m.read_raw(i), g);
            }
        }
    }

    #[test]
    fn boot_reference_is_the_observed_image() {
        for shards in [1, 3] {
            let (mut m, golden) = store(0.08, shards);
            // Stuck spans across a row boundary, at the store's end, and
            // under rows the boot BIST is about to remap.
            m.inject_stuck_range(30, 70, 0x21, 0xEF);
            m.inject_stuck_range(500, 12, 0x80, 0xFF);
            let config = ResilienceConfig {
                bist_weak_bits_threshold: 1,
                ..ResilienceConfig::default()
            };
            let ctl = ResilienceController::new(&mut m, &golden, config);
            assert!(!m.repaired_rows().is_empty(), "BIST must repair rows");
            let per_word: Vec<u8> = (0..m.len()).map(|i| m.read_raw(i)).collect();
            assert_eq!(ctl.reference, per_word, "{shards} shards");
            assert_ne!(per_word, m.raw_image(), "the overlays must show");
        }
    }

    #[test]
    fn maintain_heals_degradation_and_boosts_the_victim_shard() {
        let (mut m, golden) = store(0.0, 4);
        let mut ctl = ResilienceController::new(&mut m, &golden, ResilienceConfig::default());
        assert_eq!(ctl.counters().bist_weak_words, 0);
        // Degrade shard 1 (words 128..256) hard.
        let flipped = m.corrupt_stored_range(128, 128, 0xBAD, 0.01);
        assert!(flipped > 0);
        let outcome = ctl.maintain(&mut m).expect("scrub enabled");
        assert!(outcome.corrected_words > 0);
        // The healed image matches the reference everywhere repair and
        // correction could reach.
        let c = ctl.counters();
        assert_eq!(c.scrub_sweeps, 1);
        assert!(c.corrected_bits >= outcome.corrected_bits);
        assert_eq!(ctl.boosts()[0], 0, "untouched shard stays deep-drowsy");
        assert_eq!(ctl.boosts()[1], 1, "victim shard boosts");
        // Quiet sweeps walk the boost back.
        ctl.maintain(&mut m);
        ctl.maintain(&mut m);
        assert_eq!(ctl.boosts()[1], 0, "quiet windows decay the boost");
        // After healing, the observed image equals the reference except
        // for rows the spare budget could not cover (none here).
        let observed: Vec<u8> = (0..m.len()).map(|i| m.read_raw(i)).collect();
        assert_eq!(observed, golden, "ideal store heals to golden");
    }

    #[test]
    fn stuck_rows_get_repaired_through_spares() {
        let (mut m, golden) = store(0.0, 2);
        let mut ctl = ResilienceController::new(&mut m, &golden, ResilienceConfig::default());
        apply_chaos_event(
            &mut m,
            &ChaosEvent::StuckRows {
                start: 64,
                words: 64,
                or_mask: 0xFF,
                and_mask: 0xFF,
            },
        );
        ctl.maintain(&mut m);
        let c = ctl.counters();
        assert!(c.uncorrectable_words > 0, "stuck rows defeat SECDED");
        assert_eq!(c.rows_repaired, 2, "both stuck rows remapped");
        for (i, &g) in golden.iter().enumerate().take(128).skip(64) {
            assert_eq!(m.read_raw(i), g, "spares bypass stuck cells");
        }
    }

    #[test]
    fn disabled_scrub_and_repair_do_nothing() {
        let (mut m, golden) = store(0.0, 2);
        let config = ResilienceConfig {
            scrub: false,
            repair: false,
            ..ResilienceConfig::default()
        };
        let mut ctl = ResilienceController::new(&mut m, &golden, config);
        m.corrupt_stored_range(0, 512, 1, 0.01);
        assert!(ctl.maintain(&mut m).is_none());
        let c = ctl.counters();
        assert_eq!(c.scrub_sweeps, 0);
        assert_eq!(c.rows_repaired, 0);
        assert!(m.repaired_rows().is_empty());
    }

    #[test]
    fn controller_decisions_are_invariant_across_shard_counts() {
        let run = |shards: usize| {
            let (mut m, golden) = store(0.02, shards);
            let mut ctl = ResilienceController::new(&mut m, &golden, ResilienceConfig::default());
            m.corrupt_stored_range(100, 300, 0xD06, 0.008);
            ctl.maintain(&mut m);
            let c = ctl.counters();
            let observed: Vec<u8> = (0..m.len()).map(|i| m.read_raw(i)).collect();
            (c, m.repaired_rows(), observed)
        };
        let (ref_c, ref_rows, ref_obs) = run(1);
        for shards in [2usize, 4, 7] {
            let (c, rows, obs) = run(shards);
            assert_eq!(c.bist_digest, ref_c.bist_digest, "{shards} shards");
            assert_eq!(c.corrected_words, ref_c.corrected_words);
            assert_eq!(c.corrected_bits, ref_c.corrected_bits);
            assert_eq!(c.uncorrectable_words, ref_c.uncorrectable_words);
            assert_eq!(c.rows_repaired, ref_c.rows_repaired);
            assert_eq!(rows, ref_rows, "repair decisions are address-keyed");
            assert_eq!(obs, ref_obs, "healed image is shard-invariant");
        }
    }
}
