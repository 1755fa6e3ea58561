//! The circuit-to-system simulation framework (paper §V).
//!
//! Glues the stack together: circuit-level characterization tables in,
//! system-level accuracy / power / area verdicts out. "At the circuit level,
//! the 6T and 8T bitcells were designed and subjected to SPICE simulations
//! to estimate the area, power, and failure rates. The failure probabilities
//! and the different synaptic memory configurations are fed to an ANN
//! functional simulator." — this type is that pipeline.

use crate::config::MemoryConfig;
use fault_inject::model::{BitErrorRates, WordFailureModel};
use neural::dataset::Dataset;
use neural::eval::accuracy;
use neural::quant::QuantizedMlp;
use neuro_system::layout;
use sram_array::area::area_overhead_vs_all_6t;
use sram_array::organization::{SubArrayDims, SynapticMemoryMap};
use sram_array::power::{memory_power, MemoryPowerReport, PowerConvention};
use sram_array::sharded::ShardedMemory;
use sram_bitcell::characterize::{
    characterize_paper_cells_cached, CellCharacterization, CharacterizationOptions,
};
use sram_device::process::Technology;
use sram_device::units::Volt;

/// Aggregated accuracy over fault-injection trials.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyStats {
    /// Per-trial classification accuracies.
    pub per_trial: Vec<f64>,
}

impl AccuracyStats {
    /// Mean accuracy across trials.
    pub fn mean(&self) -> f64 {
        self.per_trial.iter().sum::<f64>() / self.per_trial.len().max(1) as f64
    }

    /// Sample standard deviation across trials (0 for a single trial).
    pub fn std(&self) -> f64 {
        let n = self.per_trial.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.mean();
        let var = self
            .per_trial
            .iter()
            .map(|a| (a - mean) * (a - mean))
            .sum::<f64>()
            / (n - 1) as f64;
        var.sqrt()
    }
}

/// The end-to-end evaluation framework.
#[derive(Debug, Clone)]
pub struct Framework {
    char_6t: CellCharacterization,
    char_8t: CellCharacterization,
    dims: SubArrayDims,
    /// Per-word read rate used for power reporting (iso-throughput), Hz.
    pub word_read_rate_hz: f64,
}

impl Framework {
    /// Runs the circuit-level characterization and builds the framework.
    ///
    /// Characterization goes through the process-wide memo cache
    /// ([`characterize_paper_cells_cached`]): every experiment, benchmark,
    /// and test asking for the same `(tech, options)` shares one Monte Carlo
    /// run instead of recomputing seconds of circuit analysis.
    pub fn new(tech: &Technology, options: &CharacterizationOptions) -> Self {
        let (char_6t, char_8t) = characterize_paper_cells_cached(tech, options);
        Self::from_tables(char_6t, char_8t)
    }

    /// Builds the framework from precomputed characterization tables.
    pub fn from_tables(char_6t: CellCharacterization, char_8t: CellCharacterization) -> Self {
        Self {
            char_6t,
            char_8t,
            dims: SubArrayDims::PAPER,
            word_read_rate_hz: 1e6,
        }
    }

    /// The 6T characterization table.
    pub fn char_6t(&self) -> &CellCharacterization {
        &self.char_6t
    }

    /// The 8T characterization table.
    pub fn char_8t(&self) -> &CellCharacterization {
        &self.char_8t
    }

    /// Raw per-cell bit-error rates at a voltage (log-interpolated).
    pub fn bit_error_rates(&self, vdd: Volt) -> BitErrorRates {
        BitErrorRates {
            read_6t: self.char_6t.read_bit_error_at(vdd),
            write_6t: self.char_6t.write_bit_error_at(vdd),
            read_8t: self.char_8t.read_bit_error_at(vdd),
            write_8t: self.char_8t.write_bit_error_at(vdd),
        }
    }

    /// Memory map for a quantized network under a configuration.
    pub fn memory_map(&self, network: &QuantizedMlp, config: &MemoryConfig) -> SynapticMemoryMap {
        SynapticMemoryMap::new(&layout::bank_words(network), &config.policy(), self.dims)
    }

    /// Per-bank failure models for a configuration at its voltage.
    pub fn failure_models(
        &self,
        network: &QuantizedMlp,
        config: &MemoryConfig,
    ) -> Vec<WordFailureModel> {
        let rates = self.bit_error_rates(config.vdd());
        let policy = config.policy();
        (0..network.layer_count())
            .map(|bank| WordFailureModel::new(&rates, &policy.assignment(bank)))
            .collect()
    }

    /// A loaded behavioral memory for the configuration (weights written
    /// through the faulty write path), sharded one shard per ANN layer —
    /// the natural bank-parallel layout of paper Fig. 3c.
    ///
    /// The shard count never changes an observable bit (the store is
    /// pinned bit-identical at any count);
    /// use [`build_memory_sharded`](Self::build_memory_sharded) to pick a
    /// different throughput/parallelism trade-off.
    pub fn build_memory(
        &self,
        network: &QuantizedMlp,
        config: &MemoryConfig,
        seed: u64,
    ) -> ShardedMemory {
        self.build_memory_sharded(network, config, seed, network.layer_count().max(1))
    }

    /// [`build_memory`](Self::build_memory) with an explicit shard count;
    /// the bulk load fans out per shard on the `sram_exec` pool.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn build_memory_sharded(
        &self,
        network: &QuantizedMlp,
        config: &MemoryConfig,
        seed: u64,
        shards: usize,
    ) -> ShardedMemory {
        let map = self.memory_map(network, config);
        let models = self.failure_models(network, config);
        let mut memory = ShardedMemory::new(map, models, seed, shards);
        memory.load(&layout::flatten(network));
        memory
    }

    /// Classification accuracy of the network stored under `config`,
    /// averaged over `trials` independent fault-injection snapshots (the
    /// paper's functional-simulator methodology).
    ///
    /// Trials already own independent seeds, so they fan out on the
    /// `sram_exec` pool; each trial's accuracy is a pure function of its
    /// `(seed, t)` pair and the results collect in trial order, keeping the
    /// statistics bit-identical at any worker count.
    ///
    /// # Panics
    ///
    /// Panics if `trials == 0` or the dataset is empty.
    pub fn evaluate_accuracy(
        &self,
        network: &QuantizedMlp,
        test: &Dataset,
        config: &MemoryConfig,
        trials: usize,
        seed: u64,
    ) -> AccuracyStats {
        assert!(trials > 0, "at least one trial required");
        let per_trial = sram_exec::par_map_indexed(trials, |t| {
            let trial_seed = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(t as u64);
            // Write faults land at load time; read faults in the snapshot.
            let memory = self.build_memory(network, config, trial_seed);
            let (image, _stats) = memory.corrupt_snapshot(trial_seed ^ 0xABCD_EF01);
            let corrupted = layout::unflatten(network, &image);
            accuracy(&corrupted.to_mlp(), test)
        });
        AccuracyStats { per_trial }
    }

    /// Array power report for the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration's voltage was not characterized.
    pub fn power_report(
        &self,
        network: &QuantizedMlp,
        config: &MemoryConfig,
        convention: PowerConvention,
    ) -> MemoryPowerReport {
        let map = self.memory_map(network, config);
        memory_power(
            &map,
            &self.char_6t,
            &self.char_8t,
            config.vdd(),
            self.word_read_rate_hz,
            convention,
        )
    }

    /// Area overhead of the configuration versus all-6T storage.
    pub fn area_overhead(&self, network: &QuantizedMlp, config: &MemoryConfig) -> f64 {
        area_overhead_vs_all_6t(&self.memory_map(network, config))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neural::dataset::synth;
    use neural::network::Mlp;
    use neural::quant::Encoding;
    use neural::train::{train, TrainOptions};

    fn quick_framework() -> Framework {
        let options = CharacterizationOptions {
            vdds: vec![Volt::new(0.95), Volt::new(0.75), Volt::new(0.65)],
            mc_samples: 40,
            ..CharacterizationOptions::quick()
        };
        Framework::new(&Technology::ptm_22nm(), &options)
    }

    fn small_net_and_data() -> (QuantizedMlp, Dataset) {
        let data = synth::generate_default(300, 31);
        let (train_set, test_set) = data.split(0.7, 3);
        let mut mlp = Mlp::new(&[784, 20, 10], 5);
        train(
            &mut mlp,
            &train_set,
            &TrainOptions {
                epochs: 6,
                ..TrainOptions::default()
            },
        );
        (
            QuantizedMlp::from_mlp(&mlp, Encoding::TwosComplement),
            test_set,
        )
    }

    #[test]
    fn bit_error_rates_are_voltage_monotone() {
        let f = quick_framework();
        let hi = f.bit_error_rates(Volt::new(0.95));
        let lo = f.bit_error_rates(Volt::new(0.65));
        assert!(lo.read_6t > hi.read_6t);
        assert!(lo.read_8t < lo.read_6t, "8T must be more robust");
    }

    #[test]
    fn accuracy_ordering_across_configs() {
        let f = quick_framework();
        let (q, test) = small_net_and_data();
        let vdd = Volt::new(0.65);
        let base = f.evaluate_accuracy(&q, &test, &MemoryConfig::Base6T { vdd }, 3, 1);
        let hybrid = f.evaluate_accuracy(&q, &test, &MemoryConfig::Hybrid { msb_8t: 4, vdd }, 3, 1);
        let nominal = f.evaluate_accuracy(
            &q,
            &test,
            &MemoryConfig::Base6T {
                vdd: Volt::new(0.95),
            },
            1,
            1,
        );
        assert!(
            hybrid.mean() >= base.mean(),
            "hybrid {} must not lose to 6T {} at scaled voltage",
            hybrid.mean(),
            base.mean()
        );
        assert!(nominal.mean() >= base.mean() - 0.02);
    }

    #[test]
    fn power_and_area_tradeoff_directions() {
        let f = quick_framework();
        let (q, _) = small_net_and_data();
        let base75 = MemoryConfig::Base6T {
            vdd: Volt::new(0.75),
        };
        let hybrid65 = MemoryConfig::Hybrid {
            msb_8t: 3,
            vdd: Volt::new(0.65),
        };
        let p_base = f.power_report(&q, &base75, PowerConvention::IsoThroughput);
        let p_hyb = f.power_report(&q, &hybrid65, PowerConvention::IsoThroughput);
        assert!(
            p_hyb.access_power.watts() < p_base.access_power.watts(),
            "iso-stability hybrid must save access power"
        );
        assert!(f.area_overhead(&q, &hybrid65) > 0.0);
        assert!(f.area_overhead(&q, &base75).abs() < 1e-12);
        // (3,5) hybrid: n·37 %/8 ≈ 13.9 %.
        assert!((f.area_overhead(&q, &hybrid65) - 0.1387).abs() < 2e-3);
    }

    #[test]
    fn accuracy_stats_math() {
        let s = AccuracyStats {
            per_trial: vec![0.9, 0.8, 1.0],
        };
        assert!((s.mean() - 0.9).abs() < 1e-12);
        assert!((s.std() - 0.1).abs() < 1e-12);
        let single = AccuracyStats {
            per_trial: vec![0.5],
        };
        assert_eq!(single.std(), 0.0);
    }

    #[test]
    fn evaluation_is_deterministic() {
        let f = quick_framework();
        let (q, test) = small_net_and_data();
        let cfg = MemoryConfig::Base6T {
            vdd: Volt::new(0.65),
        };
        let a = f.evaluate_accuracy(&q, &test, &cfg, 2, 42);
        let b = f.evaluate_accuracy(&q, &test, &cfg, 2, 42);
        assert_eq!(a, b);
    }
}
