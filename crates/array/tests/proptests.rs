//! Property-based tests for array organization and the fault-injecting
//! store.

use fault_inject::model::{BitErrorRates, WordFailureModel};
use fault_inject::protection::ProtectionPolicy;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sram_array::bist::run_bist;
use sram_array::organization::{SubArrayDims, SynapticMemoryMap};
use sram_array::sharded::ShardedMemory;

fn arb_banks() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..5000, 1..6)
}

proptest! {
    /// locate() and global_index() are inverse bijections over the memory.
    #[test]
    fn address_mapping_bijective(banks in arb_banks(), probe in 0usize..10_000) {
        let map = SynapticMemoryMap::new(
            &banks,
            &ProtectionPolicy::Uniform6T,
            SubArrayDims::PAPER,
        );
        let total = map.total_words();
        let g = probe % total;
        let addr = map.locate(g);
        prop_assert_eq!(map.global_index(addr), g);
        prop_assert!(addr.bank < banks.len());
        prop_assert!(addr.offset < banks[addr.bank]);
    }

    /// Cell counts always total 8 bits per word, however protection is split.
    #[test]
    fn cell_counts_conserve_bits(banks in arb_banks(), msb in 0usize..=8) {
        let map = SynapticMemoryMap::new(
            &banks,
            &ProtectionPolicy::MsbProtected { msb_8t: msb },
            SubArrayDims::PAPER,
        );
        let six = map.total_cells(sram_bitcell::topology::BitcellKind::SixT);
        let eight = map.total_cells(sram_bitcell::topology::BitcellKind::EightT);
        prop_assert_eq!(six + eight, 8 * map.total_words());
        prop_assert_eq!(eight, msb * map.total_words());
    }

    /// Physical placement stays inside the sub-array geometry.
    #[test]
    fn physical_placement_in_bounds(words in 1usize..30_000, probe in 0usize..30_000) {
        let map = SynapticMemoryMap::new(
            &[words],
            &ProtectionPolicy::Uniform6T,
            SubArrayDims::PAPER,
        );
        let offset = probe % words;
        let (sub, row, col) = map.physical(sram_array::organization::WordAddress {
            bank: 0,
            offset,
        });
        prop_assert!(row < 256);
        prop_assert!(col < 256);
        prop_assert!(sub <= words / SubArrayDims::PAPER.words());
    }

    /// An ideal memory is a perfect RAM for any data pattern.
    #[test]
    fn ideal_memory_is_transparent(data in prop::collection::vec(any::<u8>(), 1..500)) {
        let map = SynapticMemoryMap::new(
            &[data.len()],
            &ProtectionPolicy::Uniform6T,
            SubArrayDims::PAPER,
        );
        let mut memory = ShardedMemory::new(map, vec![WordFailureModel::ideal()], 1, 3);
        memory.load(&data);
        let mut rng = StdRng::seed_from_u64(0);
        let (mut words, mut masks) = (Vec::new(), vec![0u8; data.len()]);
        memory.observe_range(0, data.len(), &mut words);
        let fault_bits = memory.sample_read_masks(0, [(0, data.len())], &mut rng, &mut masks);
        memory.charge_reads(0, data.len(), 1);
        prop_assert_eq!(fault_bits, 0);
        prop_assert_eq!(words, data);
        prop_assert_eq!(memory.counts().reads, data.len());
    }

    /// Snapshot corruption flips approximately n_words * 8 * p bits.
    #[test]
    fn snapshot_flip_rate(p in 0.005f64..0.1, seed in 0u64..30) {
        let n = 20_000usize;
        let map = SynapticMemoryMap::new(
            &[n],
            &ProtectionPolicy::Uniform6T,
            SubArrayDims::PAPER,
        );
        let rates = BitErrorRates {
            read_6t: p,
            write_6t: 0.0,
            read_8t: 0.0,
            write_8t: 0.0,
        };
        let model = WordFailureModel::new(&rates, &fault_inject::protection::CellAssignment::all_6t());
        let mut memory = ShardedMemory::new(map, vec![model], 2, 3);
        memory.load(&vec![0u8; n]);
        let (_, stats) = memory.corrupt_snapshot(seed);
        let expected = (n * 8) as f64 * p;
        let sigma = ((n * 8) as f64 * p * (1.0 - p)).sqrt();
        prop_assert!(
            ((stats.total() as f64) - expected).abs() < 6.0 * sigma,
            "flips {} vs expected {expected}",
            stats.total()
        );
    }

    /// The BIST weak-cell map is a pure function of (bank layout, fault
    /// rates, base seed, bist seed): bit-identical at every shard count
    /// and every worker count, for arbitrary layouts and seeds.
    #[test]
    fn bist_map_invariant_across_shards_and_workers(
        banks in prop::collection::vec(64usize..1500, 1..5),
        msb in 0usize..=3,
        write_p in 0.01f64..0.25,
        read_p in 0.0f64..0.05,
        base_seed in 0u64..1_000,
        bist_seed in 0u64..1_000,
    ) {
        let build = |shards: usize| {
            let policy = ProtectionPolicy::MsbProtected { msb_8t: msb };
            let map = SynapticMemoryMap::new(&banks, &policy, SubArrayDims::PAPER);
            let rates = BitErrorRates {
                read_6t: read_p,
                write_6t: write_p,
                read_8t: 0.0,
                write_8t: 0.0,
            };
            let models = (0..banks.len())
                .map(|b| WordFailureModel::new(&rates, &policy.assignment(b)))
                .collect();
            ShardedMemory::new(map, models, base_seed, shards)
        };
        let reference = run_bist(&build(1), bist_seed);
        for shards in [1usize, 2, 4, 7] {
            for workers in [1usize, 2, 4] {
                sram_exec::set_threads(workers);
                let report = run_bist(&build(shards), bist_seed);
                sram_exec::clear_threads();
                prop_assert_eq!(
                    &report, &reference,
                    "map diverged at {} shards / {} workers", shards, workers
                );
                prop_assert_eq!(report.digest(), reference.digest());
            }
        }
    }
}
