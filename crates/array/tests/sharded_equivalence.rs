//! Shard-equivalence property tests: for **any** shard count, seed, bank
//! layout, and access pattern, the sharded store is bit-identical to the
//! naive scalar [`oracle`] — stored images, read values, fault masks,
//! injection statistics, and access counts alike. This is the contract
//! that makes the shard count a pure throughput knob.

mod oracle;

use fault_inject::model::{BitErrorRates, WordFailureModel};
use fault_inject::protection::ProtectionPolicy;
use oracle::Oracle;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sram_array::organization::{SubArrayDims, SynapticMemoryMap};
use sram_array::sharded::ShardedMemory;

/// Bank layouts of `0..800` words per bank with at least one non-empty
/// bank. A quarter of the banks are forced empty: a uniform draw would
/// almost never produce a zero-word bank.
fn arb_banks() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec((0u8..4, 0usize..800), 1..5).prop_map(|draws| {
        let mut banks: Vec<usize> = draws
            .into_iter()
            .map(|(quarter, words)| if quarter == 0 { 0 } else { words })
            .collect();
        if banks.iter().all(|&words| words == 0) {
            banks[0] = 1;
        }
        banks
    })
}

fn arb_rates() -> impl Strategy<Value = BitErrorRates> {
    (0.0f64..0.3, 0.0f64..0.3).prop_map(|(read_6t, write_6t)| BitErrorRates {
        read_6t,
        write_6t,
        read_8t: 0.0,
        write_8t: 0.0,
    })
}

fn build_pair(
    banks: &[usize],
    msb_8t: usize,
    rates: &BitErrorRates,
    seed: u64,
    shards: usize,
) -> (Oracle, ShardedMemory) {
    // A different protected-MSB count per bank, so a read routed to the
    // wrong bank's model shows.
    let policy = ProtectionPolicy::PerBank {
        msb_8t: (0..banks.len()).map(|b| (msb_8t + b) % 9).collect(),
    };
    let map = SynapticMemoryMap::new(banks, &policy, SubArrayDims::PAPER);
    let models: Vec<WordFailureModel> = (0..banks.len())
        .map(|b| WordFailureModel::new(rates, &policy.assignment(b)))
        .collect();
    (
        Oracle::new(map.clone(), models.clone(), seed),
        ShardedMemory::new(map, models, seed, shards),
    )
}

/// Words `start..start + len` through the three production read calls
/// (observe, sample, bill): `(values, masks, fault bits)`.
fn read_span(
    memory: &ShardedMemory,
    start: usize,
    len: usize,
    rng: &mut StdRng,
) -> (Vec<u8>, Vec<u8>, u64) {
    let (mut values, mut masks) = (Vec::new(), vec![0u8; len]);
    memory.observe_range(start, len, &mut values);
    let fault_bits = memory.sample_read_masks(start, [(0, len)], rng, &mut masks);
    memory.charge_reads(start, len, 1);
    for (value, mask) in values.iter_mut().zip(&masks) {
        *value ^= mask;
    }
    (values, masks, fault_bits)
}

/// One word through [`read_span`]: `(value, mask)`.
fn read_word(memory: &ShardedMemory, index: usize, rng: &mut StdRng) -> (u8, u8) {
    let (values, masks, _) = read_span(memory, index, 1, rng);
    (values[0], masks[0])
}

proptest! {
    /// Loading any data through the faulty write path stores the same
    /// image at any shard count, with matching write counters.
    #[test]
    fn loads_are_shard_invariant(
        banks in arb_banks(),
        msb in 0usize..=8,
        rates in arb_rates(),
        seed in 0u64..1000,
        shards in 1usize..10,
        fill in any::<u8>(),
    ) {
        let (mut mono, mut sharded) = build_pair(&banks, msb, &rates, seed, shards);
        let total: usize = banks.iter().sum();
        let data: Vec<u8> = (0..total).map(|i| fill ^ (i as u8)).collect();
        mono.load(&data);
        sharded.load(&data);
        prop_assert_eq!(sharded.raw_image(), mono.image());
        prop_assert_eq!(sharded.counts(), mono.counts());
    }

    /// Any interleaving of reads and rewrites observes identical values,
    /// fault masks, and counters on both stores.
    #[test]
    fn access_patterns_are_shard_invariant(
        banks in arb_banks(),
        rates in arb_rates(),
        seed in 0u64..1000,
        shards in 1usize..10,
        pattern in prop::collection::vec((any::<u16>(), any::<bool>()), 1..60),
        rng_seed in 0u64..1000,
    ) {
        let (mut mono, mut sharded) = build_pair(&banks, 2, &rates, seed, shards);
        let total: usize = banks.iter().sum();
        let data: Vec<u8> = (0..total).map(|i| (i * 31) as u8).collect();
        mono.load(&data);
        sharded.load(&data);
        let mut rng_mono = StdRng::seed_from_u64(rng_seed);
        let mut rng_sharded = StdRng::seed_from_u64(rng_seed);
        for (raw_idx, read) in pattern {
            let idx = raw_idx as usize % total;
            if read {
                prop_assert_eq!(
                    mono.read_shared(idx, &mut rng_mono),
                    read_word(&sharded, idx, &mut rng_sharded)
                );
            } else {
                mono.write(idx, raw_idx as u8);
                sharded.write(idx, raw_idx as u8);
                prop_assert_eq!(mono.read_raw(idx), sharded.read_raw(idx));
            }
        }
        prop_assert_eq!(sharded.counts(), mono.counts());
    }

    /// Snapshot corruption and bulk reads produce identical images, fault
    /// accounting, and statistics at any shard count (and the sharded
    /// bank-parallel fan-out matches the oracle's sequential pass).
    #[test]
    fn bulk_operations_are_shard_invariant(
        banks in arb_banks(),
        msb in 0usize..=8,
        rates in arb_rates(),
        seed in 0u64..1000,
        shards in 1usize..10,
        sweep_seed in 0u64..1000,
    ) {
        let (mut mono, mut sharded) = build_pair(&banks, msb, &rates, seed, shards);
        let total: usize = banks.iter().sum();
        let data: Vec<u8> = (0..total).map(|i| (i * 7) as u8).collect();
        mono.load(&data);
        sharded.load(&data);
        let (snap_mono, stats_mono) = mono.corrupt_snapshot(sweep_seed);
        let (snap_sharded, stats_sharded) = sharded.corrupt_snapshot(sweep_seed);
        prop_assert_eq!(snap_sharded, snap_mono);
        prop_assert_eq!(stats_sharded, stats_mono);
        let (bulk_mono, faults_mono) = mono.read_bulk(sweep_seed ^ 0xB);
        let (bulk_sharded, faults_sharded) = sharded.read_bulk(sweep_seed ^ 0xB);
        prop_assert_eq!(bulk_sharded, bulk_mono);
        prop_assert_eq!(faults_sharded, faults_mono);
        prop_assert_eq!(sharded.counts(), mono.counts());
    }

    /// One span read over an arbitrary `(start, len)` span — straddling any
    /// number of bank and shard boundaries — is byte-for-byte the stream
    /// of `len` scalar `read_shared` calls on both stores: same values,
    /// same masks, same fault-bit total, same counters, and the caller's
    /// RNG ends in the same state.
    #[test]
    fn row_reads_replay_the_scalar_stream_across_boundaries(
        banks in arb_banks(),
        msb in 0usize..=8,
        rates in arb_rates(),
        seed in 0u64..1000,
        shards in 1usize..10,
        span in (any::<u16>(), any::<u16>()),
        rng_seed in 0u64..1000,
    ) {
        let (mut mono, mut sharded) = build_pair(&banks, msb, &rates, seed, shards);
        let total: usize = banks.iter().sum();
        let data: Vec<u8> = (0..total).map(|i| (i * 31) as u8).collect();
        mono.load(&data);
        sharded.load(&data);
        let start = span.0 as usize % total;
        let len = span.1 as usize % (total - start + 1);

        // Scalar reference: `len` read_shared calls against the oracle.
        let mut rng_scalar = StdRng::seed_from_u64(rng_seed);
        let mut scalar_words = Vec::with_capacity(len);
        let mut scalar_masks = Vec::with_capacity(len);
        let mut scalar_bits = 0u64;
        for i in start..start + len {
            let (value, mask) = mono.read_shared(i, &mut rng_scalar);
            scalar_words.push(value);
            scalar_masks.push(mask);
            scalar_bits += u64::from(mask.count_ones());
        }

        // One span read on the sharded store, same RNG seed.
        let mut rng_row = StdRng::seed_from_u64(rng_seed);
        let (words, masks, fault_bits) = read_span(&sharded, start, len, &mut rng_row);
        prop_assert_eq!(words, scalar_words);
        prop_assert_eq!(masks, scalar_masks);
        prop_assert_eq!(fault_bits, scalar_bits);
        prop_assert_eq!(rng_row, rng_scalar);
        prop_assert_eq!(sharded.counts(), mono.counts());
    }

    /// The batch datapath's mask sampler, one reader and four at once,
    /// replays each reader's scalar `read_shared` stream over spans taken
    /// in draw order — spans that bank boundaries cut, 1-word spans, and
    /// spans out of address order — and bills no reads.
    #[test]
    fn fault_sampler_spans_replay_the_scalar_stream(
        banks in arb_banks(),
        msb in 0usize..=8,
        rates in arb_rates(),
        shards in 1usize..10,
        spans in prop::collection::vec((any::<u16>(), 0usize..64), 0..12),
        rng_seeds in (0u64..1000, 0u64..1000, 0u64..1000, 0u64..1000),
    ) {
        let (mut mono, mut sharded) = build_pair(&banks, msb, &rates, 3, shards);
        let total: usize = banks.iter().sum();
        let data: Vec<u8> = (0..total).map(|i| (i * 29) as u8).collect();
        mono.load(&data);
        sharded.load(&data);
        let start = total / 3;
        let region = total - start;
        let spans: Vec<(usize, usize)> = spans
            .into_iter()
            .map(|(at, len)| {
                let at = at as usize % region;
                (at, len.min(region - at))
            })
            .collect();
        let seeds = [rng_seeds.0, rng_seeds.1, rng_seeds.2, rng_seeds.3];
        let mut want_rngs = seeds.map(StdRng::seed_from_u64);
        let mut want = vec![vec![0x5Au8; region]; 4];
        let mut want_bits = [0u64; 4];
        for ((lane, rng), bits) in want.iter_mut().zip(&mut want_rngs).zip(&mut want_bits) {
            for &(at, len) in &spans {
                for (k, slot) in lane[at..at + len].iter_mut().enumerate() {
                    let (_, mask) = mono.read_shared(start + at + k, rng);
                    *slot = mask;
                    *bits += u64::from(mask.count_ones());
                }
            }
        }
        let counts = sharded.counts();

        let mut rng = StdRng::seed_from_u64(seeds[0]);
        let mut one = vec![0x5Au8; region];
        let bits = sharded.sample_read_masks(start, spans.iter().copied(), &mut rng, &mut one);
        prop_assert_eq!(bits, want_bits[0]);
        prop_assert_eq!(&one, &want[0]);
        prop_assert_eq!(&rng, &want_rngs[0]);

        let mut rngs = seeds.map(StdRng::seed_from_u64);
        let mut got = vec![vec![0x5Au8; region]; 4];
        let [a, b, c, d] = &mut got[..] else { unreachable!() };
        let bits = sharded.sample_read_masks_x4(start, spans.iter().copied(), &mut rngs, [a, b, c, d]);
        prop_assert_eq!(bits, want_bits);
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(&rngs, &want_rngs);
        prop_assert_eq!(sharded.counts(), counts);
    }

    /// `charge_reads` bills exactly `len * copies` reads to exactly the
    /// shards that own the span, matching a word-by-word count over the
    /// shard ranges.
    #[test]
    fn charged_reads_match_scalar_accounting(
        banks in arb_banks(),
        shards in 1usize..10,
        span in (any::<u16>(), any::<u16>()),
        copies in 0usize..4,
    ) {
        let policy = ProtectionPolicy::Uniform6T;
        let map = SynapticMemoryMap::new(&banks, &policy, SubArrayDims::PAPER);
        let total = map.total_words();
        let models = vec![WordFailureModel::ideal(); banks.len()];
        let charged = ShardedMemory::new(map, models, 1, shards);
        let start = span.0 as usize % total;
        let len = span.1 as usize % (total - start + 1);
        charged.charge_reads(start, len, copies);
        let ranges = charged.shard_ranges();
        let expected: Vec<usize> = ranges
            .iter()
            .map(|r| {
                let owned = r.start..r.start + r.words;
                (start..start + len).filter(|i| owned.contains(i)).count() * copies
            })
            .collect();
        let billed: Vec<usize> = charged.shard_counts().iter().map(|c| c.reads).collect();
        prop_assert_eq!(billed, expected);
    }

    /// The shard partition itself is sound: ranges tile the address space
    /// and per-shard counters sum to the aggregate.
    #[test]
    fn shard_partition_is_sound(
        banks in arb_banks(),
        shards in 1usize..12,
        probes in prop::collection::vec(any::<u16>(), 1..20),
    ) {
        let policy = ProtectionPolicy::Uniform6T;
        let map = SynapticMemoryMap::new(&banks, &policy, SubArrayDims::PAPER);
        let total = map.total_words();
        let models = vec![WordFailureModel::ideal(); banks.len()];
        let memory = ShardedMemory::new(map, models, 1, shards);
        let ranges = memory.shard_ranges();
        prop_assert_eq!(ranges.len(), memory.shard_count());
        let mut next = 0usize;
        for r in &ranges {
            prop_assert_eq!(r.start, next);
            next += r.words;
        }
        prop_assert_eq!(next, total);
        let mut rng = StdRng::seed_from_u64(0);
        for raw in probes {
            let idx = raw as usize % total;
            let s = memory.shard_of(idx);
            prop_assert!(ranges[s].start <= idx && idx < ranges[s].start + ranges[s].words);
            read_word(&memory, idx, &mut rng);
        }
        let per_shard: usize = memory.shard_counts().iter().map(|c| c.reads).sum();
        prop_assert_eq!(per_shard, memory.counts().reads);
    }
}
