//! Scrub-sweep equivalence: the production sweep (`scrub_pass`: chunked
//! maintenance-port reads, table decode) must match the word-at-a-time
//! reference sweep in the test [`oracle`] on every observable — the full
//! `ScrubOutcome` (flagged-row order and per-shard corrected bits
//! included), the stored image, the spare-row contents, the refreshed
//! sidecar and the per-shard access counters.
//!
//! Stores hold 1-4 banks of up to 4000 words at 1, 2 or 4 shards, so a
//! sweep crosses several chunk boundaries and rarely ends on one. Each
//! store carries write faults (so a write-back can fail), stuck spans and
//! spare-row repairs installed both before the sidecar is built and after
//! (so corrections land in spares and on stuck cells), and corrupted data
//! and check bits.

mod oracle;

use fault_inject::model::{BitErrorRates, WordFailureModel};
use fault_inject::protection::ProtectionPolicy;
use oracle::scrub::scrub_reference;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sram_array::organization::{SubArrayDims, SynapticMemoryMap};
use sram_array::scrub::{scrub_pass, EccSidecar};
use sram_array::sharded::{ShardedMemory, StuckRange};

/// Non-overlapping stuck spans in address order, each forcing one bit
/// high and another low.
fn stuck_spans(rng: &mut StdRng, len: usize, count: usize) -> Vec<StuckRange> {
    let mut spans = Vec::new();
    let mut cursor = 0usize;
    for _ in 0..count {
        let start = cursor + rng.gen_range(0..=len / (count + 1));
        let words = rng.gen_range(1usize..=80);
        if start + words > len {
            break;
        }
        spans.push(StuckRange {
            start,
            words,
            or_mask: 1 << rng.gen_range(0u32..8),
            and_mask: !(1 << rng.gen_range(0u32..8)),
        });
        cursor = start + words;
    }
    spans
}

/// Remaps `count` random rows onto spares holding random bytes.
fn repair_rows(memory: &mut ShardedMemory, rng: &mut StdRng, count: usize) {
    for _ in 0..count {
        let (start, words) = memory.row_span(rng.gen_range(0..memory.len()));
        let spare: Vec<u8> = (0..words).map(|_| rng.gen()).collect();
        memory.repair_row(start, &spare);
    }
}

/// A loaded, protected and then degraded store, built from `seed`.
fn degraded_store(
    banks: &[usize],
    shards: usize,
    write_p: f64,
    data_p: f64,
    check_p: f64,
    seed: u64,
) -> (ShardedMemory, EccSidecar) {
    let policy = ProtectionPolicy::Uniform6T;
    let map = SynapticMemoryMap::new(banks, &policy, SubArrayDims::PAPER);
    let rates = BitErrorRates {
        read_6t: 0.0,
        write_6t: write_p,
        read_8t: 0.0,
        write_8t: 0.0,
    };
    let models = (0..banks.len())
        .map(|b| WordFailureModel::new(&rates, &policy.assignment(b)))
        .collect();
    let mut memory = ShardedMemory::new(map, models, seed, shards);
    let len = memory.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
    memory.load(&data);

    let span_count = rng.gen_range(0usize..8);
    let spans = stuck_spans(&mut rng, len, span_count);
    let (boot, late) = spans.split_at(spans.len() / 2);
    for s in boot {
        memory.inject_stuck_range(s.start, s.words, s.or_mask, s.and_mask);
    }
    let boot_repairs = rng.gen_range(0usize..4);
    repair_rows(&mut memory, &mut rng, boot_repairs);

    let mut sidecar = EccSidecar::protect(&memory);

    memory.corrupt_stored_range(0, len, seed ^ 0xDA7A, data_p);
    sidecar.corrupt_checks(0, len, seed ^ 0xC3EC, check_p);
    for s in late {
        memory.inject_stuck_range(s.start, s.words, s.or_mask, s.and_mask);
    }
    let late_repairs = rng.gen_range(0usize..4);
    repair_rows(&mut memory, &mut rng, late_repairs);
    (memory, sidecar)
}

fn observed_image(memory: &ShardedMemory) -> Vec<u8> {
    (0..memory.len()).map(|i| memory.read_raw(i)).collect()
}

proptest! {
    /// Two consecutive sweeps (the second over the first's repairs and
    /// refreshed checks) match the reference sweep on every observable,
    /// and neither moves a read counter.
    #[test]
    fn scrub_pass_matches_the_per_word_reference(
        banks in prop::collection::vec(1usize..4000, 1..5),
        shards in (0u32..3).prop_map(|k| 1usize << k),
        fix in any::<bool>(),
        write_p in 0.0f64..0.2,
        data_p in 0.0f64..0.03,
        check_p in 0.0f64..0.03,
        seed in any::<u64>(),
    ) {
        let (mut memory, mut sidecar) =
            degraded_store(&banks, shards, write_p, data_p, check_p, seed);
        let mut reference = memory.clone();
        let mut checks = sidecar.checks().to_vec();
        for sweep in 0..2 {
            let before = memory.shard_counts();
            let got = scrub_pass(&mut memory, &mut sidecar, fix);
            let want = scrub_reference(&mut reference, &mut checks, fix);
            prop_assert_eq!(&got, &want, "sweep {}", sweep);
            prop_assert_eq!(memory.raw_image(), reference.raw_image());
            prop_assert_eq!(observed_image(&memory), observed_image(&reference));
            prop_assert_eq!(sidecar.checks(), &checks[..]);
            let after = memory.shard_counts();
            prop_assert_eq!(&after, &reference.shard_counts());
            for (b, a) in before.iter().zip(&after) {
                prop_assert_eq!(b.reads, a.reads, "a sweep bills no reads");
            }
            if !fix {
                prop_assert_eq!(&after, &before);
            }
        }
    }
}
