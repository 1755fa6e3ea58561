//! The fault-stream contract of the synaptic store, and the per-bank fault
//! kernels that implement it.
//!
//! The store is a functional model of the on-chip weight memory: bytes in,
//! bytes out, with the reliability of the configured cells at the
//! configured voltage. It offers two injection modes, which the
//! `per_access_vs_snapshot` ablation test compares:
//!
//! * **Per-access** ([`ShardedMemory::sample_read_masks`] and its
//!   four-reader form, which the controller's batch datapath draws every
//!   request's reads through): every read samples fresh read-fault bits —
//!   the physically faithful model, and the one serving runs.
//! * **Snapshot** ([`ShardedMemory::corrupt_snapshot`]): one corruption
//!   pass over the stored image, the way the paper's functional simulator
//!   perturbs the weight matrix before an evaluation run.
//!
//! Write failures are always persistent: they corrupt the stored byte at
//! write time.
//!
//! # The address-keyed randomness contract
//!
//! Every internally drawn fault bit is a pure function of *logical*
//! coordinates, never of storage layout:
//!
//! * **write faults** are keyed by `(base seed, bank, offset)` — rewriting
//!   a word replays the same weak-cell failure pattern, and bulk loads can
//!   be split across any partition of the address space without changing a
//!   single stored bit;
//! * **snapshot corruption** is keyed by `(snapshot seed, bank)` — one
//!   independent stream per bank, so banks can corrupt in parallel;
//! * **request reads** ([`ShardedMemory::sample_read_masks`]) draw from a
//!   caller-provided RNG — the serving layer owns the randomness, one
//!   stream per request.
//!
//! This contract is what makes the bank-parallel [`ShardedMemory`]
//! bit-identical at any shard count: no stream ever crosses an
//! address-range boundary. The seeds live in [`streams`]. The store's
//! fast kernels (integer draw thresholds, interleaved write lanes, the
//! four-lane AVX2 read sampler) live in the crate-private `BankModels`;
//! the integration tests check them
//! against a naive scalar oracle built from [`streams`] and the scalar
//! samplers of `fault_inject::injector` alone.
//!
//! [`ShardedMemory`]: crate::sharded::ShardedMemory
//! [`ShardedMemory::sample_read_masks`]: crate::sharded::ShardedMemory::sample_read_masks
//! [`ShardedMemory::corrupt_snapshot`]: crate::sharded::ShardedMemory::corrupt_snapshot

use crate::organization::WordAddress;
use fault_inject::injector::{geometric_indices, sample_read_mask, InjectionStats};
use fault_inject::model::{WordFailureModel, WORD_BITS};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use sram_exec::derive_seed;

/// Seed-stream derivation shared by the store, the BIST march, and the
/// test oracle.
///
/// Domain constants keep the write, bulk-read, BIST and degradation
/// streams of one base seed disjoint; each stream is then expanded per logical
/// coordinate with [`sram_exec::derive_seed`].
pub mod streams {
    use fault_inject::model::{WordFailureModel, WORD_BITS};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sram_exec::derive_seed;

    /// Domain tag of the per-word write-fault streams.
    const DOMAIN_WRITE: u64 = 0x0057_5249_5445_u64; // "WRITE"
    /// Domain tag of the per-bank bulk-read streams.
    const DOMAIN_BULK: u64 = 0x4255_4C4Bu64; // "BULK"
    /// Domain tag of the per-bank BIST read streams.
    const DOMAIN_BIST: u64 = 0x4249_5354u64; // "BIST"
    /// Domain tag of the per-word degradation (chaos corruption) streams.
    const DOMAIN_DEGRADE: u64 = 0x4445_4752u64; // "DEGR"

    /// Seed of the write-fault stream of word `(bank, offset)`: a pure
    /// function of the logical address, so loads split across shards (or
    /// replayed in any order) corrupt identically.
    pub fn word_write_seed(base_seed: u64, bank: usize, offset: usize) -> u64 {
        derive_seed(
            derive_seed(derive_seed(base_seed, DOMAIN_WRITE), bank as u64),
            offset as u64,
        )
    }

    /// Seed of `bank`'s snapshot-corruption stream for one
    /// `corrupt_snapshot(seed)` pass.
    pub fn snapshot_bank_seed(snapshot_seed: u64, bank: usize) -> u64 {
        derive_seed(snapshot_seed, bank as u64)
    }

    /// Seed of `bank`'s stream for one `read_bulk(seed)` sweep.
    pub fn bulk_bank_seed(bulk_seed: u64, bank: usize) -> u64 {
        derive_seed(derive_seed(bulk_seed, DOMAIN_BULK), bank as u64)
    }

    /// Seed of `bank`'s read stream for pass `pass` of one BIST march
    /// rooted at `bist_seed`. Keyed purely by logical coordinates, so the
    /// weak-cell map a march produces is invariant under sharding and
    /// worker count like every other stream.
    pub fn bist_pass_seed(bist_seed: u64, bank: usize, pass: usize) -> u64 {
        derive_seed(
            derive_seed(derive_seed(bist_seed, DOMAIN_BIST), bank as u64),
            pass as u64,
        )
    }

    /// Seed of global word `index`'s stream for one chaos degradation
    /// event rooted at `event_seed` — persistent corruption keyed by the
    /// global address, never by shard layout.
    pub fn degrade_word_seed(event_seed: u64, index: usize) -> u64 {
        derive_seed(derive_seed(event_seed, DOMAIN_DEGRADE), index as u64)
    }

    /// Seed of the `(base seed, bank)` write-fault stream family — the two
    /// outer derivations of [`word_write_seed`], hoisted so bulk row loads
    /// do one derivation per word instead of three.
    pub fn bank_write_seed(base_seed: u64, bank: usize) -> u64 {
        derive_seed(derive_seed(base_seed, DOMAIN_WRITE), bank as u64)
    }

    /// The persistent write-fault mask of word `(bank, offset)` under
    /// `model`: bit i of the result is set when storing bit i fails.
    /// Deterministic — the same weak cell corrupts every rewrite.
    pub fn write_mask(model: &WordFailureModel, base_seed: u64, bank: usize, offset: usize) -> u8 {
        let mut rng = StdRng::seed_from_u64(word_write_seed(base_seed, bank, offset));
        let mut mask = 0u8;
        for bit in 0..WORD_BITS {
            let p = model.write_probability(bit);
            if p > 0.0 && rng.gen::<f64>() < p {
                mask |= 1 << bit;
            }
        }
        mask
    }
}

/// `2⁵³` as an `f64` — the scale of the workspace RNG's 53-bit uniform
/// draw `(next_u64() >> 11) · 2⁻⁵³`.
const F64_DRAW_SCALE: f64 = (1u64 << 53) as f64;

/// The integer comparison threshold that replays `rng.gen::<f64>() < p`
/// exactly: the 53-bit draw `x = next_u64() >> 11` is an exact integer,
/// scaling it by `2⁻⁵³` is exact, and an integer is below a real threshold
/// iff it is below that threshold's ceiling, so
/// `x · 2⁻⁵³ < p  ⟺  x < ceil(p · 2⁵³)` bit-for-bit. Multiplying a
/// probability in `[0, 1]` by a power of two is itself exact in `f64`, so
/// the precomputed threshold carries no rounding at all.
fn draw_threshold(p: f64) -> u64 {
    debug_assert!((0.0..=1.0).contains(&p));
    (p * F64_DRAW_SCALE).ceil() as u64
}

/// The active fault bits of one bank for one access direction: `(bit mask,
/// integer draw threshold)` per bit with positive probability, in bit
/// order — exactly the bits (and the order) the scalar per-bit sampling
/// loops draw for.
type ActiveBits = Vec<(u8, u64)>;

fn active_bits(probability: impl Fn(usize) -> f64) -> ActiveBits {
    (0..WORD_BITS)
        .filter_map(|bit| {
            let p = probability(bit);
            (p > 0.0).then(|| (1u8 << bit, draw_threshold(p)))
        })
        .collect()
}

/// Access counters for energy accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessCounts {
    /// Number of word reads served.
    pub reads: usize,
    /// Number of word writes served.
    pub writes: usize,
}

impl AccessCounts {
    /// Component-wise sum (used to aggregate per-shard counters).
    pub fn merged(self, other: AccessCounts) -> AccessCounts {
        AccessCounts {
            reads: self.reads + other.reads,
            writes: self.writes + other.writes,
        }
    }
}

/// Per-bank fault-model state of the sharded store and the BIST march:
/// the failure models plus pre-resolved "does this bank fault at all"
/// flags, so ideal banks skip RNG construction entirely on the hot paths.
#[derive(Debug, Clone)]
pub(crate) struct BankModels {
    pub(crate) models: Vec<WordFailureModel>,
    /// `true` when the bank's model can corrupt a write.
    write_faulty: Vec<bool>,
    /// `true` when the bank's model can corrupt a read.
    read_faulty: Vec<bool>,
    /// Per-bank integer draw thresholds for read faults, active bits only.
    read_thresholds: Vec<ActiveBits>,
    /// Per-bank integer draw thresholds for write faults, active bits only.
    write_thresholds: Vec<ActiveBits>,
    /// `true` when any bank can corrupt a read.
    any_read_faulty: bool,
}

impl BankModels {
    pub(crate) fn new(models: Vec<WordFailureModel>) -> Self {
        let read_thresholds: Vec<ActiveBits> = models
            .iter()
            .map(|m| active_bits(|b| m.read_probability(b)))
            .collect();
        let write_thresholds: Vec<ActiveBits> = models
            .iter()
            .map(|m| active_bits(|b| m.write_probability(b)))
            .collect();
        let write_faulty: Vec<bool> = write_thresholds.iter().map(|t| !t.is_empty()).collect();
        let read_faulty: Vec<bool> = read_thresholds.iter().map(|t| !t.is_empty()).collect();
        let any_read_faulty = read_faulty.iter().any(|&f| f);
        Self {
            models,
            write_faulty,
            read_faulty,
            read_thresholds,
            write_thresholds,
            any_read_faulty,
        }
    }

    /// `true` when no bank can corrupt a read — reads then draw zero
    /// randomness and return stored bytes verbatim.
    pub(crate) fn read_fault_free(&self) -> bool {
        !self.any_read_faulty
    }

    /// Samples read-fault masks for `out.len()` consecutive words of
    /// `bank` from `rng`, filling `out` and returning the number of set
    /// fault bits.
    ///
    /// Draw-for-draw identical to `out.len()` calls of
    /// [`sample_read_mask`] against the bank's model: one 53-bit draw per
    /// active bit per word, in bit order, compared against the
    /// [`draw_threshold`] integer image of `rng.gen::<f64>() < p`. Banks
    /// with no faulting bits consume no randomness at all, exactly like
    /// the scalar path.
    pub(crate) fn sample_read_masks_into<R: Rng + ?Sized>(
        &self,
        bank: usize,
        rng: &mut R,
        out: &mut [u8],
    ) -> u64 {
        if !self.read_faulty[bank] {
            out.fill(0);
            return 0;
        }
        let bits = &self.read_thresholds[bank];
        let mut fault_bits = 0u64;
        for slot in out.iter_mut() {
            let mut mask = 0u8;
            for &(bit_mask, threshold) in bits {
                if (rng.next_u64() >> 11) < threshold {
                    mask |= bit_mask;
                }
            }
            fault_bits += u64::from(mask.count_ones());
            *slot = mask;
        }
        fault_bits
    }

    /// Samples read-fault masks for four requests at once: lane `r` draws
    /// from `rngs[r]`, and each `(bank, at, len)` piece, taken in the
    /// order given, fills `out[r][at..at + len]`. Returns each lane's
    /// number of set fault bits.
    ///
    /// Lane `r` is draw-for-draw identical to calling
    /// [`sample_read_masks_into`](Self::sample_read_masks_into)`(bank,
    /// &mut rngs[r], &mut out[r][at..at + len])` for every piece in turn:
    /// same masks, same count, same end state of `rngs[r]`. On an x86_64
    /// CPU with AVX2 the four streams run as the lanes of one register;
    /// everywhere else the scalar sampler runs once per lane.
    pub(crate) fn sample_read_masks_x4<I>(
        &self,
        pieces: I,
        rngs: &mut [StdRng; 4],
        out: [&mut [u8]; 4],
    ) -> [u64; 4]
    where
        I: Iterator<Item = (usize, usize, usize)> + Clone,
    {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU supports AVX2, the only feature the kernel
            // is compiled for.
            return unsafe { self.sample_read_masks_avx2(pieces, rngs, out) };
        }
        let mut out = out;
        std::array::from_fn(|r| {
            pieces
                .clone()
                .map(|(bank, at, len)| {
                    self.sample_read_masks_into(bank, &mut rngs[r], &mut out[r][at..at + len])
                })
                .sum()
        })
    }

    /// The AVX2 body of [`sample_read_masks_x4`](Self::sample_read_masks_x4):
    /// the four xoshiro256++ states live in four registers of four `u64`
    /// lanes each for the whole call, one lane per request. Each draw is
    /// compared against the active bit's threshold with a signed 64-bit
    /// compare (both sides are below `2⁶³`), and the four lane verdicts
    /// are spread into the lanes' mask bytes through a 16-entry table.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn sample_read_masks_avx2<I>(
        &self,
        pieces: I,
        rngs: &mut [StdRng; 4],
        out: [&mut [u8]; 4],
    ) -> [u64; 4]
    where
        I: Iterator<Item = (usize, usize, usize)>,
    {
        use std::arch::x86_64::{_mm256_set_epi64x, _mm256_setzero_si256, _mm256_storeu_si256};
        let states = rngs.each_ref().map(StdRng::state);
        // Register k holds word k of every lane's state, lane r in the
        // r-th 64-bit element.
        let mut lanes = std::array::from_fn(|k| {
            _mm256_set_epi64x(
                states[3][k] as i64,
                states[2][k] as i64,
                states[1][k] as i64,
                states[0][k] as i64,
            )
        });
        let mut hits = _mm256_setzero_si256();
        let [o0, o1, o2, o3] = out;
        for (bank, at, len) in pieces {
            let bits = &self.read_thresholds[bank];
            let span = at..at + len;
            let piece = [
                &mut o0[span.clone()],
                &mut o1[span.clone()],
                &mut o2[span.clone()],
                &mut o3[span],
            ];
            let state = (&mut lanes, &mut hits);
            match bits.len() {
                0 => piece.into_iter().for_each(|p| p.fill(0)),
                1 => masks_avx2::<1>(bits, state, piece),
                2 => masks_avx2::<2>(bits, state, piece),
                3 => masks_avx2::<3>(bits, state, piece),
                4 => masks_avx2::<4>(bits, state, piece),
                5 => masks_avx2::<5>(bits, state, piece),
                6 => masks_avx2::<6>(bits, state, piece),
                7 => masks_avx2::<7>(bits, state, piece),
                _ => masks_avx2::<8>(bits, state, piece),
            }
        }
        let mut words = [[0u64; 4]; 4];
        let mut counts = [0u64; 4];
        // SAFETY: each store writes 32 bytes into a `[u64; 4]`; `storeu`
        // has no alignment requirement.
        unsafe {
            for (word, lane) in words.iter_mut().zip(lanes) {
                _mm256_storeu_si256(word.as_mut_ptr().cast(), lane);
            }
            _mm256_storeu_si256(counts.as_mut_ptr().cast(), hits);
        }
        for (r, rng) in rngs.iter_mut().enumerate() {
            *rng = StdRng::from_state(words.map(|word| word[r]));
        }
        counts
    }

    /// XORs the persistent write-fault masks of the consecutive words
    /// `offset_start..offset_start + words.len()` of `bank` into `words`.
    ///
    /// Byte-identical to calling [`streams::write_mask`] per word: each
    /// word's mask comes from its own address-keyed `StdRng`, so the
    /// four-lane interleave below is unobservable — it only converts the
    /// serial seed→draw chain into four independent chains the CPU can
    /// overlap. The outer two seed derivations are hoisted into
    /// [`streams::bank_write_seed`] (one derivation per word, not three).
    pub(crate) fn xor_write_masks(
        &self,
        base_seed: u64,
        bank: usize,
        offset_start: usize,
        words: &mut [u8],
    ) {
        if !self.write_faulty[bank] {
            return;
        }
        let bits = &self.write_thresholds[bank];
        let bank_seed = streams::bank_write_seed(base_seed, bank);
        let word_rng = |offset: usize| StdRng::seed_from_u64(derive_seed(bank_seed, offset as u64));
        let mut offset = offset_start;
        let mut chunks = words.chunks_exact_mut(8);
        for chunk in &mut chunks {
            let mut lanes = [
                word_rng(offset),
                word_rng(offset + 1),
                word_rng(offset + 2),
                word_rng(offset + 3),
                word_rng(offset + 4),
                word_rng(offset + 5),
                word_rng(offset + 6),
                word_rng(offset + 7),
            ];
            for &(bit_mask, threshold) in bits {
                for (lane, word) in lanes.iter_mut().zip(chunk.iter_mut()) {
                    if (lane.next_u64() >> 11) < threshold {
                        *word ^= bit_mask;
                    }
                }
            }
            offset += 8;
        }
        for word in chunks.into_remainder() {
            let mut rng = word_rng(offset);
            for &(bit_mask, threshold) in bits {
                if (rng.next_u64() >> 11) < threshold {
                    *word ^= bit_mask;
                }
            }
            offset += 1;
        }
    }

    /// The write-fault mask of word `(bank, offset)` (0 for ideal banks,
    /// without touching an RNG).
    pub(crate) fn write_mask(&self, base_seed: u64, addr: WordAddress) -> u8 {
        if !self.write_faulty[addr.bank] {
            return 0;
        }
        streams::write_mask(&self.models[addr.bank], base_seed, addr.bank, addr.offset)
    }

    /// One bank's snapshot-corruption pass: flips `(offset, bit)` pairs in
    /// `bank_words` words with the bank's per-bit read probabilities, on
    /// the bank's own `(snapshot seed, bank)` stream.
    pub(crate) fn snapshot_bank_flips(
        &self,
        snapshot_seed: u64,
        bank: usize,
        bank_words: usize,
    ) -> (Vec<(usize, u8)>, InjectionStats) {
        let mut flips = Vec::new();
        let mut stats = InjectionStats::default();
        if !self.read_faulty[bank] {
            return (flips, stats);
        }
        let mut rng = StdRng::seed_from_u64(streams::snapshot_bank_seed(snapshot_seed, bank));
        let model = &self.models[bank];
        for bit in 0..WORD_BITS {
            let p = model.read_probability(bit);
            if p <= 0.0 {
                continue;
            }
            for off in geometric_indices(bank_words, p, &mut rng) {
                flips.push((off, 1 << bit));
                stats.flips_per_bit[bit] += 1;
                stats.read_flips += 1;
            }
        }
        (flips, stats)
    }

    /// One bank's slice of a bulk faulty read: word `off` of the bank is
    /// `src(off) ^ mask`, with per-word masks drawn from the bank's own
    /// `(bulk seed, bank)` stream. Returns the read-out bytes plus the
    /// number of injected fault bits.
    pub(crate) fn bulk_read_bank(
        &self,
        bulk_seed: u64,
        bank: usize,
        bank_words: usize,
        src: impl Fn(usize) -> u8,
    ) -> (Vec<u8>, u64) {
        let mut out = Vec::with_capacity(bank_words);
        let mut fault_bits = 0u64;
        if !self.read_faulty[bank] {
            out.extend((0..bank_words).map(src));
            return (out, fault_bits);
        }
        let mut rng = StdRng::seed_from_u64(streams::bulk_bank_seed(bulk_seed, bank));
        let model = &self.models[bank];
        for off in 0..bank_words {
            let mask = sample_read_mask(model, &mut rng);
            fault_bits += u64::from(mask.count_ones());
            out.push(src(off) ^ mask);
        }
        (out, fault_bits)
    }
}

/// Nibble → lane bytes: byte `r` of `NIBBLE_SPREAD[n]` is `0xFF` when bit
/// `r` of `n` is set, so one `movemask` of four lane verdicts becomes the
/// four lanes' byte masks without a branch.
#[cfg(target_arch = "x86_64")]
const NIBBLE_SPREAD: [u32; 16] = {
    let mut table = [0u32; 16];
    let mut n = 0;
    while n < 16 {
        let mut lane = 0;
        while lane < 4 {
            if n >> lane & 1 == 1 {
                table[n] |= 0xFF << (8 * lane);
            }
            lane += 1;
        }
        n += 1;
    }
    table
};

/// One piece of the four-lane sampler for a bank with `N` active bits:
/// per word, `N` four-lane xoshiro256++ steps in bit order, each lane's
/// verdict `(next_u64() >> 11) < threshold` OR-ed into that lane's mask
/// byte and counted into `hits`. `N` is a constant so the bit loop
/// unrolls and every threshold stays in a register.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn masks_avx2<const N: usize>(
    bits: &[(u8, u64)],
    (lanes, hits): (
        &mut [std::arch::x86_64::__m256i; 4],
        &mut std::arch::x86_64::__m256i,
    ),
    out: [&mut [u8]; 4],
) {
    use std::arch::x86_64::{
        _mm256_add_epi64, _mm256_castsi256_pd, _mm256_cmpgt_epi64, _mm256_movemask_pd,
        _mm256_or_si256, _mm256_set1_epi64x, _mm256_slli_epi64, _mm256_srli_epi64,
        _mm256_sub_epi64, _mm256_xor_si256,
    };
    let bits: &[(u8, u64); N] = bits.try_into().expect("one threshold per active bit");
    let thresholds = bits.map(|(_, threshold)| _mm256_set1_epi64x(threshold as i64));
    let bit_bytes = bits.map(|(bit_mask, _)| u32::from(bit_mask) * 0x0101_0101);
    let [mut s0, mut s1, mut s2, mut s3] = *lanes;
    let mut count = *hits;
    let [o0, o1, o2, o3] = out;
    let words = o0
        .iter_mut()
        .zip(o1.iter_mut())
        .zip(o2.iter_mut())
        .zip(o3.iter_mut());
    for (((w0, w1), w2), w3) in words {
        let mut masks = 0u32;
        for k in 0..N {
            // xoshiro256++ `next_u64`, lane-wise (AVX2 has no 64-bit
            // rotate, so each rotate is two shifts and an OR).
            let sum = _mm256_add_epi64(s0, s3);
            let rotated =
                _mm256_or_si256(_mm256_slli_epi64::<23>(sum), _mm256_srli_epi64::<41>(sum));
            let draw = _mm256_add_epi64(rotated, s0);
            let t = _mm256_slli_epi64::<17>(s1);
            s2 = _mm256_xor_si256(s2, s0);
            s3 = _mm256_xor_si256(s3, s1);
            s1 = _mm256_xor_si256(s1, s2);
            s0 = _mm256_xor_si256(s0, s3);
            s2 = _mm256_xor_si256(s2, t);
            s3 = _mm256_or_si256(_mm256_slli_epi64::<45>(s3), _mm256_srli_epi64::<19>(s3));
            // All-ones in every lane whose 53-bit draw is below threshold.
            let hit = _mm256_cmpgt_epi64(thresholds[k], _mm256_srli_epi64::<11>(draw));
            count = _mm256_sub_epi64(count, hit);
            let nibble = _mm256_movemask_pd(_mm256_castsi256_pd(hit)) as usize & 0xF;
            masks |= NIBBLE_SPREAD[nibble] & bit_bytes[k];
        }
        [*w0, *w1, *w2, *w3] = masks.to_le_bytes();
    }
    *lanes = [s0, s1, s2, s3];
    *hits = count;
}

#[cfg(test)]
mod tests {
    //! The contract's observable properties, checked on the store that
    //! implements it (split over several shards, which nothing may notice).
    use super::*;
    use crate::organization::{SubArrayDims, SynapticMemoryMap};
    use crate::sharded::ShardedMemory;
    use fault_inject::model::BitErrorRates;
    use fault_inject::protection::{CellAssignment, ProtectionPolicy};

    const SHARDS: usize = 3;

    fn ideal_memory(words: usize) -> ShardedMemory {
        let map =
            SynapticMemoryMap::new(&[words], &ProtectionPolicy::Uniform6T, SubArrayDims::PAPER);
        ShardedMemory::new(map, vec![WordFailureModel::ideal()], 1, SHARDS)
    }

    fn faulty_memory(words: usize, read_p: f64, write_p: f64, protected: usize) -> ShardedMemory {
        let map = SynapticMemoryMap::new(
            &[words],
            &ProtectionPolicy::MsbProtected { msb_8t: protected },
            SubArrayDims::PAPER,
        );
        let model = WordFailureModel::new(
            &BitErrorRates {
                read_6t: read_p,
                write_6t: write_p,
                read_8t: 0.0,
                write_8t: 0.0,
            },
            &CellAssignment::msb_protected(protected),
        );
        ShardedMemory::new(map, vec![model], 7, SHARDS)
    }

    /// Words `start..start + len` through the three production read calls
    /// (observe, sample, bill); returns the faulted values.
    fn read_span(m: &ShardedMemory, start: usize, len: usize, rng: &mut StdRng) -> Vec<u8> {
        let (mut values, mut masks) = (Vec::new(), vec![0u8; len]);
        m.observe_range(start, len, &mut values);
        m.sample_read_masks(start, [(0, len)], rng, &mut masks);
        m.charge_reads(start, len, 1);
        values.iter().zip(&masks).map(|(v, k)| v ^ k).collect()
    }

    /// Every word of `m` read once, in address order, on a fresh RNG.
    fn read_all(m: &ShardedMemory, seed: u64) -> Vec<u8> {
        read_span(m, 0, m.len(), &mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn ideal_memory_round_trips() {
        let mut m = ideal_memory(128);
        let data: Vec<u8> = (0..128).map(|i| (i * 7) as u8).collect();
        m.load(&data);
        assert_eq!(read_all(&m, 0), data);
        assert_eq!(m.counts().reads, 128);
        assert_eq!(m.counts().writes, 128);
    }

    #[test]
    fn read_faults_are_transient() {
        let mut m = faulty_memory(2000, 0.2, 0.0, 0);
        m.load(&vec![0u8; 2000]);
        // Stored content never changes even though reads glitch.
        for seed in 0..2 {
            let seen = read_all(&m, seed);
            assert!(
                seen.iter().any(|&w| w != 0),
                "20% read fault rate must show up"
            );
            assert_eq!(m.raw_image(), vec![0u8; 2000], "storage must stay clean");
        }
    }

    #[test]
    fn write_faults_are_persistent() {
        let mut m = faulty_memory(3000, 0.0, 0.3, 0);
        m.load(&vec![0u8; 3000]);
        let corrupted = (0..3000).filter(|&i| m.read_raw(i) != 0).count();
        assert!(corrupted > 0, "30% write fault rate must corrupt storage");
        // Reads are exact now (no read faults configured).
        let seen = read_all(&m, 0).iter().filter(|&&w| w != 0).count();
        assert_eq!(seen, corrupted);
    }

    #[test]
    fn write_faults_are_address_keyed() {
        // Rewriting a word replays the same weak-cell mask; loading in a
        // different order corrupts identically.
        let mut a = faulty_memory(500, 0.0, 0.25, 0);
        a.load(&vec![0u8; 500]);
        let image_a: Vec<u8> = (0..500).map(|i| a.read_raw(i)).collect();
        let mut b = faulty_memory(500, 0.0, 0.25, 0);
        for i in (0..500).rev() {
            b.write(i, 0);
        }
        let image_b: Vec<u8> = (0..500).map(|i| b.read_raw(i)).collect();
        assert_eq!(image_a, image_b, "write faults must not depend on order");
        // Rewriting leaves the corruption unchanged.
        a.write(3, 0);
        assert_eq!(a.read_raw(3), image_a[3]);
    }

    #[test]
    fn protected_msbs_survive() {
        let mut m = faulty_memory(4000, 0.3, 0.3, 3);
        m.load(&vec![0u8; 4000]);
        let seen = read_all(&m, 0);
        assert!(seen.iter().any(|&w| w != 0), "the 6T LSBs must fault");
        for (i, w) in seen.into_iter().enumerate() {
            assert_eq!(w & 0xE0, 0, "protected MSBs of word {i} must never flip");
        }
    }

    #[test]
    fn snapshot_leaves_storage_untouched_and_reports_stats() {
        let mut m = faulty_memory(5000, 0.05, 0.0, 0);
        m.load(&vec![0xFFu8; 5000]);
        let (image, stats) = m.corrupt_snapshot(99);
        assert_eq!(image.len(), 5000);
        assert!(stats.total() > 0);
        let diff = image
            .iter()
            .enumerate()
            .filter(|(i, &b)| b != m.read_raw(*i))
            .count();
        assert!(diff > 0);
        // Expected flips: 5000 words * 8 bits * 0.05 = 2000, allow wide band.
        let total = stats.total() as f64;
        assert!((1500.0..2500.0).contains(&total), "flips {total}");
    }

    #[test]
    fn snapshot_is_deterministic_per_seed() {
        let mut m = faulty_memory(1000, 0.02, 0.0, 1);
        m.load(&vec![0xA5u8; 1000]);
        let (a, sa) = m.corrupt_snapshot(5);
        let (b, sb) = m.corrupt_snapshot(5);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
    }

    #[test]
    fn shared_reads_sample_exactly_the_callers_stream() {
        // The batch path's mask sampler must draw exactly the masks the
        // scalar `sample_read_mask` walk of each word's bank model draws
        // from a twin RNG, bill nothing, and never touch storage.
        let mut m = faulty_memory(512, 0.15, 0.0, 2);
        m.load(&(0..=255).cycle().take(512).collect::<Vec<u8>>());
        let stored = m.raw_image();
        let mut rng = StdRng::seed_from_u64(1234);
        let mut rng_twin = StdRng::seed_from_u64(1234);
        let mut masks = vec![0u8; 512];
        let fault_bits = m.sample_read_masks(0, [(0, 512)], &mut rng, &mut masks);
        let mut expect_bits = 0u64;
        for (i, &mask) in masks.iter().enumerate() {
            let expected = sample_read_mask(&m.models()[m.map().locate(i).bank], &mut rng_twin);
            assert_eq!(mask, expected, "mask {i}");
            assert_eq!(mask & 0xC0, 0, "protected MSBs");
            expect_bits += u64::from(expected.count_ones());
        }
        assert_eq!(fault_bits, expect_bits);
        assert!(fault_bits > 0, "15% read faults must show up");
        assert_eq!(rng, rng_twin, "RNG streams must stay in lockstep");
        assert_eq!(m.counts().reads, 0, "sampling bills no read");
        assert_eq!(m.raw_image(), stored, "sampling never mutates storage");
    }

    #[test]
    fn row_reads_replay_the_scalar_shared_stream() {
        // A row read must be byte-for-byte the stream of `len` scalar
        // reads of the naive oracle: same values, same masks, same counter
        // advance, same RNG state afterwards.
        let mut m = faulty_memory(512, 0.15, 0.05, 2);
        let data: Vec<u8> = (0..=255).cycle().take(512).collect();
        m.load(&data);
        let mut scalar = crate::oracle::Oracle::new(m.map().clone(), m.models().to_vec(), 7);
        scalar.load(&data);
        let mut row_rng = StdRng::seed_from_u64(0xD00D);
        let mut scalar_rng = StdRng::seed_from_u64(0xD00D);
        let mut words = Vec::new();
        let mut masks = Vec::new();
        for (start, len) in [(0usize, 512usize), (3, 17), (500, 12), (7, 0)] {
            let fault_bits = m.read_row_shared(start, len, &mut row_rng, &mut words, &mut masks);
            let mut expect_bits = 0u64;
            for (k, i) in (start..start + len).enumerate() {
                let (value, mask) = scalar.read_shared(i, &mut scalar_rng);
                assert_eq!(words[k], value, "word {i}");
                assert_eq!(masks[k], mask, "mask {i}");
                expect_bits += u64::from(mask.count_ones());
            }
            assert_eq!(fault_bits, expect_bits);
            assert_eq!(words.len(), len);
            assert_eq!(masks.len(), len);
        }
        assert_eq!(row_rng, scalar_rng, "RNG streams must stay in lockstep");
        assert_eq!(m.counts(), scalar.counts());
    }

    #[test]
    fn row_reads_on_ideal_banks_draw_no_randomness() {
        let mut m = ideal_memory(64);
        m.load(&[0x5Au8; 64]);
        let mut rng = StdRng::seed_from_u64(9);
        let pristine = rng.clone();
        let mut words = Vec::new();
        let mut masks = Vec::new();
        let fault_bits = m.read_row_shared(0, 64, &mut rng, &mut words, &mut masks);
        assert_eq!(fault_bits, 0);
        assert_eq!(words, vec![0x5Au8; 64]);
        assert_eq!(masks, vec![0u8; 64]);
        assert_eq!(rng, pristine, "fault-free banks must not consume draws");
        assert!(m.read_fault_free());
    }

    #[test]
    fn shared_reads_count_across_threads() {
        let mut m = faulty_memory(64, 0.1, 0.0, 0);
        m.load(&[0x3Cu8; 64]);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let m = &m;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(t);
                    for i in 0..64 {
                        read_span(m, i, 1, &mut rng);
                    }
                });
            }
        });
        assert_eq!(m.counts().reads, 4 * 64);
        assert_eq!(m.counts().writes, 64);
    }

    /// Bank models whose read thresholds are exactly `read_thresholds`
    /// (one list per bank), including thresholds no probability maps to.
    fn with_read_thresholds(read_thresholds: Vec<ActiveBits>) -> BankModels {
        let mut models = BankModels::new(vec![WordFailureModel::ideal(); read_thresholds.len()]);
        models.read_faulty = read_thresholds.iter().map(|t| !t.is_empty()).collect();
        models.any_read_faulty = models.read_faulty.iter().any(|&f| f);
        models.read_thresholds = read_thresholds;
        models
    }

    /// The AVX2 sampler called directly, so it is checked even where
    /// `sample_read_masks_x4` would pick the scalar path; `None` on a CPU
    /// without AVX2.
    fn avx2_x4(
        models: &BankModels,
        pieces: &[(usize, usize, usize)],
        rngs: &mut [StdRng; 4],
        out: [&mut [u8]; 4],
    ) -> Option<[u64; 4]> {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU supports AVX2.
            return Some(unsafe {
                models.sample_read_masks_avx2(pieces.iter().copied(), rngs, out)
            });
        }
        let _ = (models, pieces, rngs, out);
        None
    }

    /// Lane by lane, the scalar oracle: `sample_read_masks_into` over every
    /// piece in order on that lane's RNG.
    fn scalar_x4(
        models: &BankModels,
        pieces: &[(usize, usize, usize)],
        rngs: &mut [StdRng; 4],
        out: &mut [Vec<u8>; 4],
    ) -> [u64; 4] {
        std::array::from_fn(|r| {
            pieces
                .iter()
                .map(|&(bank, at, len)| {
                    models.sample_read_masks_into(bank, &mut rngs[r], &mut out[r][at..at + len])
                })
                .sum()
        })
    }

    /// A random sampler problem from `seed`: nine banks, bank `k` with `k`
    /// active bits (every count 0..=8 in every case) at edge-case and
    /// random thresholds; draw-order pieces grouped into rows that a bank
    /// boundary may cut in two, plus 1-word bias rows; rows placed in the
    /// output in shuffled order with gaps; four lane RNGs (sometimes two
    /// sharing a state).
    #[allow(clippy::type_complexity)]
    fn sampler_problem(seed: u64) -> (BankModels, Vec<(usize, usize, usize)>, usize, [StdRng; 4]) {
        use rand::seq::SliceRandom;
        let mut rng = StdRng::seed_from_u64(seed);
        const TOP: u64 = 1 << 53;
        let thresholds: Vec<ActiveBits> = (0..=WORD_BITS)
            .map(|k| {
                let mut positions: Vec<u8> = (0..WORD_BITS as u8).collect();
                positions.shuffle(&mut rng);
                positions.truncate(k);
                positions.sort_unstable();
                positions
                    .into_iter()
                    .map(|bit| {
                        let threshold = match rng.gen_range(0..8u32) {
                            0 => 0,
                            1 => 1,
                            2 => TOP - 1,
                            3 => TOP,
                            4 => TOP - rng.gen_range(1..1024u64),
                            5 => rng.gen_range(0..=TOP),
                            _ => (rng.gen_range(0.0..0.3f64) * TOP as f64) as u64,
                        };
                        (1u8 << bit, threshold)
                    })
                    .collect()
            })
            .collect();
        let banks = thresholds.len();
        // Rows in draw order: each 1-3 pieces long (a bank cut), or a
        // 1-word bias.
        let rows: Vec<Vec<(usize, usize)>> = (0..rng.gen_range(1..24usize))
            .map(|_| {
                if rng.gen_bool(0.3) {
                    vec![(rng.gen_range(0..banks), 1)]
                } else {
                    (0..rng.gen_range(1..=3usize))
                        .map(|_| (rng.gen_range(0..banks), rng.gen_range(0..48usize)))
                        .collect()
                }
            })
            .collect();
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.shuffle(&mut rng);
        let mut row_at = vec![0usize; rows.len()];
        let mut words = 0usize;
        for &i in &order {
            words += rng.gen_range(0..3usize);
            row_at[i] = words;
            words += rows[i].iter().map(|&(_, len)| len).sum::<usize>();
        }
        let pieces = rows
            .iter()
            .zip(&row_at)
            .flat_map(|(row, &at)| {
                row.iter().scan(at, |at, &(bank, len)| {
                    *at += len;
                    Some((bank, *at - len, len))
                })
            })
            .collect();
        let mut rngs: [StdRng; 4] = std::array::from_fn(|_| StdRng::seed_from_u64(rng.gen()));
        if rng.gen_bool(0.2) {
            rngs[3] = rngs[1].clone();
        }
        (with_read_thresholds(thresholds), pieces, words + 2, rngs)
    }

    proptest::proptest! {
        /// Four lanes of the AVX2 sampler equal four scalar runs: masks
        /// (and untouched gap words), fault-bit counts, and end RNG states.
        #[test]
        fn fault_sampler_lanes_match_four_scalar_runs(seed in proptest::prelude::any::<u64>()) {
            let (models, pieces, words, rngs) = sampler_problem(seed);
            let mut want_rngs = rngs.clone();
            let mut want = std::array::from_fn(|_| vec![0xA5u8; words]);
            let want_bits = scalar_x4(&models, &pieces, &mut want_rngs, &mut want);
            let mut got_rngs = rngs.clone();
            let mut got: [Vec<u8>; 4] = std::array::from_fn(|_| vec![0xA5u8; words]);
            let [a, b, c, d] = &mut got;
            let dispatched = models.sample_read_masks_x4(
                pieces.iter().copied(),
                &mut got_rngs,
                [a, b, c, d],
            );
            proptest::prop_assert_eq!(dispatched, want_bits);
            proptest::prop_assert_eq!(&got, &want);
            proptest::prop_assert_eq!(&got_rngs, &want_rngs);
            let mut got_rngs = rngs.clone();
            let mut got: [Vec<u8>; 4] = std::array::from_fn(|_| vec![0xA5u8; words]);
            let [a, b, c, d] = &mut got;
            if let Some(bits) = avx2_x4(&models, &pieces, &mut got_rngs, [a, b, c, d]) {
                proptest::prop_assert_eq!(bits, want_bits);
                proptest::prop_assert_eq!(&got, &want);
                proptest::prop_assert_eq!(&got_rngs, &want_rngs);
            }
        }
    }

    #[test]
    fn fault_sampler_edge_thresholds_hit_never_and_always() {
        // Threshold 0 never faults, 2^53 always does; both still draw.
        let models = with_read_thresholds(vec![vec![(0x01, 0), (0x80, 1 << 53)]]);
        let mut rngs: [StdRng; 4] = std::array::from_fn(|r| StdRng::seed_from_u64(r as u64));
        let mut want_rngs = rngs.clone();
        for rng in &mut want_rngs {
            for _ in 0..2 * 33 {
                rng.next_u64();
            }
        }
        let mut out: [Vec<u8>; 4] = std::array::from_fn(|_| vec![0u8; 33]);
        let [a, b, c, d] = &mut out;
        let bits = models.sample_read_masks_x4([(0, 0, 33)].into_iter(), &mut rngs, [a, b, c, d]);
        assert_eq!(bits, [33; 4]);
        assert!(out.iter().all(|lane| lane.iter().all(|&m| m == 0x80)));
        assert_eq!(rngs, want_rngs);
    }

    #[test]
    #[should_panic(expected = "data exceeds capacity")]
    fn overload_panics() {
        let mut m = ideal_memory(4);
        m.load(&[0; 5]);
    }

    #[test]
    #[should_panic(expected = "one failure model per bank")]
    fn model_count_mismatch_panics() {
        let map =
            SynapticMemoryMap::new(&[10, 10], &ProtectionPolicy::Uniform6T, SubArrayDims::PAPER);
        let _ = ShardedMemory::new(map, vec![WordFailureModel::ideal()], 0, SHARDS);
    }
}
