//! Online ECC scrubbing of a sharded synaptic store.
//!
//! The store keeps an [`EccSidecar`]: for every stored word, the 5 check
//! bits of the (13, 8) SECDED weight code
//! ([`SecdedCode::for_weights`](sram_ecc::hamming::SecdedCode::for_weights)),
//! compacted to one byte. Between serving batches the scrubber sweeps the
//! whole address space through the maintenance port: the observed image
//! (spare rows and stuck masks included, transient faults excluded) is
//! read in chunks of 4096 words — one copy per shard segment,
//! overlays applied once per chunk, no read counter bumped — and every
//! word is decoded with one lookup, `table[(observed << 5) | checks]`, in
//! an 8192-entry `(verdict, corrected byte)` table built once from
//! [`SecdedCode::decode`] itself, so it agrees with the decoder by
//! construction. Only corrected and uncorrectable words leave the lookup
//! loop. Single-bit upsets are corrected in place through the ordinary
//! faulty write path; words the write path cannot hold (persistent write
//! faults, stuck cells) come back *stubborn* and their rows are flagged
//! for spare-row repair, as are rows holding uncorrectable (≥ 2-flip)
//! words. Check bytes (at [`EccSidecar::protect`] and on every refresh)
//! come from a 256-entry table built from [`SecdedCode::encode`] and
//! [`SecdedCode::compact_checks`]. The word-at-a-time sweep (one
//! `read_raw` and one bitwise decode per word) is kept as the reference
//! in `tests/oracle/scrub.rs`; the `scrub_oracle` property tests pin the
//! two sweeps equal.
//!
//! The sidecar is built from the **post-load observed image** — the
//! reference the serving accuracy baseline is measured against — so a
//! scrub of a healthy store is a no-op: baseline write faults are part of
//! the protected image, not errors to heal. ECC protects against
//! *degradation after load* (retention failures, particle strikes, chaos
//! events), which is exactly the paper's separation between designed-in
//! approximation and uncontrolled failure.
//!
//! Scrubbing draws no randomness at all, so the outcome is a pure
//! function of the observed image and the sidecar — bit-identical at any
//! shard or worker count.

use crate::behavioral::streams;
use crate::sharded::ShardedMemory;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sram_ecc::hamming::{Decoded, SecdedCode};
use std::sync::OnceLock;

/// Words per maintenance-port read of a sweep: enough to amortize the
/// shard lookup and the overlay walk, few enough to stay cache-resident.
const SWEEP_CHUNK: usize = 4096;

/// Live bits of a compact check byte of the (13, 8) weight code.
const CHECK_BITS: u32 = 5;

/// Entries of the decode table: every byte against every check pattern.
const DECODE_ENTRIES: usize = 256 << CHECK_BITS;

fn weight_code() -> SecdedCode {
    SecdedCode::for_weights().expect("(13,8) weight code is always constructible")
}

/// What decoding one stored word concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Clean,
    Corrected,
    Uncorrectable,
}

/// One decode-table entry: the verdict and the decoded byte (the raw data
/// bits for an uncorrectable word).
#[derive(Debug, Clone, Copy)]
struct DecodeEntry {
    verdict: Verdict,
    data: u8,
}

/// The weight code's decoder over every `(observed byte, compact checks)`
/// pair, indexed `(observed << 5) | checks`.
fn decode_table() -> &'static [DecodeEntry; DECODE_ENTRIES] {
    static TABLE: OnceLock<Box<[DecodeEntry; DECODE_ENTRIES]>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let code = weight_code();
        assert_eq!(code.check_bits(), CHECK_BITS);
        let entries: Box<[DecodeEntry]> = (0..DECODE_ENTRIES as u64)
            .map(|index| {
                let received = code
                    .place_data(index >> CHECK_BITS)
                    .expect("byte payload is in range")
                    | code
                        .expand_checks(index & ((1 << CHECK_BITS) - 1))
                        .expect("compact checks are in range");
                let decoded = code.decode(received).expect("codeword is in range");
                let verdict = match decoded {
                    Decoded::Clean { .. } => Verdict::Clean,
                    Decoded::Corrected { .. } => Verdict::Corrected,
                    Decoded::Uncorrectable { .. } => Verdict::Uncorrectable,
                };
                DecodeEntry {
                    verdict,
                    data: decoded.data() as u8,
                }
            })
            .collect();
        entries.try_into().expect("one entry per index")
    })
}

/// Decodes one stored word against its compact check byte.
///
/// # Panics
///
/// Panics if `checks` has bits set above the live check bits.
fn decode_word(table: &[DecodeEntry; DECODE_ENTRIES], observed: u8, checks: u8) -> DecodeEntry {
    assert!(checks >> CHECK_BITS == 0, "compact checks are in range");
    table[usize::from(observed) << CHECK_BITS | usize::from(checks)]
}

/// The compact check byte of every byte's codeword, indexed by the byte.
fn check_table() -> &'static [u8; 256] {
    static TABLE: OnceLock<[u8; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let code = weight_code();
        std::array::from_fn(|data| {
            let word = code.encode(data as u64).expect("byte payload is in range");
            code.compact_checks(word).expect("own codeword is in range") as u8
        })
    })
}

/// The compacted SECDED check bits protecting every word of a store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EccSidecar {
    code: SecdedCode,
    /// One compact check byte (5 live bits) per protected word.
    checks: Vec<u8>,
}

impl EccSidecar {
    /// Builds the sidecar over the current observed image of `memory` —
    /// one check-table lookup per word, read in sweep-sized chunks through
    /// the maintenance port. Call after loading (and after any boot-time
    /// repair): the image protected is the image served.
    pub fn protect(memory: &ShardedMemory) -> Self {
        let table = check_table();
        let mut checks = Vec::with_capacity(memory.len());
        let mut observed = Vec::with_capacity(SWEEP_CHUNK.min(memory.len()));
        for start in (0..memory.len()).step_by(SWEEP_CHUNK) {
            memory.observe_range(start, SWEEP_CHUNK.min(memory.len() - start), &mut observed);
            checks.extend(observed.iter().map(|&byte| table[usize::from(byte)]));
        }
        Self {
            code: weight_code(),
            checks,
        }
    }

    /// The compact check byte of every protected word, in address order.
    pub fn checks(&self) -> &[u8] {
        &self.checks
    }

    /// The protecting code.
    pub fn code(&self) -> &SecdedCode {
        &self.code
    }

    /// Number of protected words.
    pub fn len(&self) -> usize {
        self.checks.len()
    }

    /// `true` when no words are protected.
    pub fn is_empty(&self) -> bool {
        self.checks.is_empty()
    }

    /// Flips each stored check bit of words `start..start + words` with
    /// probability `per_bit` — the sidecar lives in the same degrading
    /// silicon as the data. Keyed by `(seed, global word)` like
    /// [`ShardedMemory::corrupt_stored_range`], so the damage is identical
    /// at any shard count. Returns the number of flipped check bits.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or `per_bit` is not a
    /// probability.
    pub fn corrupt_checks(&mut self, start: usize, words: usize, seed: u64, per_bit: f64) -> u64 {
        assert!(
            start
                .checked_add(words)
                .is_some_and(|end| end <= self.checks.len()),
            "corruption range out of bounds"
        );
        assert!(
            (0.0..=1.0).contains(&per_bit) && per_bit.is_finite(),
            "per_bit = {per_bit} is not a probability"
        );
        if per_bit <= 0.0 {
            return 0;
        }
        let live = self.code.check_bits();
        let mut flipped = 0u64;
        for index in start..start + words {
            let mut rng = StdRng::seed_from_u64(streams::degrade_word_seed(seed, index));
            let mut mask = 0u8;
            for bit in 0..live {
                if rng.gen::<f64>() < per_bit {
                    mask |= 1 << bit;
                }
            }
            if mask != 0 {
                flipped += u64::from(mask.count_ones());
                self.checks[index] ^= mask;
            }
        }
        flipped
    }
}

/// Counters from one scrub sweep.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScrubOutcome {
    /// Words decoded (the whole store).
    pub words_scanned: usize,
    /// Words whose codeword decoded clean.
    pub clean_words: usize,
    /// Words with a corrected single-bit error (data or check bit).
    pub corrected_words: usize,
    /// Total corrected bits (1 per corrected word).
    pub corrected_bits: u64,
    /// Words whose codeword was detectably uncorrectable (≥ 2 flips).
    pub uncorrectable_words: usize,
    /// Corrective writes issued (fix mode only).
    pub rewrites: usize,
    /// Corrective writes the array refused to hold — the write-back read
    /// differently than written (persistent write faults, stuck cells).
    pub stubborn_words: usize,
    /// Row starts needing spare-row repair: rows holding uncorrectable or
    /// stubborn words, deduplicated, in address order.
    pub flagged_rows: Vec<usize>,
    /// Corrected bits attributed to each shard, in shard order — the
    /// per-shard BER signal the drowsy governor feeds on. Projection
    /// only; the global counters never depend on the shard layout.
    pub per_shard_corrected_bits: Vec<u64>,
}

impl ScrubOutcome {
    /// Corrected-bit error rate over the scanned data bits — the BER
    /// estimate fed back into retention-voltage policy.
    pub fn corrected_ber(&self) -> f64 {
        if self.words_scanned == 0 {
            return 0.0;
        }
        self.corrected_bits as f64 / (self.words_scanned as f64 * 8.0)
    }
}

/// Sweeps the whole store once, decoding every word against `sidecar`.
/// With `fix` set, corrected data is written back through the ordinary
/// (faulty) write path and verified, and corrupted check bits are
/// refreshed in the sidecar; without it the sweep only counts (the
/// bench/estimation mode). Rows that cannot be healed in place are
/// returned in [`ScrubOutcome::flagged_rows`] for the repair stage.
///
/// The store is read in 4096-word chunks through the
/// maintenance port (no read counter moves) and each word is decoded by
/// one table lookup; a write-back touches only its own word, so reading a
/// chunk ahead of its corrections observes exactly what a word-at-a-time
/// sweep would.
///
/// # Panics
///
/// Panics if `sidecar` does not cover `memory` exactly.
pub fn scrub_pass(memory: &mut ShardedMemory, sidecar: &mut EccSidecar, fix: bool) -> ScrubOutcome {
    assert_eq!(
        sidecar.len(),
        memory.len(),
        "sidecar must cover the store exactly"
    );
    let (decode, encode) = (decode_table(), check_table());
    let mut out = ScrubOutcome {
        words_scanned: memory.len(),
        per_shard_corrected_bits: vec![0u64; memory.shard_count()],
        ..ScrubOutcome::default()
    };
    let flag_row = |out: &mut ScrubOutcome, row_start: usize| {
        if out.flagged_rows.last() != Some(&row_start) {
            out.flagged_rows.push(row_start);
        }
    };
    let mut observed = Vec::with_capacity(SWEEP_CHUNK.min(memory.len()));
    for start in (0..memory.len()).step_by(SWEEP_CHUNK) {
        memory.observe_range(start, SWEEP_CHUNK.min(memory.len() - start), &mut observed);
        for (index, &byte) in (start..).zip(&observed) {
            let entry = decode_word(decode, byte, sidecar.checks[index]);
            match entry.verdict {
                Verdict::Clean => {}
                Verdict::Corrected => {
                    out.corrected_words += 1;
                    out.corrected_bits += 1;
                    out.per_shard_corrected_bits[memory.shard_of(index)] += 1;
                    if !fix {
                        continue;
                    }
                    let data = entry.data;
                    if data != byte {
                        memory.write(index, data);
                        out.rewrites += 1;
                        if memory.read_raw(index) != data {
                            out.stubborn_words += 1;
                            flag_row(&mut out, memory.row_span(index).0);
                        }
                    }
                    sidecar.checks[index] = encode[usize::from(data)];
                }
                Verdict::Uncorrectable => {
                    out.uncorrectable_words += 1;
                    flag_row(&mut out, memory.row_span(index).0);
                }
            }
        }
    }
    out.clean_words = out.words_scanned - out.corrected_words - out.uncorrectable_words;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::organization::{SubArrayDims, SynapticMemoryMap};
    use fault_inject::model::{BitErrorRates, WordFailureModel};
    use fault_inject::protection::ProtectionPolicy;

    fn loaded_memory(write_p: f64, shards: usize) -> ShardedMemory {
        let policy = ProtectionPolicy::Uniform6T;
        let map = SynapticMemoryMap::new(&[256], &policy, SubArrayDims::PAPER);
        let rates = BitErrorRates {
            read_6t: 0.0,
            write_6t: write_p,
            read_8t: 0.0,
            write_8t: 0.0,
        };
        let model = WordFailureModel::new(&rates, &policy.assignment(0));
        let mut m = ShardedMemory::new(map, vec![model], 23, shards);
        let data: Vec<u8> = (0..256).map(|i| i as u8).collect();
        m.load(&data);
        m
    }

    #[test]
    fn healthy_store_scrubs_clean() {
        // Even with baseline write faults in the image: the sidecar
        // protects the observed image, so nothing is an "error".
        let mut m = loaded_memory(0.05, 3);
        let mut sidecar = EccSidecar::protect(&m);
        let image = m.raw_image();
        let out = scrub_pass(&mut m, &mut sidecar, true);
        assert_eq!(out.clean_words, 256);
        assert_eq!(out.corrected_words, 0);
        assert_eq!(out.uncorrectable_words, 0);
        assert_eq!(out.rewrites, 0);
        assert!(out.flagged_rows.is_empty());
        assert_eq!(m.raw_image(), image, "no-op sweep leaves storage alone");
    }

    #[test]
    fn single_bit_upsets_are_corrected_in_place() {
        let mut m = loaded_memory(0.0, 2);
        let mut sidecar = EccSidecar::protect(&m);
        let reference = m.raw_image();
        // Flip one data bit in each of three words.
        for &i in &[5usize, 100, 200] {
            let v = m.read_raw(i);
            m.write(i, v ^ 0x10);
        }
        let out = scrub_pass(&mut m, &mut sidecar, true);
        assert_eq!(out.corrected_words, 3);
        assert_eq!(out.corrected_bits, 3);
        assert_eq!(out.rewrites, 3);
        assert_eq!(out.stubborn_words, 0);
        assert_eq!(out.uncorrectable_words, 0);
        assert_eq!(m.raw_image(), reference, "upsets healed");
        // Second sweep is clean.
        let again = scrub_pass(&mut m, &mut sidecar, true);
        assert_eq!(again.clean_words, 256);
    }

    #[test]
    fn corrupted_check_bits_are_refreshed_without_touching_data() {
        let mut m = loaded_memory(0.0, 2);
        let mut sidecar = EccSidecar::protect(&m);
        let image = m.raw_image();
        let flipped = sidecar.corrupt_checks(0, 256, 0x5EED, 0.02);
        assert!(flipped > 0);
        let out = scrub_pass(&mut m, &mut sidecar, true);
        assert!(out.corrected_words > 0);
        assert_eq!(out.rewrites, 0, "data was never wrong");
        assert_eq!(m.raw_image(), image);
        // Correctable (single-flip) check bytes were refreshed; words that
        // took two check flips stay uncorrectable until row repair.
        let again = scrub_pass(&mut m, &mut sidecar, true);
        assert_eq!(again.corrected_words, 0, "checks were refreshed");
        assert_eq!(again.clean_words + again.uncorrectable_words, 256);
        assert_eq!(again.uncorrectable_words, out.uncorrectable_words);
    }

    #[test]
    fn double_flips_flag_rows_instead_of_healing() {
        let mut m = loaded_memory(0.0, 2);
        let mut sidecar = EccSidecar::protect(&m);
        let v = m.read_raw(40);
        m.write(40, v ^ 0x21); // two data bits in one word
        let out = scrub_pass(&mut m, &mut sidecar, true);
        assert_eq!(out.uncorrectable_words, 1);
        assert_eq!(out.flagged_rows, vec![m.row_span(40).0]);
        assert_eq!(m.read_raw(40), v ^ 0x21, "uncorrectable words untouched");
    }

    #[test]
    fn stuck_words_come_back_stubborn_and_flagged() {
        let mut m = loaded_memory(0.0, 2);
        let mut sidecar = EccSidecar::protect(&m);
        // Stick one bit high in a word where the reference has it low.
        let victim = 64usize;
        assert_eq!(m.read_raw(victim) & 0x01, 0);
        m.inject_stuck_range(victim, 1, 0x01, 0xFF);
        let out = scrub_pass(&mut m, &mut sidecar, true);
        assert_eq!(out.corrected_words, 1);
        assert_eq!(out.stubborn_words, 1, "stuck bits defeat the write-back");
        assert_eq!(out.flagged_rows, vec![m.row_span(victim).0]);
    }

    #[test]
    fn outcome_is_invariant_across_shard_counts() {
        let run = |shards: usize| {
            let mut m = loaded_memory(0.0, shards);
            let mut sidecar = EccSidecar::protect(&m);
            m.corrupt_stored_range(0, 256, 0xBAD, 0.004);
            sidecar.corrupt_checks(0, 256, 0xC0DE, 0.004);
            let out = scrub_pass(&mut m, &mut sidecar, true);
            (out, m.raw_image())
        };
        let (reference, image) = run(1);
        assert!(reference.corrected_words > 0, "corruption must register");
        for shards in [2usize, 4, 7] {
            let (out, img) = run(shards);
            assert_eq!(out.words_scanned, reference.words_scanned);
            assert_eq!(out.clean_words, reference.clean_words);
            assert_eq!(out.corrected_words, reference.corrected_words);
            assert_eq!(out.corrected_bits, reference.corrected_bits);
            assert_eq!(out.uncorrectable_words, reference.uncorrectable_words);
            assert_eq!(out.rewrites, reference.rewrites);
            assert_eq!(out.stubborn_words, reference.stubborn_words);
            assert_eq!(out.flagged_rows, reference.flagged_rows);
            assert_eq!(
                out.per_shard_corrected_bits.iter().sum::<u64>(),
                reference.corrected_bits
            );
            assert_eq!(img, image, "{shards}-shard healed image");
        }
    }

    #[test]
    fn code_tables_match_the_decoder_on_every_input() {
        let code = weight_code();
        let table = decode_table();
        let mut tally = [0usize; 3];
        for observed in 0..=255u8 {
            for checks in 0..1u8 << CHECK_BITS {
                let received = code.place_data(u64::from(observed)).unwrap()
                    | code.expand_checks(u64::from(checks)).unwrap();
                let want = match code.decode(received).unwrap() {
                    Decoded::Clean { data } => (Verdict::Clean, data),
                    Decoded::Corrected { data, .. } => (Verdict::Corrected, data),
                    Decoded::Uncorrectable { raw_data } => (Verdict::Uncorrectable, raw_data),
                };
                let entry = decode_word(table, observed, checks);
                assert_eq!(
                    (entry.verdict, u64::from(entry.data)),
                    want,
                    "observed {observed:#04x}, checks {checks:#04x}"
                );
                tally[entry.verdict as usize] += 1;
            }
        }
        // Distance 4: each codeword and its 13 single-flip neighbours are
        // recoverable, every other received word is a detected error.
        assert_eq!(tally, [256, 256 * 13, 8192 - 256 * 14]);
        for data in 0..=255u8 {
            let word = code.encode(u64::from(data)).unwrap();
            let expect = code.compact_checks(word).unwrap();
            assert_eq!(u64::from(check_table()[usize::from(data)]), expect);
        }
    }

    #[test]
    #[should_panic(expected = "compact checks are in range")]
    fn check_bytes_beyond_the_live_bits_panic() {
        let mut m = loaded_memory(0.0, 2);
        let mut sidecar = EccSidecar::protect(&m);
        // 0xFF would still index inside the table (observed << 5 | 0xFF
        // tops out at 8191), so only the range check can catch it.
        sidecar.checks[7] = 0xFF;
        scrub_pass(&mut m, &mut sidecar, false);
    }

    #[test]
    fn corrected_ber_scales_with_corrected_bits() {
        let out = ScrubOutcome {
            words_scanned: 1000,
            corrected_bits: 40,
            ..ScrubOutcome::default()
        };
        assert!((out.corrected_ber() - 40.0 / 8000.0).abs() < 1e-15);
        assert_eq!(ScrubOutcome::default().corrected_ber(), 0.0);
    }
}
