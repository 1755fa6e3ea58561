//! A deliberately naive scalar model of the synaptic store, the reference
//! the sharded production store is checked against.
//!
//! It restates the address-keyed randomness contract (see
//! `sram_array::behavioral`) one word and one bit at a time, from nothing
//! but the public stream seeds, the scalar fault samplers of
//! `fault_inject::injector`, and `SynapticMemoryMap::locate`. It has no
//! row path, no integer draw thresholds, no write-lane interleave, no
//! ideal-bank shortcuts, and no bank fan-out, so it shares no fast path
//! with the code under test.
//!
//! Its [`scrub`] submodule holds the word-at-a-time ECC scrub sweep, the
//! reference for the production sweep.
//!
//! Integration tests include it with `mod oracle;`; the crate's unit tests
//! include the same file through the crate's own name.

#![allow(dead_code)]

pub mod scrub;

use fault_inject::injector::{geometric_indices, sample_read_mask, InjectionStats};
use fault_inject::model::{WordFailureModel, WORD_BITS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sram_array::behavioral::{streams, AccessCounts};
use sram_array::organization::SynapticMemoryMap;

/// One flat array of words with per-bank failure models.
#[derive(Debug, Clone)]
pub struct Oracle {
    map: SynapticMemoryMap,
    models: Vec<WordFailureModel>,
    seed: u64,
    words: Vec<u8>,
    counts: AccessCounts,
}

impl Oracle {
    /// A zero-filled store whose fault streams are rooted at `seed`.
    pub fn new(map: SynapticMemoryMap, models: Vec<WordFailureModel>, seed: u64) -> Self {
        let words = vec![0u8; map.total_words()];
        Self {
            map,
            models,
            seed,
            words,
            counts: AccessCounts::default(),
        }
    }

    fn model_of(&self, index: usize) -> &WordFailureModel {
        &self.models[self.map.locate(index).bank]
    }

    /// Stores `value ^ write mask`, the mask keyed by the logical address.
    pub fn write(&mut self, index: usize, value: u8) {
        let addr = self.map.locate(index);
        let mask = streams::write_mask(&self.models[addr.bank], self.seed, addr.bank, addr.offset);
        self.words[index] = value ^ mask;
        self.counts.writes += 1;
    }

    /// Writes `data` word by word from word 0.
    pub fn load(&mut self, data: &[u8]) {
        for (index, &value) in data.iter().enumerate() {
            self.write(index, value);
        }
    }

    /// A request read: the mask comes from the caller's RNG.
    pub fn read_shared<R: Rng + ?Sized>(&mut self, index: usize, rng: &mut R) -> (u8, u8) {
        let mask = sample_read_mask(self.model_of(index), rng);
        self.counts.reads += 1;
        (self.words[index] ^ mask, mask)
    }

    /// The stored word, without read faults.
    pub fn read_raw(&self, index: usize) -> u8 {
        self.words[index]
    }

    /// The stored image.
    pub fn image(&self) -> &[u8] {
        &self.words
    }

    /// Accesses served so far.
    pub fn counts(&self) -> AccessCounts {
        self.counts
    }

    /// Reads every word once: each bank draws per-word masks from its own
    /// `(seed, bank)` bulk stream. Returns the image and the fault-bit count.
    pub fn read_bulk(&mut self, seed: u64) -> (Vec<u8>, u64) {
        let mut image = Vec::with_capacity(self.words.len());
        let mut fault_bits = 0u64;
        let mut index = 0usize;
        for (bank, b) in self.map.banks().iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(streams::bulk_bank_seed(seed, bank));
            for _ in 0..b.words {
                let mask = sample_read_mask(&self.models[bank], &mut rng);
                fault_bits += u64::from(mask.count_ones());
                image.push(self.words[index] ^ mask);
                index += 1;
            }
        }
        self.counts.reads += self.words.len();
        (image, fault_bits)
    }

    /// The stored image corrupted once: each bank walks its bits in order
    /// on its own `(seed, bank)` stream, flipping geometric-skip offsets.
    pub fn corrupt_snapshot(&self, seed: u64) -> (Vec<u8>, InjectionStats) {
        let mut image = self.words.clone();
        let mut stats = InjectionStats::default();
        let mut bank_start = 0usize;
        for (bank, b) in self.map.banks().iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(streams::snapshot_bank_seed(seed, bank));
            for bit in 0..WORD_BITS {
                let p = self.models[bank].read_probability(bit);
                if p <= 0.0 {
                    continue;
                }
                for offset in geometric_indices(b.words, p, &mut rng) {
                    image[bank_start + offset] ^= 1 << bit;
                    stats.flips_per_bit[bit] += 1;
                    stats.read_flips += 1;
                }
            }
            bank_start += b.words;
        }
        (image, stats)
    }
}
