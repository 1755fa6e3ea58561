//! Deterministic bit-flip injection into word arrays.
//!
//! Works on raw `u8` synaptic words so it stays independent of the network
//! representation; the system level maps quantized layers onto word arrays.
//! For the small probabilities that matter here, per-word Bernoulli sampling
//! wastes almost every draw, so flips are placed by geometric skip sampling:
//! the gap between successive flipped words of a given bit position is
//! geometrically distributed.

use crate::model::{WordFailureModel, WORD_BITS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What caused an injected flip (the paper treats the two mechanisms as
/// mutually exclusive per bit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlipKind {
    /// Wrong value latched while storing the weight.
    WriteFailure,
    /// Wrong value returned while reading the weight.
    ReadFailure,
}

/// Statistics of one injection pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InjectionStats {
    /// Flips per bit position (index 0 = LSB).
    pub flips_per_bit: [usize; WORD_BITS],
    /// Flips attributed to write failures.
    pub write_flips: usize,
    /// Flips attributed to read failures.
    pub read_flips: usize,
}

impl InjectionStats {
    /// Total number of injected flips.
    pub fn total(&self) -> usize {
        self.flips_per_bit.iter().sum()
    }

    /// Merges another pass into this one.
    pub fn merge(&mut self, other: &InjectionStats) {
        for (a, b) in self.flips_per_bit.iter_mut().zip(&other.flips_per_bit) {
            *a += b;
        }
        self.write_flips += other.write_flips;
        self.read_flips += other.read_flips;
    }
}

/// Yields the indices in `0..n` selected with independent probability `p`,
/// via geometric gap sampling — O(expected flips), not O(n).
pub fn geometric_indices<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Vec<usize> {
    assert!((0.0..=1.0).contains(&p) && p.is_finite(), "p = {p}");
    if p <= 0.0 || n == 0 {
        return Vec::new();
    }
    if p >= 1.0 {
        return (0..n).collect();
    }
    // ln_1p keeps precision for tiny p: (1.0 - 1e-18) rounds to exactly 1.0,
    // whose log is 0 and would turn "almost never" into "every single word".
    let ln_q = (-p).ln_1p();
    let mut out = Vec::new();
    let mut idx = 0usize;
    loop {
        // Gap ~ Geometric(p): floor(ln(U) / ln(1-p)).
        let u: f64 = 1.0 - rng.gen::<f64>();
        let gap = (u.ln() / ln_q).floor() as usize;
        idx = match idx.checked_add(gap) {
            Some(v) => v,
            None => break,
        };
        if idx >= n {
            break;
        }
        out.push(idx);
        idx += 1;
    }
    out
}

/// Injects a snapshot of stored-then-read faults into `words`, flipping each
/// bit with its model probability (write and read failures disjoint, per the
/// paper). Returns the injection statistics.
///
/// Deterministic for a given seed.
pub fn corrupt_words(words: &mut [u8], model: &WordFailureModel, seed: u64) -> InjectionStats {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stats = InjectionStats::default();
    for bit in 0..WORD_BITS {
        let p_write = model.write_probability(bit);
        let p_read = model.read_probability(bit);
        let p_total = (p_write + p_read).min(1.0);
        if p_total <= 0.0 {
            continue;
        }
        let write_share = if p_total > 0.0 {
            p_write / p_total
        } else {
            0.0
        };
        for idx in geometric_indices(words.len(), p_total, &mut rng) {
            words[idx] ^= 1 << bit;
            stats.flips_per_bit[bit] += 1;
            // Attribute the flip to one mechanism (mutually exclusive).
            if rng.gen::<f64>() < write_share {
                stats.write_flips += 1;
            } else {
                stats.read_flips += 1;
            }
        }
    }
    stats
}

/// Samples a read-fault mask for a *single* word access (used by the
/// per-access behavioral memory model). Bit i of the result is set when the
/// read of bit i failed.
pub fn sample_read_mask<R: Rng + ?Sized>(model: &WordFailureModel, rng: &mut R) -> u8 {
    let mut mask = 0u8;
    for bit in 0..WORD_BITS {
        let p = model.read_probability(bit);
        if p > 0.0 && rng.gen::<f64>() < p {
            mask |= 1 << bit;
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::BitErrorRates;
    use crate::protection::CellAssignment;

    fn model(read: f64, write: f64, protected: usize) -> WordFailureModel {
        WordFailureModel::new(
            &BitErrorRates {
                read_6t: read,
                write_6t: write,
                read_8t: 0.0,
                write_8t: 0.0,
            },
            &CellAssignment::msb_protected(protected),
        )
    }

    #[test]
    fn geometric_indices_match_bernoulli_statistics() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 200_000;
        let p = 0.01;
        let picks = geometric_indices(n, p, &mut rng);
        let rate = picks.len() as f64 / n as f64;
        assert!(
            (rate - p).abs() < 0.15 * p,
            "empirical rate {rate} vs p {p}"
        );
        // Sorted and unique by construction.
        for w in picks.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn geometric_edge_cases() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(geometric_indices(100, 0.0, &mut rng).is_empty());
        assert_eq!(geometric_indices(5, 1.0, &mut rng), vec![0, 1, 2, 3, 4]);
        assert!(geometric_indices(0, 0.5, &mut rng).is_empty());
    }

    #[test]
    fn vanishing_probability_never_floods() {
        // Regression: p = 1e-18 underflows (1 - p) to 1.0; the sampler must
        // treat it as "practically never", not "always".
        let mut rng = StdRng::seed_from_u64(2);
        let picks = geometric_indices(1_000_000, 1e-18, &mut rng);
        assert!(picks.is_empty(), "got {} flips", picks.len());
    }

    #[test]
    fn zero_probability_means_no_corruption() {
        let mut words = vec![0xABu8; 1000];
        let stats = corrupt_words(&mut words, &WordFailureModel::ideal(), 7);
        assert_eq!(stats.total(), 0);
        assert!(words.iter().all(|&w| w == 0xAB));
    }

    #[test]
    fn certain_probability_flips_every_bit() {
        let mut words = vec![0x00u8; 64];
        let m = model(1.0, 0.0, 0);
        let stats = corrupt_words(&mut words, &m, 3);
        assert!(words.iter().all(|&w| w == 0xFF));
        assert_eq!(stats.total(), 64 * 8);
        assert_eq!(stats.read_flips, 64 * 8);
        assert_eq!(stats.write_flips, 0);
    }

    #[test]
    fn protected_msbs_never_flip() {
        let mut words = vec![0x00u8; 5000];
        let m = model(0.05, 0.02, 3);
        let stats = corrupt_words(&mut words, &m, 11);
        assert!(stats.total() > 0, "unprotected bits must flip");
        for bit in 5..8 {
            assert_eq!(stats.flips_per_bit[bit], 0, "MSB {bit} must be protected");
        }
        for &w in &words {
            assert_eq!(w & 0xE0, 0, "protected MSBs must stay clear");
        }
    }

    #[test]
    fn injection_is_deterministic() {
        let m = model(0.03, 0.01, 2);
        let mut a = vec![0x5Au8; 2000];
        let mut b = vec![0x5Au8; 2000];
        let sa = corrupt_words(&mut a, &m, 99);
        let sb = corrupt_words(&mut b, &m, 99);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        let mut c = vec![0x5Au8; 2000];
        let sc = corrupt_words(&mut c, &m, 100);
        // A different seed is allowed to (and in practice does) differ.
        let _ = sc;
        assert_eq!(c.len(), a.len());
    }

    #[test]
    fn mechanism_attribution_follows_rates() {
        let m = model(0.02, 0.02, 0); // 50/50 split
        let mut words = vec![0u8; 100_000];
        let stats = corrupt_words(&mut words, &m, 5);
        let total = (stats.read_flips + stats.write_flips) as f64;
        let read_share = stats.read_flips as f64 / total;
        assert!(
            (read_share - 0.5).abs() < 0.05,
            "read share {read_share} should be near 0.5"
        );
    }

    #[test]
    fn read_mask_sampling_respects_protection() {
        let m = model(0.5, 0.0, 4);
        let mut rng = StdRng::seed_from_u64(17);
        let mut any = 0u8;
        for _ in 0..200 {
            any |= sample_read_mask(&m, &mut rng);
        }
        assert_eq!(any & 0xF0, 0, "protected bits never fault");
        assert_ne!(any & 0x0F, 0, "unprotected bits fault eventually");
    }

    #[test]
    fn stats_merge_adds_up() {
        let mut a = InjectionStats::default();
        a.flips_per_bit[0] = 2;
        a.read_flips = 2;
        let mut b = InjectionStats::default();
        b.flips_per_bit[0] = 3;
        b.write_flips = 3;
        a.merge(&b);
        assert_eq!(a.flips_per_bit[0], 5);
        assert_eq!(a.total(), 5);
        assert_eq!(a.write_flips, 3);
    }
}
