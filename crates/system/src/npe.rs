//! Neural Processing Element: the fixed-point MAC datapath of paper Fig. 2.
//!
//! One NPE "mimics the computations of the artificial neurons": it
//! accumulates products of 8-bit weights (two's-complement fixed point, the
//! synaptic memory's format) and 8-bit unsigned activations, then applies a
//! sigmoid through a 256-entry lookup table — a standard digital ASIC
//! realization of the sigmoid neuron.
//!
//! Activations use U0.8 (codes 0-255 spanning `[0, 1)`), matching the
//! sigmoid's output range.
//!
//! The MAC is exact at any fan-in. On an x86_64 CPU with AVX2 it runs one
//! 256-bit kernel, chosen at run time; on every other CPU it runs the
//! portable 8-lane `i64` fold. [`mac_kernel`] names the one in use.

use neural::network::sigmoid;
use neural::quant::FixedPointFormat;

/// Number of sigmoid LUT entries.
const LUT_SIZE: usize = 256;
/// The LUT covers pre-activations in `[-LUT_RANGE, +LUT_RANGE)`.
const LUT_RANGE: f32 = 8.0;

/// Fan-in block whose `i32` sum cannot overflow: every product lies in
/// `[-128 · 255, 127 · 255]`, so a block sums to at most
/// `2^15 · 32 640 < 2^31` in magnitude.
const MAC_BLOCK: usize = 1 << 15;

/// The MAC kernel this CPU runs: `"avx2"` on an x86_64 CPU with AVX2,
/// `"portable"` (the 8-lane `i64` fold) everywhere else. Both give
/// bit-identical sums; reports print this so every number names the
/// kernel behind it.
pub fn mac_kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        return "avx2";
    }
    "portable"
}

/// Exact multiply-accumulate of one weight row against `R` activation
/// vectors at any fan-in. Each of the `R` results is the single-request
/// MAC of its activation vector.
///
/// On an x86_64 CPU with AVX2 (std caches the CPUID probe, so the check is
/// one atomic load) the AVX2 kernel runs in blocks of at most
/// [`MAC_BLOCK`] products, each summed in `i32` lanes, with the block sums
/// added in `i64`. Everywhere else the portable [`lane_mac`] fold runs.
fn mac<const R: usize>(weights: &[u8], activations: [&[u8]; R]) -> [i64; R] {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU supports AVX2, the only feature the kernel is
        // compiled for.
        return blocked(weights, activations, |w, a| unsafe { block_mac_avx2(w, a) });
    }
    activations.map(|a| lane_mac(weights, a))
}

/// Runs `kernel` on blocks of at most [`MAC_BLOCK`] products, the same
/// block in every lane, and adds each lane's block sums in `i64`.
#[cfg(target_arch = "x86_64")]
fn blocked<const R: usize>(
    weights: &[u8],
    activations: [&[u8]; R],
    kernel: impl Fn(&[u8], [&[u8]; R]) -> [i32; R],
) -> [i64; R] {
    let mut sums = [0i64; R];
    for start in (0..weights.len()).step_by(MAC_BLOCK) {
        let end = (start + MAC_BLOCK).min(weights.len());
        let block_sums = kernel(&weights[start..end], activations.map(|a| &a[start..end]));
        for (sum, block_sum) in sums.iter_mut().zip(block_sums) {
            *sum += i64::from(block_sum);
        }
    }
    sums
}

/// One block of the MAC for `R` requests sharing a weight row, 16 products
/// per step: each 16-weight chunk is sign-extended to sixteen i16 lanes of
/// a ymm register once, then each request's chunk is zero-extended the
/// same way and `vpmaddwd`-ed against it, adding adjacent products into
/// that request's eight i32 lanes. The caller keeps the block within
/// [`MAC_BLOCK`], which bounds every partial sum of every request.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn block_mac_avx2<const R: usize>(weights: &[u8], activations: [&[u8]; R]) -> [i32; R] {
    use std::arch::x86_64::{
        __m128i, _mm256_add_epi32, _mm256_castsi256_si128, _mm256_cvtepi8_epi16,
        _mm256_cvtepu8_epi16, _mm256_extracti128_si256, _mm256_madd_epi16, _mm256_setzero_si256,
        _mm_add_epi32, _mm_cvtsi128_si32, _mm_loadu_si128, _mm_shuffle_epi32,
    };
    debug_assert!(weights.len() <= MAC_BLOCK);
    let len = weights.len();
    assert!(
        activations.iter().all(|a| a.len() == len),
        "weight/activation fan-in mismatch"
    );
    let mut acc = [_mm256_setzero_si256(); R];
    let mut offset = 0;
    while offset + 16 <= len {
        // SAFETY: `offset + 16 <= len`, and every slice holds `len` bytes,
        // so each load reads 16 in-bounds bytes; `loadu` has no alignment
        // requirement.
        let w = unsafe { _mm_loadu_si128(weights.as_ptr().add(offset).cast::<__m128i>()) };
        let w = _mm256_cvtepi8_epi16(w);
        for r in 0..R {
            // SAFETY: as for the weight load above.
            let a =
                unsafe { _mm_loadu_si128(activations[r].as_ptr().add(offset).cast::<__m128i>()) };
            acc[r] = _mm256_add_epi32(acc[r], _mm256_madd_epi16(w, _mm256_cvtepu8_epi16(a)));
        }
        offset += 16;
    }
    let mut sums = [0i32; R];
    for r in 0..R {
        let acc = _mm_add_epi32(
            _mm256_castsi256_si128(acc[r]),
            _mm256_extracti128_si256::<1>(acc[r]),
        );
        let acc = _mm_add_epi32(acc, _mm_shuffle_epi32::<0b01_00_11_10>(acc));
        let acc = _mm_add_epi32(acc, _mm_shuffle_epi32::<0b10_11_00_01>(acc));
        sums[r] = _mm_cvtsi128_si32(acc);
        for (&w, &a) in weights[offset..].iter().zip(&activations[r][offset..]) {
            sums[r] += i32::from(w as i8) * i32::from(a);
        }
    }
    sums
}

/// Fused 8-lane `i64` multiply-accumulate: the portable MAC (non-x86_64
/// targets and x86_64 CPUs without AVX2) and the oracle the AVX2 kernel is
/// tested against. Integer addition is associative, so the lane
/// restructure is bit-identical to a scalar left fold.
fn lane_mac(weights: &[u8], activations: &[u8]) -> i64 {
    let mut lanes = [0i64; 8];
    let mut w_chunks = weights.chunks_exact(8);
    let mut a_chunks = activations.chunks_exact(8);
    for (w, a) in (&mut w_chunks).zip(&mut a_chunks) {
        for ((lane, &wi), &ai) in lanes.iter_mut().zip(w).zip(a) {
            *lane += (wi as i8) as i64 * ai as i64;
        }
    }
    let mut acc: i64 = lanes.iter().sum();
    for (&w, &a) in w_chunks.remainder().iter().zip(a_chunks.remainder()) {
        acc += (w as i8) as i64 * a as i64;
    }
    acc
}

/// Quantizes an activation in `[0, 1]` to its U0.8 code: `a · 255`
/// rounded half away from zero; NaN and negatives map to 0, values above 1
/// to 255.
///
/// Written without `round()` or a float-to-int cast so that a loop of
/// calls vectorizes. Adding 2^23 (where the f32 ulp is 1) rounds
/// `x ∈ [0, 255]` to the nearest integer, ties to even, and leaves that
/// integer in the low mantissa bits; a tie rounded down is then bumped up.
/// Every step is exact, and the result equals the `round()` reference on
/// all 2^32 f32 inputs.
#[inline]
pub fn encode_activation(a: f32) -> u8 {
    const SHIFT: f32 = 8_388_608.0;
    // `max`/`min` send NaN to 0, where `clamp` would propagate it.
    #[allow(clippy::manual_clamp)]
    let x = a.max(0.0).min(1.0) * 255.0;
    let biased = x + SHIFT;
    biased.to_bits() as u8 + u8::from(x - (biased - SHIFT) == 0.5)
}

/// Decodes a U0.8 activation code.
pub fn decode_activation(code: u8) -> f32 {
    code as f32 / 255.0
}

/// A fixed-point neural processing element.
#[derive(Debug, Clone, PartialEq)]
pub struct Npe {
    format: FixedPointFormat,
    lut: Vec<u8>,
}

impl Npe {
    /// Builds an NPE for weights in the given fixed-point format.
    pub fn new(format: FixedPointFormat) -> Self {
        let lut = (0..LUT_SIZE)
            .map(|i| {
                let z = -LUT_RANGE + 2.0 * LUT_RANGE * i as f32 / LUT_SIZE as f32;
                encode_activation(sigmoid(z))
            })
            .collect();
        Self { format, lut }
    }

    /// The weight format this NPE is configured for.
    pub fn format(&self) -> FixedPointFormat {
        self.format
    }

    /// Sigmoid lookup on a float pre-activation (saturates beyond the LUT
    /// range, as the hardware table would).
    pub fn sigmoid_lut(&self, z: f32) -> u8 {
        if !z.is_finite() {
            return if z > 0.0 { 255 } else { 0 };
        }
        let idx = ((z + LUT_RANGE) / (2.0 * LUT_RANGE) * LUT_SIZE as f32).floor();
        let idx = idx.clamp(0.0, (LUT_SIZE - 1) as f32) as usize;
        self.lut[idx]
    }

    /// Computes one neuron: MAC over weight codes and activation codes plus
    /// a bias code, then the sigmoid LUT.
    ///
    /// The MAC is exact at any fan-in: products are summed in `i32` lanes
    /// in blocks of at most 32 768 (each block's magnitude stays below
    /// 32 768 × 32 640 < 2^31), and the block sums in `i64`.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != activations.len()`.
    pub fn neuron(&self, weights: &[u8], bias: u8, activations: &[u8]) -> u8 {
        let [out] = self.neurons(weights, bias, [activations]);
        out
    }

    /// Computes one neuron for `R` requests at once: one pass over the
    /// shared weight row feeds all `R` MACs, and each output equals
    /// [`neuron`](Self::neuron) on that request's activations. Every
    /// request's MAC keeps the single-request block bound, so the result
    /// is exact at any fan-in and any `R`.
    ///
    /// # Panics
    ///
    /// Panics if any activation vector's length differs from
    /// `weights.len()`.
    pub fn neurons<const R: usize>(
        &self,
        weights: &[u8],
        bias: u8,
        activations: [&[u8]; R],
    ) -> [u8; R] {
        for a in &activations {
            assert_eq!(weights.len(), a.len(), "weight/activation fan-in mismatch");
        }
        mac(weights, activations).map(|acc| {
            // Bias enters at full activation (a = 1.0 -> code 255).
            let acc = acc + (bias as i8) as i64 * 255;
            // Scale: weight lsb / 255 per product unit.
            let z = acc as f32 * self.format.lsb() / 255.0;
            self.sigmoid_lut(z)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neural::quant::Encoding;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn npe() -> Npe {
        Npe::new(FixedPointFormat::new(1, Encoding::TwosComplement))
    }

    /// The AVX2 kernel called directly, blocked as `mac` blocks it, so the
    /// kernel is checked even where `mac` would pick the portable fold;
    /// `None` on a CPU without AVX2.
    fn avx2_mac<const R: usize>(weights: &[u8], activations: [&[u8]; R]) -> Option<[i64; R]> {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU supports AVX2.
            return Some(blocked(weights, activations, |w, a| unsafe {
                block_mac_avx2(w, a)
            }));
        }
        let _ = (weights, activations);
        None
    }

    /// Asserts that `mac` and, where the CPU has AVX2, the AVX2 kernel
    /// itself give `want` for these `R` requests.
    fn assert_kernels<const R: usize>(
        weights: &[u8],
        activations: [&[u8]; R],
        want: [i64; R],
        what: &str,
    ) {
        assert_eq!(mac(weights, activations), want, "mac, {what}");
        if let Some(got) = avx2_mac(weights, activations) {
            assert_eq!(got, want, "block_mac_avx2, {what}");
        }
    }

    /// [`assert_kernels`] against the lane fold for the first 1, 2, 3 and
    /// 4 of these requests.
    fn assert_kernels_match_lane_fold(weights: &[u8], a: [&[u8]; 4], what: &str) {
        let want = a.map(|a| lane_mac(weights, a));
        assert_kernels(weights, [a[0]], [want[0]], &format!("{what}, R = 1"));
        assert_kernels(
            weights,
            [a[0], a[1]],
            [want[0], want[1]],
            &format!("{what}, R = 2"),
        );
        assert_kernels(
            weights,
            [a[0], a[1], a[2]],
            [want[0], want[1], want[2]],
            &format!("{what}, R = 3"),
        );
        assert_kernels(weights, a, want, &format!("{what}, R = 4"));
    }

    #[test]
    fn mac_kernel_names_avx2_whenever_the_cpu_has_it() {
        #[cfg(target_arch = "x86_64")]
        let has_avx2 = std::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let has_avx2 = false;
        assert_eq!(mac_kernel(), if has_avx2 { "avx2" } else { "portable" });
    }

    #[test]
    fn activation_codec_round_trip() {
        for a in [0.0f32, 0.25, 0.5, 0.75, 1.0] {
            let code = encode_activation(a);
            assert!((decode_activation(code) - a).abs() < 1.0 / 255.0 + 1e-6);
        }
        assert_eq!(encode_activation(-0.5), 0);
        assert_eq!(encode_activation(1.5), 255);
    }

    #[test]
    fn lut_matches_float_sigmoid() {
        let n = npe();
        for z in [-6.0f32, -2.0, -0.5, 0.0, 0.5, 2.0, 6.0] {
            let got = decode_activation(n.sigmoid_lut(z));
            let want = sigmoid(z);
            assert!(
                (got - want).abs() < 0.03,
                "sigmoid LUT at {z}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn lut_saturates() {
        let n = npe();
        assert_eq!(n.sigmoid_lut(100.0), 255);
        assert_eq!(n.sigmoid_lut(-100.0), 0);
        assert_eq!(n.sigmoid_lut(f32::INFINITY), 255);
        assert_eq!(n.sigmoid_lut(f32::NEG_INFINITY), 0);
    }

    #[test]
    fn neuron_matches_float_reference() {
        let n = npe();
        let fmt = n.format();
        // Weights 0.5 and -0.25, bias 0.125, activations 1.0 and 0.5.
        let weights = vec![fmt.encode(0.5), fmt.encode(-0.25)];
        let bias = fmt.encode(0.125);
        let acts = vec![encode_activation(1.0), encode_activation(0.5)];
        let out = decode_activation(n.neuron(&weights, bias, &acts));
        let expected = sigmoid(0.5 * 1.0 - 0.25 * 0.5 + 0.125);
        assert!(
            (out - expected).abs() < 0.03,
            "npe {out} vs float {expected}"
        );
    }

    #[test]
    fn zero_weights_give_midpoint() {
        let n = npe();
        let out = n.neuron(&[0, 0, 0], 0, &[255, 255, 255]);
        assert!((decode_activation(out) - 0.5).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "fan-in mismatch")]
    fn fan_in_mismatch_panics() {
        let n = npe();
        let _ = n.neuron(&[0, 0], 0, &[0]);
    }

    #[test]
    fn lane_mac_matches_the_scalar_fold() {
        // The 8-lane restructure must be bit-identical to the scalar left
        // fold at every length, including ragged remainders.
        for len in [0usize, 1, 7, 8, 9, 16, 23, 784] {
            let weights: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let acts: Vec<u8> = (0..len).map(|i| (i * 101 + 3) as u8).collect();
            let scalar: i64 = weights
                .iter()
                .zip(&acts)
                .map(|(&w, &a)| (w as i8) as i64 * a as i64)
                .sum();
            assert_eq!(lane_mac(&weights, &acts), scalar, "fan-in {len}");
            assert_kernels(&weights, [&acts], [scalar], &format!("fan-in {len}"));
        }
    }

    #[test]
    fn every_short_tail_matches_the_lane_fold_for_every_request_count() {
        // Fan-ins 1..=47 cover no, one and two 16-byte chunks followed by
        // every tail length 0..16.
        for len in 1usize..=47 {
            let weights: Vec<u8> = (0..len).map(|i| (i * 73 + 5) as u8).collect();
            let acts: [Vec<u8>; 4] =
                std::array::from_fn(|r| (0..len).map(|i| (i * (2 * r + 5) * 29) as u8).collect());
            let a = acts.each_ref().map(Vec::as_slice);
            assert_kernels_match_lane_fold(&weights, a, &format!("fan-in {len}"));
        }
    }

    #[test]
    fn mac_is_exact_at_the_extreme_products_across_block_boundaries() {
        // Every product at its extreme: one block of them sits just inside
        // the i32 bound, two blocks do not. The four-request kernel must
        // keep that bound in each lane, whatever its neighbors hold.
        let lanes = [0xFFu8, 0x00, 0x80, 0xFF];
        for w in [0x80u8, 0x7F] {
            for len in [
                15,
                16,
                17,
                MAC_BLOCK - 1,
                MAC_BLOCK,
                MAC_BLOCK + 1,
                2 * MAC_BLOCK - 1,
                2 * MAC_BLOCK,
                2 * MAC_BLOCK + 17,
                70_000,
            ] {
                let weights = vec![w; len];
                let acts = lanes.map(|a| vec![a; len]);
                let want = lanes.map(|a| len as i64 * i64::from(w as i8) * i64::from(a));
                assert_kernels(
                    &weights,
                    [&acts[0]],
                    [want[0]],
                    &format!("w={w:#x} fan-in {len}"),
                );
                assert_kernels(
                    &weights,
                    acts.each_ref().map(Vec::as_slice),
                    want,
                    &format!("w={w:#x} fan-in {len}, 4 requests"),
                );
                assert_eq!(
                    lane_mac(&weights, &acts[0]),
                    want[0],
                    "w={w:#x} fan-in {len}"
                );
            }
        }
    }

    #[test]
    fn batched_neurons_match_one_request_at_a_time() {
        let n = npe();
        let weights: Vec<u8> = (0..784).map(|i| (i * 37 + 11) as u8).collect();
        let acts: [Vec<u8>; 4] =
            std::array::from_fn(|r| (0..784).map(|i| (i * (r + 3) * 101) as u8).collect());
        let batched = n.neurons(&weights, 0xF3, acts.each_ref().map(Vec::as_slice));
        let single = acts.each_ref().map(|a| n.neuron(&weights, 0xF3, a));
        assert_eq!(batched, single);
    }

    #[test]
    #[should_panic(expected = "fan-in mismatch")]
    fn batched_fan_in_mismatch_panics() {
        let n = npe();
        let _ = n.neurons(&[0, 0], 0, [&[0, 0], &[0]]);
    }

    proptest! {
        /// `mac` and the AVX2 kernel called directly, for R = 1..=4
        /// requests, equal the `i64` lane fold in every lane, for every
        /// fan-in up to past two i32 blocks, on random, all-extreme and
        /// mixed-extreme bytes, with the weight row and each request's
        /// activations starting at any offset.
        #[test]
        fn mac_matches_lane_fold(
            len in 0usize..=70_000,
            fill in 0u8..3,
            w_off in 0usize..16,
            a_offs in (0usize..16, 0usize..16, 0usize..16, 0usize..16),
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut bytes = |n: usize, extremes: [u8; 2]| -> Vec<u8> {
                (0..n)
                    .map(|_| match fill {
                        0 => rng.gen::<u8>(),
                        1 => extremes[0],
                        _ => extremes[usize::from(rng.gen::<bool>())],
                    })
                    .collect()
            };
            let w_buf = bytes(w_off + len, [0x80, 0x7F]);
            let a_offs = [a_offs.0, a_offs.1, a_offs.2, a_offs.3];
            let a_bufs = a_offs.map(|off| bytes(off + len, [0xFF, 0x00]));
            let w = &w_buf[w_off..];
            let a: [&[u8]; 4] = std::array::from_fn(|r| &a_bufs[r][a_offs[r]..]);
            assert_kernels_match_lane_fold(w, a, &format!("fan-in {len}"));
        }
    }

    /// The `round()`-based encode the libm-free one must reproduce.
    fn reference_encode(a: f32) -> u8 {
        (a.clamp(0.0, 1.0) * 255.0).round() as u8
    }

    #[test]
    fn encode_matches_round_around_every_code_boundary() {
        for k in 0..255u16 {
            let boundary = (f32::from(k) + 0.5) / 255.0;
            let bits = boundary.to_bits();
            for a in (bits - 64..=bits + 64).map(f32::from_bits) {
                assert_eq!(encode_activation(a), reference_encode(a), "a={a:e} (k={k})");
            }
        }
        let specials = [
            0.0,
            -0.0,
            1.0,
            f32::MIN_POSITIVE,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::EPSILON,
            1.0 - f32::EPSILON,
            1.0 + f32::EPSILON,
            -0.5,
            -1.0,
            1.5,
            2.0,
            1e30,
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7FC0_00FF),
            f32::from_bits(0xFF80_0001),
        ];
        for a in specials {
            assert_eq!(encode_activation(a), reference_encode(a), "a={a:e}");
        }
    }

    /// Every f32 bit pattern; about 20 s in a release build:
    /// `cargo test --release -p neuro_system -- --ignored`.
    #[test]
    #[ignore]
    fn encode_matches_round_on_every_f32() {
        let mismatches = (0..=u32::MAX)
            .map(f32::from_bits)
            .filter(|&a| encode_activation(a) != reference_encode(a))
            .count();
        assert_eq!(mismatches, 0);
    }
}
