//! Exact order statistics over raw samples.
//!
//! Every percentile the benchmark prints is taken from a sorted raw
//! sample (a whole phase, or one window of it), never from a bucketed
//! histogram, and travels with its sample count so a reader can tell how
//! many samples lie beyond it.

/// A sorted sample of raw measurements.
#[derive(Debug, Clone)]
pub struct Sample {
    sorted: Vec<f64>,
}

impl Sample {
    /// Sorts the raw values; NaNs are a bug in the caller.
    pub fn new(mut values: Vec<f64>) -> Self {
        assert!(values.iter().all(|v| !v.is_nan()), "NaN in a sample");
        values.sort_by(f64::total_cmp);
        Self { sorted: values }
    }

    /// From integer nanosecond readings.
    pub fn from_ns(values: &[u64]) -> Self {
        Self::new(values.iter().map(|&v| v as f64).collect())
    }

    /// Samples held.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile: the smallest sample with at least `q` of
    /// the sample at or below it (`q` in `[0, 1]`). Always an observed
    /// value; `0.0` for an empty sample.
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.sorted.len();
        if n == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
        self.sorted[rank.clamp(1, n) - 1]
    }

    /// Median (nearest rank).
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 99th percentile (nearest rank).
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Samples strictly above the 99th percentile — the support behind
    /// the tail figure.
    pub fn beyond_p99(&self) -> usize {
        let p = self.p99();
        self.sorted.iter().filter(|&&v| v > p).count()
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sorted.iter().sum()
    }
}

/// Median of a handful of per-round figures (mean of the two middle
/// values for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Consecutive windows a run's time-ordered samples are cut into for the
/// headline timing figures.
pub const WINDOWS: usize = 40;

/// Splits time-ordered samples into `WINDOWS` consecutive windows of
/// near-equal count (fewer when there are fewer samples than windows).
pub fn windows<T>(samples: &[T]) -> impl Iterator<Item = &[T]> {
    let n = samples.len();
    let w = WINDOWS.min(n).max(1);
    (0..w).map(move |i| &samples[i * n / w..(i + 1) * n / w])
}

/// Share of windows a headline figure sets aside as disturbed.
const DISTURBED: f64 = 0.05;

/// The headline figure of a lower-is-better timing: the 5th percentile of
/// the per-window values (the second best of 40). The shared host slows
/// the benchmark in bursts of a few seconds; a window either catches a
/// burst or not, and the figure comes from the windows that did not.
pub fn quiet_low(per_window: Vec<f64>) -> f64 {
    Sample::new(per_window).quantile(DISTURBED)
}

/// The headline figure of a higher-is-better rate: the 95th percentile of
/// the per-window values (see `quiet_low`).
pub fn quiet_high(per_window: Vec<f64>) -> f64 {
    Sample::new(per_window).quantile(1.0 - DISTURBED)
}

/// Per-request residual: client sojourn minus the server's queue and
/// service stamps, paired request by request (the time neither stamp
/// covers — socket hops, poll-loop sleeps, the result channel).
pub fn residual_ns(sojourn: u64, queue: u64, service: u64) -> u64 {
    sojourn.saturating_sub(queue.saturating_add(service))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_a_fixed_sample() {
        // 1..=200: p50 is the 100th value, p99 the 198th.
        let s = Sample::new((1..=200).rev().map(f64::from).collect());
        assert_eq!(s.len(), 200);
        assert_eq!(s.p50(), 100.0);
        assert_eq!(s.p99(), 198.0);
        assert_eq!(s.beyond_p99(), 2);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 200.0);
        assert_eq!(s.sum(), 20_100.0);
    }

    #[test]
    fn percentiles_do_not_snap_to_buckets() {
        // Two samples 5% apart must report medians 5% apart; a log
        // histogram with 8 sub-buckets per octave would merge them.
        let a = Sample::from_ns(&[260_000_000; 9]);
        let b = Sample::from_ns(&[273_000_000; 9]);
        assert!((b.p50() / a.p50() - 1.05).abs() < 1e-12);
    }

    #[test]
    fn tiny_and_empty_samples() {
        let one = Sample::new(vec![7.5]);
        assert_eq!(one.p50(), 7.5);
        assert_eq!(one.p99(), 7.5);
        assert_eq!(one.beyond_p99(), 0);
        assert_eq!(Sample::new(Vec::new()).p50(), 0.0);
    }

    #[test]
    fn median_of_round_figures() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn windows_cover_the_sample_in_order() {
        let v: Vec<u32> = (0..203).collect();
        let w: Vec<&[u32]> = windows(&v).collect();
        assert_eq!(w.len(), WINDOWS);
        assert_eq!(w.concat(), v);
        assert!(w.iter().all(|x| (5..=6).contains(&x.len())));
        assert_eq!(windows(&v[..3]).count(), 3);
        assert_eq!(windows::<u32>(&[]).map(<[u32]>::len).sum::<usize>(), 0);
    }

    #[test]
    fn quiet_figures_ignore_slow_windows() {
        // 40 windows: 30 quiet at 5.0, 10 during bursts at 8.0.
        let mut lat = vec![5.0; 30];
        lat.extend([8.0; 10]);
        assert_eq!(quiet_low(lat.clone()), 5.0);
        let rates: Vec<f64> = lat.iter().map(|l| 1.0 / l).collect();
        assert_eq!(quiet_high(rates), 0.2);
        // A slowdown of every window moves the figure with it.
        let slower: Vec<f64> = lat.iter().map(|l| l * 1.1).collect();
        assert!((quiet_low(slower) - 5.5).abs() < 1e-12);
    }

    #[test]
    fn residual_pairs_each_request() {
        // Sojourn 500 µs = queue 13 + service 221 + residual 266.
        assert_eq!(residual_ns(500_000, 13_000, 221_000), 266_000);
        // Clock skew between client and server stamps never underflows.
        assert_eq!(residual_ns(100, 80, 40), 0);
        // Residual percentiles come from the paired per-request values,
        // not from subtracting percentiles of the parts.
        let sojourn = [300u64, 400, 900];
        let queue = [100u64, 0, 0];
        let service = [100u64, 100, 100];
        let r: Vec<u64> = (0..3)
            .map(|i| residual_ns(sojourn[i], queue[i], service[i]))
            .collect();
        assert_eq!(r, vec![100, 300, 800]);
        assert_eq!(Sample::from_ns(&r).p50(), 300.0);
    }
}
