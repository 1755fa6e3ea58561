//! Spare-row/spare-column redundancy — and why it cannot substitute for the
//! paper's hybrid protection.
//!
//! Production SRAMs carry a few spare rows and columns that are fused in at
//! test time to replace defective lines. It is tempting to think the same
//! mechanism could absorb the voltage-scaling failures of Fig. 5, but the
//! failure *counts* differ by orders of magnitude: hard defects are a
//! handful per die, while parametric read/write failures at 0.65 V afflict
//! a sizable fraction of all cells — far beyond what any realistic spare
//! budget covers. This module makes that argument quantitative with a
//! Monte Carlo repair simulation used by the `redundancy` ablation
//! experiment in `hybrid-sram`.
//!
//! Repair allocation is the classic greedy heuristic used by memory BIST
//! controllers: repeatedly replace the row or column containing the most
//! unrepaired failing cells until the spares run out. (Optimal
//! row/column repair is NP-hard; greedy is what real fuse-allocation
//! firmware ships.)

use crate::organization::SubArrayDims;
use fault_inject::injector::geometric_indices;
use rand::Rng;
use std::collections::HashMap;

/// Spare lines available to one sub-array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RedundancyConfig {
    /// Spare rows that can each replace one full row.
    pub spare_rows: usize,
    /// Spare columns that can each replace one full column.
    pub spare_cols: usize,
}

impl RedundancyConfig {
    /// A typical production budget: 4 spare rows + 4 spare columns.
    pub const TYPICAL: RedundancyConfig = RedundancyConfig {
        spare_rows: 4,
        spare_cols: 4,
    };
}

/// Result of one repair attempt on a sampled failure map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RepairOutcome {
    /// Failing cells before repair.
    pub total_failures: usize,
    /// Failing cells covered by a spare row or column.
    pub repaired_failures: usize,
    /// Failing cells left after all spares are allocated.
    pub residual_failures: usize,
    /// Spare rows consumed.
    pub rows_used: usize,
    /// Spare columns consumed.
    pub cols_used: usize,
}

impl RepairOutcome {
    /// `true` when every failing cell was repaired.
    pub fn is_clean(&self) -> bool {
        self.residual_failures == 0
    }
}

/// Samples a cell-failure map at probability `p_fail` per cell and repairs
/// it greedily with the given spare budget.
///
/// Failing cells are sampled sparsely (geometric skips), so the cost scales
/// with the number of failures rather than with `rows × cols`.
///
/// # Panics
///
/// Panics if `p_fail` is not a probability.
pub fn simulate_repair<R: Rng + ?Sized>(
    dims: SubArrayDims,
    p_fail: f64,
    config: RedundancyConfig,
    rng: &mut R,
) -> RepairOutcome {
    assert!(
        (0.0..=1.0).contains(&p_fail) && p_fail.is_finite(),
        "p_fail = {p_fail} is not a probability"
    );
    let cells = dims.rows * dims.cols;
    let failures = geometric_indices(cells, p_fail, rng);
    let coords: Vec<(usize, usize)> = failures
        .iter()
        .map(|&i| (i / dims.cols, i % dims.cols))
        .collect();
    repair_greedy(&coords, config)
}

/// Greedy spare allocation over an explicit failure list.
///
/// Exposed separately so tests can verify the allocator on hand-crafted
/// failure patterns.
pub fn repair_greedy(failures: &[(usize, usize)], config: RedundancyConfig) -> RepairOutcome {
    let total = failures.len();
    let mut alive: Vec<(usize, usize)> = failures.to_vec();
    let mut rows_used = 0;
    let mut cols_used = 0;

    loop {
        if alive.is_empty() || (rows_used == config.spare_rows && cols_used == config.spare_cols) {
            break;
        }
        let mut per_row: HashMap<usize, usize> = HashMap::new();
        let mut per_col: HashMap<usize, usize> = HashMap::new();
        for &(r, c) in &alive {
            *per_row.entry(r).or_insert(0) += 1;
            *per_col.entry(c).or_insert(0) += 1;
        }
        let best_row = per_row
            .iter()
            .max_by_key(|&(r, n)| (*n, std::cmp::Reverse(*r)))
            .map(|(&r, &n)| (r, n));
        let best_col = per_col
            .iter()
            .max_by_key(|&(c, n)| (*n, std::cmp::Reverse(*c)))
            .map(|(&c, &n)| (c, n));

        let row_gain = if rows_used < config.spare_rows {
            best_row.map_or(0, |(_, n)| n)
        } else {
            0
        };
        let col_gain = if cols_used < config.spare_cols {
            best_col.map_or(0, |(_, n)| n)
        } else {
            0
        };
        if row_gain == 0 && col_gain == 0 {
            break;
        }
        if row_gain >= col_gain {
            let (r, _) = best_row.expect("row gain > 0 implies a best row");
            alive.retain(|&(rr, _)| rr != r);
            rows_used += 1;
        } else {
            let (c, _) = best_col.expect("col gain > 0 implies a best col");
            alive.retain(|&(_, cc)| cc != c);
            cols_used += 1;
        }
    }

    RepairOutcome {
        total_failures: total,
        repaired_failures: total - alive.len(),
        residual_failures: alive.len(),
        rows_used,
        cols_used,
    }
}

/// Post-repair bit-failure probability, averaged over `trials` sampled
/// failure maps.
///
/// # Panics
///
/// Panics if `p_fail` is not a probability or `trials` is zero.
pub fn effective_failure_probability<R: Rng + ?Sized>(
    dims: SubArrayDims,
    p_fail: f64,
    config: RedundancyConfig,
    trials: usize,
    rng: &mut R,
) -> f64 {
    assert!(trials > 0, "at least one trial required");
    let cells = (dims.rows * dims.cols) as f64;
    let mut residual_sum = 0.0;
    for _ in 0..trials {
        residual_sum += simulate_repair(dims, p_fail, config, rng).residual_failures as f64;
    }
    residual_sum / (trials as f64 * cells)
}

/// Expected number of rows containing at least one failing cell:
/// `rows · (1 − (1−p)^cols)`. When this exceeds the spare-row budget by a
/// wide margin, repair is hopeless — the quantitative form of this module's
/// headline argument.
pub fn expected_bad_rows(dims: SubArrayDims, p_fail: f64) -> f64 {
    dims.rows as f64 * (1.0 - (1.0 - p_fail).powi(dims.cols as i32))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const DIMS: SubArrayDims = SubArrayDims::PAPER;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn no_failures_no_repairs() {
        let out = simulate_repair(DIMS, 0.0, RedundancyConfig::TYPICAL, &mut rng(1));
        assert_eq!(out.total_failures, 0);
        assert!(out.is_clean());
        assert_eq!(out.rows_used + out.cols_used, 0);
    }

    #[test]
    fn few_failures_fully_repaired() {
        // Four failures in distinct rows with four spare rows: always clean.
        let failures = [(3, 7), (90, 200), (150, 10), (255, 255)];
        let out = repair_greedy(
            &failures,
            RedundancyConfig {
                spare_rows: 4,
                spare_cols: 0,
            },
        );
        assert!(out.is_clean());
        assert_eq!(out.rows_used, 4);
    }

    #[test]
    fn greedy_prefers_the_dense_line() {
        // One column holds three failures, scattered rows hold one each:
        // a single spare column should go to the dense column.
        let failures = [(1, 5), (2, 5), (3, 5), (10, 99)];
        let out = repair_greedy(
            &failures,
            RedundancyConfig {
                spare_rows: 0,
                spare_cols: 1,
            },
        );
        assert_eq!(out.repaired_failures, 3);
        assert_eq!(out.residual_failures, 1);
        assert_eq!(out.cols_used, 1);
    }

    #[test]
    fn cross_pattern_repaired_with_one_of_each() {
        // A full row r and a full column c of failures: one spare row + one
        // spare column clears everything.
        let mut failures = Vec::new();
        for c in 0..32 {
            failures.push((7, c));
        }
        for r in 0..32 {
            if r != 7 {
                failures.push((r, 12));
            }
        }
        let out = repair_greedy(
            &failures,
            RedundancyConfig {
                spare_rows: 1,
                spare_cols: 1,
            },
        );
        assert!(out.is_clean(), "{out:?}");
        assert_eq!(out.rows_used, 1);
        assert_eq!(out.cols_used, 1);
    }

    #[test]
    fn spares_do_not_exceed_budget() {
        let out = simulate_repair(DIMS, 5e-3, RedundancyConfig::TYPICAL, &mut rng(2));
        assert!(out.rows_used <= 4 && out.cols_used <= 4);
        assert_eq!(
            out.repaired_failures + out.residual_failures,
            out.total_failures
        );
    }

    #[test]
    fn parametric_failure_rates_overwhelm_spares() {
        // The module's headline: at a scaled-voltage failure rate of 1e-3,
        // a 256×256 array has ~65 failing cells spread over ~60 rows; 4+4
        // spares barely dent it.
        let p = 1e-3;
        assert!(expected_bad_rows(DIMS, p) > 50.0);
        let eff =
            effective_failure_probability(DIMS, p, RedundancyConfig::TYPICAL, 20, &mut rng(3));
        assert!(
            eff > 0.7 * p,
            "repair should recover little at p={p}: effective {eff}"
        );
    }

    #[test]
    fn defect_scale_failure_rates_are_fully_repaired() {
        // Hard-defect territory: ~1e-6 per cell ⇒ < 1 failure per array on
        // average; spares absorb it completely almost always.
        let eff =
            effective_failure_probability(DIMS, 1e-6, RedundancyConfig::TYPICAL, 50, &mut rng(4));
        assert_eq!(eff, 0.0, "defect-scale failures must repair clean");
    }

    #[test]
    fn effective_probability_never_exceeds_raw() {
        for p in [1e-4, 1e-3, 1e-2] {
            let eff =
                effective_failure_probability(DIMS, p, RedundancyConfig::TYPICAL, 10, &mut rng(5));
            assert!(
                eff <= p * 1.35,
                "p={p}, eff={eff} (allowing sampling noise)"
            );
        }
    }

    #[test]
    fn saturated_probability_marks_every_cell() {
        let small = SubArrayDims { rows: 4, cols: 4 };
        let out = simulate_repair(small, 1.0, RedundancyConfig::default(), &mut rng(6));
        assert_eq!(out.total_failures, 16);
        assert_eq!(out.residual_failures, 16);
    }

    #[test]
    fn sampling_density_matches_probability() {
        let mut r = rng(7);
        let cells = 100_000;
        let p = 0.01;
        let n: usize = (0..20)
            .map(|_| geometric_indices(cells, p, &mut r).len())
            .sum();
        let mean = n as f64 / 20.0;
        assert!(
            (mean - 1000.0).abs() < 100.0,
            "expected ≈1000 failures per map, got {mean}"
        );
    }

    #[test]
    fn vanishing_probability_fails_no_cell() {
        // Regression: 1 − 1e-18 rounds to 1.0, whose log is 0; a sampler
        // dividing by it saturates every gap to 0 and fails every cell.
        let out = simulate_repair(DIMS, 1e-18, RedundancyConfig::TYPICAL, &mut rng(9));
        assert_eq!(out.total_failures, 0);
        assert!(out.is_clean());
    }

    #[test]
    #[should_panic(expected = "not a probability")]
    fn invalid_probability_panics() {
        let _ = simulate_repair(DIMS, 1.5, RedundancyConfig::TYPICAL, &mut rng(8));
    }
}
