//! Statistical machinery for the MicroSampler leakage-detection framework.
//!
//! MicroSampler's analysis (paper §V-C) hashes microarchitectural iteration
//! snapshots, counts hash frequencies per secret class in a contingency
//! table, and measures the class↔state association with Cramér's V backed by
//! a chi-squared p-value. This crate provides each of those pieces as an
//! independent, well-tested component:
//!
//! * [`SipHasher`] / [`siphash13`] / [`siphash24`] — the snapshot hash
//!   (the paper uses Python's default SipHash; we provide both common
//!   parameterizations, defaulting to SipHash-1-3 to match CPython).
//! * [`ContingencyTable`] — class × category frequency counts.
//! * [`MulShift`] — the multiply-shift hasher behind the table's column
//!   index and the simulator's address-keyed maps.
//! * [`chi_squared`] and [`gamma::gamma_q`] — Pearson's χ² and its p-value.
//! * [`cramers_v`] / [`cramers_v_corrected`] — association strength.
//! * [`Association`] — the bundled verdict used by the core framework,
//!   including the paper's interpretation thresholds (V > 0.5 strong,
//!   p < 0.05 significant).
//!
//! # Example
//!
//! ```
//! use microsampler_stats::ContingencyTable;
//!
//! // Hash 7 only ever occurs when the key bit is 1: strong association.
//! let mut table = ContingencyTable::new();
//! for _ in 0..50 { table.record(0u8, 3u64); }
//! for _ in 0..50 { table.record(1u8, 7u64); }
//! let assoc = table.association();
//! assert!(assoc.cramers_v > 0.99);
//! assert!(assoc.p_value < 0.05);
//! assert!(assoc.is_leak());
//! ```

mod association;
mod contingency;
pub mod gamma;
mod mulshift;
pub mod sequential;
mod siphash;

pub use association::{Association, Strength, CRAMERS_V_STRONG, P_SIGNIFICANT};
pub use contingency::ContingencyTable;
pub use mulshift::MulShift;
pub use sequential::{SeqConfig, SeqVerdict};
pub use siphash::{siphash13, siphash24, SipHasher};

/// Pearson's chi-squared statistic for a table of observed counts.
///
/// `rows` is a rectangular matrix of non-negative observation counts; the
/// expected count for each cell is computed under the independence
/// assumption (row sum × column sum / total, paper Eq. 4). Returns the χ²
/// statistic and the degrees of freedom `(r-1)(k-1)`.
///
/// Rows and columns whose sums are zero are ignored (they contribute neither
/// to the statistic nor to the degrees of freedom).
///
/// The cells are summed row by row, with each row's columns in the order
/// of their count vectors (a column's counts in row order), not in their
/// given order: the statistic does not depend on what the columns stand
/// for. Columns that tie are equal cell for cell, so their order cannot
/// change the sum. Relabelling the categories of a table therefore keeps
/// χ² to the bit.
///
/// # Panics
///
/// Panics if `rows` is not rectangular.
pub fn chi_squared(rows: &[Vec<u64>]) -> (f64, u64) {
    let Some(first) = rows.first() else { return (0.0, 0) };
    let width = first.len();
    for r in rows {
        assert_eq!(r.len(), width, "contingency matrix must be rectangular");
    }
    let mut counts = vec![0; width * rows.len()];
    for (i, row) in rows.iter().enumerate() {
        for (j, &c) in row.iter().enumerate() {
            counts[j * rows.len() + i] = c;
        }
    }
    chi_squared_by_column(&counts, rows.len())
}

/// [`chi_squared`] of a table given column by column: `counts[j * r + i]`
/// is the count of row `i` in column `j`. [`ContingencyTable::association`]
/// calls it on its counts directly.
pub(crate) fn chi_squared_by_column(counts: &[u64], r: usize) -> (f64, u64) {
    if r == 0 {
        return (0.0, 0);
    }
    let mut row_sums = vec![0u64; r];
    for column in counts.chunks_exact(r) {
        for (sum, c) in row_sums.iter_mut().zip(column) {
            *sum += c;
        }
    }
    let mut cols: Vec<&[u64]> =
        counts.chunks_exact(r).filter(|c| c.iter().any(|&x| x > 0)).collect();
    cols.sort_unstable();
    let col_sums: Vec<u64> = cols.iter().map(|c| c.iter().sum()).collect();
    let n: u64 = row_sums.iter().sum();
    let live_rows = row_sums.iter().filter(|&&s| s > 0).count() as u64;
    let live_cols = cols.len() as u64;
    if n == 0 || live_rows < 2 || live_cols < 2 {
        return (0.0, 0);
    }
    let mut chi2 = 0.0;
    for (i, &row_sum) in row_sums.iter().enumerate() {
        if row_sum == 0 {
            continue;
        }
        for (column, &col_sum) in cols.iter().zip(&col_sums) {
            let expected = row_sum as f64 * col_sum as f64 / n as f64;
            let d = column[i] as f64 - expected;
            chi2 += d * d / expected;
        }
    }
    (chi2, (live_rows - 1) * (live_cols - 1))
}

/// Cramér's V (paper Eq. 2): `sqrt(chi2 / (N * min(k-1, r-1)))`.
///
/// `n` is the total number of observations; `live_rows`/`live_cols` the
/// numbers of non-empty rows and columns. Returns 0 for degenerate tables
/// (fewer than two live rows or columns, or `n == 0`).
pub fn cramers_v(chi2: f64, n: u64, live_rows: u64, live_cols: u64) -> f64 {
    if n == 0 || live_rows < 2 || live_cols < 2 {
        return 0.0;
    }
    let denom = n as f64 * (live_rows.min(live_cols) - 1) as f64;
    (chi2 / denom).sqrt().min(1.0)
}

/// Bias-corrected Cramér's V (Bergsma 2013).
///
/// The plain estimator is biased upward for tables with many categories and
/// few samples — exactly the false-positive mode the paper guards against
/// with p-values (§VII-D). This variant corrects the statistic itself and is
/// offered as an extension; the paper's headline numbers use [`cramers_v`].
pub fn cramers_v_corrected(chi2: f64, n: u64, live_rows: u64, live_cols: u64) -> f64 {
    if n == 0 || live_rows < 2 || live_cols < 2 {
        return 0.0;
    }
    let n = n as f64;
    let r = live_rows as f64;
    let k = live_cols as f64;
    let phi2 = chi2 / n;
    let phi2_corr = (phi2 - (k - 1.0) * (r - 1.0) / (n - 1.0)).max(0.0);
    let r_corr = r - (r - 1.0) * (r - 1.0) / (n - 1.0);
    let k_corr = k - (k - 1.0) * (k - 1.0) / (n - 1.0);
    let denom = (r_corr.min(k_corr) - 1.0).max(f64::EPSILON);
    (phi2_corr / denom).sqrt().min(1.0)
}

/// Upper-tail p-value for a chi-squared statistic with `dof` degrees of
/// freedom: `P(X >= chi2)` under the null (independence) hypothesis.
///
/// Returns 1.0 when `dof == 0` (a degenerate table carries no evidence).
pub fn chi_squared_p_value(chi2: f64, dof: u64) -> f64 {
    if dof == 0 || chi2 <= 0.0 {
        return 1.0;
    }
    gamma::gamma_q(dof as f64 / 2.0, chi2 / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chi_squared_textbook_example() {
        // Classic 2x2: 90/60 vs 60/90 → chi2 = 12 with N=300? Compute:
        // rows (90,60),(60,90); row sums 150,150; col sums 150,150; E=75.
        // chi2 = 4 * (15^2/75) = 12.
        let (chi2, dof) = chi_squared(&[vec![90, 60], vec![60, 90]]);
        assert!((chi2 - 12.0).abs() < 1e-9);
        assert_eq!(dof, 1);
    }

    #[test]
    fn chi_squared_independent_table_is_zero() {
        let (chi2, dof) = chi_squared(&[vec![10, 20, 30], vec![20, 40, 60]]);
        assert!(chi2.abs() < 1e-9);
        assert_eq!(dof, 2);
    }

    #[test]
    fn zero_rows_and_cols_excluded() {
        let (chi2, dof) = chi_squared(&[vec![10, 0, 20], vec![0, 0, 0], vec![20, 0, 10]]);
        let (chi2b, dofb) = chi_squared(&[vec![10, 20], vec![20, 10]]);
        assert!((chi2 - chi2b).abs() < 1e-12);
        assert_eq!(dof, dofb);
    }

    #[test]
    fn degenerate_tables() {
        assert_eq!(chi_squared(&[]), (0.0, 0));
        assert_eq!(chi_squared(&[vec![5, 5]]), (0.0, 0)); // one row
        assert_eq!(chi_squared(&[vec![5], vec![7]]), (0.0, 0)); // one col
        assert_eq!(chi_squared(&[vec![0, 0], vec![0, 0]]), (0.0, 0));
    }

    #[test]
    #[should_panic(expected = "rectangular")]
    fn ragged_input_panics() {
        chi_squared(&[vec![1, 2], vec![3]]);
    }

    #[test]
    fn p_value_matches_tables() {
        // Standard critical values: chi2(1 dof): 3.841 → p=0.05, 6.635 → 0.01
        assert!((chi_squared_p_value(3.841, 1) - 0.05).abs() < 1e-3);
        assert!((chi_squared_p_value(6.635, 1) - 0.01).abs() < 1e-3);
        // chi2(2 dof) = 5.991 → 0.05
        assert!((chi_squared_p_value(5.991, 2) - 0.05).abs() < 1e-3);
        // chi2(10 dof) = 18.307 → 0.05
        assert!((chi_squared_p_value(18.307, 10) - 0.05).abs() < 1e-3);
    }

    #[test]
    fn p_value_edges() {
        assert_eq!(chi_squared_p_value(0.0, 5), 1.0);
        assert_eq!(chi_squared_p_value(10.0, 0), 1.0);
        assert!(chi_squared_p_value(1e6, 1) < 1e-12);
    }

    #[test]
    fn cramers_v_perfect_association() {
        let (chi2, _) = chi_squared(&[vec![50, 0], vec![0, 50]]);
        let v = cramers_v(chi2, 100, 2, 2);
        assert!((v - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cramers_v_no_association() {
        let (chi2, _) = chi_squared(&[vec![25, 25], vec![25, 25]]);
        assert_eq!(cramers_v(chi2, 100, 2, 2), 0.0);
    }

    #[test]
    fn cramers_v_degenerate() {
        assert_eq!(cramers_v(10.0, 0, 2, 2), 0.0);
        assert_eq!(cramers_v(10.0, 100, 1, 5), 0.0);
    }

    #[test]
    fn corrected_v_not_above_plain() {
        let (chi2, _) = chi_squared(&[vec![30, 20, 10], vec![10, 20, 30]]);
        let plain = cramers_v(chi2, 120, 2, 3);
        let corr = cramers_v_corrected(chi2, 120, 2, 3);
        assert!(corr <= plain + 1e-12);
        assert!(corr >= 0.0);
    }
}
