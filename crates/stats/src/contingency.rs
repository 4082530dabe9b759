use crate::association::Association;
use std::collections::BTreeMap;
use std::fmt;
use std::hash::Hash;

/// A class × category frequency table (paper §V-C1, Table II).
///
/// Rows are secret-data classes (e.g. key bit 0 / key bit 1); columns are
/// categories (e.g. unique snapshot hashes). Cells count how often each
/// category was observed for each class.
///
/// Generic over the class (`C`) and category (`K`) types; MicroSampler uses
/// `C = u64` (class label) and `K = u64` (snapshot hash).
///
/// # Example
///
/// ```
/// use microsampler_stats::ContingencyTable;
/// let mut t = ContingencyTable::new();
/// t.record("bit0", 0xAAAA_u64);
/// t.record("bit1", 0xBBBB_u64);
/// t.record("bit1", 0xBBBB_u64);
/// assert_eq!(t.count(&"bit1", &0xBBBB), 2);
/// assert_eq!(t.total(), 3);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ContingencyTable<C = u64, K = u64>
where
    C: Ord,
    K: Ord,
{
    cells: BTreeMap<C, BTreeMap<K, u64>>,
    categories: BTreeMap<K, u64>,
    total: u64,
}

impl<C: Ord + Clone, K: Ord + Clone> ContingencyTable<C, K> {
    /// Creates an empty table.
    pub fn new() -> ContingencyTable<C, K> {
        ContingencyTable { cells: BTreeMap::new(), categories: BTreeMap::new(), total: 0 }
    }

    /// Records one observation of `category` under `class`.
    pub fn record(&mut self, class: C, category: K) {
        self.record_n(class, category, 1);
    }

    /// Records `n` observations at once.
    pub fn record_n(&mut self, class: C, category: K, n: u64) {
        if n == 0 {
            return;
        }
        *self.cells.entry(class).or_default().entry(category.clone()).or_insert(0) += n;
        *self.categories.entry(category).or_insert(0) += n;
        self.total += n;
    }

    /// Count in a single cell.
    pub fn count(&self, class: &C, category: &K) -> u64 {
        self.cells.get(class).and_then(|row| row.get(category)).copied().unwrap_or(0)
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct classes observed.
    pub fn class_count(&self) -> usize {
        self.cells.len()
    }

    /// Number of distinct categories observed.
    pub fn category_count(&self) -> usize {
        self.categories.len()
    }

    /// Classes in sorted order.
    pub fn classes(&self) -> impl Iterator<Item = &C> {
        self.cells.keys()
    }

    /// Categories in sorted order.
    pub fn categories(&self) -> impl Iterator<Item = &K> {
        self.categories.keys()
    }

    /// Categories observed for `class`.
    pub fn categories_of(&self, class: &C) -> impl Iterator<Item = (&K, u64)> {
        self.cells.get(class).into_iter().flat_map(|row| row.iter().map(|(k, &n)| (k, n)))
    }

    /// Densifies the table into a rectangular count matrix
    /// (rows in class order, columns in category order).
    pub fn to_matrix(&self) -> Vec<Vec<u64>> {
        self.cells
            .values()
            .map(|row| self.categories.keys().map(|k| row.get(k).copied().unwrap_or(0)).collect())
            .collect()
    }

    /// The counts column by column: `counts[j * r + i]` is the count of
    /// the `i`-th class for the `j`-th category, both in sorted order, with
    /// `r` the number of classes.
    fn column_counts(&self) -> Vec<u64> {
        let r = self.cells.len();
        let mut counts = vec![0; self.categories.len() * r];
        for (i, row) in self.cells.values().enumerate() {
            // A class's categories are a sorted subsequence of all of them.
            let mut all = self.categories.keys().enumerate();
            for (cat, &n) in row {
                let (j, _) = all.find(|&(_, k)| k == cat).expect("a recorded category");
                counts[j * r + i] = n;
            }
        }
        counts
    }

    /// Runs the full association analysis (χ², p-value, Cramér's V), with
    /// χ² summed in the label-free order of [`crate::chi_squared`].
    pub fn association(&self) -> Association {
        let (chi2, dof) = crate::chi_squared_by_column(&self.column_counts(), self.cells.len());
        // Every recorded class and category has observations.
        let (live_rows, live_cols) = (self.cells.len() as u64, self.categories.len() as u64);
        Association {
            chi2,
            dof,
            p_value: crate::chi_squared_p_value(chi2, dof),
            cramers_v: crate::cramers_v(chi2, self.total, live_rows, live_cols),
            cramers_v_corrected: crate::cramers_v_corrected(chi2, self.total, live_rows, live_cols),
            n: self.total,
            classes: live_rows,
            categories: live_cols,
        }
    }
}

impl<C: Ord + Clone + Hash, K: Ord + Clone + Hash> FromIterator<(C, K)> for ContingencyTable<C, K> {
    fn from_iter<I: IntoIterator<Item = (C, K)>>(iter: I) -> Self {
        let mut t = ContingencyTable::new();
        for (c, k) in iter {
            t.record(c, k);
        }
        t
    }
}

impl<C: Ord + Clone + Hash, K: Ord + Clone + Hash> Extend<(C, K)> for ContingencyTable<C, K> {
    fn extend<I: IntoIterator<Item = (C, K)>>(&mut self, iter: I) {
        for (c, k) in iter {
            self.record(c, k);
        }
    }
}

impl<C: Ord + Clone + fmt::Display, K: Ord + Clone + fmt::Display> fmt::Display
    for ContingencyTable<C, K>
{
    /// Renders the table in the style of the paper's Table II.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:>12} |", "class\\hash")?;
        for k in self.categories.keys() {
            write!(f, " {k:>12}")?;
        }
        writeln!(f)?;
        for (c, row) in &self.cells {
            write!(f, "{c:>12} |")?;
            for k in self.categories.keys() {
                write!(f, " {:>12}", row.get(k).copied().unwrap_or(0))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_count() {
        let mut t = ContingencyTable::new();
        t.record(0u8, 10u64);
        t.record(0u8, 10u64);
        t.record(1u8, 20u64);
        assert_eq!(t.count(&0, &10), 2);
        assert_eq!(t.count(&0, &20), 0);
        assert_eq!(t.count(&1, &20), 1);
        assert_eq!(t.total(), 3);
        assert_eq!(t.class_count(), 2);
        assert_eq!(t.category_count(), 2);
    }

    #[test]
    fn record_n_zero_is_noop() {
        let mut t: ContingencyTable<u8, u64> = ContingencyTable::new();
        t.record_n(0, 1, 0);
        assert_eq!(t.total(), 0);
        assert_eq!(t.class_count(), 0);
    }

    #[test]
    fn matrix_is_rectangular_and_ordered() {
        let t: ContingencyTable<u8, u64> =
            [(1u8, 5u64), (0, 3), (0, 5), (1, 3), (1, 3)].into_iter().collect();
        // classes 0,1; categories 3,5
        assert_eq!(t.to_matrix(), vec![vec![1, 1], vec![2, 1]]);
    }

    #[test]
    fn association_detects_perfect_split() {
        let mut t = ContingencyTable::new();
        for _ in 0..100 {
            t.record(0u8, 111u64);
            t.record(1u8, 222u64);
        }
        let a = t.association();
        assert!((a.cramers_v - 1.0).abs() < 1e-9);
        assert!(a.p_value < 1e-6);
        assert!(a.is_leak());
    }

    #[test]
    fn association_clears_identical_distributions() {
        let mut t = ContingencyTable::new();
        for _ in 0..100 {
            for h in [7u64, 8, 9] {
                t.record(0u8, h);
                t.record(1u8, h);
            }
        }
        let a = t.association();
        assert!(a.cramers_v < 1e-9);
        assert!(!a.is_leak());
    }

    #[test]
    fn single_category_is_no_evidence() {
        let mut t = ContingencyTable::new();
        for _ in 0..50 {
            t.record(0u8, 42u64);
            t.record(1u8, 42u64);
        }
        let a = t.association();
        assert_eq!(a.cramers_v, 0.0);
        assert_eq!(a.p_value, 1.0);
    }

    #[test]
    fn display_contains_counts() {
        let mut t = ContingencyTable::new();
        t.record_n(0u8, 100u64, 234);
        t.record_n(1u8, 100u64, 256);
        let s = t.to_string();
        assert!(s.contains("234"));
        assert!(s.contains("256"));
    }

    #[test]
    fn extend_merges() {
        let mut t: ContingencyTable<u8, u64> = ContingencyTable::new();
        t.extend([(0u8, 1u64), (0, 1)]);
        t.extend([(0u8, 1u64)]);
        assert_eq!(t.count(&0, &1), 3);
    }
}
