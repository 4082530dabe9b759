use crate::association::Association;
use crate::MulShift;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash};

/// A class × category frequency table (paper §V-C1, Table II).
///
/// Rows are secret-data classes (e.g. key bit 0 / key bit 1); columns are
/// categories (e.g. unique snapshot hashes). Cells count how often each
/// category was observed for each class.
///
/// Generic over the class (`C`) and category (`K`) types; MicroSampler uses
/// `C = u64` (class label) and `K = u64` (snapshot hash).
///
/// The counts are one flat vector, column by column, behind a hash index
/// from category to column, so recording is one hash probe and one add.
/// Columns are numbered as their categories are first seen; everything
/// the table shows (classes, categories, matrix, rendering) is in sorted
/// order, and [`association`](ContingencyTable::association) does not
/// depend on the column order (see [`crate::chi_squared`]).
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
#[derive(Clone, Debug)]
pub struct ContingencyTable<C = u64, K = u64> {
    /// The classes observed, sorted; a class's index is its row.
    classes: Vec<C>,
    /// Category → column, columns numbered in first-seen order.
    columns: HashMap<K, usize, BuildHasherDefault<MulShift>>,
    /// `counts[column * classes.len() + class]`.
    counts: Vec<u64>,
    total: u64,
}

impl<C, K> Default for ContingencyTable<C, K> {
    fn default() -> ContingencyTable<C, K> {
        ContingencyTable {
            classes: Vec::new(),
            columns: HashMap::default(),
            counts: Vec::new(),
            total: 0,
        }
    }
}

impl<C: Ord + Clone, K: Ord + Clone + Hash> ContingencyTable<C, K> {
    /// Creates an empty table.
    pub fn new() -> ContingencyTable<C, K> {
        ContingencyTable::default()
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
        let row = match self.classes.binary_search(&class) {
            Ok(row) => row,
            Err(row) => {
                self.insert_class(row, class);
                row
            }
        };
        let r = self.classes.len();
        let next = self.columns.len();
        let column = *self.columns.entry(category).or_insert(next);
        if column == next {
            self.counts.resize((next + 1) * r, 0);
        }
        self.counts[column * r + row] += n;
        self.total += n;
    }

    /// Adds `class` as row `row`, widening every column by one zero count.
    fn insert_class(&mut self, row: usize, class: C) {
        let r = self.classes.len();
        self.classes.insert(row, class);
        if r == 0 {
            // The first class: no column exists yet.
            return;
        }
        let mut counts = Vec::with_capacity(self.columns.len() * (r + 1));
        for column in self.counts.chunks_exact(r) {
            counts.extend_from_slice(&column[..row]);
            counts.push(0);
            counts.extend_from_slice(&column[row..]);
        }
        self.counts = counts;
    }

    /// Column `j`'s counts, in class order.
    fn column_at(&self, j: usize) -> &[u64] {
        let r = self.classes.len();
        &self.counts[j * r..(j + 1) * r]
    }

    /// The counts of `category`'s column, in class order.
    fn column(&self, category: &K) -> Option<&[u64]> {
        self.columns.get(category).map(|&j| self.column_at(j))
    }

    /// The categories in sorted order, each with its column's counts.
    fn sorted_columns(&self) -> Vec<(&K, &[u64])> {
        let mut columns: Vec<(&K, &[u64])> =
            self.columns.iter().map(|(k, &j)| (k, self.column_at(j))).collect();
        columns.sort_unstable_by(|a, b| a.0.cmp(b.0));
        columns
    }

    /// Count in a single cell.
    pub fn count(&self, class: &C, category: &K) -> u64 {
        match (self.classes.binary_search(class), self.column(category)) {
            (Ok(row), Some(column)) => column[row],
            _ => 0,
        }
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct classes observed.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Number of distinct categories observed.
    pub fn category_count(&self) -> usize {
        self.columns.len()
    }

    /// Classes in sorted order.
    pub fn classes(&self) -> impl Iterator<Item = &C> {
        self.classes.iter()
    }

    /// Categories in sorted order.
    pub fn categories(&self) -> impl Iterator<Item = &K> {
        self.sorted_columns().into_iter().map(|(k, _)| k)
    }

    /// Categories observed for `class`, in sorted order.
    pub fn categories_of(&self, class: &C) -> impl Iterator<Item = (&K, u64)> {
        let cells: Vec<(&K, u64)> = match self.classes.binary_search(class) {
            Ok(row) => self
                .sorted_columns()
                .into_iter()
                .map(|(k, column)| (k, column[row]))
                .filter(|&(_, n)| n > 0)
                .collect(),
            Err(_) => Vec::new(),
        };
        cells.into_iter()
    }

    /// Densifies the table into a rectangular count matrix
    /// (rows in class order, columns in category order).
    pub fn to_matrix(&self) -> Vec<Vec<u64>> {
        let columns = self.sorted_columns();
        (0..self.classes.len()).map(|i| columns.iter().map(|(_, c)| c[i]).collect()).collect()
    }

    /// Runs the full association analysis (χ², p-value, Cramér's V), with
    /// χ² summed in the label-free order of [`crate::chi_squared`], which
    /// is why the columns' first-seen order does not show.
    pub fn association(&self) -> Association {
        let (chi2, dof) = crate::chi_squared_by_column(&self.counts, self.classes.len());
        // Every recorded class and category has observations.
        let (live_rows, live_cols) = (self.classes.len() as u64, self.columns.len() as u64);
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

/// Tables are equal when their counts are, whatever order they were
/// recorded in.
impl<C: Ord + Clone, K: Ord + Clone + Hash> PartialEq for ContingencyTable<C, K> {
    fn eq(&self, other: &ContingencyTable<C, K>) -> bool {
        self.total == other.total
            && self.classes == other.classes
            && self.columns.len() == other.columns.len()
            && self.columns.keys().all(|k| self.column(k) == other.column(k))
    }
}

impl<C: Ord + Clone, K: Ord + Clone + Hash> Eq for ContingencyTable<C, K> {}

impl<C: Ord + Clone, K: Ord + Clone + Hash> FromIterator<(C, K)> for ContingencyTable<C, K> {
    fn from_iter<I: IntoIterator<Item = (C, K)>>(iter: I) -> Self {
        let mut t = ContingencyTable::new();
        for (c, k) in iter {
            t.record(c, k);
        }
        t
    }
}

impl<C: Ord + Clone, K: Ord + Clone + Hash> Extend<(C, K)> for ContingencyTable<C, K> {
    fn extend<I: IntoIterator<Item = (C, K)>>(&mut self, iter: I) {
        for (c, k) in iter {
            self.record(c, k);
        }
    }
}

impl<C: Ord + Clone + fmt::Display, K: Ord + Clone + Hash + fmt::Display> fmt::Display
    for ContingencyTable<C, K>
{
    /// Renders the table in the style of the paper's Table II.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let columns = self.sorted_columns();
        write!(f, "{:>12} |", "class\\hash")?;
        for (k, _) in &columns {
            write!(f, " {k:>12}")?;
        }
        writeln!(f)?;
        for (i, c) in self.classes.iter().enumerate() {
            write!(f, "{c:>12} |")?;
            for (_, column) in &columns {
                write!(f, " {:>12}", column[i])?;
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
