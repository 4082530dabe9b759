//! Property tests for the statistical core: invariants that must hold for
//! arbitrary contingency data.

use microsampler_stats::{
    chi_squared, chi_squared_p_value, cramers_v, cramers_v_corrected, gamma, siphash13,
    Association, ContingencyTable, SipHasher,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// An association's floating-point fields as bits, for exact comparison.
fn bits(a: &Association) -> [u64; 4] {
    [a.chi2, a.p_value, a.cramers_v, a.cramers_v_corrected].map(f64::to_bits)
}

/// The reference model of a table: class → category → count, every
/// count positive.
type Model = BTreeMap<u64, BTreeMap<u64, u64>>;

fn model_categories(model: &Model) -> Vec<u64> {
    let mut all: Vec<u64> = model.values().flat_map(|row| row.keys().copied()).collect();
    all.sort_unstable();
    all.dedup();
    all
}

fn model_matrix(model: &Model) -> Vec<Vec<u64>> {
    let categories = model_categories(model);
    model
        .values()
        .map(|row| categories.iter().map(|k| row.get(k).copied().unwrap_or(0)).collect())
        .collect()
}

/// The model rendered in the table's Table II layout.
fn model_display(model: &Model) -> String {
    let mut out = format!("{:>12} |", "class\\hash");
    for k in model_categories(model) {
        let _ = write!(out, " {k:>12}");
    }
    out.push('\n');
    for (c, row) in model.iter().zip(model_matrix(model)) {
        let _ = write!(out, "{:>12} |", c.0);
        for n in row {
            let _ = write!(out, " {n:>12}");
        }
        out.push('\n');
    }
    out
}

fn table_strategy() -> impl Strategy<Value = Vec<Vec<u64>>> {
    // Up to 4 classes x 12 categories with counts 0..50.
    (2usize..=4, 2usize..=12).prop_flat_map(|(r, k)| {
        proptest::collection::vec(proptest::collection::vec(0u64..50, k), r)
    })
}

proptest! {
    #[test]
    fn chi2_nonnegative_and_v_in_unit_interval(rows in table_strategy()) {
        let (chi2, dof) = chi_squared(&rows);
        prop_assert!(chi2 >= 0.0);
        let n: u64 = rows.iter().flatten().sum();
        let live_rows = rows.iter().filter(|r| r.iter().any(|&c| c > 0)).count() as u64;
        let live_cols = (0..rows[0].len())
            .filter(|&j| rows.iter().any(|r| r[j] > 0))
            .count() as u64;
        let v = cramers_v(chi2, n, live_rows, live_cols);
        prop_assert!((0.0..=1.0).contains(&v), "v={v}");
        let vc = cramers_v_corrected(chi2, n, live_rows, live_cols);
        prop_assert!((0.0..=1.0).contains(&vc), "vc={vc}");
        let p = chi_squared_p_value(chi2, dof);
        prop_assert!((0.0..=1.0).contains(&p), "p={p}");
    }

    #[test]
    fn chi2_invariant_under_row_permutation(rows in table_strategy()) {
        let (a, dof_a) = chi_squared(&rows);
        let mut rev = rows.clone();
        rev.reverse();
        let (b, dof_b) = chi_squared(&rev);
        prop_assert!((a - b).abs() < 1e-9 * (1.0 + a.abs()));
        prop_assert_eq!(dof_a, dof_b);
    }

    #[test]
    fn chi2_invariant_under_column_permutation(rows in table_strategy()) {
        let (a, _) = chi_squared(&rows);
        let permuted: Vec<Vec<u64>> =
            rows.iter().map(|r| r.iter().rev().copied().collect()).collect();
        let (b, _) = chi_squared(&permuted);
        prop_assert!((a - b).abs() < 1e-9 * (1.0 + a.abs()));
    }

    #[test]
    fn duplicating_rows_preserves_independence_verdict(row in proptest::collection::vec(1u64..50, 2..8)) {
        // A table whose rows are identical is perfectly independent.
        let rows = vec![row.clone(), row.clone(), row];
        let (chi2, _) = chi_squared(&rows);
        prop_assert!(chi2.abs() < 1e-6, "chi2={chi2}");
    }

    #[test]
    fn scaling_counts_scales_chi2_linearly(rows in table_strategy(), factor in 2u64..5) {
        let (a, dof_a) = chi_squared(&rows);
        let scaled: Vec<Vec<u64>> =
            rows.iter().map(|r| r.iter().map(|&c| c * factor).collect()).collect();
        let (b, dof_b) = chi_squared(&scaled);
        prop_assert_eq!(dof_a, dof_b);
        prop_assert!((b - a * factor as f64).abs() < 1e-6 * (1.0 + b.abs()), "a={a} b={b}");
    }

    #[test]
    fn contingency_matches_manual_matrix(obs in proptest::collection::vec((0u64..3, 0u64..6), 1..200)) {
        let table: ContingencyTable<u64, u64> = obs.iter().copied().collect();
        let matrix = table.to_matrix();
        let total: u64 = matrix.iter().flatten().sum();
        prop_assert_eq!(total, obs.len() as u64);
        prop_assert_eq!(table.total(), obs.len() as u64);
        // Association must agree with computing from the dense matrix.
        let (chi2, dof) = chi_squared(&matrix);
        let assoc = table.association();
        prop_assert!((assoc.chi2 - chi2).abs() < 1e-9);
        prop_assert_eq!(assoc.dof, dof);
    }

    #[test]
    fn gamma_p_q_complementary(a in 0.25f64..50.0, x in 0.0f64..100.0) {
        let s = gamma::gamma_p(a, x) + gamma::gamma_q(a, x);
        prop_assert!((s - 1.0).abs() < 1e-9, "a={a} x={x} sum={s}");
    }

    #[test]
    fn p_value_monotone_in_chi2(dof in 1u64..30, base in 0.0f64..50.0, delta in 0.0f64..50.0) {
        let p1 = chi_squared_p_value(base, dof);
        let p2 = chi_squared_p_value(base + delta, dof);
        prop_assert!(p2 <= p1 + 1e-12, "p must not increase with chi2");
    }

    /// A table's association must be *bit-identical* (exact f64 equality,
    /// not approximate) whatever order its observations were recorded in:
    /// the invariant that lets a sequential look over an incrementally
    /// recorded table stand for the batch answer.
    #[test]
    fn association_is_bit_identical_under_any_recording_order(
        obs in proptest::collection::vec((0u64..3, 0u64..8), 1..300),
        seed in any::<u64>(),
    ) {
        let table: ContingencyTable<u64, u64> = obs.iter().copied().collect();
        // Deterministic Fisher–Yates shuffle driven by the seeded LCG.
        let mut shuffled = obs.clone();
        let mut state = seed | 1;
        for i in (1..shuffled.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            shuffled.swap(i, j);
        }
        let reordered: ContingencyTable<u64, u64> = shuffled.into_iter().collect();
        prop_assert_eq!(bits(&reordered.association()), bits(&table.association()));
        prop_assert_eq!(reordered.association(), table.association());
    }

    /// Relabelling a table's categories by an injective map (here a
    /// bijection of `u64`, so the labels' order changes too) leaves its
    /// association bit-identical: the statistics see only which
    /// observations share a category, as a relabelled snapshot hash would
    /// leave them.
    #[test]
    fn association_is_bit_identical_under_category_relabelling(
        obs in proptest::collection::vec((0u64..3, 0u64..8), 1..300),
        key in (any::<u64>(), any::<u64>(), 0u32..64),
    ) {
        let (xor, mul, rot) = key;
        let relabel = |k: u64| (k ^ xor).wrapping_mul(mul | 1).rotate_left(rot);
        let table: ContingencyTable<u64, u64> = obs.iter().copied().collect();
        let relabelled: ContingencyTable<u64, u64> =
            obs.iter().map(|&(class, k)| (class, relabel(k))).collect();
        prop_assert_eq!(bits(&relabelled.association()), bits(&table.association()));
        prop_assert_eq!(relabelled.association(), table.association());
    }

    #[test]
    fn siphash_deterministic_and_input_sensitive(data in proptest::collection::vec(any::<u8>(), 0..128)) {
        let h1 = siphash13(1, 2, &data);
        let h2 = siphash13(1, 2, &data);
        prop_assert_eq!(h1, h2);
        // Flipping any single byte changes the digest (overwhelmingly).
        if !data.is_empty() {
            let mut flipped = data.clone();
            flipped[0] ^= 0xFF;
            prop_assert_ne!(siphash13(1, 2, &flipped), h1);
        }
    }

    /// `write_u64`'s and `write_u64s`'s aligned fast paths must give the
    /// digest of the byte stream they stand for, whatever unaligned writes
    /// came before: each step writes a word, a run of words, or a run of
    /// 0–11 bytes.
    #[test]
    fn word_writes_equal_le_bytes_after_any_write_mix(
        steps in proptest::collection::vec(
            (0u8..3, any::<u64>(), proptest::collection::vec(any::<u8>(), 0..12)),
            0..40,
        ),
        sip13 in any::<bool>(),
    ) {
        let new = || if sip13 { SipHasher::new_1_3(5, 6) } else { SipHasher::new_2_4(5, 6) };
        let (mut fast, mut bytes) = (new(), new());
        for (kind, v, run) in &steps {
            match kind {
                0 => {
                    fast.write_u64(*v);
                    bytes.write(&v.to_le_bytes());
                }
                1 => {
                    let words: Vec<u64> = run.iter().map(|&b| v.rotate_left(b as u32)).collect();
                    fast.write_u64s(&words);
                    for w in &words {
                        bytes.write(&w.to_le_bytes());
                    }
                }
                _ => {
                    fast.write(run);
                    bytes.write(run);
                }
            }
        }
        prop_assert_eq!(fast.finish(), bytes.finish());
    }

    /// The flat table against a `BTreeMap` model fed the same
    /// `(class, category, n)` stream. The stream opens with class 2 only,
    /// so classes 0 and 1 (and 3 and 4) first appear after columns exist
    /// and widen every column. Every accessor and the rendering match the
    /// model, and the association equals, to the bit, the one computed
    /// through `chi_squared` from the model's matrix.
    #[test]
    fn flat_table_matches_a_btreemap_model(
        head in proptest::collection::vec((0u64..12, 1u64..4), 1..8),
        tail in proptest::collection::vec((0u64..5, 0u64..12, 0u64..4), 0..200),
        spread in any::<bool>(),
    ) {
        // Large, unordered labels as snapshot hashes are, or small ones.
        let label = |k: u64| if spread { k.wrapping_mul(0x9e37_79b9_7f4a_7c15) } else { k };
        let stream: Vec<(u64, u64, u64)> = head
            .iter()
            .map(|&(k, n)| (2, label(k), n))
            .chain(tail.iter().map(|&(c, k, n)| (c, label(k), n)))
            .collect();
        let mut table: ContingencyTable<u64, u64> = ContingencyTable::new();
        let mut model = Model::new();
        for &(c, k, n) in &stream {
            table.record_n(c, k, n);
            if n > 0 {
                *model.entry(c).or_default().entry(k).or_insert(0) += n;
            }
        }
        let categories = model_categories(&model);
        let total: u64 = model.values().flat_map(|row| row.values()).sum();
        prop_assert_eq!(table.total(), total);
        prop_assert_eq!(table.class_count(), model.len());
        prop_assert_eq!(table.category_count(), categories.len());
        prop_assert_eq!(table.classes().copied().collect::<Vec<_>>(), model.keys().copied().collect::<Vec<_>>());
        prop_assert_eq!(table.categories().copied().collect::<Vec<_>>(), categories.clone());
        for c in 0..6u64 {
            let want: Vec<(u64, u64)> =
                model.get(&c).map_or(Vec::new(), |row| row.iter().map(|(&k, &n)| (k, n)).collect());
            let got: Vec<(u64, u64)> = table.categories_of(&c).map(|(&k, n)| (k, n)).collect();
            prop_assert_eq!(got, want);
            for &k in categories.iter().chain([&label(99)]) {
                let want = model.get(&c).and_then(|row| row.get(&k)).copied().unwrap_or(0);
                prop_assert_eq!(table.count(&c, &k), want);
            }
        }
        let matrix = model_matrix(&model);
        prop_assert_eq!(table.to_matrix(), matrix.clone());
        prop_assert_eq!(table.to_string(), model_display(&model));

        let (chi2, dof) = chi_squared(&matrix);
        let (rows, cols) = (model.len() as u64, categories.len() as u64);
        let want = Association {
            chi2,
            dof,
            p_value: chi_squared_p_value(chi2, dof),
            cramers_v: cramers_v(chi2, total, rows, cols),
            cramers_v_corrected: cramers_v_corrected(chi2, total, rows, cols),
            n: total,
            classes: rows,
            categories: cols,
        };
        let got = table.association();
        prop_assert_eq!(bits(&got), bits(&want));
        prop_assert_eq!(got, want);

        // Equal counts make equal tables, whatever the recording order.
        let mut sorted = stream.clone();
        sorted.sort_unstable();
        let mut resorted = ContingencyTable::new();
        for (c, k, n) in sorted {
            resorted.record_n(c, k, n);
        }
        prop_assert!(resorted == table);
        resorted.record(7, label(0));
        prop_assert!(resorted != table);
    }
}
