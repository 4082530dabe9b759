//! Correlation root-cause analysis (paper §V-C3): once a unit is flagged,
//! find the microarchitectural *features* responsible.
//!
//! Two criteria:
//!
//! * **Feature uniqueness** — features (addresses, PCs, activity words)
//!   present predominantly in one class: the union of each class's features
//!   minus the features shared by all classes.
//! * **Feature ordering** — features present in all classes but
//!   *consistently* observed in a different chronological order per class.

use microsampler_sim::{IterationTrace, UnitId};
use std::collections::{BTreeMap, BTreeSet};

/// Per-class unique features for one unit (drives the paper's Fig. 5
/// scatter).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UniquenessReport {
    /// The unit analyzed.
    pub unit: UnitId,
    /// Features observed (in any iteration) of each class.
    pub class_features: BTreeMap<u64, BTreeSet<u64>>,
    /// Features seen in every class — removed from the unique sets.
    pub shared: BTreeSet<u64>,
    /// `class -> features unique to that class` (never seen in any other).
    pub unique: BTreeMap<u64, BTreeSet<u64>>,
}

impl UniquenessReport {
    /// True when at least one class has a feature no other class shows.
    pub fn has_unique_features(&self) -> bool {
        self.unique.values().any(|s| !s.is_empty())
    }

    /// Total number of unique features across classes.
    pub fn unique_count(&self) -> usize {
        self.unique.values().map(BTreeSet::len).sum()
    }
}

/// The features collected for `unit` in `it`.
///
/// # Panics
///
/// If `it` was traced without `unit` in its feature set: a missing set is
/// not an empty one.
fn features(it: &IterationTrace, unit: UnitId) -> &[u64] {
    it.unit(unit).order.as_deref().unwrap_or_else(|| {
        panic!(
            "an iteration (label {}) has no {unit} features: trace it with {unit} in \
             TraceConfig::features",
            it.label
        )
    })
}

/// Extracts feature uniqueness for `unit` (paper §V-C3 criterion 1).
///
/// # Panics
///
/// If an iteration was traced without `unit`'s features
/// ([`microsampler_sim::TraceConfig::features`]).
pub fn feature_uniqueness(iterations: &[IterationTrace], unit: UnitId) -> UniquenessReport {
    let _stage = microsampler_obs::span::span("extract");
    let _span = microsampler_obs::span::span("uniqueness");
    let mut class_features: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    for it in iterations {
        class_features.entry(it.label).or_default().extend(features(it, unit));
    }
    let mut shared: Option<BTreeSet<u64>> = None;
    for feats in class_features.values() {
        shared = Some(match shared {
            None => feats.clone(),
            Some(s) => s.intersection(feats).copied().collect(),
        });
    }
    let shared = shared.unwrap_or_default();
    // A feature is unique to a class if no *other* class ever shows it.
    let mut all_others: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    for &c in class_features.keys() {
        let mut others = BTreeSet::new();
        for (&o, feats) in &class_features {
            if o != c {
                others.extend(feats.iter().copied());
            }
        }
        all_others.insert(c, others);
    }
    let unique = class_features
        .iter()
        .map(|(&c, feats)| (c, feats.difference(&all_others[&c]).copied().collect()))
        .collect();
    UniquenessReport { unit, class_features, shared, unique }
}

/// A pair of features whose chronological order differs consistently
/// between two classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OrderMismatch {
    /// First class.
    pub class_a: u64,
    /// Second class.
    pub class_b: u64,
    /// Feature observed earlier in `class_a` but later in `class_b`.
    pub first_in_a: u64,
    /// Feature observed later in `class_a` but earlier in `class_b`.
    pub first_in_b: u64,
}

/// Per-class dominant feature orderings and the mismatches between them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OrderingReport {
    /// The unit analyzed.
    pub unit: UnitId,
    /// `class -> dominant first-occurrence order` (the most frequent order
    /// signature among that class's iterations).
    pub class_orders: BTreeMap<u64, Vec<u64>>,
    /// Feature pairs consistently ordered differently across classes.
    pub mismatches: Vec<OrderMismatch>,
}

impl OrderingReport {
    /// True when any cross-class ordering mismatch was found.
    pub fn has_mismatches(&self) -> bool {
        !self.mismatches.is_empty()
    }
}

/// Extracts feature-ordering mismatches for `unit` (paper §V-C3
/// criterion 2). For each class the *dominant* (most frequent)
/// first-occurrence order is taken; for every pair of classes, every pair
/// of features common to both orders that appears in opposite relative
/// order is reported.
///
/// # Panics
///
/// If an iteration was traced without `unit`'s features
/// ([`microsampler_sim::TraceConfig::features`]).
pub fn feature_ordering(iterations: &[IterationTrace], unit: UnitId) -> OrderingReport {
    let _stage = microsampler_obs::span::span("extract");
    let _span = microsampler_obs::span::span("ordering");
    // Dominant order signature per class.
    let mut counts: BTreeMap<u64, BTreeMap<Vec<u64>, usize>> = BTreeMap::new();
    for it in iterations {
        *counts.entry(it.label).or_default().entry(features(it, unit).to_vec()).or_insert(0) += 1;
    }
    let class_orders: BTreeMap<u64, Vec<u64>> = counts
        .into_iter()
        .map(|(class, orders)| {
            let dominant = orders
                .into_iter()
                .max_by_key(|(order, n)| (*n, std::cmp::Reverse(order.clone())))
                .map(|(order, _)| order)
                .unwrap_or_default();
            (class, dominant)
        })
        .collect();

    let mut mismatches = Vec::new();
    let classes: Vec<u64> = class_orders.keys().copied().collect();
    for (i, &a) in classes.iter().enumerate() {
        for &b in &classes[i + 1..] {
            let order_a = &class_orders[&a];
            let order_b = &class_orders[&b];
            let pos_b: BTreeMap<u64, usize> =
                order_b.iter().enumerate().map(|(p, &f)| (f, p)).collect();
            // Common features in class-a order.
            let common: Vec<(u64, usize)> =
                order_a.iter().filter_map(|f| pos_b.get(f).map(|&p| (*f, p))).collect();
            for (x, (fx, px)) in common.iter().enumerate() {
                for (fy, py) in &common[x + 1..] {
                    // fx precedes fy in class a; if fy precedes fx in b,
                    // that's an ordering mismatch.
                    if py < px {
                        mismatches.push(OrderMismatch {
                            class_a: a,
                            class_b: b,
                            first_in_a: *fx,
                            first_in_b: *fy,
                        });
                    }
                }
            }
        }
    }
    OrderingReport { unit, class_orders, mismatches }
}

/// Maps observed feature values of one unit to the values of a paired
/// unit at the same queue slot and cycle — e.g. `SQ-ADDR → SQ-PC` answers
/// "which instructions produced these store addresses?" (paper §VII-A2:
/// the flagged `ME-V1-MV` addresses all map back to `memmove`).
///
/// Requires raw matrices ([`microsampler_sim::TraceConfig::keep_matrices`]);
/// returns `None` when any iteration lacks them.
pub fn map_features(
    iterations: &[IterationTrace],
    value_unit: UnitId,
    key_unit: UnitId,
) -> Option<BTreeMap<u64, BTreeSet<u64>>> {
    let _stage = microsampler_obs::span::span("extract");
    let _span = microsampler_obs::span::span("map");
    let mut map: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    for it in iterations {
        let values = it.unit(value_unit).rows.as_ref()?;
        let keys = it.unit(key_unit).rows.as_ref()?;
        for (vrow, krow) in values.iter().zip(keys) {
            for (slot, &v) in vrow.iter().enumerate() {
                if v == 0 {
                    continue;
                }
                if let Some(&k) = krow.get(slot) {
                    if k != 0 {
                        map.entry(v).or_default().insert(k);
                    }
                }
            }
        }
    }
    Some(map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use microsampler_sim::{TraceConfig, Tracer, UnitSet};

    /// Builds iterations where each class's SQ-ADDR rows contain the given
    /// feature sequences.
    fn traces(per_class_rows: &[(u64, Vec<Vec<u64>>)], reps: usize) -> Vec<IterationTrace> {
        traces_with(TraceConfig::default(), per_class_rows, reps)
    }

    /// [`traces`] under `cfg`.
    fn traces_with(
        cfg: TraceConfig,
        per_class_rows: &[(u64, Vec<Vec<u64>>)],
        reps: usize,
    ) -> Vec<IterationTrace> {
        let mut tracer = Tracer::new(cfg);
        tracer.scr_start(0);
        let mut t = 0;
        for _ in 0..reps {
            for (label, rows) in per_class_rows {
                tracer.iter_start(t, *label);
                for (c, row) in rows.iter().enumerate() {
                    tracer.begin_cycle(t + c as u64 + 1);
                    for unit in UnitId::ALL {
                        if unit == UnitId::SqAddr {
                            tracer.record_row(unit, row);
                        } else {
                            tracer.record_row(unit, &[0]);
                        }
                    }
                }
                t += 100;
                tracer.iter_end(t);
            }
        }
        tracer.scr_end(u64::MAX);
        tracer.iterations
    }

    #[test]
    fn uniqueness_separates_classes() {
        // Class 0 touches 0xA00 and 0xC00; class 1 touches 0xB00 and 0xC00.
        let iters = traces(
            &[(0, vec![vec![0xA00, 0], vec![0xC00, 0]]), (1, vec![vec![0xB00, 0], vec![0xC00, 0]])],
            3,
        );
        let r = feature_uniqueness(&iters, UnitId::SqAddr);
        assert!(r.has_unique_features());
        assert_eq!(r.unique[&0], [0xA00].into());
        assert_eq!(r.unique[&1], [0xB00].into());
        assert_eq!(r.shared, [0xC00].into());
        assert_eq!(r.unique_count(), 2);
    }

    #[test]
    fn no_uniqueness_when_classes_identical() {
        let iters = traces(&[(0, vec![vec![0xA00, 0xB00]]), (1, vec![vec![0xA00, 0xB00]])], 2);
        let r = feature_uniqueness(&iters, UnitId::SqAddr);
        assert!(!r.has_unique_features());
        assert_eq!(r.shared, [0xA00, 0xB00].into());
    }

    #[test]
    fn ordering_mismatch_detected() {
        // Same features, opposite order per class.
        let iters = traces(
            &[(0, vec![vec![0x111, 0], vec![0x222, 0]]), (1, vec![vec![0x222, 0], vec![0x111, 0]])],
            4,
        );
        let uniq = feature_uniqueness(&iters, UnitId::SqAddr);
        assert!(!uniq.has_unique_features(), "features are shared, only order differs");
        let ord = feature_ordering(&iters, UnitId::SqAddr);
        assert!(ord.has_mismatches());
        let m = ord.mismatches[0];
        assert_eq!((m.first_in_a, m.first_in_b), (0x111, 0x222));
    }

    #[test]
    fn consistent_order_is_clean() {
        let iters = traces(
            &[(0, vec![vec![0x111, 0], vec![0x222, 0]]), (1, vec![vec![0x111, 0], vec![0x222, 0]])],
            4,
        );
        let ord = feature_ordering(&iters, UnitId::SqAddr);
        assert!(!ord.has_mismatches());
        assert_eq!(ord.class_orders[&0], vec![0x111, 0x222]);
    }

    #[test]
    fn dominant_order_wins_over_noise() {
        // Class 1 mostly orders (B, A) but one noisy iteration is (A, B).
        let mut rows =
            vec![(0, vec![vec![0xA, 0], vec![0xB, 0]]), (1, vec![vec![0xB, 0], vec![0xA, 0]])];
        let mut iters = traces(&rows, 5);
        rows[1] = (1, vec![vec![0xA, 0], vec![0xB, 0]]);
        iters.extend(traces(&rows, 1).into_iter().filter(|i| i.label == 1));
        let ord = feature_ordering(&iters, UnitId::SqAddr);
        assert_eq!(ord.class_orders[&1], vec![0xB, 0xA], "dominant order should win");
        assert!(ord.has_mismatches());
    }

    #[test]
    fn map_features_pairs_slots_positionally() {
        let mut tracer = Tracer::new(TraceConfig { keep_matrices: true, ..TraceConfig::default() });
        tracer.scr_start(0);
        tracer.iter_start(0, 0);
        tracer.begin_cycle(1);
        for unit in UnitId::ALL {
            match unit {
                UnitId::SqAddr => tracer.record_row(unit, &[0xA00, 0xB00, 0]),
                UnitId::SqPc => tracer.record_row(unit, &[0x100, 0x104, 0]),
                _ => tracer.record_row(unit, &[0]),
            }
        }
        tracer.begin_cycle(2);
        for unit in UnitId::ALL {
            match unit {
                UnitId::SqAddr => tracer.record_row(unit, &[0xA00, 0, 0]),
                UnitId::SqPc => tracer.record_row(unit, &[0x108, 0, 0]),
                _ => tracer.record_row(unit, &[0]),
            }
        }
        tracer.iter_end(3);
        tracer.scr_end(4);
        let map =
            map_features(&tracer.iterations, UnitId::SqAddr, UnitId::SqPc).expect("matrices kept");
        assert_eq!(map[&0xA00], [0x100, 0x108].into());
        assert_eq!(map[&0xB00], [0x104].into());
    }

    #[test]
    fn map_features_requires_matrices() {
        let iters = traces(&[(0, vec![vec![0x1, 0]])], 1);
        assert!(map_features(&iters, UnitId::SqAddr, UnitId::SqPc).is_none());
    }

    /// Iterations traced without SQ-ADDR's features, though with every
    /// other unit's.
    fn traces_without_sq_addr() -> Vec<IterationTrace> {
        let others: Vec<UnitId> =
            UnitId::ALL.into_iter().filter(|&u| u != UnitId::SqAddr).collect();
        let cfg = TraceConfig { features: UnitSet::of(&others), ..TraceConfig::default() };
        traces_with(cfg, &[(0, vec![vec![0xA00, 0]]), (1, vec![vec![0xB00, 0]])], 2)
    }

    #[test]
    #[should_panic(
        expected = "no SQ-ADDR features: trace it with SQ-ADDR in TraceConfig::features"
    )]
    fn uniqueness_refuses_iterations_without_the_units_features() {
        feature_uniqueness(&traces_without_sq_addr(), UnitId::SqAddr);
    }

    #[test]
    #[should_panic(
        expected = "no SQ-ADDR features: trace it with SQ-ADDR in TraceConfig::features"
    )]
    fn ordering_refuses_iterations_without_the_units_features() {
        feature_ordering(&traces_without_sq_addr(), UnitId::SqAddr);
    }

    #[test]
    fn three_classes_pairwise() {
        let iters = traces(
            &[(0, vec![vec![0x1, 0x2]]), (1, vec![vec![0x1, 0x2]]), (2, vec![vec![0x2, 0x1]])],
            3,
        );
        let ord = feature_ordering(&iters, UnitId::SqAddr);
        // Mismatches against class 2 from both class 0 and class 1.
        assert_eq!(ord.mismatches.len(), 2);
        assert!(ord.mismatches.iter().all(|m| m.class_b == 2));
    }
}
