use crate::report::AnalysisReport;
use crate::SequentialAnalyzer;
use microsampler_sim::{IterationTrace, UnitId};
use microsampler_stats::ContingencyTable;

/// The contingency table of one unit: classes × snapshot hashes (paper
/// Table II). `timeless` selects the timing-removed hashes.
pub fn contingency(
    iterations: &[IterationTrace],
    unit: UnitId,
    timeless: bool,
) -> ContingencyTable<u64, u64> {
    let mut table = ContingencyTable::new();
    for it in iterations {
        let u = it.unit(unit);
        table.record(it.label, if timeless { u.hash_timeless } else { u.hash });
    }
    table
}

/// Analyzes all sixteen tracked units over `iterations` (paper §V-C): a
/// default [`SequentialAnalyzer`] ingests them in order and reports, under
/// the `correlate` span.
///
/// The verdict thresholds are the paper's: Cramér's V > 0.5 is "strong",
/// p < 0.05 is "significant", and a leak needs both. They live on the
/// [`Association`](microsampler_stats::Association) verdict.
pub fn analyze(iterations: &[IterationTrace]) -> AnalysisReport {
    let _span = microsampler_obs::span::span("correlate");
    let mut analyzer = SequentialAnalyzer::default();
    analyzer.ingest_all(iterations);
    analyzer.report()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use microsampler_sim::{TraceConfig, Tracer};

    /// Builds synthetic iterations where `unit`'s snapshot is `variant`
    /// per class when `leak` is true, identical otherwise.
    pub(crate) fn synthetic(n_per_class: usize, leak_unit: Option<UnitId>) -> Vec<IterationTrace> {
        let mut tracer = Tracer::new(TraceConfig::default());
        tracer.scr_start(0);
        for i in 0..2 * n_per_class {
            let label = (i % 2) as u64;
            tracer.iter_start(i as u64 * 10, label);
            for c in 0..3u64 {
                tracer.begin_cycle(i as u64 * 10 + c);
                for unit in UnitId::ALL {
                    let row = if Some(unit) == leak_unit {
                        vec![0x1000 + label * 0x10, c]
                    } else {
                        vec![0x1000, c]
                    };
                    tracer.record_row(unit, &row);
                }
            }
            tracer.iter_end(i as u64 * 10 + 3);
        }
        tracer.scr_end(u64::MAX);
        tracer.iterations
    }

    #[test]
    fn flags_exactly_the_leaky_unit() {
        let iters = synthetic(40, Some(UnitId::SqAddr));
        let report = analyze(&iters);
        assert!(report.unit(UnitId::SqAddr).is_leaky());
        for u in &report.units {
            if u.unit != UnitId::SqAddr {
                assert!(!u.is_leaky(), "{} falsely flagged", u.unit);
                assert!(u.assoc.cramers_v < 0.1);
            }
        }
        let leaky = report.leaky_units();
        assert_eq!(leaky.len(), 1);
        assert_eq!(leaky[0].unit, UnitId::SqAddr);
    }

    #[test]
    fn clean_traces_produce_clean_report() {
        let report = analyze(&synthetic(30, None));
        assert!(!report.is_leaky());
        assert!(!report.needs_more_samples());
        assert_eq!(report.classes, 2);
        assert_eq!(report.iterations, 60);
    }

    #[test]
    fn too_few_samples_not_significant() {
        // Two iterations, one per class, different snapshots: V = 1 but
        // the p-value cannot clear 0.05 — no leak verdict (the paper's
        // false-positive guard).
        let iters = synthetic(1, Some(UnitId::RobPc));
        let report = analyze(&iters);
        let u = report.unit(UnitId::RobPc);
        assert!(u.assoc.cramers_v > 0.99);
        assert!(!u.assoc.is_significant());
        assert!(!u.is_leaky());
        assert!(report.needs_more_samples());
    }

    #[test]
    fn faulted_traces_propagate_into_degraded_flag() {
        let faults = microsampler_sim::FaultConfig {
            seed: 11,
            drop_row_per_64k: 30_000,
            ..Default::default()
        };
        let cfg = TraceConfig { faults: Some(faults), ..TraceConfig::default() };
        let mut tracer = Tracer::new(cfg);
        tracer.scr_start(0);
        for i in 0..40u64 {
            tracer.iter_start(i * 100, i % 2);
            for c in 0..8u64 {
                tracer.begin_cycle(i * 100 + c);
                for unit in UnitId::ALL {
                    tracer.record_row(unit, &[0x1000, c]);
                }
            }
            tracer.iter_end(i * 100 + 9);
        }
        tracer.scr_end(u64::MAX);
        let report = analyze(&tracer.iterations);
        assert!(report.dropped_cycles > 0, "the drop rate should have fired");
        assert_eq!(report.dropped_cycles + report.sampled_cycles, 40 * 8);
        assert!(report.is_degraded(), "~46% drop rate must flag degradation");
    }

    #[test]
    fn contingency_matches_paper_shape() {
        let iters = synthetic(10, Some(UnitId::SqAddr));
        let t = contingency(&iters, UnitId::SqAddr, false);
        assert_eq!(t.class_count(), 2);
        assert_eq!(t.category_count(), 2); // one hash per class
        assert_eq!(t.total(), 20);
    }

    #[test]
    fn timeless_hash_used_when_requested() {
        // Constant rows within an iteration: the timeless variant collapses
        // them to one row, so the two hash spaces must differ.
        let mut tracer = Tracer::new(TraceConfig::default());
        tracer.scr_start(0);
        for label in [0u64, 1] {
            tracer.iter_start(label * 10, label);
            for c in 0..4 {
                tracer.begin_cycle(label * 10 + c);
                for unit in UnitId::ALL {
                    tracer.record_row(unit, &[7, 7]);
                }
            }
            tracer.iter_end(label * 10 + 5);
        }
        tracer.scr_end(100);
        let iters = tracer.iterations;
        let a = contingency(&iters, UnitId::SqAddr, false);
        let b = contingency(&iters, UnitId::SqAddr, true);
        assert_eq!(a.category_count(), 1);
        assert_eq!(b.category_count(), 1);
        assert_ne!(a.categories().next().unwrap(), b.categories().next().unwrap());
    }
}
