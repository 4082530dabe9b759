//! The one analysis state: per unit, the class × snapshot-hash
//! contingency tables of the paper's §V-C, kept as iterations arrive.
//!
//! A [`SequentialAnalyzer`] ingests [`IterationTrace`]s one at a time into
//! 16 units × {timed, timeless} tables, plus the iteration, class and drop
//! counters and the pipeline sums. Every verdict reads it:
//! [`analyze`](crate::analyze) ingests every iteration and reports; the
//! §VII-D escalation ingests each batch into one analyzer and reports
//! after each; and the sequential audit [`look`](SequentialAnalyzer::look)s
//! between batches, judging all 32 associations against a [`SeqConfig`]
//! confidence sequence and appending one entry to the run's [`StopTrace`].
//! An association depends only on its table's counts, so a look or a
//! report after any split into batches is bit-identical to one over all
//! the iterations at once.
//!
//! The stop trace is the audit's statistical receipt: every look's
//! sample size, confidence radius, extreme statistics, and verdict, in
//! the stable `microsampler-stop-v1` JSON schema that run reports,
//! `repro serve` job streams, and the robustness stability curves all
//! embed.

use crate::report::{AnalysisReport, UnitReport};
use microsampler_obs::Value;
use microsampler_sim::{IterationTrace, UnitId};
use microsampler_stats::{Association, ContingencyTable, SeqConfig, SeqVerdict};
use std::collections::BTreeSet;

/// Schema tag on serialized stopping traces.
pub const STOP_SCHEMA: &str = "microsampler-stop-v1";

/// One confidence-sequence check ("look") in a stopping trace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StopLook {
    /// 1-based look index (the error-spending schedule position).
    pub look: u64,
    /// Trials spent when this look happened (caller's budget unit).
    pub trials: u64,
    /// Iterations (= per-association observations) pooled so far.
    pub n: u64,
    /// Confidence radius around each V estimate at this look.
    pub radius: f64,
    /// Look-corrected p-value threshold for the leaky decision.
    pub p_threshold: f64,
    /// Largest Cramér's V across all monitored associations.
    pub max_v: f64,
    /// Largest bias-corrected Cramér's V across all monitored
    /// associations (the statistic the clean decision bounds).
    pub max_v_corrected: f64,
    /// Smallest p-value across all monitored associations.
    pub min_p: f64,
    /// The anytime verdict at this look.
    pub verdict: SeqVerdict,
}

/// The per-run stopping trace: every look plus the final outcome.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StopTrace {
    /// Confidence-sequence parameters the looks were judged under.
    pub config: SeqConfig,
    /// Every look, in order.
    pub looks: Vec<StopLook>,
    /// The latched verdict (undecided until a look closes the sequence
    /// or [`SequentialAnalyzer::resolve`] falls back to the batch rule).
    pub verdict: SeqVerdict,
    /// True when the verdict came from the fixed-budget batch rule at
    /// budget exhaustion rather than from the confidence sequence.
    pub fallback: bool,
}

impl StopTrace {
    /// Trials spent when the verdict latched (the last recorded look),
    /// or 0 if no look has happened.
    pub fn trials_spent(&self) -> u64 {
        self.looks.last().map_or(0, |l| l.trials)
    }

    /// Renders the trace in the stable `microsampler-stop-v1` schema.
    pub fn to_json(&self, id: &str) -> Value {
        Value::object()
            .field("schema", STOP_SCHEMA)
            .field("id", id)
            .field("alpha", self.config.alpha)
            .field("boundary_scale", self.config.boundary_scale)
            .field("v_strong", self.config.v_strong)
            .field("p_significant", self.config.p_significant)
            .field("min_n", self.config.min_n)
            .field("verdict", self.verdict.name())
            .field("fallback", self.fallback)
            .field("trials_spent", self.trials_spent())
            .field(
                "looks",
                Value::Array(
                    self.looks
                        .iter()
                        .map(|l| {
                            Value::object()
                                .field("look", l.look)
                                .field("trials", l.trials)
                                .field("n", l.n)
                                .field("radius", l.radius)
                                .field("p_threshold", l.p_threshold)
                                .field("max_v", l.max_v)
                                .field("max_v_corrected", l.max_v_corrected)
                                .field("min_p", l.min_p)
                                .field("verdict", l.verdict.name())
                                .build()
                        })
                        .collect(),
                ),
            )
            .build()
    }
}

/// The one analysis state behind every verdict (see the module docs):
/// per-unit contingency tables kept as iterations are ingested, plus the
/// confidence-sequence bookkeeping of the sequential audit.
///
/// The 32 associations over everything ingested are computed at most once
/// between ingests: a [`report`](SequentialAnalyzer::report) after a
/// [`look`](SequentialAnalyzer::look) at the same `n` reuses the look's.
#[derive(Clone, Debug)]
pub struct SequentialAnalyzer {
    config: SeqConfig,
    // Indexed like UnitId::ALL; .0 is the timed table, .1 timeless.
    tables: Vec<(ContingencyTable<u64, u64>, ContingencyTable<u64, u64>)>,
    // Each unit's timed then timeless association over the tables, until
    // the next ingest.
    assocs: Option<Vec<Association>>,
    classes: BTreeSet<u64>,
    iterations: usize,
    dropped_cycles: u64,
    sampled_cycles: u64,
    pipeline: microsampler_sim::PipelineStats,
    trace: StopTrace,
}

impl Default for SequentialAnalyzer {
    fn default() -> SequentialAnalyzer {
        SequentialAnalyzer::new(SeqConfig::default())
    }
}

impl SequentialAnalyzer {
    /// Creates an analyzer judging against `config`.
    pub fn new(config: SeqConfig) -> SequentialAnalyzer {
        SequentialAnalyzer {
            config,
            tables: vec![Default::default(); UnitId::ALL.len()],
            assocs: None,
            classes: BTreeSet::new(),
            iterations: 0,
            dropped_cycles: 0,
            sampled_cycles: 0,
            pipeline: microsampler_sim::PipelineStats::default(),
            trace: StopTrace { config, ..StopTrace::default() },
        }
    }

    /// Streams one iteration in: its label and each unit's two snapshot
    /// hashes into the unit's tables (as [`contingency`](crate::contingency)
    /// records them), plus the report counters.
    pub fn ingest(&mut self, it: &IterationTrace) {
        for (i, &unit) in UnitId::ALL.iter().enumerate() {
            let u = it.unit(unit);
            self.tables[i].0.record(it.label, u.hash);
            self.tables[i].1.record(it.label, u.hash_timeless);
        }
        self.assocs = None;
        self.classes.insert(it.label);
        self.iterations += 1;
        self.dropped_cycles += it.dropped_cycles;
        self.sampled_cycles += it.sampled_cycles();
        self.pipeline.add(&it.pipeline);
    }

    /// Streams a batch in, in order.
    pub fn ingest_all(&mut self, iterations: &[IterationTrace]) {
        for it in iterations {
            self.ingest(it);
        }
    }

    /// Iterations ingested so far.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// The latched verdict (undecided until a look closes the sequence).
    pub fn verdict(&self) -> SeqVerdict {
        self.trace.verdict
    }

    /// The stopping trace accumulated so far.
    pub fn trace(&self) -> &StopTrace {
        &self.trace
    }

    /// Each unit's timed then timeless association over everything
    /// ingested, computed once after each ingest. Debug builds check that
    /// a reused set equals one computed afresh.
    fn associations(&mut self) -> &[Association] {
        let tables = &self.tables;
        let compute = || -> Vec<Association> {
            tables
                .iter()
                .flat_map(|(timed, timeless)| [timed.association(), timeless.association()])
                .collect()
        };
        if let Some(kept) = &self.assocs {
            debug_assert_eq!(*kept, compute(), "a reused association differs from its table's");
        }
        self.assocs.get_or_insert_with(compute)
    }

    /// Performs one confidence-sequence check over all 32 associations,
    /// records it in the stopping trace, and latches the verdict once
    /// decided. `trials` is the budget spent so far in the caller's
    /// unit (it is recorded, not interpreted). Once latched, further
    /// looks return the latched verdict without recording.
    pub fn look(&mut self, trials: u64) -> SeqVerdict {
        if self.trace.verdict.is_decided() {
            return self.trace.verdict;
        }
        let stop = self.stop_look(trials, None);
        self.trace.looks.push(stop);
        self.trace.verdict = stop.verdict;
        stop.verdict
    }

    /// Resolves a still-open sequence at budget exhaustion by falling
    /// back to the paper's fixed-budget rule on everything ingested:
    /// leaky if any unit's association [`is_leak`] fires, clean
    /// otherwise. Marks the trace as a fallback. No-op once decided.
    ///
    /// [`is_leak`]: microsampler_stats::Association::is_leak
    pub fn resolve(&mut self, trials: u64) -> SeqVerdict {
        if self.trace.verdict.is_decided() {
            return self.trace.verdict;
        }
        let leaky = self.associations().iter().any(Association::is_leak);
        let verdict = if leaky { SeqVerdict::Leaky } else { SeqVerdict::Clean };
        self.trace.verdict = verdict;
        self.trace.fallback = true;
        if let Some(last) = self.trace.looks.last_mut().filter(|l| l.trials == trials) {
            last.verdict = verdict;
            return verdict;
        }
        let stop = self.stop_look(trials, Some(verdict));
        self.trace.looks.push(stop);
        verdict
    }

    /// The stop-trace entry of the next look, taken at `trials` over
    /// everything ingested, with `verdict` or, for `None`, the confidence
    /// sequence's verdict.
    fn stop_look(&mut self, trials: u64, verdict: Option<SeqVerdict>) -> StopLook {
        let (config, n) = (self.config, self.iterations as u64);
        let look = self.trace.looks.len() as u64 + 1;
        let assocs = self.associations();
        StopLook {
            look,
            trials,
            n,
            radius: config.radius(n, look),
            p_threshold: config.p_threshold(look),
            max_v: assocs.iter().map(|a| a.cramers_v).fold(0.0, f64::max),
            max_v_corrected: assocs.iter().map(|a| a.cramers_v_corrected).fold(0.0, f64::max),
            min_p: assocs.iter().map(|a| a.p_value).fold(1.0, f64::min),
            verdict: verdict.unwrap_or_else(|| config.judge(n, look, assocs)),
        }
    }

    /// The full [`AnalysisReport`] over everything ingested.
    pub fn report(&mut self) -> AnalysisReport {
        let units = UnitId::ALL
            .iter()
            .zip(self.associations().chunks(2))
            .map(|(&unit, pair)| UnitReport { unit, assoc: pair[0], assoc_timeless: pair[1] })
            .collect();
        AnalysisReport {
            units,
            iterations: self.iterations,
            classes: self.classes.len(),
            dropped_cycles: self.dropped_cycles,
            sampled_cycles: self.sampled_cycles,
            pipeline: self.pipeline,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze;
    use crate::analyzer::tests::synthetic;
    use microsampler_sim::{TraceConfig, Tracer};
    use proptest::prelude::*;

    /// One iteration per `(label, values)`: two sampled cycles on which unit
    /// `u` shows `[values[u], c]` for odd values (rows the timeless hash
    /// consolidates differently) and `[values[u]]` for even ones.
    fn iterations(spec: &[(u64, Vec<u64>)]) -> Vec<IterationTrace> {
        let mut tracer = Tracer::new(TraceConfig::default());
        tracer.scr_start(0);
        for (i, (label, values)) in spec.iter().enumerate() {
            let t = i as u64 * 10;
            tracer.iter_start(t, *label);
            for c in 0..2 {
                tracer.begin_cycle(t + c);
                for (&unit, &v) in UnitId::ALL.iter().zip(values) {
                    let row = [v, c];
                    tracer.record_row(unit, &row[..1 + (v % 2) as usize]);
                }
            }
            tracer.iter_end(t + 3);
        }
        tracer.scr_end(u64::MAX);
        tracer.iterations
    }

    /// The report's floats as bits, unit by unit, for exact comparison.
    fn bits(report: &AnalysisReport) -> Vec<[u64; 8]> {
        let b = |a: &Association| [a.chi2, a.p_value, a.cramers_v, a.cramers_v_corrected];
        report
            .units
            .iter()
            .map(|u| {
                let (t, l) = (b(&u.assoc), b(&u.assoc_timeless));
                [t[0], t[1], t[2], t[3], l[0], l[1], l[2], l[3]].map(f64::to_bits)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Iterations ingested in random batches, with looks, resolves and
        /// reports between them, report what `analyze` reports over the
        /// same prefix, to the bit and in JSON, whichever associations were
        /// reused.
        #[test]
        fn streaming_report_is_bit_identical_to_batch(
            spec in proptest::collection::vec((0u64..3, proptest::collection::vec(0u64..4, 16)), 1..48),
            steps in proptest::collection::vec((1usize..12, 0u8..8), 0..8),
        ) {
            let iters = iterations(&spec);
            let mut seq = SequentialAnalyzer::default();
            let mut done = 0;
            for (len, ops) in steps {
                let end = (done + len).min(iters.len());
                seq.ingest_all(&iters[done..end]);
                done = end;
                if ops & 1 != 0 {
                    seq.look(done as u64);
                }
                if ops & 2 != 0 {
                    seq.resolve(done as u64);
                }
                if ops & 4 != 0 {
                    let (streamed, batch) = (seq.report(), analyze(&iters[..done]));
                    prop_assert_eq!(bits(&streamed), bits(&batch));
                    prop_assert_eq!(streamed, batch);
                }
            }
            seq.ingest_all(&iters[done..]);
            let (streamed, batch) = (seq.report(), analyze(&iters));
            prop_assert_eq!(bits(&streamed), bits(&batch));
            prop_assert_eq!(streamed.to_json().render_compact(), batch.to_json().render_compact());
            prop_assert_eq!(streamed, batch);
        }
    }

    /// Bit-equality holds at *every* prefix, with a look before each
    /// report: peeking never lets the kept associations drift from the
    /// tables.
    #[test]
    fn streaming_matches_batch_bit_for_bit() {
        let iters = synthetic(12, Some(UnitId::SqAddr));
        let mut seq = SequentialAnalyzer::default();
        for (i, it) in iters.iter().enumerate() {
            seq.ingest(it);
            seq.look(i as u64 + 1);
            let batch = analyze(&iters[..=i]);
            assert_eq!(bits(&seq.report()), bits(&batch), "prefix {}", i + 1);
            let v =
                batch.units.iter().flat_map(|u| [u.assoc.cramers_v, u.assoc_timeless.cramers_v]);
            let max_v = v.fold(0.0, f64::max);
            if let Some(look) = seq.trace().looks.get(i) {
                assert_eq!(look.max_v.to_bits(), max_v.to_bits(), "look {}", i + 1);
            }
        }
    }

    #[test]
    fn leaky_kernel_closes_early() {
        let iters = synthetic(32, Some(UnitId::SqAddr));
        let mut seq = SequentialAnalyzer::default();
        let mut spent = 0;
        for chunk in iters.chunks(8) {
            seq.ingest_all(chunk);
            spent += chunk.len() as u64;
            if seq.look(spent).is_decided() {
                break;
            }
        }
        assert_eq!(seq.verdict(), SeqVerdict::Leaky);
        assert!(
            seq.iterations() < iters.len(),
            "a perfect split must stop early (used {})",
            seq.iterations()
        );
        let trace = seq.trace();
        assert!(!trace.fallback);
        assert_eq!(trace.trials_spent(), spent);
        assert_eq!(trace.looks.last().unwrap().verdict, SeqVerdict::Leaky);
    }

    #[test]
    fn clean_kernel_closes_clean() {
        let iters = synthetic(32, None);
        let mut seq = SequentialAnalyzer::default();
        let mut spent = 0;
        for chunk in iters.chunks(8) {
            seq.ingest_all(chunk);
            spent += chunk.len() as u64;
            if seq.look(spent).is_decided() {
                break;
            }
        }
        assert_eq!(seq.verdict(), SeqVerdict::Clean);
    }

    #[test]
    fn verdict_latches_and_resolve_is_noop_once_decided() {
        let iters = synthetic(32, Some(UnitId::RobPc));
        let mut seq = SequentialAnalyzer::default();
        seq.ingest_all(&iters);
        let v = seq.look(64);
        assert!(v.is_decided());
        let looks_before = seq.trace().looks.len();
        assert_eq!(seq.look(128), v, "latched verdict must not change");
        assert_eq!(seq.resolve(128), v);
        assert_eq!(seq.trace().looks.len(), looks_before, "no looks recorded after latch");
        assert!(!seq.trace().fallback);
    }

    #[test]
    fn resolve_falls_back_to_batch_rule() {
        // Two iterations: V = 1 but p is weak — the sequence cannot
        // close, and the batch rule says "not a leak".
        let iters = synthetic(1, Some(UnitId::SqPc));
        let mut seq = SequentialAnalyzer::default();
        seq.ingest_all(&iters);
        assert_eq!(seq.look(2), SeqVerdict::Undecided);
        let v = seq.resolve(2);
        assert_eq!(v, SeqVerdict::Clean);
        assert!(seq.trace().fallback);
        assert_eq!(seq.verdict(), SeqVerdict::Clean);
        // The fallback folded into the existing look at the same spend.
        assert_eq!(seq.trace().looks.len(), 1);
    }

    #[test]
    fn stop_trace_json_schema() {
        let iters = synthetic(16, Some(UnitId::SqAddr));
        let mut seq = SequentialAnalyzer::default();
        seq.ingest_all(&iters);
        seq.look(32);
        let v = seq.trace().to_json("table5/test");
        assert_eq!(v.get("schema").unwrap().as_str(), Some(STOP_SCHEMA));
        assert_eq!(v.get("id").unwrap().as_str(), Some("table5/test"));
        for field in
            ["alpha", "boundary_scale", "v_strong", "p_significant", "min_n", "trials_spent"]
        {
            assert!(v.get(field).is_some(), "{field} missing");
        }
        assert!(SeqVerdict::from_name(v.get("verdict").unwrap().as_str().unwrap()).is_some());
        let looks = v.get("looks").unwrap().as_array().unwrap();
        assert_eq!(looks.len(), 1);
        for field in [
            "look",
            "trials",
            "n",
            "radius",
            "p_threshold",
            "max_v",
            "max_v_corrected",
            "min_p",
            "verdict",
        ] {
            assert!(looks[0].get(field).is_some(), "looks[0].{field} missing");
        }
        let text = v.render_compact();
        assert_eq!(microsampler_obs::json::parse(&text).unwrap(), v);
    }
}
