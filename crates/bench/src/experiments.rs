//! One function per paper table/figure. Every function returns structured
//! data so the integration tests can assert the paper's shapes and the
//! `repro` binary can print them.

use crate::sweep::{QuarantinedTrial, RunContext};
use crate::Scale;
use microsampler_core::{
    analyze, feature_ordering, feature_uniqueness, AnalysisReport, Analyzer, EscalationOutcome,
    UniquenessReport,
};
use microsampler_kernels::inputs::{memcmp_pairs, memcmp_schedule};
use microsampler_kernels::memcmp::MemcmpKernel;
use microsampler_kernels::modexp::{Fig6Kernel, ModexpKernel, ModexpVariant};
use microsampler_kernels::openssl::{Primitive, PrimitiveOutcome};
use microsampler_obs::{diag, span};
use microsampler_sim::{parse_text_log, CoreConfig, TraceConfig, UnitId};
use microsampler_stats::ContingencyTable;
use std::time::Duration;

/// Table I is the paper's qualitative tool-comparison table; returned as
/// preformatted rows for the `repro` binary.
pub fn table1() -> Vec<[&'static str; 5]> {
    vec![
        ["Tool", "Target", "Algorithm/Compiler", "HW units", "Complex uarch"],
        ["DATA", "SW (address traces)", "yes", "no", "no"],
        ["Almeida et al.", "SW (formal)", "yes", "no", "no"],
        ["IODINE/XENON", "HW (formal, FUs)", "no", "yes", "no"],
        ["Deutschmann et al.", "HW (formal, abstracted)", "no", "yes", "partial"],
        ["MicroSampler", "Full system (statistical)", "yes", "yes", "yes"],
    ]
}

/// Fig. 2: real microarchitectural iteration snapshots — the SQ-ADDR
/// matrix (rows = cycles, columns = store-queue slots) for one iteration
/// of each key-bit class, from a live `ME-V1-MV` run.
pub fn fig2(scale: &Scale) -> Vec<(u64, Vec<Vec<u64>>)> {
    let kernel = ModexpKernel::new(ModexpVariant::V1MicroarchVuln, 1);
    let key = microsampler_kernels::inputs::random_keys(1, 1, scale.seed).pop().expect("one key");
    let trace = TraceConfig { keep_matrices: true, ..TraceConfig::default() };
    let mut machine = kernel.machine(CoreConfig::mega_boom(), &key, trace).expect("assembles");
    let result = machine.run(10_000_000).expect("runs");
    let mut out = Vec::new();
    for want in [0u64, 1] {
        if let Some(it) = result.iterations.iter().rev().find(|i| i.label == want) {
            let rows = it.unit(UnitId::SqAddr).rows.clone().expect("matrices kept");
            out.push((want, rows));
        }
    }
    out
}

/// Table II: a real contingency table for SQ-ADDR from the constant-time
/// square-and-multiply kernel.
pub fn table2(ctx: &RunContext) -> ContingencyTable<u64, u64> {
    let scale = &ctx.scale;
    let iters = ctx.modexp_iterations(
        ModexpVariant::CtCmov,
        &CoreConfig::mega_boom(),
        scale.keys.min(4),
        scale.key_bytes.min(2),
        scale.seed,
    );
    Analyzer::new().contingency(&iters, UnitId::SqAddr, false)
}

/// Table III is the pair of core configurations themselves.
pub fn table3() -> (CoreConfig, CoreConfig) {
    (CoreConfig::mega_boom(), CoreConfig::small_boom())
}

/// Table IV: the tracked units.
pub fn table4() -> Vec<UnitId> {
    UnitId::ALL.to_vec()
}

/// One row of Table V.
#[derive(Clone, Debug)]
pub struct Table5Row {
    /// Primitive name.
    pub name: String,
    /// Paper verdict column: leakage identified?
    pub leak_identified: bool,
    /// Functional agreement with the reference model.
    pub functional_ok: bool,
    /// Highest per-unit Cramér's V observed.
    pub max_v: f64,
    /// Escalation rounds used to confirm/clear significance.
    pub escalation_rounds: usize,
    /// Committed-instruction IPC over the analyzed iterations.
    pub ipc: f64,
    /// Largest stall-cause bucket over the analyzed iterations (`None`
    /// when no stall cycles were observed or the audit was quarantined).
    pub dominant_stall: Option<String>,
    /// Simulator error, if the audit could not complete. A first-run
    /// failure quarantines the row (no verdict); a failure during an
    /// escalation round leaves the partial verdict standing with the
    /// error attached.
    pub error: Option<String>,
}

/// Table V: the 27 OpenSSL `constant_time_*` primitives (the
/// `CRYPTO_memcmp` row comes from [`fig10`], which identifies its leak).
///
/// Uses the paper's escalation policy through [`escalate`]: when a
/// primitive shows strong but not-yet-significant association, the trial
/// count is increased until the p-value resolves the verdict.
pub fn table5(ctx: &RunContext) -> Vec<Table5Row> {
    let primitives = Primitive::all();
    let total = primitives.len();
    let done = std::sync::atomic::AtomicUsize::new(0);
    // The 27 primitives are independent audits (each with its own
    // escalation loop); fan them out and keep the rows in table order.
    microsampler_par::map(&primitives, |_, prim| {
        let row = table5_row(ctx, prim);
        let finished = done.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
        diag::progress("table5", finished, total);
        row
    })
}

/// Audits one Table V primitive. A simulator failure never panics the
/// sweep: the row is quarantined (first run) or annotated (escalation
/// round) and the remaining 26 audits proceed.
fn table5_row(ctx: &RunContext, prim: &Primitive) -> Table5Row {
    let scale = &ctx.scale;
    let mega = |_| CoreConfig::mega_boom();
    let audit = match escalate(scale.primitive_trials, scale.seed, 4, mega, primitive_batch(prim)) {
        Ok(audit) => audit,
        Err(e) => {
            microsampler_obs::metrics::record("trial.quarantined", 1.0);
            ctx.quarantine(QuarantinedTrial {
                id: format!("table5/{}", prim.name),
                class: microsampler_par::FailureClass::SimError,
                message: e.clone(),
                attempts: 1,
            });
            return Table5Row {
                name: prim.name.to_owned(),
                leak_identified: false,
                functional_ok: false,
                max_v: 0.0,
                escalation_rounds: 0,
                ipc: 0.0,
                dominant_stall: None,
                error: Some(e),
            };
        }
    };
    let report = &audit.outcome.report;
    Table5Row {
        name: prim.name.to_owned(),
        leak_identified: report.is_leaky(),
        functional_ok: audit.functional_ok,
        max_v: report.units.iter().map(|u| u.assoc.cramers_v).fold(0.0f64, f64::max),
        escalation_rounds: audit.outcome.rounds,
        ipc: report.pipeline.ipc(),
        dominant_stall: report.pipeline.dominant_stall().map(|(name, _)| name.to_owned()),
        error: audit.error,
    }
}

/// An audit under the paper's input escalation, as [`escalate`] ran it.
#[derive(Clone, Debug)]
pub struct Escalation {
    /// The verdict over every batch that ran.
    pub outcome: EscalationOutcome,
    /// Whether every batch matched its reference model.
    pub functional_ok: bool,
    /// The first escalation round's error. It stopped the escalation, and
    /// the verdict over the batches before it stands.
    pub error: Option<String>,
}

/// The one escalation schedule (paper §VII-D) behind Table V, `repro
/// lint`'s cross-validation and the `audit_crypto_library` example.
///
/// Runs `trials` trials at `seed` on `config(0)`. Then, while some unit
/// shows strong but not yet significant association, runs up to
/// `max_rounds` rounds of `2 × trials` trials at `seed + round × 7919` on
/// `config(round)`. `batch` runs one batch from `(config, trials, seed)`;
/// [`primitive_batch`] is the one for a Table V primitive.
///
/// # Errors
///
/// The first batch's error. An escalation round's error is not one: it is
/// returned in [`Escalation::error`].
pub fn escalate(
    trials: usize,
    seed: u64,
    max_rounds: usize,
    config: impl Fn(usize) -> CoreConfig,
    mut batch: impl FnMut(CoreConfig, usize, u64) -> Result<PrimitiveOutcome, String>,
) -> Result<Escalation, String> {
    let first = batch(config(0), trials, seed)?;
    let mut functional_ok = first.functional_ok;
    let mut error = None;
    let outcome =
        Analyzer::new().analyze_with_escalation(first.result.iterations, max_rounds, |round| {
            match batch(config(round), trials * 2, seed + round as u64 * 7919) {
                Ok(extra) => {
                    functional_ok &= extra.functional_ok;
                    extra.result.iterations
                }
                Err(e) => {
                    error = Some(format!("escalation round {round}: {e}"));
                    // An empty batch stops the escalation loop; the verdict
                    // from the iterations gathered so far stands.
                    Vec::new()
                }
            }
        });
    Ok(Escalation { outcome, functional_ok, error })
}

/// [`escalate`]'s batch for a Table V primitive: [`Primitive::run`] with
/// the default trace configuration, its errors naming the primitive.
pub fn primitive_batch(
    prim: &Primitive,
) -> impl Fn(CoreConfig, usize, u64) -> Result<PrimitiveOutcome, String> + '_ {
    move |config, trials, seed| {
        prim.run(config, trials, seed, TraceConfig::default())
            .map_err(|e| format!("{}: {e}", prim.name))
    }
}

/// Table VI: per-stage analysis-time breakdown, following the paper's
/// four stages on the text-log pipeline (simulate → parse → correlate →
/// extract features).
#[derive(Clone, Debug)]
pub struct Table6 {
    /// Stage 1: RTL-style simulation with trace logging.
    pub simulate: Duration,
    /// Stage 2: log parsing into iteration snapshots.
    pub parse: Duration,
    /// Stage 3: Cramér's V for all tracked structures.
    pub correlate: Duration,
    /// Stage 4: feature extraction on flagged units.
    pub extract: Duration,
    /// Iterations analyzed.
    pub iterations: usize,
    /// Simulated cycles.
    pub cycles: u64,
}

impl Table6 {
    /// Total analysis time.
    pub fn total(&self) -> Duration {
        self.simulate + self.parse + self.correlate + self.extract
    }
}

/// Runs the Table VI breakdown for `config` at the given scale
/// (ME-V1-CV workload, like the paper).
///
/// The stage durations are *not* measured with ad-hoc stopwatches: the
/// pipeline's own span instrumentation (`simulate` in `Machine::run`,
/// `parse` in `parse_text_log`, `correlate` in `Analyzer::analyze`,
/// `extract` in the feature extractors) is enabled for the duration and
/// the table is read back out of the span tree — so Table VI doubles as
/// an end-to-end check of the telemetry layer. Spans an enclosing
/// collector already completed are parked and merged back; do not call
/// this inside a still-open span.
pub fn table6_for(config: &CoreConfig, scale: &Scale) -> Table6 {
    let was_enabled = span::enabled();
    span::set_enabled(true);
    let parked = span::take();

    let kernel = ModexpKernel::new(ModexpVariant::V1CompilerVuln, scale.key_bytes);
    let keys =
        microsampler_kernels::inputs::random_keys(scale.keys.min(4), scale.key_bytes, scale.seed);
    let mut cycles = 0;
    let iterations = {
        let _root = span::span("table6");
        // Stage 1: simulate with text-log emission (the paper's printf
        // trace); `Machine::run` attributes this under "simulate".
        let mut logs = Vec::new();
        for key in &keys {
            let mut machine = kernel
                .machine(config.clone(), key, TraceConfig::default())
                .expect("kernel assembles");
            machine.enable_log();
            let run = machine.run(200_000_000).expect("simulation completes");
            cycles += run.cycles;
            logs.push(machine.log_text().expect("log enabled").to_owned());
        }
        // Stage 2: parse logs into iteration snapshots ("parse").
        let mut iterations = Vec::new();
        for log in &logs {
            iterations.extend(parse_text_log(log, TraceConfig::default()).expect("log parses"));
        }
        // Stage 3: correlation analysis ("correlate").
        let report = analyze(&iterations);
        // Stage 4: feature extraction for flagged units ("extract").
        for u in report.leaky_units() {
            let _ = feature_uniqueness(&iterations, u.unit);
            let _ = feature_ordering(&iterations, u.unit);
        }
        iterations
    };

    let tree = span::take();
    span::merge(parked);
    span::merge(tree.clone());
    span::set_enabled(was_enabled);

    let root = span::find(&tree, "table6").expect("table6 root span recorded");
    let stage = |name: &str| root.child(name).map_or(Duration::ZERO, |n| n.total);
    Table6 {
        simulate: stage("simulate"),
        parse: stage("parse"),
        correlate: stage("correlate"),
        extract: stage("extract"),
        iterations: iterations.len(),
        cycles,
    }
}

/// Table VI at the default scale on MegaBoom.
pub fn table6(scale: &Scale) -> Table6 {
    table6_for(&CoreConfig::mega_boom(), scale)
}

/// Table VII: scalability — analysis time and design size for SmallBoom vs
/// MegaBoom, with XENON's published numbers quoted for comparison.
#[derive(Clone, Debug)]
pub struct Table7 {
    /// SmallBoom breakdown.
    pub small: Table6,
    /// MegaBoom breakdown.
    pub mega: Table6,
    /// SmallBoom structure-entry count.
    pub small_size: usize,
    /// MegaBoom structure-entry count.
    pub mega_size: usize,
}

impl Table7 {
    /// MegaBoom/SmallBoom design-size ratio.
    pub fn size_ratio(&self) -> f64 {
        self.mega_size as f64 / self.small_size as f64
    }

    /// MegaBoom/SmallBoom analysis-time ratio.
    pub fn time_ratio(&self) -> f64 {
        self.mega.total().as_secs_f64() / self.small.total().as_secs_f64()
    }
}

/// XENON's published scalability (paper Table VII): 8× design size cost
/// 336× analysis time (2.5 s ALU → 14 min SCARV).
pub const XENON_SIZE_RATIO: f64 = 8.0;
/// See [`XENON_SIZE_RATIO`].
pub const XENON_TIME_RATIO: f64 = 336.0;

/// Runs Table VII.
pub fn table7(scale: &Scale) -> Table7 {
    let small = table6_for(&CoreConfig::small_boom(), scale);
    let mega = table6_for(&CoreConfig::mega_boom(), scale);
    Table7 {
        small,
        mega,
        small_size: CoreConfig::small_boom().state_size(),
        mega_size: CoreConfig::mega_boom().state_size(),
    }
}

/// A modexp case study's pooled iterations at the context's scale.
fn case_study_iterations(
    ctx: &RunContext,
    variant: ModexpVariant,
    config: &CoreConfig,
) -> Vec<microsampler_sim::IterationTrace> {
    let s = &ctx.scale;
    ctx.modexp_iterations(variant, config, s.keys, s.key_bytes, s.seed)
}

/// Fig. 3: per-unit Cramér's V for `ME-V1-CV` (compiler vulnerability —
/// nearly everything correlates).
pub fn fig3(ctx: &RunContext) -> AnalysisReport {
    analyze(&case_study_iterations(ctx, ModexpVariant::V1CompilerVuln, &CoreConfig::mega_boom()))
}

/// Fig. 4: per-unit Cramér's V for `ME-V1-MV` (microarchitectural
/// vulnerability — memory-side units correlate).
pub fn fig4(ctx: &RunContext) -> AnalysisReport {
    analyze(&case_study_iterations(ctx, ModexpVariant::V1MicroarchVuln, &CoreConfig::mega_boom()))
}

/// Fig. 5: SQ-ADDR feature uniqueness for `ME-V1-MV` — the per-class
/// unique store addresses (the paper's red/blue scatter).
pub fn fig5(ctx: &RunContext) -> UniquenessReport {
    let iters =
        case_study_iterations(ctx, ModexpVariant::V1MicroarchVuln, &CoreConfig::mega_boom());
    feature_uniqueness(&iters, UnitId::SqAddr)
}

/// Fig. 6 data: iteration cycle counts per key-bit class, with the
/// destination buffer cold (6a) or warmed before each iteration (6b).
#[derive(Clone, Debug)]
pub struct Fig6 {
    /// 6a: `(bit0 cycles, bit1 cycles)` with both buffers cold.
    pub cold: (Vec<u64>, Vec<u64>),
    /// 6b: `(bit0 cycles, bit1 cycles)` with dst warmed.
    pub warm: (Vec<u64>, Vec<u64>),
}

fn split_cycles(iters: &[microsampler_sim::IterationTrace]) -> (Vec<u64>, Vec<u64>) {
    let mut c0 = Vec::new();
    let mut c1 = Vec::new();
    for it in iters {
        if it.label == 0 {
            c0.push(it.cycles());
        } else {
            c1.push(it.cycles());
        }
    }
    (c0, c1)
}

/// Runs Fig. 6 (both sub-figures).
pub fn fig6(scale: &Scale) -> Fig6 {
    let keys =
        microsampler_kernels::inputs::random_keys(scale.keys.min(4), scale.key_bytes, scale.seed);
    let run = |warm: bool| {
        let kernel = Fig6Kernel::new(warm, scale.key_bytes);
        let per_key = microsampler_par::map(&keys, |_, key| {
            let r = kernel.run(CoreConfig::mega_boom(), key).expect("fig6 kernel runs");
            assert_eq!(r.exit_code, kernel.reference(key), "fig6 functional check");
            r.iterations
        });
        let iters: Vec<_> = per_key.into_iter().flatten().collect();
        split_cycles(&iters)
    };
    Fig6 { cold: run(false), warm: run(true) }
}

/// Fig. 7: per-unit Cramér's V for `ME-V2-Safe` (all insignificant).
pub fn fig7(ctx: &RunContext) -> AnalysisReport {
    analyze(&case_study_iterations(ctx, ModexpVariant::V2Safe, &CoreConfig::mega_boom()))
}

/// Fig. 9: `ME-V2-Safe` on the fast-bypass core — the report carries both
/// the full and the timing-removed associations.
pub fn fig9(ctx: &RunContext) -> AnalysisReport {
    let bypass = CoreConfig::mega_boom().with_fast_bypass();
    analyze(&case_study_iterations(ctx, ModexpVariant::V2Safe, &bypass))
}

/// The call patterns the paper reports for `CRYPTO_memcmp` windows
/// (§VII-C1): which of the dependent functions' PCs were observed in the
/// ROB during the constant-time function's own window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CallPatterns {
    /// Windows containing only `inequal` (paper pattern 1).
    pub inequal_only: usize,
    /// Windows containing both calls (paper pattern 2 — the transient
    /// double call).
    pub both: usize,
    /// Windows containing only `equal` (paper pattern 3).
    pub equal_only: usize,
    /// Windows containing neither.
    pub neither: usize,
}

/// Fig. 10 results: the correlation report plus the transient-execution
/// evidence extracted from ROB-PC.
#[derive(Clone, Debug)]
pub struct Fig10 {
    /// Per-unit associations.
    pub report: AnalysisReport,
    /// Call-pattern census over all windows.
    pub patterns: CallPatterns,
    /// Whether MicroSampler identified the leak: dependent-call PCs are
    /// speculatively present inside the constant-time function's window,
    /// including double-call windows.
    pub leak_identified: bool,
    /// Branch mispredicts observed.
    pub mispredicts: u64,
    /// ROB-PC ordering mismatches across classes.
    pub ordering_mismatches: usize,
}

/// Fig. 10 / the `CT-MEM-CMP` case study.
///
/// Uses the paper's input design: 32 fixed pairs with varying (in)equal
/// byte distributions, the pair index as the class label, repeated in a
/// shuffled schedule, on a core with randomized initial predictor state
/// (standing in for the real system's residual predictor contents).
pub fn fig10(scale: &Scale) -> Fig10 {
    let pairs = memcmp_pairs(scale.seed);
    let trials = memcmp_schedule(&pairs, scale.memcmp_reps, scale.seed);
    let program = MemcmpKernel.program().expect("memcmp assembles");
    let equal_pc = program.symbol_addr("equal_fn");
    let inequal_pc = program.symbol_addr("inequal_fn");
    let config = CoreConfig::mega_boom().with_random_bpred(scale.seed | 1);
    let (result, outputs) = MemcmpKernel
        .run_with_outputs(config, &trials, TraceConfig::default())
        .expect("memcmp runs");
    for (t, &o) in trials.iter().zip(&outputs) {
        assert_eq!(o, MemcmpKernel.reference(t), "memcmp functional check");
    }
    let mut patterns = CallPatterns::default();
    for it in &result.iterations {
        let pcs = &it.unit(UnitId::RobPc).order;
        match (pcs.contains(&equal_pc), pcs.contains(&inequal_pc)) {
            (true, true) => patterns.both += 1,
            (true, false) => patterns.equal_only += 1,
            (false, true) => patterns.inequal_only += 1,
            (false, false) => patterns.neither += 1,
        }
    }
    let report = analyze(&result.iterations);
    let ordering = feature_ordering(&result.iterations, UnitId::RobPc);
    let speculative_windows = patterns.both + patterns.equal_only + patterns.inequal_only;
    Fig10 {
        leak_identified: patterns.both > 0 || (speculative_windows > 0 && report.is_leaky()),
        report,
        patterns,
        mispredicts: result.stats.branch_mispredicts,
        ordering_mismatches: ordering.mismatches.len(),
    }
}

/// One point of the sample-size sensitivity sweep.
#[derive(Clone, Debug)]
pub struct SensitivityPoint {
    /// Number of keys pooled.
    pub keys: usize,
    /// Iterations analyzed.
    pub iterations: usize,
    /// Highest per-unit V for the leaky kernel (ME-V1-CV).
    pub leaky_max_v: f64,
    /// Was the leaky kernel flagged (V and p jointly)?
    pub leaky_flagged: bool,
    /// Highest per-unit V for the safe kernel (ME-V2-Safe).
    pub safe_max_v: f64,
    /// Was the safe kernel falsely flagged?
    pub safe_false_positive: bool,
    /// Does the safe report still demand escalation (strong-but-
    /// insignificant association)?
    pub safe_needs_more: bool,
}

/// Sensitivity ablation (paper §VII-D): how the verdicts evolve with the
/// number of inputs. With few samples the safe kernel can show high V but
/// the p-value guard withholds the flag; the leaky kernel's verdict locks
/// in quickly and stays.
pub fn sensitivity(ctx: &RunContext) -> Vec<SensitivityPoint> {
    let scale = &ctx.scale;
    let max_v =
        |r: &AnalysisReport| r.units.iter().map(|u| u.assoc.cramers_v).fold(0.0f64, f64::max);
    let report = |variant, keys| {
        let mega = CoreConfig::mega_boom();
        analyze(&ctx.modexp_iterations(variant, &mega, keys, scale.key_bytes, scale.seed))
    };
    let sweep = [1usize, 2, 4, 8, 16];
    sweep
        .iter()
        .enumerate()
        .map(|(idx, &keys)| {
            diag::progress("sensitivity", idx + 1, sweep.len());
            let leaky = report(ModexpVariant::V1CompilerVuln, keys);
            let safe = report(ModexpVariant::V2Safe, keys);
            SensitivityPoint {
                keys,
                iterations: leaky.iterations,
                leaky_max_v: max_v(&leaky),
                leaky_flagged: leaky.is_leaky(),
                safe_max_v: max_v(&safe),
                safe_false_positive: safe.is_leaky(),
                safe_needs_more: safe.needs_more_samples(),
            }
        })
        .collect()
}

/// Fig. 4 companion: `ME-V1-MV` under cache pressure (Fig. 6 kernel, cold
/// buffers). With per-iteration eviction the miss-path units (LFB, NLP,
/// MSHR, TLB) light up as in the paper's full-scale run.
pub fn fig4_with_pressure(scale: &Scale) -> AnalysisReport {
    let keys =
        microsampler_kernels::inputs::random_keys(scale.keys.min(4), scale.key_bytes, scale.seed);
    let kernel = Fig6Kernel::new(false, scale.key_bytes);
    let per_key = microsampler_par::map(&keys, |_, key| {
        kernel.run(CoreConfig::mega_boom(), key).expect("kernel runs").iterations
    });
    let iters: Vec<_> = per_key.into_iter().flatten().collect();
    analyze(&iters)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `constant_time_eq` at 4 trials from seed 42 shows strong but
    /// insignificant association, so the schedule escalates.
    fn eq() -> Primitive {
        Primitive::all().into_iter().find(|p| p.name == "constant_time_eq").expect("a primitive")
    }

    #[test]
    fn escalation_runs_doubled_batches_at_the_table5_seeds() {
        let prim = eq();
        let (calls, configs) = (std::cell::RefCell::new(Vec::new()), std::cell::RefCell::new(0));
        let config = |round| {
            *configs.borrow_mut() += 1;
            assert!(round <= 2, "round {round} past max_rounds");
            CoreConfig::mega_boom()
        };
        let batch = |config, trials, seed| {
            calls.borrow_mut().push((trials, seed));
            primitive_batch(&prim)(config, trials, seed)
        };
        let audit = escalate(4, 42, 2, config, batch).unwrap();
        assert_eq!(audit.outcome.rounds, 2);
        assert_eq!(calls.into_inner(), [(4, 42), (8, 42 + 7919), (8, 42 + 2 * 7919)]);
        assert_eq!(configs.into_inner(), 3, "one configuration per batch");
        assert_eq!(audit.outcome.total_iterations, 4 + 8 + 8);
        assert!(audit.functional_ok && audit.error.is_none());
    }

    #[test]
    fn an_escalation_error_keeps_the_verdict_so_far_and_a_first_error_is_an_err() {
        let prim = eq();
        let mega = |_| CoreConfig::mega_boom();
        let failing_rounds = |config, trials, seed| {
            if seed == 42 {
                primitive_batch(&prim)(config, trials, seed)
            } else {
                Err("no more trials".to_string())
            }
        };
        let audit = escalate(4, 42, 4, mega, failing_rounds).unwrap();
        assert_eq!(audit.error.as_deref(), Some("escalation round 1: no more trials"));
        assert_eq!((audit.outcome.rounds, audit.outcome.total_iterations), (1, 4));
        let first = escalate(4, 42, 4, mega, |_, _, _| Err("cannot start".to_string()));
        assert_eq!(first.unwrap_err(), "cannot start");
    }
}
