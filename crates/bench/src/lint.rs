//! The `repro lint` backend: static constant-time analysis over every
//! Table V primitive and seeded-leaky fixture, plus cross-validation of
//! the static verdicts against the dynamic statistical audit — including
//! a speculative dimension that checks CT-SPEC findings against runs
//! driven with adversarial predictor state and spurious-squash plans.

use crate::experiments::{escalate, primitive_batch, Escalation};
use crate::Scale;
use microsampler_core::{CrossReport, CrossRow, TraceConfig};
use microsampler_ct::{analyze_program_opts, AnalyzeOptions, SpecModel, StaticReport};
use microsampler_isa::asm::assemble;
use microsampler_kernels::fixtures;
use microsampler_kernels::openssl::{Primitive, PrimitiveOutcome};
use microsampler_obs::diag;
use microsampler_sim::{CoreConfig, FaultConfig, UnitSet};

/// One linted kernel: the static report plus the text base needed to map
/// violation PCs back to instruction lines in SARIF output.
#[derive(Clone, Debug)]
pub struct LintResult {
    /// Kernel name (primitive or fixture).
    pub name: String,
    /// The static analysis report.
    pub report: StaticReport,
    /// Base address of the kernel's text section.
    pub text_base: u64,
}

/// Every name `repro lint <name>` accepts: the 27 Table V primitives
/// followed by the seeded-leaky fixtures. (The CI gate self-test fixture
/// resolves by name but is deliberately not a default target.)
pub fn lint_targets() -> Vec<&'static str> {
    Primitive::all().iter().map(|p| p.name).chain(fixtures::all().iter().map(|f| f.name)).collect()
}

fn lint_primitive(p: &Primitive, spec: SpecModel) -> LintResult {
    let program = assemble(&p.source()).unwrap_or_else(|e| panic!("{}: {e}", p.name));
    let opts = AnalyzeOptions { spec, ..Default::default() };
    let report = analyze_program_opts(p.name, &program, &p.secret_spec(), &opts);
    LintResult { name: p.name.to_owned(), report, text_base: program.text_base }
}

fn lint_fixture(f: &fixtures::LeakyFixture, spec: SpecModel) -> LintResult {
    let program = assemble(f.source).unwrap_or_else(|e| panic!("{}: {e}", f.name));
    let opts = AnalyzeOptions { spec, ..Default::default() };
    let report = analyze_program_opts(f.name, &program, &f.spec, &opts);
    LintResult { name: f.name.to_owned(), report, text_base: program.text_base }
}

/// Statically analyzes one kernel by name (primitive or fixture,
/// including the gate self-test fixture) under the default speculation
/// model.
pub fn lint_one(name: &str) -> Option<LintResult> {
    lint_one_with(name, SpecModel::default())
}

/// [`lint_one`] with an explicit speculation model (`--spec-depth` /
/// `--no-spec`).
pub fn lint_one_with(name: &str, spec: SpecModel) -> Option<LintResult> {
    if let Some(p) = Primitive::all().iter().find(|p| p.name == name) {
        return Some(lint_primitive(p, spec));
    }
    fixtures::by_name(name).map(|f| lint_fixture(&f, spec))
}

/// Statically analyzes every primitive and fixture, in [`lint_targets`]
/// order, under the default speculation model.
pub fn lint_static_all() -> Vec<LintResult> {
    lint_static_all_with(SpecModel::default())
}

/// [`lint_static_all`] with an explicit speculation model.
pub fn lint_static_all_with(spec: SpecModel) -> Vec<LintResult> {
    let primitives = Primitive::all();
    let fixture_list = fixtures::all();
    let mut out: Vec<LintResult> = primitives.iter().map(|p| lint_primitive(p, spec)).collect();
    out.extend(fixture_list.iter().map(|f| lint_fixture(f, spec)));
    out
}

/// The adversarial-speculation configuration the speculative crossval
/// dimension drives the core with: a strongly polarized gshare initial
/// state (maximizes guard mispredictions, and therefore wrong-path
/// windows) plus a spurious-squash fault plan (architecturally invisible
/// squash/replay noise the agreement must survive).
fn adversarial_config(seed: u64) -> CoreConfig {
    CoreConfig::mega_boom().with_adversarial_bpred(seed ^ 0xada5_7a7e).with_faults(FaultConfig {
        seed,
        squash_per_64k: 256,
        ..FaultConfig::default()
    })
}

/// One batch of a kernel's dynamic audit, as [`escalate`] runs it.
type Batch = Result<PrimitiveOutcome, String>;

/// Cross-validates the static verdicts against the dynamic audit over
/// the 27 Table V primitives and the seeded-leaky fixtures.
///
/// Every kernel gets two dynamic audits, both on [`escalate`]'s schedule:
/// one under the paper's MegaBoom configuration (the architectural
/// dimension; a primitive gets Table V's 4 rounds, so verdicts match
/// `repro table5` at the same scale, and a fixture 2) and one, of 2
/// rounds, under an adversarial configuration — polarized gshare initial
/// state plus a spurious-squash fault plan (the speculative dimension,
/// cross-checked against static CT-SPEC findings). Any failed batch
/// panics. Kernels fan out across the worker pool; rows come back in
/// table order.
pub fn lint_crossval(statics: &[LintResult], scale: &Scale) -> CrossReport {
    let primitives = Primitive::all();
    let fixture_list = fixtures::all();
    let total = primitives.len() + fixture_list.len();
    let done = std::sync::atomic::AtomicUsize::new(0);
    // Both dimensions run Table V's schedule; the adversarial one re-seeds
    // its predictor state and squash plan every round.
    let row = |name: &str, rounds: usize, batch: &dyn Fn(CoreConfig, usize, u64) -> Batch| {
        let audit = |rounds, config: &dyn Fn(usize) -> CoreConfig| {
            let (trials, seed) = (scale.primitive_trials, scale.seed);
            match escalate(trials, seed, rounds, config, batch) {
                Ok(Escalation { report, error: None, .. }) => report,
                Ok(Escalation { error: Some(e), .. }) | Err(e) => panic!("{e}"),
            }
        };
        let mega = audit(rounds, &|_| CoreConfig::mega_boom());
        let adv = audit(2, &|round| adversarial_config(scale.seed + round as u64));
        let stat = statics
            .iter()
            .find(|r| r.name == name)
            .map(|r| &r.report)
            .unwrap_or_else(|| panic!("no static report for {name}"));
        let finished = done.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
        diag::progress("lint-crossval", finished, total);
        CrossRow::new(name, stat.has_architectural_violations(), &mega)
            .with_spec(stat.has_transient_violations(), &adv)
    };
    let mut rows = microsampler_par::map(&primitives, |_, p| row(p.name, 4, &primitive_batch(p)));
    rows.extend(microsampler_par::map(&fixture_list, |_, f| {
        // A fixture has no reference model to check its outputs against,
        // and like a primitive its verdict reads no features.
        let trace = TraceConfig { features: UnitSet::NONE, ..TraceConfig::default() };
        let batch = |config, trials: usize, seed| {
            fixtures::run_fixture(f, config, trials as u64, seed, trace)
                .map(|result| PrimitiveOutcome { result, functional_ok: true })
                .map_err(|e| format!("{}: {e}", f.name))
        };
        row(f.name, 2, &batch)
    }));
    CrossReport { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn targets_cover_primitives_and_fixtures() {
        let targets = lint_targets();
        assert_eq!(targets.len(), Primitive::all().len() + fixtures::all().len());
        assert!(targets.contains(&"leaky_branchy_memcmp"));
        assert!(targets.contains(&"leaky_spectre_bounds"));
        assert!(!targets.contains(&"gate_selftest_unbaselined"));
    }

    #[test]
    fn lint_one_resolves_both_namespaces() {
        assert!(!lint_one("leaky_sbox_index").unwrap().report.violations.is_empty());
        assert!(lint_one("no-such-kernel").is_none());
        // The gate self-test fixture resolves by name for the CI gate.
        assert!(lint_one("gate_selftest_unbaselined").unwrap().report.is_leaky());
    }

    #[test]
    fn spec_model_gates_the_transient_verdict() {
        let on = lint_one("leaky_spectre_bounds").unwrap();
        assert_eq!(on.report.verdict(), "leaky-transient");
        let off = lint_one_with("leaky_spectre_bounds", SpecModel::disabled()).unwrap();
        assert_eq!(off.report.verdict(), "clean");
    }
}
