//! Verdict corpus: pins what the analysis concludes, to the bit, where
//! `tests/trace_fingerprints.rs` pins what the simulator produced.
//!
//! Each line of `tests/data/verdicts.txt` is one artifact at a small fixed
//! scale: the artifact's name, then `key=value` fields. f64 values are
//! written as their bit patterns in hex, so a change in the last bit of a
//! V or a p-value shows.
//!
//! * `fig3`, `fig4`, `fig7`, `fig9`: `leaky` (0 or 1), `flagged` (the
//!   flagged units in the order reports print them, `-` for none), then
//!   one field per unit: timed V, timed p, timeless V, timeless p.
//! * `fig5`: `shared` (the number of SQ-ADDR features every class shows),
//!   then one field per class: the number of its unique features and the
//!   SipHash of their sorted values.
//! * `fig10`: the fields of a `fig3` line, then the four call-pattern
//!   counts, `mispredicts`, `ordering_mismatches` and `leak_identified`.
//! * `table5`: one field per primitive: leak, functional, escalation
//!   rounds and max V.
//! * `lint`: one field per kernel of the static × dynamic
//!   cross-validation: the MegaBoom dynamic verdict and max V, then the
//!   adversarial-speculation dynamic verdict and max V.
//! * `audit` (early-stopped) and `audit-full` (`--full-budget`): one field
//!   per primitive: its verdict, `trials_spent` and the number of looks.
//! * `fig3-seq`, `fig4-seq` (`--sequential`): the fields of a `fig3`
//!   line over the trials the sweep ran, then the stop trace's closing
//!   look (index, trials, n, max V, min p and verdict) and its verdict.
//!
//! A change meant to keep every verdict leaves the file unchanged. On a
//! mismatch the test names the artifact and the field (the unit,
//! primitive or kernel) that differs, and prints the `actual corpus`
//! block to regenerate the file from.

use microsampler_bench::audit::{run_audit, AuditOptions};
use microsampler_bench::experiments as exp;
use microsampler_bench::sweep::{run_modexp_sweep, RunContext, SweepOptions};
use microsampler_bench::{lint, Scale};
use microsampler_core::{analyze, AnalysisReport, SeqConfig, UniquenessReport};
use microsampler_kernels::modexp::ModexpVariant;
use microsampler_sim::CoreConfig;
use std::collections::BTreeMap;

const CORPUS: &str = include_str!("data/verdicts.txt");

fn scale() -> Scale {
    Scale { keys: 3, key_bytes: 2, memcmp_reps: 1, primitive_trials: 8, seed: 42 }
}

fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn report_line(artifact: &str, r: &AnalysisReport) -> String {
    let flagged: Vec<&str> = r.leaky_units().iter().map(|u| u.unit.name()).collect();
    let flagged = if flagged.is_empty() { "-".to_string() } else { flagged.join(",") };
    let mut line = format!("{artifact} leaky={} flagged={flagged}", u8::from(r.is_leaky()));
    for u in &r.units {
        line += &format!(
            " {}={}/{}/{}/{}",
            u.unit.name(),
            bits(u.assoc.cramers_v),
            bits(u.assoc.p_value),
            bits(u.assoc_timeless.cramers_v),
            bits(u.assoc_timeless.p_value)
        );
    }
    line
}

fn fig5_line(u: &UniquenessReport) -> String {
    let mut line = format!("fig5 shared={}", u.shared.len());
    for (class, features) in &u.unique {
        let bytes: Vec<u8> = features.iter().flat_map(|f| f.to_le_bytes()).collect();
        let digest = microsampler_stats::siphash24(0, 0, &bytes);
        line += &format!(" class{class}={}/{digest:016x}", features.len());
    }
    line
}

fn fig10_line(f: &exp::Fig10) -> String {
    let p = &f.patterns;
    format!(
        "{} inequal_only={} both={} equal_only={} neither={} mispredicts={} \
         ordering_mismatches={} leak_identified={}",
        report_line("fig10", &f.report),
        p.inequal_only,
        p.both,
        p.equal_only,
        p.neither,
        f.mispredicts,
        f.ordering_mismatches,
        u8::from(f.leak_identified)
    )
}

fn table5_line(ctx: &RunContext) -> String {
    let mut line = "table5".to_string();
    for r in exp::table5(ctx) {
        line += &format!(
            " {}={}/{}/{}/{}",
            r.name,
            u8::from(r.leak_identified),
            u8::from(r.functional_ok),
            r.escalation_rounds,
            bits(r.max_v)
        );
    }
    line
}

fn lint_line(scale: &Scale) -> String {
    let cross = lint::lint_crossval(&lint::lint_static_all(), scale);
    let mut line = "lint".to_string();
    for r in &cross.rows {
        line += &format!(
            " {}={}/{}/{}/{}",
            r.name,
            r.dynamic_verdict,
            bits(r.max_cramers_v),
            r.spec_dynamic.unwrap_or("-"),
            bits(r.spec_max_cramers_v)
        );
    }
    line
}

/// Per-primitive trial budget of the `audit` lines: four chunks (2, 2, 4
/// and 8 trials), so an early stop and the full budget differ.
const AUDIT_TRIALS: usize = 16;

fn audit_line(artifact: &str, early_stop: bool, scale: &Scale) -> String {
    let opts =
        AuditOptions { trials: AUDIT_TRIALS, seed: scale.seed, early_stop, ..Default::default() };
    let mut line = artifact.to_string();
    for r in run_audit(&opts) {
        line +=
            &format!(" {}={}/{}/{}", r.name, r.verdict.name(), r.trials_spent, r.stop.looks.len());
    }
    line
}

/// A `--sequential` case study: the report over the trials the sweep
/// ran, then where and how its stop trace closed.
fn sequential_line(artifact: &str, variant: ModexpVariant, scale: &Scale) -> String {
    let opts = SweepOptions { sequential: Some(SeqConfig::default()), ..Default::default() };
    let config = CoreConfig::mega_boom();
    let out = run_modexp_sweep(variant, &config, scale.keys, scale.key_bytes, scale.seed, &opts);
    let stop = out.stop.expect("sequential sweeps carry a stop trace");
    let last = stop.looks.last().expect("the sequence looked at least once");
    format!(
        "{} close={}/{}/{}/{}/{}/{} verdict={} fallback={}",
        report_line(artifact, &analyze(&out.iterations)),
        last.look,
        last.trials,
        last.n,
        bits(last.max_v),
        bits(last.min_p),
        last.verdict.name(),
        stop.verdict.name(),
        u8::from(stop.fallback)
    )
}

fn actual_corpus() -> Vec<String> {
    let ctx = RunContext::new(scale(), SweepOptions::default());
    vec![
        report_line("fig3", &exp::fig3(&ctx)),
        report_line("fig4", &exp::fig4(&ctx)),
        fig5_line(&exp::fig5(&ctx)),
        report_line("fig7", &exp::fig7(&ctx)),
        report_line("fig9", &exp::fig9(&ctx)),
        fig10_line(&exp::fig10(&ctx.scale)),
        table5_line(&ctx),
        lint_line(&ctx.scale),
        audit_line("audit", true, &ctx.scale),
        audit_line("audit-full", false, &ctx.scale),
        sequential_line("fig3-seq", ModexpVariant::V1CompilerVuln, &ctx.scale),
        sequential_line("fig4-seq", ModexpVariant::V1MicroarchVuln, &ctx.scale),
    ]
}

/// A line's artifact and its fields in order.
fn fields(line: &str) -> (&str, Vec<(&str, &str)>) {
    let mut tokens = line.split_whitespace();
    let artifact = tokens.next().unwrap_or_default();
    (artifact, tokens.map(|t| t.split_once('=').unwrap_or((t, ""))).collect())
}

#[test]
fn verdicts_match_corpus() {
    let actual = actual_corpus();
    let expected: BTreeMap<&str, Vec<(&str, &str)>> = CORPUS
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(fields)
        .collect();
    let mut mismatched = Vec::new();
    for line in &actual {
        let (artifact, got) = fields(line);
        let Some(want) = expected.get(artifact) else {
            mismatched.push(format!("{artifact}: no corpus line"));
            continue;
        };
        let want_map: BTreeMap<&str, &str> = want.iter().copied().collect();
        let got_map: BTreeMap<&str, &str> = got.iter().copied().collect();
        for (key, value) in &got {
            match want_map.get(key) {
                Some(w) if w == value => {}
                Some(w) => mismatched.push(format!("{artifact} {key}: corpus {w}, actual {value}")),
                None => mismatched.push(format!("{artifact} {key}: not in the corpus")),
            }
        }
        for (key, _) in want.iter().filter(|(k, _)| !got_map.contains_key(k)) {
            mismatched.push(format!("{artifact} {key}: in the corpus, not produced"));
        }
    }
    assert!(
        mismatched.is_empty() && actual.len() == expected.len(),
        "{} verdict fields differ from the corpus ({} artifacts, {} corpus lines):\n{}\n\n\
         actual corpus:\n{}",
        mismatched.len(),
        actual.len(),
        expected.len(),
        mismatched.join("\n"),
        actual.join("\n"),
    );
}
