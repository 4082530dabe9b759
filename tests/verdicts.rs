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
//! * `table5`: one field per primitive: leak, functional, escalation
//!   rounds and max V.
//! * `lint`: one field per kernel of the static × dynamic
//!   cross-validation: the MegaBoom dynamic verdict and max V, then the
//!   adversarial-speculation dynamic verdict and max V.
//!
//! A change meant to keep every verdict leaves the file unchanged. On a
//! mismatch the test names the artifact and the field (the unit,
//! primitive or kernel) that differs, and prints the `actual corpus`
//! block to regenerate the file from.

use microsampler_bench::experiments as exp;
use microsampler_bench::sweep::{RunContext, SweepOptions};
use microsampler_bench::{lint, Scale};
use microsampler_core::AnalysisReport;
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

fn actual_corpus() -> Vec<String> {
    let ctx = RunContext::new(scale(), SweepOptions::default());
    vec![
        report_line("fig3", &exp::fig3(&ctx)),
        report_line("fig4", &exp::fig4(&ctx)),
        report_line("fig7", &exp::fig7(&ctx)),
        report_line("fig9", &exp::fig9(&ctx)),
        table5_line(&ctx),
        lint_line(&ctx.scale),
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
