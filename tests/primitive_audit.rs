//! Table V end-to-end: every OpenSSL constant-time primitive is
//! functionally correct and statistically clean after escalation.

use microsampler_bench::experiments::table5;
use microsampler_bench::sweep::{RunContext, SweepOptions};
use microsampler_bench::Scale;

#[test]
fn all_primitives_functional_and_clean() {
    let scale = Scale { primitive_trials: 64, ..Scale::default() };
    let rows = table5(&RunContext::new(scale, SweepOptions::default()));
    assert_eq!(rows.len(), 27);
    for row in &rows {
        assert!(row.functional_ok, "{} diverged from its reference model", row.name);
        assert!(!row.leak_identified, "{} was falsely flagged (maxV = {:.3})", row.name, row.max_v);
    }
    // Every family from the paper's Table V is present.
    for family in ["eq", "select", "ge", "lt", "cond_swap", "lookup", "is_zero"] {
        assert!(
            rows.iter().any(|r| r.name.contains(family)),
            "family `{family}` missing from the audit"
        );
    }
}
