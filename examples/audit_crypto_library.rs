//! Audit a library of constant-time primitives (the paper's Table V
//! workflow): run every primitive over labeled trials, escalate inputs
//! until the p-value is decisive, and print a verdict sheet.
//!
//! ```sh
//! cargo run --release --example audit_crypto_library
//! ```

use microsampler_bench::experiments::{escalate, primitive_batch};
use microsampler_kernels::openssl::Primitive;
use microsampler_sim::CoreConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trials = 96;
    println!("{:<34} {:>6} {:>8} {:>7} {:>5}", "primitive", "func", "verdict", "maxV", "iters");
    let mut flagged = 0;
    for prim in Primitive::all() {
        // Table V's schedule: up to 3 rounds of twice as many trials, each
        // at a fresh seed, while some unit's V is strong but not yet
        // significant. A failed round ends the escalation.
        let audit = escalate(trials, 7, 3, |_| CoreConfig::mega_boom(), primitive_batch(&prim))?;
        let outcome = &audit.outcome;
        let max_v = outcome.report.units.iter().map(|u| u.assoc.cramers_v).fold(0.0f64, f64::max);
        let verdict = if outcome.report.is_leaky() {
            flagged += 1;
            "LEAK"
        } else {
            "clean"
        };
        println!(
            "{:<34} {:>6} {:>8} {:>7.3} {:>5}",
            prim.name,
            if audit.functional_ok { "ok" } else { "FAIL" },
            verdict,
            max_v,
            outcome.total_iterations,
        );
    }
    println!("\n{flagged}/27 primitives flagged (paper: none of these leak; CRYPTO_memcmp does — see the transient_memcmp example)");
    Ok(())
}
