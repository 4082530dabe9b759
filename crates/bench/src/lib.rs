//! Experiment harness reproducing every table and figure of the paper's
//! evaluation (§VI–§VII).
//!
//! Each `figN`/`tableN` function regenerates the corresponding artifact and
//! returns structured data; the `repro` binary prints them in paper style.
//! Scale knobs default to laptop-friendly sizes (the paper used 1024-bit
//! keys and ~4096 iterations per case study); crank [`Scale`] up to
//! approach paper scale.

pub mod audit;
pub mod experiments;
pub mod lint;
pub mod profile;
#[cfg(unix)]
pub mod serve;
pub mod sweep;

use microsampler_core::{analyze, AnalysisReport};
use microsampler_kernels::modexp::ModexpVariant;
use microsampler_sim::{CoreConfig, IterationTrace};

/// Scale parameters shared by the experiments.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Number of random keys per modexp case study (paper: 32).
    pub keys: usize,
    /// Key length in bytes (paper: 128 = 1024 bits).
    pub key_bytes: usize,
    /// Repetitions of each CT-MEM-CMP input pair (paper: ~128 per pair).
    pub memcmp_reps: usize,
    /// Trials per OpenSSL primitive.
    pub primitive_trials: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for Scale {
    fn default() -> Scale {
        Scale { keys: 8, key_bytes: 4, memcmp_reps: 12, primitive_trials: 96, seed: 42 }
    }
}

impl Scale {
    /// The paper's full scale (hours of runtime): 4 × 1024-bit keys for the
    /// Table VI breakdown, 32 keys for the figures.
    pub fn full() -> Scale {
        Scale { keys: 32, key_bytes: 128, memcmp_reps: 64, primitive_trials: 512, seed: 42 }
    }
}

/// Runs a modexp variant over `n_keys` random keys and returns the pooled
/// labeled iterations: [`sweep::RunContext::modexp_iterations`] under a
/// default context, so no faults and no journal.
///
/// The per-key trials fan out across the [`microsampler_par`] worker
/// pool, each behind the crash-isolation harness, and the pooled
/// iterations are concatenated in key order, so the result is
/// bit-identical to a serial sweep at every thread count.
///
/// # Panics
///
/// If a trial is quarantined (it failed to assemble or simulate, or its
/// result diverged from the reference model); the message names the
/// trial.
pub fn run_modexp_iterations(
    variant: ModexpVariant,
    config: &CoreConfig,
    n_keys: usize,
    key_bytes: usize,
    seed: u64,
) -> Vec<IterationTrace> {
    sweep::RunContext::default().modexp_iterations(variant, config, n_keys, key_bytes, seed)
}

/// Runs and analyzes a modexp variant (the common shape of Figs. 3/4/7/9).
pub fn modexp_report(
    variant: ModexpVariant,
    config: &CoreConfig,
    n_keys: usize,
    key_bytes: usize,
    seed: u64,
) -> AnalysisReport {
    analyze(&run_modexp_iterations(variant, config, n_keys, key_bytes, seed))
}

/// Prints a paper-style horizontal bar chart of per-unit Cramér's V.
pub fn print_v_chart(title: &str, series: &[(&str, f64)]) {
    println!("\n{title}");
    println!("{}", "-".repeat(title.len()));
    for (name, v) in series {
        let bar = "#".repeat((v * 40.0).round() as usize);
        println!("{name:<12} {v:>6.3} |{bar}");
    }
}

/// Prints a textual histogram of cycle counts (Fig. 6 style).
pub fn print_cycle_histogram(title: &str, class0: &[u64], class1: &[u64]) {
    println!("\n{title}");
    let lo = class0.iter().chain(class1).copied().min().unwrap_or(0);
    let hi = class0.iter().chain(class1).copied().max().unwrap_or(0);
    for c in lo..=hi {
        let n0 = class0.iter().filter(|&&x| x == c).count();
        let n1 = class1.iter().filter(|&&x| x == c).count();
        if n0 + n1 == 0 {
            continue;
        }
        println!(
            "{c:>6} cycles | bit0 {:<30} bit1 {}",
            "*".repeat(n0.min(30)),
            "*".repeat(n1.min(30))
        );
    }
}
