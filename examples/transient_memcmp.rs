//! Reproduce the paper's previously-unreported OpenSSL finding: a
//! mispredicted loop-exit branch inside `CRYPTO_memcmp` speculatively
//! returns a *partial* comparison result, which transiently steers the
//! caller's secret-dependent branch — visible as dependent-call PCs inside
//! the constant-time function's own sampling window.
//!
//! ```sh
//! cargo run --release --example transient_memcmp
//! ```

use microsampler_kernels::inputs::{memcmp_pairs, memcmp_schedule};
use microsampler_kernels::memcmp::MemcmpKernel;
use microsampler_sim::{CoreConfig, TraceConfig, UnitId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let pairs = memcmp_pairs(2024);
    let trials = memcmp_schedule(&pairs, 16, 5);
    let program = MemcmpKernel.program()?;
    let equal_pc = program.symbol_addr("equal_fn");
    let inequal_pc = program.symbol_addr("inequal_fn");

    // Randomized initial predictor state stands in for the residual
    // predictor contents of a real machine.
    let config = CoreConfig::mega_boom().with_random_bpred(7);
    let (result, _) = MemcmpKernel.run_with_outputs(config, &trials, TraceConfig::default())?;

    let mut pattern_counts = [0usize; 4]; // neither, inequal, equal, both
    for it in &result.iterations {
        let pcs = it.unit(UnitId::RobPc).order.as_deref().expect("features are collected");
        let idx = pcs.contains(&inequal_pc) as usize | ((pcs.contains(&equal_pc) as usize) << 1);
        pattern_counts[idx] += 1;
    }
    println!("windows analyzed: {}", result.iterations.len());
    println!("  no dependent-call PCs in ROB:        {}", pattern_counts[0]);
    println!("  inequal() present (pattern 1):       {}", pattern_counts[1]);
    println!("  equal() present (pattern 3):         {}", pattern_counts[2]);
    println!("  BOTH present (pattern 2, transient): {}", pattern_counts[3]);
    println!("branch mispredicts: {}", result.stats.branch_mispredicts);

    if pattern_counts[3] > 0 {
        println!(
            "\nTransient double-call confirmed: while CRYPTO_memcmp was still \
             executing, the core speculatively fetched one dependent path and \
             later the other — the secret-dependent divergence the paper \
             disclosed to OpenSSL."
        );
    } else if pattern_counts[1] + pattern_counts[2] > 0 {
        println!(
            "\nDependent-call PCs reached the ROB inside CRYPTO_memcmp's \
             window: return-value-dependent code was fetched speculatively \
             before the comparison finished."
        );
    }
    Ok(())
}
