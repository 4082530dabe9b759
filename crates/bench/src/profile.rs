//! `repro profile`: per-kernel pipeline utilization dumps and the
//! `BENCH_sim.json` simulated-pipeline report.
//!
//! Each selected modexp kernel is swept over its keys (fanning out across
//! the [`microsampler_par`] pool like the experiments do) while the
//! simulator's always-on [`PipelineStats`] counters accumulate. The result
//! is printed riscv-perf-model style — simulated IPC, per-execution-unit
//! utilization, and the stall-cause breakdown — and written as
//! stable-schema JSON.
//!
//! The report holds pure simulator state, so it is bit-identical at every
//! thread count and on every host. Host throughput is perfbench's
//! `sim_cycles_per_s`, which scales wall-clock time by a yardstick.

use microsampler_kernels::inputs::random_keys;
use microsampler_kernels::modexp::{ModexpKernel, ModexpVariant};
use microsampler_obs::{diag, Value};
use microsampler_sim::{CoreConfig, PipelineStats, TraceConfig, UnitSet};

/// Schema tag on the `BENCH_sim.json` report.
pub const BENCH_SIM_SCHEMA: &str = "microsampler-bench-sim-v2";

/// What to profile.
#[derive(Clone, Debug)]
pub struct ProfileOptions {
    /// Kernels to sweep (`repro profile --all` selects every variant).
    pub kernels: Vec<ModexpVariant>,
    /// Keys per kernel.
    pub keys: usize,
    /// Key length in bytes.
    pub key_bytes: usize,
    /// RNG seed for the key material.
    pub seed: u64,
}

impl Default for ProfileOptions {
    fn default() -> ProfileOptions {
        ProfileOptions { kernels: ModexpVariant::ALL.to_vec(), keys: 2, key_bytes: 2, seed: 42 }
    }
}

/// Profiling result for one kernel sweep.
#[derive(Clone, Debug)]
pub struct KernelProfile {
    /// Kernel name (`ME-V1-MV`, …).
    pub name: &'static str,
    /// Keys swept.
    pub keys: usize,
    /// Key length in bytes.
    pub key_bytes: usize,
    /// Pipeline counters summed over every trial of the sweep.
    pub pipeline: PipelineStats,
}

impl KernelProfile {
    /// Renders one `kernels[]` entry of the `BENCH_sim.json` report.
    pub fn to_json(&self, config: &CoreConfig) -> Value {
        let p = &self.pipeline;
        let mut stalls = Value::object();
        for (name, cycles) in p.stall_breakdown() {
            stalls = stalls.field(name, cycles);
        }
        Value::object()
            .field("name", self.name)
            .field("keys", self.keys)
            .field("key_bytes", self.key_bytes)
            .field(
                "sim",
                Value::object()
                    .field("cycles", p.cycles)
                    .field("committed", p.committed)
                    .field("ipc", p.ipc())
                    .build(),
            )
            .field(
                "utilization",
                Value::object()
                    .field("alu", p.alu_utilization(config.n_alus))
                    .field("agu", p.agu_utilization(config.n_agus))
                    .field("mul", p.mul_utilization())
                    .field("div", p.div_utilization())
                    .build(),
            )
            .field("stalls", stalls.build())
            .field("pipeline", p.to_json())
            .build()
    }
}

/// Sweeps one kernel and accumulates its pipeline counters.
///
/// # Errors
///
/// Returns a message naming the kernel on assembly/simulation failure or
/// a functional mismatch against the reference model.
pub fn profile_kernel(
    variant: ModexpVariant,
    config: &CoreConfig,
    opts: &ProfileOptions,
) -> Result<KernelProfile, String> {
    let _span = microsampler_obs::span("profile");
    let kernel = ModexpKernel::new(variant, opts.key_bytes);
    let keys = random_keys(opts.keys, opts.key_bytes, opts.seed);
    // The profile reads pipeline counters only, no features.
    let trace = TraceConfig { features: UnitSet::NONE, ..TraceConfig::default() };
    let per_key = microsampler_par::map(&keys, |_, key| {
        let run = kernel
            .run(config.clone(), key, trace)
            .map_err(|e| format!("{}: {e}", variant.name()))?;
        if run.exit_code != kernel.reference(key) {
            return Err(format!("{} functional mismatch", variant.name()));
        }
        Ok(run.pipeline)
    });
    let mut pipeline = PipelineStats::default();
    for r in per_key {
        pipeline.add(&r?);
    }
    Ok(KernelProfile { name: variant.name(), keys: opts.keys, key_bytes: opts.key_bytes, pipeline })
}

/// Profiles every selected kernel in order.
///
/// # Errors
///
/// Propagates the first kernel failure (see [`profile_kernel`]).
pub fn profile_kernels(
    config: &CoreConfig,
    opts: &ProfileOptions,
) -> Result<Vec<KernelProfile>, String> {
    let total = opts.kernels.len();
    opts.kernels
        .iter()
        .enumerate()
        .map(|(i, &variant)| {
            let profile = profile_kernel(variant, config, opts)?;
            diag::progress("profile", i + 1, total);
            Ok(profile)
        })
        .collect()
}

/// Renders the full `BENCH_sim.json` report (stable schema: `schema`,
/// `config`, `threads`, `kernels` via [`KernelProfile::to_json`]).
pub fn report_to_json(profiles: &[KernelProfile], config: &CoreConfig, threads: usize) -> Value {
    Value::object()
        .field("schema", BENCH_SIM_SCHEMA)
        .field("config", config.name)
        .field("threads", threads)
        .field("kernels", Value::Array(profiles.iter().map(|p| p.to_json(config)).collect()))
        .build()
}

/// Prints the riscv-perf-model-style utilization dump for one kernel.
pub fn print_profile(profile: &KernelProfile, config: &CoreConfig) {
    let p = &profile.pipeline;
    let pct = |x: f64| x * 100.0;
    println!(
        "\n== pipeline profile: {} ({}, {} keys x {} bytes) ==",
        profile.name, config.name, profile.keys, profile.key_bytes
    );
    println!("sim      : {} cycles, {} committed, IPC {:.3}", p.cycles, p.committed, p.ipc());
    println!(
        "util     : ALU {:5.1}%  AGU {:5.1}%  MUL {:5.1}%  DIV {:5.1}%",
        pct(p.alu_utilization(config.n_alus)),
        pct(p.agu_utilization(config.n_agus)),
        pct(p.mul_utilization()),
        pct(p.div_utilization())
    );
    let cycles = p.cycles.max(1) as f64;
    print!("stalls   :");
    for (name, count) in p.stall_breakdown() {
        if count > 0 {
            print!("  {name} {:.1}%", count as f64 / cycles * 100.0);
        }
    }
    println!();
    if let Some((name, count)) = p.dominant_stall() {
        println!("dominant : {name} ({count} cycles)");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ProfileOptions {
        ProfileOptions {
            kernels: vec![ModexpVariant::V1MicroarchVuln],
            keys: 1,
            key_bytes: 1,
            seed: 42,
        }
    }

    #[test]
    fn profile_accumulates_nonzero_counters() {
        let profiles = profile_kernels(&CoreConfig::mega_boom(), &tiny()).unwrap();
        assert_eq!(profiles.len(), 1);
        let p = &profiles[0].pipeline;
        assert!(p.cycles > 0);
        assert!(p.committed > 0);
        assert!(p.ipc() > 0.0);
        assert!(p.alu_busy > 0, "a modexp sweep must keep the ALUs busy");
    }

    #[test]
    fn bench_sim_json_has_required_stats() {
        let config = CoreConfig::mega_boom();
        let profiles = profile_kernels(&config, &tiny()).unwrap();
        let v = report_to_json(&profiles, &config, 1);
        assert_eq!(v.get("schema").unwrap().as_str(), Some(BENCH_SIM_SCHEMA));
        assert_eq!(v.get("config").unwrap().as_str(), Some("MegaBoom"));
        let kernels = v.get("kernels").unwrap().as_array().unwrap();
        assert_eq!(kernels.len(), 1);
        let k = &kernels[0];
        assert_eq!(k.get("name").unwrap().as_str(), Some("ME-V1-MV"));
        let ipc = k.get("sim").unwrap().get("ipc").unwrap().as_f64().unwrap();
        assert!(ipc > 0.0, "IPC must be present and nonzero");
        assert!(k.get("host").is_none() && v.get("trials").is_none(), "no host timing or trials");
        let util = k.get("utilization").unwrap();
        for eu in ["alu", "agu", "mul", "div"] {
            let u = util.get(eu).unwrap().as_f64().unwrap();
            assert!((0.0..=1.0).contains(&u), "{eu} utilization {u} out of range");
        }
        let stalls = k.get("stalls").unwrap();
        for (name, _) in profiles[0].pipeline.stall_breakdown() {
            assert!(stalls.get(name).is_some(), "missing stall bucket {name}");
        }
        // Round-trips through the parser (what the CI smoke does).
        let reparsed = microsampler_obs::json::parse(&v.render_pretty()).unwrap();
        assert_eq!(reparsed.render_compact(), v.render_compact());
    }
}
