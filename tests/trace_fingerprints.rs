//! Trace-fingerprint corpus: pins the simulator's *microarchitectural*
//! behaviour, not just its architectural results.
//!
//! Each record runs one kernel on one core configuration at one seed and
//! fault spec, and digests everything the tracer produced. Per iteration:
//! label, start and end cycle, dropped cycles and `PipelineStats`; per unit:
//! the full and timeless snapshot hashes, the feature set, the feature
//! order and the sampled row count (plus the raw matrices for the
//! `keep_matrices` record). Per run: cycles, committed instructions and the
//! exit code. `tests/data/trace_fingerprints.txt` was generated before the
//! tracer hot path was rewritten; a change that is meant to be
//! bit-identical (capture, fold, fetch, memory) must leave every line of it
//! unchanged. A deliberate behaviour change regenerates the file from the
//! `actual corpus` block this test prints on a mismatch.

use microsampler_kernels::fixtures;
use microsampler_kernels::inputs::{memcmp_trials, random_keys};
use microsampler_kernels::memcmp::MemcmpKernel;
use microsampler_kernels::modexp::{ModexpKernel, ModexpVariant};
use microsampler_kernels::openssl::Primitive;
use microsampler_sim::{CoreConfig, FaultConfig, IterationTrace, RunResult, TraceConfig};
use microsampler_stats::SipHasher;

const CORPUS: &str = include_str!("data/trace_fingerprints.txt");

/// Modexp keys per record and key length: every key is one machine, and
/// each key byte is eight labeled iterations.
const KEYS: usize = 3;
const KEY_BYTES: usize = 2;

fn configs() -> [(&'static str, CoreConfig); 3] {
    [
        ("mega", CoreConfig::mega_boom()),
        ("small", CoreConfig::small_boom()),
        ("mega+bypass", CoreConfig::mega_boom().with_fast_bypass()),
    ]
}

/// Drops, bit flips, squashes, evictions and MSHR stalls at rates that all
/// fire within one short modexp run.
fn corpus_faults() -> FaultConfig {
    FaultConfig {
        seed: 0x5eed_f417,
        squash_per_64k: 1500,
        evict_per_64k: 1500,
        mshr_stall_per_64k: 1000,
        drop_row_per_64k: 2500,
        bitflip_per_64k: 2500,
        wedge: false,
    }
}

fn fault_spec(f: Option<&FaultConfig>) -> String {
    match f {
        None => "none".to_string(),
        Some(f) => format!(
            "seed={:#x},squash={},evict={},mshr={},drop={},flip={}",
            f.seed,
            f.squash_per_64k,
            f.evict_per_64k,
            f.mshr_stall_per_64k,
            f.drop_row_per_64k,
            f.bitflip_per_64k
        ),
    }
}

fn digest_iteration(h: &mut SipHasher, it: &IterationTrace) {
    for v in [it.label, it.start_cycle, it.end_cycle, it.dropped_cycles] {
        h.write_u64(v);
    }
    for v in it.pipeline.to_array() {
        h.write_u64(v);
    }
    h.write_u64(it.units.len() as u64);
    for u in &it.units {
        h.write_u64(u.hash);
        h.write_u64(u.hash_timeless);
        h.write_u64(u.cycle_rows);
        h.write_u64(u.features.len() as u64);
        for &f in &u.features {
            h.write_u64(f);
        }
        h.write_u64(u.order.len() as u64);
        for &v in &u.order {
            h.write_u64(v);
        }
        match &u.rows {
            None => h.write_u64(0),
            Some(rows) => {
                h.write_u64(1 + rows.len() as u64);
                for row in rows {
                    h.write_u64(row.len() as u64);
                    for &v in row {
                        h.write_u64(v);
                    }
                }
            }
        }
    }
}

/// Digest over a list of runs (a modexp record runs one machine per key).
fn digest(runs: &[RunResult]) -> u64 {
    let mut h = SipHasher::new_2_4(0x7472_6163, 0x6670_7231);
    for r in runs {
        h.write_u64(r.cycles);
        h.write_u64(r.stats.committed);
        h.write_u64(r.exit_code);
        h.write_u64(r.iterations.len() as u64);
        for it in &r.iterations {
            digest_iteration(&mut h, it);
        }
    }
    h.finish()
}

struct Record {
    key: String,
    runs: Vec<RunResult>,
}

fn record(
    kernel: &str,
    config: &str,
    seed: u64,
    faults: Option<&FaultConfig>,
    runs: Vec<RunResult>,
) -> Record {
    Record { key: format!("{kernel} {config} {seed} {}", fault_spec(faults)), runs }
}

fn modexp_runs(
    variant: ModexpVariant,
    config: CoreConfig,
    seed: u64,
    trace: TraceConfig,
) -> Vec<RunResult> {
    let kernel = ModexpKernel::new(variant, KEY_BYTES);
    random_keys(KEYS, KEY_BYTES, seed)
        .iter()
        .map(|key| {
            let r = kernel.run(config.clone(), key, trace).expect("modexp run completes");
            assert_eq!(r.exit_code, kernel.reference(key), "{} functional result", variant.name());
            r
        })
        .collect()
}

fn corpus_records() -> Vec<Record> {
    let mut out = Vec::new();
    let trace = TraceConfig::default();
    for (cfg_name, config) in configs() {
        for variant in ModexpVariant::ALL {
            let seed = 42;
            out.push(record(
                variant.name(),
                cfg_name,
                seed,
                None,
                modexp_runs(variant, config.clone(), seed, trace),
            ));
        }
    }

    let mega = CoreConfig::mega_boom();
    let trials = memcmp_trials(6, 7);
    let r = MemcmpKernel.run(mega.clone(), &trials, trace).expect("memcmp run completes");
    out.push(record("CT-MEM-CMP", "mega", 7, None, vec![r]));

    // Every Table V primitive: 8 warm-up trials plus 4 kept ones each.
    let primitives = Primitive::all();
    assert_eq!(primitives.len(), 27);
    for p in primitives {
        let o = p.run(mega.clone(), 4, 11, trace).expect("primitive run completes");
        assert!(o.functional_ok, "{} functional result", p.name);
        out.push(record(p.name, "mega", 11, None, vec![o.result]));
    }

    for f in fixtures::all() {
        let r =
            fixtures::run_fixture(&f, mega.clone(), 4, 3, trace).expect("fixture run completes");
        out.push(record(f.name, "mega", 3, None, vec![r]));
    }

    let keep = TraceConfig { keep_matrices: true, ..trace };
    out.push(record(
        "ME-V1-MV/keep_matrices",
        "mega",
        5,
        None,
        modexp_runs(ModexpVariant::V1MicroarchVuln, mega.clone(), 5, keep),
    ));

    let faults = corpus_faults();
    let faulted = TraceConfig { faults: Some(faults), ..trace };
    let runs = modexp_runs(ModexpVariant::V2Safe, mega.clone().with_faults(faults), 9, faulted);
    let mut counts = runs[0].fault_counts;
    for r in &runs[1..] {
        counts.dropped_cycles += r.fault_counts.dropped_cycles;
        counts.bit_flips += r.fault_counts.bit_flips;
        counts.spurious_squashes += r.fault_counts.spurious_squashes;
        counts.cache_evictions += r.fault_counts.cache_evictions;
    }
    assert!(
        counts.dropped_cycles > 0
            && counts.bit_flips > 0
            && counts.spurious_squashes > 0
            && counts.cache_evictions > 0,
        "the faulted record must exercise every capture and pipeline fault: {counts:?}"
    );
    out.push(record("ME-V2-Safe", "mega", 9, Some(&faults), runs));
    out
}

#[test]
fn trace_fingerprints_match_corpus() {
    let actual: Vec<String> = corpus_records()
        .into_iter()
        .map(|r| format!("{} {:016x}", r.key, digest(&r.runs)))
        .collect();
    let expected: Vec<&str> =
        CORPUS.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with('#')).collect();
    let mismatched: Vec<String> =
        actual.iter().filter(|a| !expected.contains(&a.as_str())).cloned().collect();
    assert!(
        mismatched.is_empty() && actual.len() == expected.len(),
        "{} of {} trace fingerprints differ from the corpus:\n{}\n\nactual corpus:\n{}",
        mismatched.len(),
        actual.len(),
        mismatched.join("\n"),
        actual.join("\n"),
    );
}
