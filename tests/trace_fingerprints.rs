//! Trace-fingerprint corpus: pins the simulator's *microarchitectural*
//! behaviour, not just its architectural results.
//!
//! Each record runs one kernel on one core configuration at one seed and
//! fault spec, and digests everything the tracer produced. Per iteration:
//! label, start and end cycle, dropped cycles and `PipelineStats`; per unit:
//! the full and timeless snapshot hashes, the feature set (the feature
//! order's values, ascending), the feature order and the sampled row count
//! (plus the raw matrices for the `keep_matrices` record). Per run: cycles,
//! committed instructions and the exit code.
//!
//! Every record has two digests over those fields. The *value* digest takes
//! each snapshot hash as it is. The *partition* digest replaces each unit's
//! `hash` (and, separately, `hash_timeless`) by the index of that value's
//! first occurrence among the unit's values over all iterations of the
//! record, so it sees only which iterations share a hash: the grouping
//! every contingency table is built from.
//!
//! `tests/data/trace_fingerprints.txt` holds one line per record:
//! `kernel config seed faults value_digest partition_digest`. The rule:
//!
//! * a change meant to be bit-identical (capture, fold, fetch, memory)
//!   leaves both columns of every line unchanged;
//! * a change that only relabels hash values (a new fold or hash function)
//!   leaves the partition column unchanged and regenerates the value
//!   column;
//! * a deliberate behaviour change regenerates both.
//!
//! On a mismatch the test names the column that differs and prints the
//! `actual corpus` block to regenerate the file from.
//!
//! The corpus collects every unit's features, so its runs record every
//! row itself. Every fault-free record that keeps no matrices runs a
//! second time without features, where the core records ROB-PC and the
//! SQ and LQ units by their digests alone (the path every verdict, audit
//! and serve job takes); that run must give the same hashes, row counts,
//! cycles, committed count and exit code.

use microsampler_isa::asm::assemble;
use microsampler_kernels::fixtures;
use microsampler_kernels::inputs::{memcmp_trials, random_keys};
use microsampler_kernels::memcmp::MemcmpKernel;
use microsampler_kernels::modexp::{ModexpKernel, ModexpVariant};
use microsampler_kernels::openssl::Primitive;
use microsampler_sim::{
    CoreConfig, FaultConfig, IterationTrace, Machine, RunResult, TraceConfig, UnitId, UnitSet,
};
use microsampler_stats::SipHasher;
use std::collections::HashMap;

const CORPUS: &str = include_str!("data/trace_fingerprints.txt");

/// Modexp keys per record and key length: every key is one machine, and
/// each key byte is eight labeled iterations.
const KEYS: usize = 3;
const KEY_BYTES: usize = 2;

/// MegaBoom starved of miss bandwidth: one MSHR and two line-fill buffers.
/// Cache accesses retry, a younger store can drain before an older one
/// whose access retried, and loads wait behind older stores.
fn starved_mega() -> CoreConfig {
    let mut config = CoreConfig::mega_boom();
    config.l1d.mshrs = 1;
    config.lfb_entries = 2;
    config
}

/// Three iterations of loads, multiplies and stores striding over four
/// pages, then a TLB flush, a divide and a D-cache flush. On the starved
/// core a younger store lands before an older one whose access retried,
/// inside traced cycles, so the STQ loses an entry from behind its head
/// and the kept SQ row sums are summed afresh.
const STORE_WALK: &str = r#"
    .data
    arr: .zero 16384
    .text
    csrw 0x8c0, zero       # SCR start
    li s0, 3               # three iterations, labels 3, 2, 1
    loop:
        csrw 0x8c2, s0     # iter start
        la t0, arr
        li t1, 24
        walk:
            ld t2, 0(t0)
            mul t3, t2, t1
            sd t3, 8(t0)
            addi t0, t0, 520
            addi t1, t1, -1
            bgtz t1, walk
        csrw 0x8c7, zero   # flush the TLB
        divu t4, t0, s0
        csrw 0x8c6, zero   # flush the D-cache
        la t0, arr
        ld t2, 0(t0)
        csrw 0x8c3, zero   # iter end
        addi s0, s0, -1
        bgtz s0, loop
    csrw 0x8c1, zero       # SCR end
    ecall
"#;

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

/// How a digest sees the snapshot hashes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum HashView {
    /// The hash values themselves.
    Value,
    /// Each value's first-occurrence index among its unit's values.
    Partition,
}

/// Digests one iteration; `hashes[u]` stands in for unit `u`'s
/// `(hash, hash_timeless)`.
fn digest_iteration(h: &mut SipHasher, it: &IterationTrace, hashes: &[(u64, u64)]) {
    for v in [it.label, it.start_cycle, it.end_cycle, it.dropped_cycles] {
        h.write_u64(v);
    }
    for v in it.pipeline.to_array() {
        h.write_u64(v);
    }
    h.write_u64(it.units.len() as u64);
    for (u, &(hash, hash_timeless)) in it.units.iter().zip(hashes) {
        h.write_u64(hash);
        h.write_u64(hash_timeless);
        h.write_u64(u.cycle_rows);
        // The feature set, in ascending order: `order`'s values sorted.
        let order = u.order.as_deref().expect("the corpus collects every unit's features");
        let mut features = order.to_vec();
        features.sort_unstable();
        h.write_u64(features.len() as u64);
        for &f in &features {
            h.write_u64(f);
        }
        h.write_u64(order.len() as u64);
        for &v in order {
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
fn digest(runs: &[RunResult], view: HashView) -> u64 {
    let mut h = SipHasher::new_2_4(0x7472_6163, 0x6670_7231);
    // (unit, timeless, hash) → ordinal of the first iteration at which the
    // unit showed that hash: the `n`-th iteration's hash is relabelled by
    // it under `HashView::Partition`.
    let mut first: HashMap<(usize, bool, u64), u64> = HashMap::new();
    let mut n = 0;
    for r in runs {
        h.write_u64(r.cycles);
        h.write_u64(r.stats.committed);
        h.write_u64(r.exit_code);
        h.write_u64(r.iterations.len() as u64);
        for it in &r.iterations {
            let hashes: Vec<(u64, u64)> = it
                .units
                .iter()
                .enumerate()
                .map(|(i, u)| match view {
                    HashView::Value => (u.hash, u.hash_timeless),
                    HashView::Partition => (
                        *first.entry((i, false, u.hash)).or_insert(n),
                        *first.entry((i, true, u.hash_timeless)).or_insert(n),
                    ),
                })
                .collect();
            digest_iteration(&mut h, it, &hashes);
            n += 1;
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

/// Runs a fault-free record by `run` twice: as the corpus traces it
/// (every unit's features, so every row is recorded itself) and without
/// features (ROB-PC and the SQ and LQ units recorded by their digests
/// alone). Asserts that both give the same snapshot hashes and sampled row
/// counts per unit and iteration, and the same cycles, committed count and
/// exit code per run; returns the first.
fn both_capture_paths(name: &str, run: impl Fn(TraceConfig) -> Vec<RunResult>) -> Vec<RunResult> {
    let rows = run(TraceConfig::default());
    let digests = run(TraceConfig { features: UnitSet::NONE, ..TraceConfig::default() });
    assert_eq!(rows.len(), digests.len(), "{name}: runs");
    for (r, d) in rows.iter().zip(&digests) {
        assert_eq!(
            (r.cycles, r.stats.committed, r.exit_code, r.iterations.len()),
            (d.cycles, d.stats.committed, d.exit_code, d.iterations.len()),
            "{name}: cycles, committed, exit code, iterations"
        );
        for (i, (a, b)) in r.iterations.iter().zip(&d.iterations).enumerate() {
            for ((u, v), unit) in a.units.iter().zip(&b.units).zip(UnitId::ALL) {
                assert_eq!(
                    (u.hash, u.hash_timeless, u.cycle_rows),
                    (v.hash, v.hash_timeless, v.cycle_rows),
                    "{name}: iteration {i} unit {unit}: digest-only capture differs from rows"
                );
            }
        }
    }
    rows
}

fn corpus_records() -> Vec<Record> {
    let mut out = Vec::new();
    let trace = TraceConfig::default();
    for (cfg_name, config) in configs() {
        for variant in ModexpVariant::ALL {
            let seed = 42;
            let runs = both_capture_paths(variant.name(), |trace| {
                modexp_runs(variant, config.clone(), seed, trace)
            });
            out.push(record(variant.name(), cfg_name, seed, None, runs));
        }
    }

    // The memmove's byte stores on a core starved of miss bandwidth.
    let runs = both_capture_paths("starved", |trace| {
        modexp_runs(ModexpVariant::V1MicroarchVuln, starved_mega(), 42, trace)
    });
    assert!(
        runs.iter().all(|r| r.pipeline.lsu_retry_events > 0),
        "the starved record must retry cache accesses"
    );
    out.push(record(ModexpVariant::V1MicroarchVuln.name(), "mega+starved", 42, None, runs));

    // Stores that drain from behind the STQ head on the starved core.
    let program = assemble(STORE_WALK).expect("the store walk assembles");
    let runs = both_capture_paths("store-walk", |trace| {
        let mut machine = Machine::with_trace_config(starved_mega(), &program, trace);
        vec![machine.run(2_000_000).expect("the store walk completes")]
    });
    assert_eq!(runs[0].iterations.len(), 3, "the store walk's iterations");
    out.push(record("store-walk", "mega+starved", 0, None, runs));

    let mega = CoreConfig::mega_boom();
    let trials = memcmp_trials(6, 7);
    let runs = both_capture_paths("CT-MEM-CMP", |trace| {
        vec![MemcmpKernel.run(mega.clone(), &trials, trace).expect("memcmp run completes")]
    });
    out.push(record("CT-MEM-CMP", "mega", 7, None, runs));

    // Every Table V primitive: 8 warm-up trials plus 4 kept ones each.
    let primitives = Primitive::all();
    assert_eq!(primitives.len(), 27);
    for p in primitives {
        let runs = both_capture_paths(p.name, |trace| {
            let o = p.run(mega.clone(), 4, 11, trace).expect("primitive run completes");
            assert!(o.functional_ok, "{} functional result", p.name);
            vec![o.result]
        });
        out.push(record(p.name, "mega", 11, None, runs));
    }

    for f in fixtures::all() {
        let runs = both_capture_paths(f.name, |trace| {
            vec![fixtures::run_fixture(&f, mega.clone(), 4, 3, trace)
                .expect("fixture run completes")]
        });
        out.push(record(f.name, "mega", 3, None, runs));
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
    let actual: Vec<(String, String, String)> = corpus_records()
        .into_iter()
        .map(|r| {
            let value = format!("{:016x}", digest(&r.runs, HashView::Value));
            let partition = format!("{:016x}", digest(&r.runs, HashView::Partition));
            (r.key, value, partition)
        })
        .collect();
    // `kernel config seed faults value partition`: the key is everything
    // before the last two fields.
    let expected: HashMap<&str, (&str, &str)> = CORPUS
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let mut fields = l.rsplitn(3, ' ');
            let partition = fields.next().unwrap_or_default();
            let value = fields.next().unwrap_or_default();
            (fields.next().unwrap_or_default(), (value, partition))
        })
        .collect();
    let mut mismatched = Vec::new();
    for (key, value, partition) in &actual {
        let Some(&(want_value, want_partition)) = expected.get(key.as_str()) else {
            mismatched.push(format!("{key}: no corpus line"));
            continue;
        };
        let what = match (want_value != value, want_partition != partition) {
            (false, false) => continue,
            (true, false) => "value column differs",
            (false, true) => "partition column differs",
            (true, true) => "value and partition columns differ",
        };
        mismatched.push(format!(
            "{key}: {what} (corpus {want_value} {want_partition}, actual {value} {partition})"
        ));
    }
    assert!(
        mismatched.is_empty() && actual.len() == expected.len(),
        "{} of {} trace fingerprints differ from the corpus ({} corpus lines):\n{}\n\n\
         actual corpus:\n{}",
        mismatched.len(),
        actual.len(),
        expected.len(),
        mismatched.join("\n"),
        actual.iter().map(|(k, v, p)| format!("{k} {v} {p}")).collect::<Vec<_>>().join("\n"),
    );
}
