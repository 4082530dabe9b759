//! Crash-resilient sweep harness integration tests: quarantine of wedged
//! trials, journal/resume, cross-thread-count determinism of injected
//! faults, retry classification for budget exhaustion, and the run
//! context's sweep and trial tally.
//!
//! Each sweep returns its own `SweepOutcome` and each context keeps its
//! own tally, so the tests run concurrently. The one process-wide setting
//! they change is the thread override, which no result depends on.

use microsampler_bench::sweep::{self, RunContext, SweepOptions};
use microsampler_bench::{run_modexp_iterations, Scale};
use microsampler_kernels::modexp::ModexpVariant;
use microsampler_obs::{diag, json, Value};
use microsampler_par::{FailureClass, IsolationPolicy};
use microsampler_sim::{CoreConfig, FaultConfig, IterationTrace};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("microsampler-ft-{name}-{}.jsonl", std::process::id()))
}

fn sweep_with(opts: &SweepOptions, n_keys: usize, seed: u64) -> sweep::SweepOutcome {
    sweep::run_modexp_sweep(ModexpVariant::V2Safe, &CoreConfig::mega_boom(), n_keys, 1, seed, opts)
}

/// [`RunContext::modexp_iterations`] over the keys [`sweep_with`] runs.
fn iterations(ctx: &RunContext, n_keys: usize, seed: u64) -> Vec<IterationTrace> {
    ctx.modexp_iterations(ModexpVariant::V2Safe, &CoreConfig::mega_boom(), n_keys, 1, seed)
}

fn context(opts: SweepOptions) -> RunContext {
    RunContext::new(Scale::default(), opts)
}

#[test]
fn wedged_trial_is_quarantined_and_the_sweep_completes() {
    let ctx = context(SweepOptions { wedge_trial: Some(1), isolate: true, ..Default::default() });
    let iters = iterations(&ctx, 3, 42);
    assert!(!iters.is_empty(), "partial results survive the quarantine");
    // The context's tally feeds the --json run report.
    let v = ctx.trials_to_json();
    assert_eq!(v.get("completed").unwrap().as_u64(), Some(2), "the two healthy trials finish");
    assert_eq!(v.get("restored").unwrap().as_u64(), Some(0));
    let listed = v.get("quarantined").unwrap().as_array().unwrap();
    assert_eq!(listed.len(), 1);
    let q = |key: &str| listed[0].get(key).unwrap().clone();
    let id = q("id");
    assert!(id.as_str().unwrap().ends_with("key0001"), "trial 1 was the wedged one: {id:?}");
    assert_eq!(q("class").as_str(), Some("sim-error"));
    assert_eq!(q("attempts").as_u64(), Some(2), "the default policy retries a sim error once");
    assert!(q("message").as_str().unwrap().contains("deadlock"), "{:?}", q("message"));
}

#[test]
fn journal_resume_reruns_only_the_missing_trials() {
    let path = tmp("resume");
    std::fs::write(&path, "").unwrap();

    // Pass 1: trial 1 wedges; three of four trials land in the journal.
    let opts = SweepOptions {
        wedge_trial: Some(1),
        journal: Some(path.clone()),
        isolate: true,
        ..SweepOptions::default()
    };
    let first = sweep_with(&opts, 4, 7);
    assert_eq!(first.completed, 3);
    assert_eq!(first.quarantined.len(), 1);

    // Pass 2: resume without the wedge; only trial 1 re-runs.
    let opts = SweepOptions {
        journal: Some(path.clone()),
        resume: true,
        isolate: true,
        ..SweepOptions::default()
    };
    let second = sweep_with(&opts, 4, 7);
    assert_eq!(second.restored, 3, "journaled trials are not re-run");
    assert_eq!(second.completed, 1, "only the previously-wedged trial runs");
    assert!(second.quarantined.is_empty());

    // The journal now covers all four trials; a third resume runs nothing.
    let third = sweep_with(&opts, 4, 7);
    assert_eq!((third.restored, third.completed), (4, 0));
    std::fs::remove_file(&path).ok();

    // A restored-and-patched sweep is bit-identical to an uninterrupted
    // clean one: same pooled iterations, same hashes, same order.
    let clean = sweep_with(&SweepOptions { isolate: true, ..SweepOptions::default() }, 4, 7);
    assert_eq!(second.iterations, clean.iterations);
    assert_eq!(third.iterations, clean.iterations);
}

/// `tests/data/trial-journal-v1.jsonl` was written by the build before
/// journal records were encoded directly (CI's fault-injection run: `repro
/// fig7 --keys 3 --key-bytes 1 --threads 2 --retries 1 --faults
/// seed=7,squash=400,evict=400,drop=200,wedge=0 --journal FILE`), with
/// every unit's `order`. It still resumes: both completed trials are
/// restored bit-identically, without the features the resuming sweep does
/// not collect, and the quarantined wedged trial re-runs.
#[test]
fn journal_from_the_tree_encoder_still_resumes() {
    let path = tmp("tree-encoder");
    let data = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/trial-journal-v1.jsonl");
    std::fs::copy(data, &path).unwrap();
    let faults = Some(FaultConfig {
        seed: 7,
        squash_per_64k: 400,
        evict_per_64k: 400,
        drop_row_per_64k: 200,
        ..FaultConfig::default()
    });
    let opts = SweepOptions {
        faults,
        journal: Some(path.clone()),
        resume: true,
        isolate: true,
        ..SweepOptions::default()
    };
    let resumed = sweep_with(&opts, 3, 42);
    std::fs::remove_file(&path).ok();
    assert_eq!((resumed.restored, resumed.completed), (2, 1), "{:?}", resumed.quarantined);
    let fresh =
        sweep_with(&SweepOptions { faults, isolate: true, ..SweepOptions::default() }, 3, 42);
    assert_eq!(resumed.iterations, fresh.iterations);
    assert!(resumed.iterations.iter().flat_map(|it| &it.units).all(|u| u.order.is_none()));
}

#[test]
fn injected_fault_schedules_are_thread_count_invariant() {
    let faults = FaultConfig {
        seed: 0x0051_ee93,
        squash_per_64k: 500,
        evict_per_64k: 500,
        mshr_stall_per_64k: 400,
        drop_row_per_64k: 250,
        bitflip_per_64k: 250,
        wedge: false,
    };
    let run = |threads: usize, faults: Option<FaultConfig>| {
        microsampler_par::set_threads(Some(threads));
        let opts = SweepOptions { faults, isolate: true, ..SweepOptions::default() };
        let out = sweep::run_modexp_sweep(
            ModexpVariant::V1MicroarchVuln,
            &CoreConfig::mega_boom(),
            4,
            1,
            99,
            &opts,
        );
        microsampler_par::set_threads(None);
        out
    };
    let serial = run(1, Some(faults));
    assert!(serial.quarantined.is_empty(), "noise rates must not kill trials");
    for threads in [2, 4] {
        let parallel = run(threads, Some(faults));
        assert_eq!(
            serial.iterations, parallel.iterations,
            "faulted sweep must be bit-identical at {threads} threads"
        );
    }
    let clean = run(1, None);
    assert_ne!(serial.iterations, clean.iterations, "the faults must actually perturb traces");
}

#[test]
fn quarantined_trial_still_ticks_progress_and_heartbeat() {
    let journal = tmp("heartbeat");
    std::fs::write(&journal, "").unwrap();
    let capture = Arc::new(Mutex::new(String::new()));
    diag::set_progress(true);
    diag::set_capture(Some(capture.clone()));
    let opts = SweepOptions {
        wedge_trial: Some(1),
        journal: Some(journal.clone()),
        isolate: true,
        ..SweepOptions::default()
    };
    // Five keys, which no other test here sweeps, so the progress lines
    // other tests print into the capture meanwhile cannot reach 5/5.
    let out = sweep_with(&opts, 5, 42);
    diag::set_capture(None);
    diag::set_progress(false);
    assert_eq!(out.completed, 4);
    assert_eq!(out.quarantined.len(), 1);

    // The wedged trial must still count toward progress: without the
    // final-attempt tick the heartbeat stalls at 4/5 forever.
    let stderr = capture.lock().unwrap().clone();
    assert!(stderr.contains("ME-V2-Safe: 5/5"), "progress must reach 5/5, got:\n{stderr}");

    // Heartbeat JSONL events are interleaved with the trial records, are
    // well-formed, and the final one reports completed == total.
    let text = std::fs::read_to_string(&journal).unwrap();
    std::fs::remove_file(&journal).ok();
    let heartbeats: Vec<Value> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| json::parse(l).expect("every journal line is valid JSON"))
        .filter(|v| v.get("schema").and_then(Value::as_str) == Some(sweep::HEARTBEAT_SCHEMA))
        .collect();
    assert!(!heartbeats.is_empty(), "the sweep must emit heartbeat events");
    for hb in &heartbeats {
        assert_eq!(hb.get("total").unwrap().as_u64(), Some(5));
        assert!(hb.get("completed").unwrap().as_u64().is_some());
        assert!(hb.get("elapsed_sec").unwrap().as_f64().is_some());
        assert!(hb.get("trials_per_sec").unwrap().as_f64().is_some());
    }
    let last = heartbeats.last().unwrap();
    assert_eq!(last.get("completed").unwrap().as_u64(), Some(5), "final heartbeat covers all");
}

#[test]
fn exhausted_cycle_budget_is_quarantined_after_retry() {
    let opts = SweepOptions { isolate: true, max_cycles: Some(500), ..SweepOptions::default() };
    let out = sweep_with(&opts, 2, 5);
    assert_eq!(out.completed, 0);
    assert_eq!(out.quarantined.len(), 2, "no trial can finish in 500 cycles");
    for q in &out.quarantined {
        assert_eq!(q.class, FailureClass::SimError);
        assert_eq!(q.attempts, 2, "OutOfCycles is retried once, then quarantined");
        assert!(q.message.contains("cycle budget"), "{}", q.message);
    }
}

#[test]
fn plain_run_modexp_iterations_tallies_its_trials() {
    let ctx = RunContext::default();
    let iters = iterations(&ctx, 3, 42);
    let v = ctx.trials_to_json();
    assert!(!iters.is_empty());
    assert_eq!(v.get("completed").unwrap().as_u64(), Some(3), "{}", v.render_compact());
    assert!(v.get("quarantined").unwrap().as_array().unwrap().is_empty());
    // `run_modexp_iterations` is the same sweep under a default context.
    let plain = run_modexp_iterations(ModexpVariant::V2Safe, &CoreConfig::mega_boom(), 3, 1, 42);
    assert_eq!(plain, iters);
}

#[test]
fn quarantine_panics_unless_isolated() {
    let wedged = SweepOptions { wedge_trial: Some(1), ..SweepOptions::default() };
    let panicked = std::panic::catch_unwind(|| iterations(&context(wedged.clone()), 3, 42));
    let isolated = SweepOptions { isolate: true, ..wedged };
    let survivors = iterations(&context(isolated.clone()), 3, 42);
    let payload = panicked.expect_err("a quarantined trial fails an unisolated run");
    let message = payload.downcast_ref::<String>().expect("a formatted panic message");
    assert!(message.contains("key0001") && message.contains("sim-error"), "{message}");
    let want = sweep_with(&isolated, 3, 42);
    assert_eq!(want.completed, 2);
    assert_eq!(survivors, want.iterations, "isolated runs return the survivors");
}

#[test]
fn timed_out_trials_tick_the_heartbeat_once_each() {
    let journal = tmp("timeout");
    std::fs::write(&journal, "").unwrap();
    let policy = IsolationPolicy { timeout: Some(Duration::ZERO), ..IsolationPolicy::default() };
    let opts = SweepOptions { journal: Some(journal.clone()), policy, ..SweepOptions::default() };
    let out = sweep_with(&opts, 3, 42);
    let text = std::fs::read_to_string(&journal).unwrap();
    std::fs::remove_file(&journal).ok();
    assert_eq!(out.quarantined.len(), 3, "a zero budget times out every trial");
    assert!(out.quarantined.iter().all(|q| q.class == FailureClass::TimedOut));
    assert!(!text.contains("\"status\":\"completed\""), "timed-out trials are not completed");
    let heartbeats: Vec<Value> = text
        .lines()
        .map(|l| json::parse(l).expect("every journal line is valid JSON"))
        .filter(|v| v.get("schema").and_then(Value::as_str) == Some(sweep::HEARTBEAT_SCHEMA))
        .collect();
    let done = |hb: &&Value| hb.get("completed") == hb.get("total");
    assert_eq!(heartbeats.iter().filter(done).count(), 1, "{heartbeats:?}");
    assert!(done(&heartbeats.last().unwrap()), "the count ends at total");
}
