//! Crash-resilient sweep harness integration tests: quarantine of wedged
//! trials, journal/resume, cross-thread-count determinism of injected
//! faults, retry classification for budget exhaustion, and
//! `run_modexp_iterations` as a plain call of the same sweep.

use microsampler_bench::run_modexp_iterations;
use microsampler_bench::sweep::{self, SweepOptions};
use microsampler_kernels::modexp::ModexpVariant;
use microsampler_obs::{diag, json, Value};
use microsampler_par::{FailureClass, IsolationPolicy};
use microsampler_sim::{CoreConfig, FaultConfig};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The thread override, the sweep options and the trial tally are
/// process-global; serialize every test that touches them.
static LOCK: Mutex<()> = Mutex::new(());

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("microsampler-ft-{name}-{}.jsonl", std::process::id()))
}

fn sweep_with(opts: &SweepOptions, n_keys: usize, seed: u64) -> sweep::SweepOutcome {
    sweep::run_modexp_sweep(ModexpVariant::V2Safe, &CoreConfig::mega_boom(), n_keys, 1, seed, opts)
}

/// [`run_modexp_iterations`] over the keys [`sweep_with`] runs.
fn iterations(n_keys: usize, seed: u64) -> Vec<microsampler_sim::IterationTrace> {
    run_modexp_iterations(ModexpVariant::V2Safe, &CoreConfig::mega_boom(), n_keys, 1, seed)
}

#[test]
fn wedged_trial_is_quarantined_and_the_sweep_completes() {
    let _l = LOCK.lock().unwrap();
    sweep::reset_events();
    let opts = SweepOptions { wedge_trial: Some(1), isolate: true, ..SweepOptions::default() };
    let out = sweep_with(&opts, 3, 42);
    assert_eq!(out.completed, 2, "the two healthy trials must finish");
    assert_eq!(out.restored, 0);
    assert_eq!(out.quarantined.len(), 1);
    let q = &out.quarantined[0];
    assert!(q.id.ends_with("key0001"), "trial 1 was the wedged one: {}", q.id);
    assert_eq!(q.class, FailureClass::SimError);
    assert_eq!(q.attempts, 2, "the default policy retries a sim error once");
    assert!(q.message.contains("deadlock"), "{}", q.message);
    assert!(!out.iterations.is_empty(), "partial results survive the quarantine");
    // The registry feeds the --json run report.
    let v = sweep::events_to_json();
    assert_eq!(v.get("completed").unwrap().as_u64(), Some(2));
    let listed = v.get("quarantined").unwrap().as_array().unwrap();
    assert_eq!(listed.len(), 1);
    assert_eq!(listed[0].get("class").unwrap().as_str(), Some("sim-error"));
    sweep::reset_events();
}

#[test]
fn journal_resume_reruns_only_the_missing_trials() {
    let _l = LOCK.lock().unwrap();
    let path = tmp("resume");
    std::fs::write(&path, "").unwrap();

    // Pass 1: trial 1 wedges; three of four trials land in the journal.
    sweep::reset_events();
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
    sweep::reset_events();
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
    let v = sweep::events_to_json();
    assert_eq!(v.get("restored").unwrap().as_u64(), Some(3));
    sweep::reset_events();

    // The journal now covers all four trials; a third resume runs nothing.
    sweep::reset_events();
    let third = sweep_with(&opts, 4, 7);
    assert_eq!((third.restored, third.completed), (4, 0));
    sweep::reset_events();
    std::fs::remove_file(&path).ok();

    // A restored-and-patched sweep is bit-identical to an uninterrupted
    // clean one: same pooled iterations, same hashes, same order.
    let clean = sweep_with(&SweepOptions { isolate: true, ..SweepOptions::default() }, 4, 7);
    assert_eq!(second.iterations, clean.iterations);
    assert_eq!(third.iterations, clean.iterations);
}

#[test]
fn injected_fault_schedules_are_thread_count_invariant() {
    let _l = LOCK.lock().unwrap();
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
        sweep::reset_events();
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
        sweep::reset_events();
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
    let _l = LOCK.lock().unwrap();
    sweep::reset_events();
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
    let out = sweep_with(&opts, 3, 42);
    diag::set_capture(None);
    diag::set_progress(false);
    assert_eq!(out.completed, 2);
    assert_eq!(out.quarantined.len(), 1);

    // The wedged trial must still count toward progress: without the
    // final-attempt tick the heartbeat stalls at 2/3 forever.
    let stderr = capture.lock().unwrap().clone();
    assert!(stderr.contains(": 3/3"), "progress must reach 3/3, got:\n{stderr}");

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
        assert_eq!(hb.get("total").unwrap().as_u64(), Some(3));
        assert!(hb.get("completed").unwrap().as_u64().is_some());
        assert!(hb.get("elapsed_sec").unwrap().as_f64().is_some());
        assert!(hb.get("trials_per_sec").unwrap().as_f64().is_some());
    }
    let last = heartbeats.last().unwrap();
    assert_eq!(last.get("completed").unwrap().as_u64(), Some(3), "final heartbeat covers all");

    // And the quarantined trial's metric merge is not poisoned: the event
    // registry records exactly one quarantine alongside the completions.
    let v = sweep::events_to_json();
    assert_eq!(v.get("completed").unwrap().as_u64(), Some(2));
    assert_eq!(v.get("quarantined").unwrap().as_array().unwrap().len(), 1);
    sweep::reset_events();
}

#[test]
fn exhausted_cycle_budget_is_quarantined_after_retry() {
    let _l = LOCK.lock().unwrap();
    sweep::reset_events();
    let opts = SweepOptions { isolate: true, max_cycles: Some(500), ..SweepOptions::default() };
    let out = sweep_with(&opts, 2, 5);
    assert_eq!(out.completed, 0);
    assert_eq!(out.quarantined.len(), 2, "no trial can finish in 500 cycles");
    for q in &out.quarantined {
        assert_eq!(q.class, FailureClass::SimError);
        assert_eq!(q.attempts, 2, "OutOfCycles is retried once, then quarantined");
        assert!(q.message.contains("cycle budget"), "{}", q.message);
    }
    let v = sweep::events_to_json();
    assert_eq!(v.get("completed").unwrap().as_u64(), Some(0));
    assert_eq!(v.get("quarantined").unwrap().as_array().unwrap().len(), 2);
    sweep::reset_events();
}

#[test]
fn plain_run_modexp_iterations_tallies_its_trials() {
    let _l = LOCK.lock().unwrap();
    sweep::set_options(None);
    sweep::reset_events();
    let iters = iterations(3, 42);
    let v = sweep::events_to_json();
    sweep::reset_events();
    assert!(!iters.is_empty());
    assert_eq!(v.get("completed").unwrap().as_u64(), Some(3), "{}", v.render_compact());
    assert!(v.get("quarantined").unwrap().as_array().unwrap().is_empty());
}

#[test]
fn quarantine_panics_unless_isolated() {
    let _l = LOCK.lock().unwrap();
    let wedged = SweepOptions { wedge_trial: Some(1), ..SweepOptions::default() };
    sweep::set_options(Some(wedged.clone()));
    let panicked = std::panic::catch_unwind(|| iterations(3, 42));
    sweep::set_options(Some(SweepOptions { isolate: true, ..wedged.clone() }));
    let survivors = iterations(3, 42);
    sweep::set_options(None);
    sweep::reset_events();
    let payload = panicked.expect_err("a quarantined trial fails an unisolated run");
    let message = payload.downcast_ref::<String>().expect("a formatted panic message");
    assert!(message.contains("key0001") && message.contains("sim-error"), "{message}");
    let want = sweep_with(&SweepOptions { isolate: true, ..wedged }, 3, 42);
    assert_eq!(want.completed, 2);
    assert_eq!(survivors, want.iterations, "isolated runs return the survivors");
}

#[test]
fn timed_out_trials_tick_the_heartbeat_once_each() {
    let _l = LOCK.lock().unwrap();
    let journal = tmp("timeout");
    std::fs::write(&journal, "").unwrap();
    let policy = IsolationPolicy { timeout: Some(Duration::ZERO), ..IsolationPolicy::default() };
    let opts = SweepOptions { journal: Some(journal.clone()), policy, ..SweepOptions::default() };
    let out = sweep_with(&opts, 3, 42);
    let text = std::fs::read_to_string(&journal).unwrap();
    std::fs::remove_file(&journal).ok();
    sweep::reset_events();
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
