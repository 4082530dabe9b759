//! End-to-end `repro` CLI tests: flag validation exit codes and the
//! fault-injection → quarantine → resume loop through the real binary.

use microsampler_obs::{json, Value};
use std::path::PathBuf;
use std::process::{Command, Stdio};

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("microsampler-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every case runs in a scratch directory under a deadline: a command line
/// the parser wrongly accepts may start a sweep, an audit or a daemon
/// instead of exiting, and must fail the test rather than hang it.
#[test]
fn bad_flags_exit_with_usage_error() {
    let cases: &[&[&str]] = &[
        &["fig7", "--threads", "0"],
        &["fig7", "--threads", "-3"],
        &["fig7", "--threads", "abc"],
        &["fig7", "--threads"],
        &["fig7", "--faults", "bogus"],
        &["fig7", "--faults", "rate=1"],
        &["fig7", "--faults", "drop=99999"],
        &["fig7", "--faults", "drop=abc"],
        &["fig7", "--faults"],
        &["fig7", "--resume", "/nonexistent/journal.jsonl"],
        &["fig7", "--keys", "0"],
        &["fig7", "--keys", "1", "--key-bytes", "1", "--retries", "4294967296"],
        &["fig7", "--bogus"],
        &["nonsense-experiment"],
        &["lint", "--bogus"],
        &["lint", "--sarif"],
        &["lint", "--threads", "abc"],
        &["profile", "--bogus"],
        &["profile", "--out"],
        &["profile", "--keys", "0"],
        &["audit", "--bogus"],
        &["audit", "--stats-out"],
        &["audit", "--trials", "0"],
        &["audit", "--noise", "70000"],
        &["serve", "--bogus"],
        &["serve", "--state"],
        &["serve", "--queue", "0"],
        &["serve", "--job-retries", "4294967296"],
        &["submit", "--bogus"],
        &["submit", "--socket"],
        &["submit", "--keys", "0"],
        &["submit", "--seed", "-1"],
    ];
    let dir = tmp_dir("bad-flags");
    for args in cases {
        let (code, stderr) = run_with_deadline(args, &dir);
        assert_eq!(code, Some(2), "{args:?} must exit 2; stderr: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `--help` and `-h` exit 0 in every subcommand, and the largest
/// `--retries` runs: `u32::MAX` retries saturate at `u32::MAX` attempts.
#[test]
fn help_exits_zero_and_the_largest_retry_count_runs() {
    let dir = tmp_dir("help");
    for command in [&[][..], &["lint"], &["profile"], &["audit"], &["serve"], &["submit"]] {
        for help in ["--help", "-h"] {
            let args: Vec<&str> = command.iter().copied().chain([help]).collect();
            let (code, stderr) = run_with_deadline(&args, &dir);
            assert_eq!(code, Some(0), "{args:?} must exit 0; stderr: {stderr}");
            assert!(stderr.contains("usage: repro"), "{args:?} prints the usage: {stderr}");
        }
    }
    let args = ["fig7", "--keys", "1", "--key-bytes", "1", "--retries", "4294967295"];
    let (code, stderr) = run_with_deadline(&args, &dir);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs `repro args` in `dir` and returns its exit code and stderr, or
/// kills it and fails after 10 s.
fn run_with_deadline(args: &[&str], dir: &std::path::Path) -> (Option<i32>, String) {
    use std::time::{Duration, Instant};
    let mut child = repro()
        .args(args)
        .current_dir(dir)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("repro runs");
    let started = Instant::now();
    while child.try_wait().expect("repro can be waited on").is_none() {
        if started.elapsed() > Duration::from_secs(10) {
            child.kill().ok();
            child.wait().ok();
            panic!("{args:?} still ran after 10 s");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let out = child.wait_with_output().expect("repro's stderr can be read");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn malformed_resume_journal_exits_with_usage_error() {
    let dir = tmp_dir("badjournal");
    let journal = dir.join("journal.jsonl");
    std::fs::write(&journal, "this is not json\n").unwrap();
    let out = repro().args(["fig7", "--resume"]).arg(&journal).output().expect("repro runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 1"), "error should name the bad line: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A misspelled `repro profile` kernel must exit 2 and name every valid
/// kernel on stderr — even with the diag sink silenced, since the
/// usage-error path prints unconditionally.
#[test]
fn profile_unknown_kernel_exits_usage_error_listing_kernels() {
    let out = repro()
        .args(["profile", "no-such-kernel"])
        .env("MICROSAMPLER_LOG", "off")
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown kernel `no-such-kernel`"), "{stderr}");
    for name in ["SAM-Naive", "SAM-CT-CMOV", "ME-V1-CV", "ME-V1-MV", "ME-V2-Safe"] {
        assert!(stderr.contains(name), "stderr must list {name}: {stderr}");
    }
}

/// The acceptance scenario: a sweep containing an always-deadlocking
/// trial completes with exit 0, reports the quarantined trial in the
/// `--json` run report and the journal, and `--resume` re-runs only the
/// missing trial.
#[test]
fn wedged_sweep_completes_quarantines_and_resumes() {
    let dir = tmp_dir("wedge");
    let journal = dir.join("trials.jsonl");
    let reports = dir.join("reports");
    let base = ["fig7", "--keys", "2", "--key-bytes", "1", "--threads", "2", "--retries", "1"];

    let out = repro()
        .args(base)
        .args(["--faults", "wedge=0", "--journal"])
        .arg(&journal)
        .arg("--json")
        .arg(&reports)
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "a wedged trial must not sink the sweep; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let report = parse_report(&reports.join("fig7.json"));
    let trials = report.get("trials").expect("run report carries a trials section");
    assert_eq!(trials.get("completed").unwrap().as_u64(), Some(1));
    assert_eq!(trials.get("restored").unwrap().as_u64(), Some(0));
    let quarantined = trials.get("quarantined").unwrap().as_array().unwrap();
    assert_eq!(quarantined.len(), 1, "the wedged trial is enumerated");
    let q = &quarantined[0];
    assert!(q.get("id").unwrap().as_str().unwrap().ends_with("key0000"));
    assert_eq!(q.get("class").unwrap().as_str(), Some("sim-error"));
    assert_eq!(q.get("attempts").unwrap().as_u64(), Some(2), "--retries 1 means 2 attempts");

    let journal_text = std::fs::read_to_string(&journal).unwrap();
    assert!(journal_text.contains("\"status\":\"completed\""));
    assert!(journal_text.contains("\"status\":\"quarantined\""));

    // Resume without the wedge: the quarantined trial re-runs, the
    // completed one is restored, and the sweep reports no quarantine.
    let out = repro()
        .args(base)
        .arg("--resume")
        .arg(&journal)
        .arg("--json")
        .arg(&reports)
        .output()
        .expect("repro runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let report = parse_report(&reports.join("fig7.json"));
    let trials = report.get("trials").unwrap();
    assert_eq!(trials.get("restored").unwrap().as_u64(), Some(1), "journaled trial not re-run");
    assert_eq!(trials.get("completed").unwrap().as_u64(), Some(1), "missing trial re-ran");
    assert_eq!(trials.get("quarantined").unwrap().as_array().unwrap().len(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Each experiment's run report counts only its own sweeps, and a sweep
/// resumes from the trials an earlier experiment of the same run wrote:
/// fig5 runs fig4's sweep again, so resuming an empty journal completes
/// fig4's two keys and restores them for fig5.
#[test]
fn each_report_tallies_its_own_experiment_and_restores_in_run() {
    let dir = tmp_dir("in-run");
    let journal = dir.join("trials.jsonl");
    let reports = dir.join("reports");
    std::fs::write(&journal, "").unwrap();
    let out = repro()
        .args(["fig4", "fig5", "--keys", "2", "--key-bytes", "1", "--resume"])
        .arg(&journal)
        .arg("--json")
        .arg(&reports)
        .output()
        .expect("repro runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let counts = |experiment: &str| {
        let report = parse_report(&reports.join(format!("{experiment}.json")));
        let trials = report.get("trials").unwrap().clone();
        let n = |key: &str| trials.get(key).and_then(Value::as_u64);
        (n("restored"), n("completed"))
    };
    assert_eq!(counts("fig4"), (Some(0), Some(2)), "fig4 runs both keys");
    assert_eq!(counts("fig5"), (Some(2), Some(0)), "fig5 restores fig4's trials");
    std::fs::remove_dir_all(&dir).ok();
}

/// A journal without features, as serve jobs and plain sweeps write it,
/// resumes under `repro fig5`, which reads SQ-ADDR's features: every
/// trial re-runs, and fig5 prints what a fresh run prints.
#[test]
fn fig5_resumed_from_a_featureless_journal_reruns_and_prints_a_fresh_fig5() {
    use microsampler_bench::sweep::{run_modexp_sweep, SweepOptions};
    use microsampler_kernels::modexp::ModexpVariant;
    use microsampler_sim::CoreConfig;
    let dir = tmp_dir("featureless");
    let journal = dir.join("trials.jsonl");
    let reports = dir.join("reports");
    let opts = SweepOptions { journal: Some(journal.clone()), ..SweepOptions::default() };
    let mega = CoreConfig::mega_boom();
    let written = run_modexp_sweep(ModexpVariant::V1MicroarchVuln, &mega, 2, 1, 42, &opts);
    assert_eq!(written.completed, 2);
    let text = std::fs::read_to_string(&journal).unwrap();
    assert!(text.contains("\"status\":\"completed\"") && !text.contains("\"order\""), "{text}");

    let base = ["fig5", "--keys", "2", "--key-bytes", "1", "--seed", "42"];
    let fresh = repro().args(base).output().expect("repro runs");
    assert!(fresh.status.success(), "stderr: {}", String::from_utf8_lossy(&fresh.stderr));
    let resumed = repro()
        .args(base)
        .arg("--resume")
        .arg(&journal)
        .arg("--json")
        .arg(&reports)
        .output()
        .expect("repro runs");
    assert!(resumed.status.success(), "stderr: {}", String::from_utf8_lossy(&resumed.stderr));
    let report_line = format!("wrote {}\n", reports.join("fig5.json").display());
    let stdout = String::from_utf8_lossy(&resumed.stdout).replace(&report_line, "");
    assert_eq!(stdout, String::from_utf8_lossy(&fresh.stdout));
    let trials = parse_report(&reports.join("fig5.json")).get("trials").unwrap().clone();
    let n = |key: &str| trials.get(key).and_then(Value::as_u64);
    assert_eq!((n("restored"), n("completed")), (Some(0), Some(2)));
    std::fs::remove_dir_all(&dir).ok();
}

/// Resuming a journal recorded under different FaultConfig rates (or a
/// different fault seed) would mix trials from two distributions into
/// one statistic; the CLI must refuse with exit 2 and name the hashes.
#[test]
fn resume_with_changed_fault_config_exits_usage_error() {
    let dir = tmp_dir("resume-mismatch");
    let journal = dir.join("trials.jsonl");
    let base = ["fig7", "--keys", "2", "--key-bytes", "1", "--threads", "2"];

    let out = repro()
        .args(base)
        .args(["--faults", "evict=16,seed=9", "--journal"])
        .arg(&journal)
        .output()
        .expect("repro runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    // Same journal, different eviction rate: refused before any trial runs.
    let out = repro()
        .args(base)
        .args(["--faults", "evict=32,seed=9", "--resume"])
        .arg(&journal)
        .output()
        .expect("repro runs");
    assert_eq!(
        out.status.code(),
        Some(2),
        "a rate change must be refused; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("different"), "error explains the mismatch: {stderr}");

    // A changed fault seed is the same hazard.
    let out = repro()
        .args(base)
        .args(["--faults", "evict=16,seed=10", "--resume"])
        .arg(&journal)
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(2), "a fault-seed change must be refused");

    // The matching spec still resumes cleanly.
    let out = repro()
        .args(base)
        .args(["--faults", "evict=16,seed=9", "--resume"])
        .arg(&journal)
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "the original spec must resume; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Snapshot hashes from another fold label identical snapshots
/// differently, so pooling them with this build's would split one
/// contingency-table category in two. `--resume` refuses, with exit 2, a
/// journal whose header was written by a build with an earlier fold and a
/// journal without a header (written before headers existed), and names
/// the cause.
#[test]
fn resume_refuses_journals_from_another_snapshot_fold() {
    let dir = tmp_dir("resume-fold");
    let base = ["fig7", "--keys", "1", "--key-bytes", "1", "--threads", "1"];
    let resume = |journal: &std::path::Path| {
        repro().args(base).arg("--resume").arg(journal).output().expect("repro runs")
    };

    // The headers earlier folds' builds wrote for fault-free options: the
    // first run-length fold, and the one that digested rows with SipHash.
    for config_hash in ["34953a3173516e0d", "ce054481753b1661"] {
        let old_fold = dir.join(format!("fold-{config_hash}.jsonl"));
        let header = format!(
            "{{\"schema\":\"microsampler-journal-header-v1\",\"config_hash\":\"{config_hash}\"}}\n"
        );
        std::fs::write(&old_fold, header).unwrap();
        let out = resume(&old_fold);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
        assert!(
            stderr.contains("snapshot-hash format") && stderr.contains("FaultConfig"),
            "{stderr}"
        );
    }

    // This build's own journal resumes; without its header it does not.
    let journal = dir.join("trials.jsonl");
    let out = repro().args(base).arg("--journal").arg(&journal).output().expect("repro runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let out = resume(&journal);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&journal).unwrap();
    let (header, trials) = text.split_once('\n').expect("a header line, then trials");
    assert!(header.contains("microsampler-journal-header-v1"), "{header}");
    assert!(trials.contains("\"status\":\"completed\""), "{trials}");
    let headerless = dir.join("headerless.jsonl");
    std::fs::write(&headerless, trials).unwrap();
    let out = resume(&headerless);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("no config header"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

fn parse_report(path: &std::path::Path) -> Value {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let v = json::parse(&text).expect("run report parses");
    assert_eq!(v.get("schema").and_then(Value::as_str), Some("microsampler-run-report-v1"));
    v
}
