//! End-to-end `repro serve` robustness tests through the real binary:
//! backpressure, hostile request lines, SIGTERM drain, and kill-9 crash
//! recovery.

#![cfg(unix)]

use microsampler_obs::{json, Value};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("microsampler-serve-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn wait_for(mut cond: impl FnMut() -> bool, timeout: Duration, what: &str) {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("timed out waiting for {what}");
}

/// Starts a daemon on `state/serve.sock` and waits until it accepts
/// connections (a stale socket file from a killed predecessor refuses
/// them, so existence alone is not readiness).
fn start_daemon(state: &Path, extra: &[&str]) -> (Child, PathBuf) {
    let socket = state.join("serve.sock");
    let daemon = repro()
        .arg("serve")
        .arg("--state")
        .arg(state)
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("daemon spawns");
    wait_for(
        || UnixStream::connect(&socket).is_ok(),
        Duration::from_secs(30),
        "the daemon socket to accept connections",
    );
    (daemon, socket)
}

fn sigterm(daemon: &Child) {
    let ok = Command::new("sh")
        .arg("-c")
        .arg(format!("kill -TERM {}", daemon.id()))
        .status()
        .expect("kill runs")
        .success();
    assert!(ok, "SIGTERM delivered");
}

fn wait_exit(child: &mut Child, timeout: Duration, what: &str) -> std::process::ExitStatus {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status;
        }
        if Instant::now() >= deadline {
            child.kill().ok();
            panic!("timed out waiting for {what} to exit");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Opens a connection, sends one request line, and returns the stream
/// (held open — dropping it cancels the job) plus the first response.
fn raw_request(socket: &Path, body: &str) -> (UnixStream, BufReader<UnixStream>, String) {
    let mut stream = UnixStream::connect(socket).expect("connects");
    writeln!(stream, "{body}").expect("request sent");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut first = String::new();
    reader.read_line(&mut first).expect("first response line");
    (stream, reader, first)
}

/// The compact rendering of the `verdict` object from a `repro submit`
/// stdout capture (per-run accounting lives outside this object, so it
/// is comparable across interrupted and uninterrupted runs).
fn extract_verdict(stdout: &[u8]) -> String {
    let text = String::from_utf8_lossy(stdout);
    for line in text.lines() {
        let Ok(v) = json::parse(line) else { continue };
        if v.get("event").and_then(Value::as_str) == Some("verdict") {
            assert_eq!(v.get("status").and_then(Value::as_str), Some("done"), "{line}");
            return v.get("verdict").expect("verdict body").render_compact();
        }
    }
    panic!("no verdict event in: {text}");
}

#[test]
fn overload_is_rejected_with_structured_busy() {
    let dir = tmp_dir("busy");
    let (mut daemon, socket) = start_daemon(&dir, &["--queue", "2", "--per-client", "1"]);
    // A deliberately chunky job keeps the queue occupied while the
    // follow-up submissions probe the backpressure paths.
    let job = |client: &str| {
        format!(
            "{{\"op\":\"submit\",\"client\":\"{client}\",\"kernel\":\"ME-V2-Safe\",\
             \"keys\":12,\"key_bytes\":2,\"seed\":1}}"
        )
    };
    let (_s1, _r1, first) = raw_request(&socket, &job("a"));
    assert!(first.contains("\"event\":\"accepted\""), "{first}");

    let (_s2, _r2, quota) = raw_request(&socket, &job("a"));
    assert!(
        quota.contains("\"event\":\"busy\"") && quota.contains("\"reason\":\"client-quota\""),
        "a second outstanding job from the same client must hit the quota: {quota}"
    );

    let (_s3, _r3, second) = raw_request(&socket, &job("b"));
    assert!(second.contains("\"event\":\"accepted\""), "{second}");

    let (_s4, _r4, full) = raw_request(&socket, &job("c"));
    assert!(
        full.contains("\"event\":\"busy\"") && full.contains("\"reason\":\"queue-full\""),
        "a third outstanding job must overflow the bounded queue: {full}"
    );

    daemon.kill().ok();
    daemon.wait().ok();
    std::fs::remove_dir_all(&dir).ok();
}

/// A request nested far deeper than any real one is a parse error, not a
/// stack overflow: the session answers with an `error` event and the
/// daemon keeps serving. The line stays just under the 64 KiB request
/// cap, so it reaches the parser.
#[test]
fn deeply_nested_request_gets_an_error_and_the_daemon_survives() {
    let dir = tmp_dir("nested");
    let (mut daemon, socket) = start_daemon(&dir, &[]);
    let (_s1, _r1, reply) = raw_request(&socket, &"[".repeat(65_000));
    assert!(reply.contains("\"event\":\"error\"") && reply.contains("nested deeper"), "{reply}");
    let (_s2, _r2, status) = raw_request(&socket, "{\"op\":\"status\"}");
    assert!(status.contains("\"event\":\"status\""), "{status}");
    sigterm(&daemon);
    let exit = wait_exit(&mut daemon, Duration::from_secs(60), "the daemon");
    assert_eq!(exit.code(), Some(0), "graceful shutdown exits 0");
    std::fs::remove_dir_all(&dir).ok();
}

/// A request line past the 64 KiB cap is answered with an `error` event
/// naming the cap, the connection closes, and the daemon keeps serving.
#[test]
fn oversized_request_line_gets_an_error_and_the_daemon_survives() {
    let dir = tmp_dir("oversized");
    let (mut daemon, socket) = start_daemon(&dir, &[]);
    let mut stream = UnixStream::connect(&socket).expect("connects");
    // The daemon stops reading at the cap, so the rest of this write may
    // fail with a broken pipe.
    let _ = stream.write_all(&vec![b'x'; 1 << 20]);
    let mut reply = String::new();
    BufReader::new(&stream).read_line(&mut reply).expect("error line");
    assert!(reply.contains("\"event\":\"error\"") && reply.contains("65536 bytes"), "{reply}");
    let (_s, _r, status) = raw_request(&socket, "{\"op\":\"status\"}");
    assert!(status.contains("\"event\":\"status\""), "{status}");
    sigterm(&daemon);
    let exit = wait_exit(&mut daemon, Duration::from_secs(60), "the daemon");
    assert_eq!(exit.code(), Some(0), "graceful shutdown exits 0");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sigterm_drains_in_flight_jobs_and_exits_zero() {
    let dir = tmp_dir("drain");
    let (mut daemon, socket) = start_daemon(&dir, &[]);
    let submit = repro()
        .arg("submit")
        .arg("--socket")
        .arg(&socket)
        .args(["--keys", "4", "--key-bytes", "2", "--seed", "5"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("submit spawns");
    // SIGTERM as soon as the job is durably accepted: the drain must
    // still run it to completion and deliver the verdict.
    let wal = dir.join("serve-wal.jsonl");
    wait_for(
        || {
            std::fs::read_to_string(&wal)
                .map(|t| t.contains("\"event\":\"submitted\""))
                .unwrap_or(false)
        },
        Duration::from_secs(30),
        "the job to be WAL-logged",
    );
    sigterm(&daemon);
    let out = submit.wait_with_output().expect("submit finishes");
    assert!(
        out.status.success(),
        "the drained job still delivers its clean verdict; stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let verdict = extract_verdict(&out.stdout);
    assert!(verdict.contains("\"leaky\":false"), "{verdict}");
    let status = wait_exit(&mut daemon, Duration::from_secs(60), "the daemon");
    assert_eq!(status.code(), Some(0), "graceful shutdown exits 0");
    assert!(!socket.exists(), "the socket is removed on shutdown");
    let wal_text = std::fs::read_to_string(&wal).unwrap();
    assert!(wal_text.is_empty(), "no live jobs remain in the compacted WAL: {wal_text}");
    assert!(dir.join("serve-metrics.json").exists(), "serve.* metrics are flushed");
    std::fs::remove_dir_all(&dir).ok();
}

/// A `--sequential` job completes as soon as its confidence sequence
/// closes: the verdict carries the `microsampler-stop-v1` stopping
/// trace, and a clearly leaky kernel stops before the full key budget.
#[test]
fn sequential_submit_stops_early_and_reports_the_stop_trace() {
    let dir = tmp_dir("sequential");
    let (mut daemon, socket) = start_daemon(&dir, &[]);
    let out = repro()
        .arg("submit")
        .arg("--socket")
        .arg(&socket)
        .args(["--kernel", "SAM-Naive", "--keys", "16", "--key-bytes", "1"])
        .args(["--seed", "42", "--sequential"])
        .output()
        .expect("submit runs");
    assert_eq!(
        out.status.code(),
        Some(3),
        "naive SAM is leaky; stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let verdict = json::parse(&extract_verdict(&out.stdout)).expect("verdict parses");
    assert_eq!(verdict.get("leaky").and_then(Value::as_bool), Some(true));
    let stop = verdict.get("stop").expect("sequential verdicts carry the stop trace");
    assert_eq!(stop.get("schema").and_then(Value::as_str), Some("microsampler-stop-v1"));
    assert_eq!(stop.get("verdict").and_then(Value::as_str), Some("leaky"));
    let spent = stop.get("trials_spent").and_then(Value::as_u64).expect("trials_spent");
    assert!(spent < 16, "the sequence must close before the full 16-key budget (spent {spent})");
    assert!(
        !stop.get("looks").unwrap().as_array().unwrap().is_empty(),
        "the trace records its looks"
    );
    sigterm(&daemon);
    wait_exit(&mut daemon, Duration::from_secs(60), "the daemon");
    std::fs::remove_dir_all(&dir).ok();
}

/// The acceptance scenario: `kill -9` mid-job, restart, and the
/// recovered job's verdict is bit-identical to an uninterrupted run —
/// including a wedged (deadlocking) trial that lands in quarantine on
/// both sides.
#[test]
fn kill_nine_recovery_is_bit_identical_to_an_uninterrupted_run() {
    let spec_args =
        ["--kernel", "ME-V1-MV", "--keys", "8", "--key-bytes", "2", "--seed", "7", "--wedge", "1"];
    let raw_spec = "{\"op\":\"submit\",\"client\":\"t\",\"kernel\":\"ME-V1-MV\",\
                    \"keys\":8,\"key_bytes\":2,\"seed\":7,\"wedge\":1}";

    // Interrupted side: submit, wait until at least one trial is
    // journaled (mid-job), then kill -9.
    let dir_a = tmp_dir("recover-a");
    let (mut daemon_a, socket_a) = start_daemon(&dir_a, &[]);
    let (_stream, _reader, accepted) = raw_request(&socket_a, raw_spec);
    assert!(accepted.contains("\"event\":\"accepted\""), "{accepted}");
    let key = json::parse(accepted.trim())
        .expect("accepted parses")
        .get("key")
        .and_then(Value::as_str)
        .expect("accepted carries the content key")
        .to_owned();
    let journal = dir_a.join(format!("trials-{key}.jsonl"));
    wait_for(
        || {
            std::fs::read_to_string(&journal)
                .map(|t| t.lines().any(|l| l.contains("microsampler-trial-v1")))
                .unwrap_or(false)
        },
        Duration::from_secs(60),
        "the first trial to reach the journal",
    );
    daemon_a.kill().expect("kill -9");
    daemon_a.wait().expect("reaped");

    // Restart on the same state: the WAL re-enqueues the job and the
    // trial journal resumes it; wait for the terminal WAL event.
    let (mut daemon_a2, socket_a2) = start_daemon(&dir_a, &[]);
    let wal = dir_a.join("serve-wal.jsonl");
    wait_for(
        || std::fs::read_to_string(&wal).map(|t| t.contains("\"event\":\"done\"")).unwrap_or(false),
        Duration::from_secs(120),
        "the recovered job to finish",
    );
    // Resubmitting the unchanged spec replays the content-addressed
    // journal (no re-simulation) and hands back the recovered verdict.
    let out_a = repro()
        .arg("submit")
        .arg("--socket")
        .arg(&socket_a2)
        .args(spec_args)
        .output()
        .expect("replay submit runs");
    assert_eq!(out_a.status.code(), Some(3), "ME-V1-MV is leaky: exit 3");
    let verdict_a = extract_verdict(&out_a.stdout);
    sigterm(&daemon_a2);
    wait_exit(&mut daemon_a2, Duration::from_secs(60), "the recovered daemon");

    // Control side: the same spec, uninterrupted, on a fresh state.
    let dir_b = tmp_dir("recover-b");
    let (mut daemon_b, socket_b) = start_daemon(&dir_b, &[]);
    let out_b = repro()
        .arg("submit")
        .arg("--socket")
        .arg(&socket_b)
        .args(spec_args)
        .output()
        .expect("control submit runs");
    assert_eq!(out_b.status.code(), Some(3), "control run agrees on leakiness");
    let verdict_b = extract_verdict(&out_b.stdout);
    sigterm(&daemon_b);
    wait_exit(&mut daemon_b, Duration::from_secs(60), "the control daemon");

    assert_eq!(verdict_a, verdict_b, "recovered and uninterrupted verdicts must be bit-identical");
    assert!(verdict_a.contains("\"quarantined_trials\":[{"), "the wedged trial is quarantined");
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}
