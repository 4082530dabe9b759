//! `serve`: a `repro submit` caller against an in-process daemon.
//!
//! The daemon is a `ServeState` with its executor thread, in a fresh state
//! directory; each request is one connection served by
//! `session::handle_client` on one end of a `UnixStream::pair()` (no socket
//! file, no child process). Requests alternate:
//!
//! * fresh — submit ME-V1-MV, 64 keys × 2 bytes, at a seed not seen yet;
//! * replay — resubmit the previous spec, answered from its trial journal.
//!
//! Fresh requests write the journal layer and replays read it back without
//! simulating anything, so a fold or tick change must not move replays.
//! After the window of distinct seeds is used up, later passes re-submit
//! the same inputs under a spec whose explicit cycle budget (one more per
//! pass, never reached) gives it a new content key, so the job is fresh.

use crate::util::{catch, median, secs, SimCounts, Spans};
use crate::{Opts, Run};
use microsampler_bench::modexp_report;
use microsampler_bench::serve::queue::JobSpec;
use microsampler_bench::serve::session::handle_client;
use microsampler_bench::serve::{ServeOptions, ServeState};
use microsampler_bench::sweep::{load_journal, run_modexp_sweep, SweepOptions};
use microsampler_kernels::modexp::{cycle_budget, ModexpVariant};
use microsampler_obs::{json, Value};
use microsampler_sim::CoreConfig;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Distinct seeds per pass.
const WINDOW: usize = 10;
/// Inputs covered by the fingerprint.
const FINGERPRINT: usize = 4;
/// How long a request may take before the run gives up on it.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// A directory removed, with everything in it, when dropped.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        if let Err(e) = std::fs::remove_dir_all(&self.0) {
            eprintln!("cannot remove {}: {e}", self.0.display());
        }
    }
}

/// An in-process daemon in its own state directory; dropping it drains the
/// executor, joins it and removes the directory.
struct Daemon {
    state: Arc<ServeState>,
    executor: Option<JoinHandle<()>>,
    dir: PathBuf,
}

impl Daemon {
    fn start(dir: PathBuf) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(&dir);
        let opts = ServeOptions {
            socket: dir.join("serve.sock"),
            state_dir: dir.clone(),
            ..ServeOptions::default()
        };
        let state = ServeState::new(opts)?;
        let exec_state = state.clone();
        let executor = std::thread::Builder::new()
            .name("serve-executor".into())
            .spawn(move || exec_state.executor_loop())
            .map_err(|e| format!("cannot spawn the executor: {e}"))?;
        Ok(Daemon { state, executor: Some(executor), dir })
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.state.shutdown();
        if let Some(executor) = self.executor.take() {
            if executor.join().is_err() {
                eprintln!("serve executor panicked");
            }
        }
        if let Err(e) = std::fs::remove_dir_all(&self.dir) {
            eprintln!("cannot remove {}: {e}", self.dir.display());
        }
    }
}

struct Sizes {
    keys: usize,
    key_bytes: usize,
}

fn spec(sz: &Sizes, seed: u64, variant: u64) -> JobSpec {
    JobSpec {
        kernel: ModexpVariant::V1MicroarchVuln,
        config: "mega".to_string(),
        keys: sz.keys,
        key_bytes: sz.key_bytes,
        seed,
        max_cycles: (variant > 0).then(|| cycle_budget(sz.key_bytes) + variant),
        ..JobSpec::default()
    }
}

fn request_line(spec: &JobSpec) -> String {
    let mut fields = vec![
        ("op".to_string(), Value::from("submit")),
        ("client".to_string(), Value::from("perfbench")),
    ];
    if let Value::Object(spec_fields) = spec.to_json() {
        fields.extend(spec_fields);
    }
    format!("{}\n", Value::Object(fields).render_compact())
}

/// What the client saw for one request.
struct Reply {
    latency_s: f64,
    /// Submit → terminal job state, from a watcher on the job handle
    /// (traced requests only).
    exec_s: Option<f64>,
    bytes: usize,
    key: String,
    /// The `verdict` object of the final event, rendered compactly.
    verdict: String,
    report: String,
    leaky: bool,
    /// The streamed `microsampler-trial-v1` lines (snapshot hashes).
    trials: Vec<u8>,
}

fn submit(daemon: &Daemon, spec: &JobSpec, watch: bool) -> Result<Reply, String> {
    if daemon.executor.as_ref().is_none_or(JoinHandle::is_finished) {
        return Err("the serve executor has stopped".to_string());
    }
    let (client, server) = UnixStream::pair().map_err(|e| format!("socketpair: {e}"))?;
    client.set_read_timeout(Some(REQUEST_TIMEOUT)).map_err(|e| e.to_string())?;
    let line = request_line(spec);
    let session_state = daemon.state.clone();
    let start = Instant::now();
    let session = std::thread::spawn(move || handle_client(&session_state, server));
    let mut buf = Vec::new();
    let mut exec_s = None;
    let io = (|| -> Result<(), String> {
        (&client).write_all(line.as_bytes()).map_err(|e| format!("send: {e}"))?;
        let mut reader = BufReader::new(&client);
        if watch {
            reader.read_until(b'\n', &mut buf).map_err(|e| format!("read: {e}"))?;
            let accepted =
                json::parse(String::from_utf8_lossy(&buf).trim()).map_err(|e| e.to_string())?;
            let job = accepted
                .get("job")
                .and_then(Value::as_str)
                .and_then(|id| daemon.state.job(id))
                .ok_or_else(|| format!("no accepted job in {}", String::from_utf8_lossy(&buf)))?;
            let watcher = std::thread::spawn(move || {
                job.wait_terminal(REQUEST_TIMEOUT).map(|_| start.elapsed().as_secs_f64())
            });
            reader.read_to_end(&mut buf).map_err(|e| format!("read: {e}"))?;
            exec_s = watcher.join().map_err(|_| "job watcher panicked".to_string())?;
        } else {
            reader.read_to_end(&mut buf).map_err(|e| format!("read: {e}"))?;
        }
        Ok(())
    })();
    let latency_s = secs(start);
    drop(client);
    session.join().map_err(|_| "session thread panicked".to_string())?;
    io?;

    let text = String::from_utf8(buf).map_err(|e| format!("reply is not UTF-8: {e}"))?;
    let mut trials = Vec::new();
    for l in text.lines().filter(|l| l.contains("\"microsampler-trial-v1\"")) {
        trials.extend_from_slice(l.as_bytes());
    }
    let last = text.lines().rev().find(|l| !l.trim().is_empty()).ok_or("empty reply")?;
    let event = json::parse(last).map_err(|e| format!("final line: {e}"))?;
    let status = event.get("status").and_then(Value::as_str).unwrap_or("<none>");
    if event.get("event").and_then(Value::as_str) != Some("verdict") || status != "done" {
        return Err(format!("job ended {status}: {last}"));
    }
    let verdict = event.get("verdict").ok_or("verdict event without a verdict")?;
    Ok(Reply {
        latency_s,
        exec_s,
        bytes: text.len(),
        key: event.get("key").and_then(Value::as_str).unwrap_or_default().to_string(),
        verdict: verdict.render_compact(),
        report: verdict.get("report").map(Value::render_compact).unwrap_or_default(),
        leaky: verdict.get("leaky").and_then(Value::as_bool).ok_or("verdict without `leaky`")?,
        trials,
    })
}

#[derive(Default)]
struct TraceAcc {
    untraced_s: f64,
    traced_s: f64,
    fresh_exec_ms: Vec<f64>,
    fresh_protocol_ms: Vec<f64>,
    replay_exec_ms: Vec<f64>,
    replay_protocol_ms: Vec<f64>,
    stream_bytes: Vec<f64>,
    decode_bytes: u64,
    decode_s: f64,
    encode_s: f64,
    encode_trials: u64,
    journal_bytes: u64,
    first_counts: Option<SimCounts>,
}

pub fn run(opts: &Opts) -> Result<Run, String> {
    // 64 keys rather than 8: a job must take several of the session's
    // 25 ms journal polls, or client latency moves in whole-poll steps.
    let sz =
        if opts.tiny { Sizes { keys: 2, key_bytes: 1 } } else { Sizes { keys: 64, key_bytes: 2 } };
    let window = if opts.tiny { 2 } else { WINDOW };
    let mut run = Run::new(1, if opts.tiny { 1 } else { FINGERPRINT });

    // Set-up: a fresh state directory, `ServeState::new` (WAL replay and
    // compaction), the executor thread, and one minimal job (1 key × 1
    // byte) through the protocol that finishes any lazy initialisation.
    let base = TempDir(crate::out_dir().join(format!("serve-{}", std::process::id())));
    std::fs::create_dir_all(&base.0)
        .map_err(|e| format!("cannot create {}: {e}", base.0.display()))?;
    let mut daemon = None;
    for k in 0..crate::SETUP_REPEATS {
        drop(daemon.take());
        let t = Instant::now();
        let d = Daemon::start(base.0.join(format!("state-{k}")))?;
        submit(&d, &spec(&Sizes { keys: 1, key_bytes: 1 }, opts.seed, 0), false)?;
        run.setup_s.push(secs(t));
        daemon = Some(d);
    }
    let daemon = daemon.expect("set-up ran at least once");

    let spans = Spans::new(opts.trace);
    let mut first: Vec<Option<(String, bool)>> = vec![None; window];
    let mut acc = TraceAcc::default();
    let config = CoreConfig::mega_boom();
    let start = Instant::now();
    let mut n = 0usize;
    while secs(start) < opts.seconds || n < if opts.tiny { window } else { 1 } {
        run.host.tick();
        let input = n % window;
        let pass = (n / window) as u64;
        n += 1;
        let seed = opts.seed.wrapping_add(input as u64);
        let job = spec(&sz, seed, pass);
        let before = SimCounts::read();
        let fresh = catch(|| submit(&daemon, &job, false));
        let counts = SimCounts::read().since(before);
        let fresh = match fresh {
            Ok(r) => r,
            Err(e) => {
                run.tally.judge(input as u64, Err(format!("fresh: {e}")));
                continue;
            }
        };
        run.record(fresh.latency_s, counts.cycles, true, false);
        let judged = match &first[input] {
            None => {
                // The daemon's verdict must match the in-process analysis.
                let expect =
                    catch(|| Ok(modexp_report(job.kernel, &config, sz.keys, sz.key_bytes, seed)));
                if run.fingerprint.covers(input) {
                    let mut bytes = fresh.verdict.clone().into_bytes();
                    bytes.extend_from_slice(&fresh.trials);
                    run.fingerprint.absorb(&bytes, [], counts);
                }
                first[input] = Some((fresh.report.clone(), fresh.leaky));
                match expect {
                    Ok(r)
                        if r.to_json().render_compact() == fresh.report
                            && r.is_leaky() == fresh.leaky =>
                    {
                        Ok(())
                    }
                    Ok(_) => {
                        Err("daemon verdict differs from in-process modexp_report".to_string())
                    }
                    Err(e) => Err(format!("in-process modexp_report: {e}")),
                }
            }
            Some((report, leaky)) if *report == fresh.report && *leaky == fresh.leaky => Ok(()),
            Some(_) => Err(format!("pass {pass} fresh verdict differs from the first pass")),
        };
        run.tally.judge(input as u64, judged);

        let replay = catch(|| submit(&daemon, &job, false));
        let replay = match replay {
            Ok(r) => r,
            Err(e) => {
                run.tally.judge(input as u64, Err(format!("replay: {e}")));
                continue;
            }
        };
        run.record(replay.latency_s, 0, false, true);
        let same = replay.verdict == fresh.verdict;
        run.tally.judge(
            input as u64,
            if same { Ok(()) } else { Err("replay verdict differs from its fresh job".into()) },
        );

        if opts.trace {
            if acc.first_counts.is_none() {
                acc.first_counts = Some(counts);
            }
            let traced =
                catch(|| traced_pair(&spans, n as u64, &daemon, &sz, &job, pass, &fresh, &mut acc));
            match traced {
                Ok(()) => acc.untraced_s += fresh.latency_s + replay.latency_s,
                Err(e) => run.checks.push(("traced serve pair", Err(e))),
            }
        }
    }
    drop(daemon);
    drop(base);
    if opts.trace {
        finish(&mut run, acc);
        run.spans = spans.records();
    }
    Ok(run)
}

/// The traced twin of one fresh/replay pair: the same inputs under a spec
/// with its own content key, with the job handle watched to split
/// execution from protocol time; then the journal decode and encode
/// probes.
#[allow(clippy::too_many_arguments)]
fn traced_pair(
    spans: &Spans,
    req: u64,
    daemon: &Daemon,
    sz: &Sizes,
    job: &JobSpec,
    pass: u64,
    untraced: &Reply,
    acc: &mut TraceAcc,
) -> Result<(), String> {
    let seed = job.seed;
    let twin = spec(sz, seed, 1_000_000 + pass);
    let fresh = spans.time("serve.fresh", None, req, |_| submit(daemon, &twin, true))?;
    let replay = spans.time("serve.replay", None, req, |_| submit(daemon, &twin, true))?;
    if fresh.report != untraced.report || replay.verdict != fresh.verdict {
        return Err(format!("seed {seed}: traced verdicts differ from the untraced pair"));
    }
    for (r, exec, protocol) in [
        (&fresh, &mut acc.fresh_exec_ms, &mut acc.fresh_protocol_ms),
        (&replay, &mut acc.replay_exec_ms, &mut acc.replay_protocol_ms),
    ] {
        let e = r.exec_s.ok_or("job watcher timed out")?;
        exec.push(e * 1e3);
        protocol.push((r.latency_s - e) * 1e3);
        acc.stream_bytes.push(r.bytes as f64);
        acc.traced_s += r.latency_s;
    }

    let journal = daemon.state.journal_path(&fresh.key);
    let bytes = std::fs::metadata(&journal).map_err(|e| e.to_string())?.len();
    let t = Instant::now();
    let loaded = spans.time("journal.decode", None, req, |_| load_journal(&journal))?;
    acc.decode_s += secs(t);
    acc.decode_bytes += bytes;
    if loaded.completed.len() != sz.keys {
        return Err(format!("journal restored {} of {} trials", loaded.completed.len(), sz.keys));
    }

    if pass == 0 {
        // Journal encode: the same sweep with and without a journal.
        let config = job.core_config()?;
        let probe = daemon.dir.join("encode-probe.jsonl");
        let plain = SweepOptions { isolate: true, ..SweepOptions::default() };
        let journaled = SweepOptions { journal: Some(probe.clone()), ..plain.clone() };
        let sweep = |name, o: &SweepOptions| {
            let t = Instant::now();
            let out = spans.time(name, None, req, |_| {
                run_modexp_sweep(job.kernel, &config, sz.keys, sz.key_bytes, seed, o)
            });
            (out, secs(t))
        };
        let (a, with_s) = sweep("sweep.journaled", &journaled);
        let (b, without_s) = sweep("sweep.unjournaled", &plain);
        microsampler_bench::sweep::reset_events();
        acc.journal_bytes += std::fs::metadata(&probe).map_err(|e| e.to_string())?.len();
        std::fs::remove_file(&probe).map_err(|e| e.to_string())?;
        if a.iterations != b.iterations {
            return Err("journaled sweep differs from the unjournaled one".into());
        }
        acc.encode_s += with_s - without_s;
        acc.encode_trials += sz.keys as u64;
    }
    Ok(())
}

fn finish(run: &mut Run, acc: TraceAcc) {
    let c = acc.first_counts.unwrap_or_default();
    run.set("sim.cycles", c.cycles as f64);
    run.set("sim.committed", c.committed as f64);
    run.set("trace.rows", c.rows as f64);
    run.set("serve.exec_ms", median(&acc.fresh_exec_ms));
    run.set("serve.protocol_ms", median(&acc.fresh_protocol_ms));
    run.set("serve.replay_exec_ms", median(&acc.replay_exec_ms));
    run.set("serve.replay_protocol_ms", median(&acc.replay_protocol_ms));
    run.set(
        "serve.stream_bytes",
        acc.stream_bytes.iter().sum::<f64>() / acc.stream_bytes.len() as f64,
    );
    run.set("journal.decode_mb_per_s", acc.decode_bytes as f64 / 1e6 / acc.decode_s);
    run.set("journal.encode_us_per_trial", acc.encode_s * 1e6 / acc.encode_trials as f64);
    run.set("journal.bytes_per_trial", acc.journal_bytes as f64 / acc.encode_trials as f64);
    run.set("bench.trace_overhead_frac", acc.traced_s / acc.untraced_s - 1.0);
    let replays = acc.replay_exec_ms.len().max(1) as f64;
    let decode_ms = acc.decode_s * 1e3 / replays;
    let replay_ms = median(&acc.replay_exec_ms) + median(&acc.replay_protocol_ms);
    run.notes.push(format!(
        "replay split ({} traced): decode {:.1} ms ({:.0}%), exec {:.1} ms, protocol {:.1} ms, {:.0} bytes streamed; fresh: exec {:.1} ms, protocol {:.1} ms",
        acc.replay_exec_ms.len(),
        decode_ms,
        100.0 * decode_ms / replay_ms,
        median(&acc.replay_exec_ms),
        median(&acc.replay_protocol_ms),
        acc.stream_bytes.iter().sum::<f64>() / acc.stream_bytes.len().max(1) as f64,
        median(&acc.fresh_exec_ms),
        median(&acc.fresh_protocol_ms),
    ));
    if !run.checks.iter().any(|(_, r)| r.is_err()) {
        run.checks.push((
            "traced serve pair",
            Ok(format!("{} pairs byte-identical", acc.fresh_exec_ms.len())),
        ));
    }
}
