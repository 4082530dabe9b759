//! `repro serve`: a crash-safe leakage-audit daemon.
//!
//! The daemon listens on a unix-domain socket speaking line-delimited
//! JSON (see [`session`] for the protocol), accepts audit jobs, runs
//! them one at a time on the worker pool via the crash-resilient sweep
//! harness, and streams `microsampler-trial-v1` records plus a final
//! verdict back to the submitting client.
//!
//! Robustness properties:
//!
//! * **Crash safety** — every accepted job is logged to an append-only
//!   write-ahead job log ([`queue::WalWriter`]) before it is enqueued;
//!   on restart, [`recovery::replay_wal`] re-enqueues unfinished jobs,
//!   and their trial sweeps resume from the content-addressed trial
//!   journal, so a `kill -9` mid-job re-runs only the missing trials
//!   and the final verdict is bit-identical to an uninterrupted run.
//! * **Bounded retry** — a job whose attempt exceeds the configured
//!   wall-clock budget is retried with deterministic capped exponential
//!   backoff, and quarantined once its attempts are exhausted.
//! * **Cooperative cancellation** — a client disconnect or explicit
//!   `cancel` op latches the job's [`microsampler_par::CancelToken`];
//!   the sweep drains (running trials finish, unstarted ones skip) and
//!   the job lands in the `cancelled` state.
//! * **Graceful shutdown** — SIGTERM/SIGINT stop the accept loop,
//!   drain every queued and in-flight job, flush and compact the WAL,
//!   and exit 0.
//! * **Backpressure** — a bounded job queue plus a per-client in-flight
//!   quota reject overload with a structured `busy` response instead of
//!   accepting unbounded work.

pub mod queue;
pub mod recovery;
pub mod session;

use crate::sweep::{self, SweepOptions};
use microsampler_core::{analyze, SeqConfig, SeqVerdict};
use microsampler_obs::{diag, diag_info, diag_warn, metrics, Value};
use microsampler_par::IsolationPolicy;
use queue::{JobHandle, JobSpec, JobState, WalWriter};
use std::collections::{BTreeMap, VecDeque};
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Daemon configuration (the `repro serve` flags).
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Unix-domain socket path to listen on.
    pub socket: PathBuf,
    /// State directory: serve WAL, trial journals, metrics snapshot.
    pub state_dir: PathBuf,
    /// Maximum outstanding (queued + running) jobs before submissions
    /// are rejected with `busy: queue-full`.
    pub queue_cap: usize,
    /// Maximum outstanding jobs per client tag before submissions are
    /// rejected with `busy: client-quota`.
    pub per_client: usize,
    /// Wall-clock budget per job attempt (`None` = unlimited).
    pub job_timeout: Option<Duration>,
    /// Retries after a timed-out attempt (total attempts = retries + 1).
    pub job_retries: u32,
    /// Base delay of the deterministic exponential backoff between job
    /// attempts (doubles per attempt, capped at [`ServeOptions::backoff_cap`]).
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            socket: PathBuf::from("serve-state/serve.sock"),
            state_dir: PathBuf::from("serve-state"),
            queue_cap: 16,
            per_client: 4,
            job_timeout: None,
            job_retries: 2,
            backoff_base: Duration::from_millis(250),
            backoff_cap: Duration::from_secs(4),
        }
    }
}

/// Why a submission was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded job queue is at capacity.
    QueueFull,
    /// The submitting client already has its quota of outstanding jobs.
    ClientQuota,
    /// The daemon is draining for shutdown.
    ShuttingDown,
}

impl SubmitError {
    /// Stable reason string for the `busy` response.
    pub fn reason(self) -> &'static str {
        match self {
            SubmitError::QueueFull => "queue-full",
            SubmitError::ClientQuota => "client-quota",
            SubmitError::ShuttingDown => "shutting-down",
        }
    }
}

/// Shared daemon state: job queue, registry, quotas, and the WAL.
pub struct ServeState {
    /// Daemon configuration.
    pub opts: ServeOptions,
    queue: Mutex<VecDeque<Arc<JobHandle>>>,
    queue_changed: Condvar,
    /// Live jobs by id, plus terminal ones until the next WAL compaction
    /// drops them (a session waiting on a job holds its own handle).
    jobs: Mutex<BTreeMap<String, Arc<JobHandle>>>,
    /// Jobs ever enqueued (the `status` reply's `jobs_seen`).
    jobs_seen: AtomicUsize,
    inflight: Mutex<BTreeMap<String, usize>>,
    outstanding: AtomicUsize,
    wal: Mutex<WalWriter>,
    next_seq: AtomicU64,
    shutting_down: AtomicBool,
}

impl ServeState {
    /// Creates the state directory, replays the WAL, compacts it, and
    /// re-enqueues every unfinished job.
    ///
    /// # Errors
    ///
    /// Returns a message if the state directory or WAL is unusable, or
    /// if the WAL is corrupt (beyond a torn trailing line).
    pub fn new(opts: ServeOptions) -> Result<Arc<ServeState>, String> {
        std::fs::create_dir_all(&opts.state_dir).map_err(|e| {
            format!("cannot create state directory {}: {e}", opts.state_dir.display())
        })?;
        let wal_path = opts.state_dir.join("serve-wal.jsonl");
        let replay = recovery::replay_wal(&wal_path)?;
        let mut wal = WalWriter::open(&wal_path)?;
        let state = ServeState {
            next_seq: AtomicU64::new(replay.next_seq),
            opts,
            queue: Mutex::new(VecDeque::new()),
            queue_changed: Condvar::new(),
            jobs: Mutex::new(BTreeMap::new()),
            jobs_seen: AtomicUsize::new(0),
            inflight: Mutex::new(BTreeMap::new()),
            outstanding: AtomicUsize::new(0),
            wal: Mutex::new(WalWriter::open(&wal_path)?),
            shutting_down: AtomicBool::new(false),
        };
        // Compact away finished-job history up front: the recovered
        // pending set is exactly what the WAL needs to carry.
        let mut keep = Vec::new();
        for pending in &replay.pending {
            let handle =
                Arc::new(JobHandle::new(pending.seq, &pending.client, pending.spec.clone(), true));
            keep.push(queue::submitted_event(&handle));
            diag_info!("serve: recovered unfinished job {} from the WAL", handle.id);
            state.enqueue(&handle);
        }
        if let Err(e) = wal.compact(&keep) {
            diag_warn!("serve WAL compaction failed (continuing uncompacted): {e}");
        }
        *state.wal.lock().unwrap_or_else(|p| p.into_inner()) = wal;
        Ok(Arc::new(state))
    }

    fn enqueue(&self, job: &Arc<JobHandle>) {
        self.outstanding.fetch_add(1, Ordering::SeqCst);
        *self
            .inflight
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .entry(job.client.clone())
            .or_insert(0) += 1;
        self.jobs.lock().unwrap_or_else(|p| p.into_inner()).insert(job.id.clone(), job.clone());
        self.jobs_seen.fetch_add(1, Ordering::SeqCst);
        self.queue.lock().unwrap_or_else(|p| p.into_inner()).push_back(job.clone());
        self.queue_changed.notify_all();
    }

    /// Accepts a job: WAL-logs it, then enqueues it for the executor.
    ///
    /// # Errors
    ///
    /// Rejects with a [`SubmitError`] under shutdown, a full queue, or
    /// an exhausted per-client quota — the backpressure contract.
    pub fn submit(&self, client: &str, spec: JobSpec) -> Result<Arc<JobHandle>, SubmitError> {
        if self.shutting_down.load(Ordering::SeqCst) {
            return Err(SubmitError::ShuttingDown);
        }
        if self.outstanding.load(Ordering::SeqCst) >= self.opts.queue_cap {
            return Err(SubmitError::QueueFull);
        }
        let client_jobs =
            *self.inflight.lock().unwrap_or_else(|p| p.into_inner()).get(client).unwrap_or(&0);
        if client_jobs >= self.opts.per_client {
            return Err(SubmitError::ClientQuota);
        }
        let seq = self.next_seq.fetch_add(1, Ordering::SeqCst);
        let job = Arc::new(JobHandle::new(seq, client, spec, false));
        // WAL before queue: the accept must be durable before anything
        // can observe (or crash out of) the job.
        self.wal.lock().unwrap_or_else(|p| p.into_inner()).append(&queue::submitted_event(&job));
        self.enqueue(&job);
        metrics::record("serve.jobs.submitted", 1.0);
        Ok(job)
    }

    /// Latches the cancel token of a live job; returns whether the id
    /// named one.
    pub fn cancel(&self, job_id: &str) -> bool {
        let job = self.jobs.lock().unwrap_or_else(|p| p.into_inner()).get(job_id).cloned();
        match job {
            Some(job) if !job.is_terminal() => {
                job.request_cancel();
                true
            }
            _ => false,
        }
    }

    /// Looks up a job by id.
    pub fn job(&self, job_id: &str) -> Option<Arc<JobHandle>> {
        self.jobs.lock().unwrap_or_else(|p| p.into_inner()).get(job_id).cloned()
    }

    /// The trial journal for a content key, inside the state directory.
    pub fn journal_path(&self, key: &str) -> PathBuf {
        self.opts.state_dir.join(format!("trials-{key}.jsonl"))
    }

    /// Whether the daemon is draining for shutdown.
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    /// Queued + running jobs.
    pub fn outstanding(&self) -> usize {
        self.outstanding.load(Ordering::SeqCst)
    }

    /// Structured status snapshot for the `status` op and heartbeats.
    pub fn status_json(&self) -> Value {
        let queued = self.queue.lock().unwrap_or_else(|p| p.into_inner()).len();
        let outstanding = self.outstanding();
        Value::object()
            .field("queued", queued)
            .field("running", outstanding.saturating_sub(queued))
            .field("outstanding", outstanding)
            .field("jobs_seen", self.jobs_seen.load(Ordering::SeqCst))
            .field("shutting_down", self.is_shutting_down())
            .build()
    }

    /// Begins the drain: no new submissions, and the executor exits
    /// once the queue is empty.
    pub fn shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        self.queue_changed.notify_all();
    }

    /// Executor loop: pops jobs in submission order and runs each to a
    /// terminal state. Exits when shutdown is requested *and* the queue
    /// is drained.
    pub fn executor_loop(&self) {
        loop {
            let job = {
                let mut queue = self.queue.lock().unwrap_or_else(|p| p.into_inner());
                loop {
                    if let Some(job) = queue.pop_front() {
                        break job;
                    }
                    if self.shutting_down.load(Ordering::SeqCst) {
                        return;
                    }
                    queue = self
                        .queue_changed
                        .wait_timeout(queue, Duration::from_millis(200))
                        .unwrap_or_else(|p| p.into_inner())
                        .0;
                }
            };
            self.run_job(&job);
        }
    }

    /// Runs one job through the attempt loop to a terminal state.
    ///
    /// Each attempt resumes the content-addressed trial journal, so
    /// retries (and post-crash re-runs) redo only unfinished trials. A
    /// timed-out attempt retries after a deterministic capped
    /// exponential backoff; exhausting the attempts quarantines the job.
    pub fn run_job(&self, job: &Arc<JobHandle>) {
        let started = Instant::now();
        let attempts_max = self.opts.job_retries + 1;
        // Job-level backoff reuses the per-trial policy's deterministic
        // schedule: base * 2^(attempt-1), clamped to the cap.
        let backoff = IsolationPolicy {
            backoff_base: self.opts.backoff_base,
            backoff_cap: self.opts.backoff_cap,
            ..IsolationPolicy::default()
        };
        let config = match job.spec.core_config() {
            Ok(config) => config,
            Err(e) => {
                // Unreachable through submit/recovery (both validate),
                // but the state machine still needs a terminal answer.
                self.finish(
                    job,
                    JobState::Quarantined { class: "config".to_string(), message: e, attempts: 0 },
                );
                return;
            }
        };
        for attempt in 1..=attempts_max {
            if job.cancel.is_cancelled() {
                self.finish(job, JobState::Cancelled);
                return;
            }
            self.wal
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .append(&queue::started_event(&job.id, attempt));
            job.set_state(JobState::Running { attempt });
            diag_info!("serve: {} attempt {attempt}/{attempts_max} ({})", job.id, job.key);
            let journal = self.journal_path(&job.key);
            if !journal.exists() {
                // Resume against a fresh key starts from an empty
                // journal instead of a missing-file warning.
                if let Err(e) = std::fs::write(&journal, "") {
                    diag_warn!("cannot create trial journal {}: {e}", journal.display());
                }
            }
            let opts = SweepOptions {
                isolate: true,
                journal: Some(journal),
                resume: true,
                max_cycles: job.spec.max_cycles,
                wedge_trial: job.spec.wedge_trial,
                cancel: Some(job.cancel.clone()),
                deadline: self.opts.job_timeout.map(|t| Instant::now() + t),
                sequential: job.spec.sequential.then(SeqConfig::default),
                ..SweepOptions::default()
            };
            let out = sweep::run_modexp_sweep(
                job.spec.kernel,
                &config,
                job.spec.keys,
                job.spec.key_bytes,
                job.spec.seed,
                &opts,
            );
            if job.cancel.is_cancelled() {
                self.finish(job, JobState::Cancelled);
                return;
            }
            if out.cancelled > 0 {
                // Only the deadline skips trials here (cancellation was
                // handled above): the attempt ran out of budget.
                let reason = format!(
                    "attempt {attempt} exceeded its {:?} budget with {} trials unfinished",
                    self.opts.job_timeout.unwrap_or_default(),
                    out.cancelled
                );
                if attempt < attempts_max {
                    let delay = backoff.backoff_delay(attempt);
                    self.wal
                        .lock()
                        .unwrap_or_else(|p| p.into_inner())
                        .append(&queue::retrying_event(&job.id, attempt, &reason, delay));
                    job.set_state(JobState::Retrying { attempt });
                    metrics::record("serve.jobs.retries", 1.0);
                    diag_warn!("serve: {} {reason}; retrying in {delay:?}", job.id);
                    std::thread::sleep(delay);
                    continue;
                }
                self.finish(
                    job,
                    JobState::Quarantined {
                        class: "timed-out".to_string(),
                        message: reason,
                        attempts: attempts_max,
                    },
                );
                return;
            }
            // The sweep finished (completed + restored + quarantined
            // trials cover every key, or the confidence sequence closed
            // and skipped the rest): analyze and publish the verdict.
            let report = analyze(&out.iterations);
            let leaky = match out.stop.as_ref().map(|t| t.verdict) {
                Some(SeqVerdict::Leaky) => true,
                Some(SeqVerdict::Clean) => false,
                _ => report.is_leaky(),
            };
            let verdict = verdict_json(job, &report, &out);
            metrics::record("serve.job.duration_sec", started.elapsed().as_secs_f64());
            self.finish(job, JobState::Done { leaky, verdict });
            return;
        }
    }

    /// Publishes a terminal state: WAL first (durability), then the
    /// handle (visibility), then the quota bookkeeping.
    fn finish(&self, job: &Arc<JobHandle>, state: JobState) {
        if let Some(event) = queue::terminal_event(&job.id, &state) {
            self.wal.lock().unwrap_or_else(|p| p.into_inner()).append(&event);
        }
        metrics::record(&format!("serve.jobs.{}", state.name()), 1.0);
        diag_info!("serve: {} -> {}", job.id, state.name());
        job.set_state(state);
        self.outstanding.fetch_sub(1, Ordering::SeqCst);
        if let Some(n) =
            self.inflight.lock().unwrap_or_else(|p| p.into_inner()).get_mut(&job.client)
        {
            *n = n.saturating_sub(1);
        }
        self.maybe_compact();
    }

    /// Compacts the WAL once enough finished-job history accumulates, and
    /// drops the finished jobs it compacted away from the registry, so the
    /// daemon's memory does not grow with every request served.
    fn maybe_compact(&self) {
        let mut wal = self.wal.lock().unwrap_or_else(|p| p.into_inner());
        if wal.terminal_since_compact() < 64 {
            return;
        }
        let keep = self.live_submitted_events();
        match wal.compact(&keep) {
            Ok(()) => {
                self.jobs.lock().unwrap_or_else(|p| p.into_inner()).retain(|_, j| !j.is_terminal());
            }
            Err(e) => diag_warn!("serve WAL compaction failed (continuing uncompacted): {e}"),
        }
    }

    /// `submitted` events for every non-terminal job (the compacted WAL
    /// contents).
    fn live_submitted_events(&self) -> Vec<Value> {
        let jobs = self.jobs.lock().unwrap_or_else(|p| p.into_inner());
        let mut live: Vec<&Arc<JobHandle>> = jobs.values().filter(|j| !j.is_terminal()).collect();
        live.sort_by_key(|j| j.seq);
        live.iter().map(|j| queue::submitted_event(j)).collect()
    }

    /// Final WAL compaction (shutdown path).
    pub fn compact_wal(&self) {
        let keep = self.live_submitted_events();
        if let Err(e) = self.wal.lock().unwrap_or_else(|p| p.into_inner()).compact(&keep) {
            diag_warn!("serve WAL compaction failed: {e}");
        }
    }
}

/// The deterministic verdict object streamed to clients.
///
/// Everything here is a pure function of the job spec and the pooled
/// iterations — per-run accounting (how many trials were restored vs
/// re-run) deliberately stays out, so an interrupted-and-recovered job
/// renders the exact bytes an uninterrupted one does. Sequential jobs
/// additionally carry the `microsampler-stop-v1` stopping trace, which
/// is equally deterministic: a resumed sweep replays the journal through
/// the same look schedule and latches the same stopping point.
fn verdict_json(
    job: &JobHandle,
    report: &microsampler_core::AnalysisReport,
    out: &sweep::SweepOutcome,
) -> Value {
    let quarantined: Vec<Value> = out
        .quarantined
        .iter()
        .map(|q| {
            Value::object()
                .field("id", q.id.as_str())
                .field("class", q.class.name())
                .field("message", q.message.as_str())
                .field("attempts", q.attempts)
                .build()
        })
        .collect();
    let leaky = match out.stop.as_ref().map(|t| t.verdict) {
        Some(SeqVerdict::Leaky) => true,
        Some(SeqVerdict::Clean) => false,
        _ => report.is_leaky(),
    };
    let b = Value::object()
        .field("key", job.key.as_str())
        .field("kernel", job.spec.kernel.name())
        .field("leaky", leaky);
    let b = match &out.stop {
        Some(trace) => b.field("stop", trace.to_json(job.key.as_str())),
        None => b,
    };
    b.field("quarantined_trials", Value::Array(quarantined))
        .field("report", report.to_json())
        .build()
}

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_shutdown_signal(_signum: i32) {
    // Only an atomic store: everything else is async-signal-unsafe.
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Installs SIGTERM/SIGINT handlers that latch the shutdown flag. Uses
/// the platform's `signal(2)` directly — the workspace links no libc
/// crate, and the handler does nothing a signal context forbids.
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_shutdown_signal as *const () as usize);
        signal(SIGINT, on_shutdown_signal as *const () as usize);
    }
}

/// Runs the daemon until SIGTERM/SIGINT, then drains and exits cleanly.
///
/// # Errors
///
/// Returns a message if the state directory, WAL, or socket cannot be
/// set up. Runtime errors (a misbehaving client, a failed WAL append)
/// are diagnosed and survived, not returned.
pub fn serve(opts: ServeOptions) -> Result<(), String> {
    let state = ServeState::new(opts)?;
    metrics::set_enabled(true);
    install_signal_handlers();
    if state.opts.socket.exists() {
        std::fs::remove_file(&state.opts.socket).map_err(|e| {
            format!("cannot remove stale socket {}: {e}", state.opts.socket.display())
        })?;
    }
    if let Some(dir) = state.opts.socket.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create socket directory {}: {e}", dir.display()))?;
        }
    }
    let listener = UnixListener::bind(&state.opts.socket)
        .map_err(|e| format!("cannot bind {}: {e}", state.opts.socket.display()))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("cannot make the listener nonblocking: {e}"))?;
    diag_info!("serve: listening on {}", state.opts.socket.display());

    let executor = {
        let state = state.clone();
        std::thread::spawn(move || state.executor_loop())
    };
    let mut sessions: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let mut last_beat = Instant::now();
    let started = Instant::now();
    while !SHUTDOWN.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _addr)) => {
                let state = state.clone();
                sessions.push(std::thread::spawn(move || session::handle_client(&state, stream)));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => {
                diag_warn!("serve: accept failed: {e}");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
        sessions.retain(|s| !s.is_finished());
        if last_beat.elapsed() >= Duration::from_secs(2) {
            last_beat = Instant::now();
            let status = state.status_json();
            diag::heartbeat(
                "serve",
                &format!(
                    "{} queued, {} running, uptime {}s",
                    status.get("queued").and_then(Value::as_u64).unwrap_or(0),
                    status.get("running").and_then(Value::as_u64).unwrap_or(0),
                    started.elapsed().as_secs()
                ),
            );
        }
    }

    diag_info!("serve: shutdown requested; draining {} outstanding jobs", state.outstanding());
    state.shutdown();
    if executor.join().is_err() {
        diag_warn!("serve: executor thread panicked during drain");
    }
    for session in sessions {
        // Sessions observe terminal job states (every job just drained)
        // or their client hanging up; both end the thread.
        session.join().ok();
    }
    state.compact_wal();
    let snapshot = metrics::snapshot();
    let metrics_path = state.opts.state_dir.join("serve-metrics.json");
    if let Err(e) =
        std::fs::write(&metrics_path, metrics::snapshot_to_json(&snapshot).render_pretty())
    {
        diag_warn!("cannot write {}: {e}", metrics_path.display());
    }
    std::fs::remove_file(&state.opts.socket).ok();
    diag_info!("serve: drained and exiting");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_opts(tag: &str) -> ServeOptions {
        let dir = std::env::temp_dir()
            .join(format!("microsampler-serve-state-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        ServeOptions {
            socket: dir.join("serve.sock"),
            state_dir: dir,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(4),
            ..ServeOptions::default()
        }
    }

    fn quick_spec() -> JobSpec {
        JobSpec { keys: 2, key_bytes: 1, ..JobSpec::default() }
    }

    #[test]
    fn submit_enforces_queue_and_client_quotas() {
        let opts = ServeOptions { queue_cap: 2, per_client: 1, ..test_opts("quota") };
        let state_dir = opts.state_dir.clone();
        let state = ServeState::new(opts).unwrap();
        let first = state.submit("ci", quick_spec()).unwrap();
        assert_eq!(first.id, "job-0");
        assert_eq!(
            state.submit("ci", quick_spec()).unwrap_err(),
            SubmitError::ClientQuota,
            "one outstanding job per client"
        );
        state.submit("dev", quick_spec()).unwrap();
        assert_eq!(
            state.submit("other", quick_spec()).unwrap_err(),
            SubmitError::QueueFull,
            "two outstanding jobs fill the queue"
        );
        state.shutdown();
        assert_eq!(state.submit("ci", quick_spec()).unwrap_err(), SubmitError::ShuttingDown);
        std::fs::remove_dir_all(&state_dir).ok();
    }

    #[test]
    fn zero_budget_job_is_quarantined_after_backed_off_retries() {
        let opts = ServeOptions {
            job_timeout: Some(Duration::ZERO),
            job_retries: 2,
            ..test_opts("timeout")
        };
        let state_dir = opts.state_dir.clone();
        let state = ServeState::new(opts).unwrap();
        let job = state.submit("ci", quick_spec()).unwrap();
        state.run_job(&job);
        match job.state() {
            JobState::Quarantined { class, attempts, .. } => {
                assert_eq!(class, "timed-out");
                assert_eq!(attempts, 3, "retries + 1 attempts before quarantine");
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        let wal = std::fs::read_to_string(state_dir.join("serve-wal.jsonl")).unwrap();
        assert_eq!(wal.matches("\"event\":\"started\"").count(), 3);
        assert_eq!(wal.matches("\"event\":\"retrying\"").count(), 2);
        assert_eq!(wal.matches("\"event\":\"quarantined\"").count(), 1);
        assert_eq!(state.outstanding(), 0, "terminal jobs release their queue slot");
        std::fs::remove_dir_all(&state_dir).ok();
    }

    #[test]
    fn cancelled_job_terminates_without_running() {
        let opts = test_opts("cancel");
        let state_dir = opts.state_dir.clone();
        let state = ServeState::new(opts).unwrap();
        let job = state.submit("ci", quick_spec()).unwrap();
        assert!(state.cancel(&job.id));
        assert!(!state.cancel("job-999"), "unknown ids are not cancellable");
        state.run_job(&job);
        assert!(matches!(job.state(), JobState::Cancelled));
        let wal = std::fs::read_to_string(state_dir.join("serve-wal.jsonl")).unwrap();
        assert!(wal.contains("\"event\":\"cancelled\""));
        assert!(!state.cancel(&job.id), "terminal jobs are not cancellable");
        std::fs::remove_dir_all(&state_dir).ok();
    }

    #[test]
    fn completed_job_produces_deterministic_verdict_and_replayable_journal() {
        let opts = test_opts("verdict");
        let state_dir = opts.state_dir.clone();
        let state = ServeState::new(opts).unwrap();
        let job = state.submit("ci", quick_spec()).unwrap();
        state.run_job(&job);
        let JobState::Done { verdict: first, .. } = job.state() else {
            panic!("expected done, got {:?}", job.state());
        };
        assert!(state.journal_path(&job.key).exists(), "trials are journaled by content key");
        // A resubmission of the same spec replays the journal: zero
        // fresh trials, byte-identical verdict.
        let again = state.submit("ci", quick_spec()).unwrap();
        assert_eq!(again.key, job.key, "same spec, same content address");
        state.run_job(&again);
        let JobState::Done { verdict: second, .. } = again.state() else {
            panic!("expected done, got {:?}", again.state());
        };
        assert_eq!(
            first.render_compact(),
            second.render_compact(),
            "replayed verdict is bit-identical"
        );
        std::fs::remove_dir_all(&state_dir).ok();
    }

    #[test]
    fn compaction_drops_finished_jobs_from_the_registry() {
        let opts = test_opts("compact");
        let state_dir = opts.state_dir.clone();
        let state = ServeState::new(opts).unwrap();
        // 64 terminal events trigger a compaction; the 65th job finishes
        // after it.
        let handles: Vec<_> = (0..65)
            .map(|_| {
                let job = state.submit("ci", quick_spec()).unwrap();
                assert!(state.cancel(&job.id));
                state.run_job(&job);
                job
            })
            .collect();
        assert!(state.job("job-0").is_none(), "compacted-away jobs leave the registry");
        assert!(state.job("job-63").is_none());
        assert!(state.job("job-64").is_some(), "jobs finished since are still listed");
        assert!(handles.iter().all(|h| matches!(h.state(), JobState::Cancelled)));
        let status = state.status_json();
        assert_eq!(status.get("jobs_seen").and_then(Value::as_u64), Some(65), "a running count");
        assert_eq!(status.get("outstanding").and_then(Value::as_u64), Some(0));
        let wal = std::fs::read_to_string(state_dir.join("serve-wal.jsonl")).unwrap();
        assert!(!wal.contains("\"job-0\""), "the WAL was compacted");
        assert!(wal.contains("\"job-64\""));
        assert_eq!(state.submit("ci", quick_spec()).unwrap().id, "job-65");
        std::fs::remove_dir_all(&state_dir).ok();
    }

    #[test]
    fn recovery_reenqueues_unfinished_jobs_once() {
        let opts = test_opts("recover");
        let state_dir = opts.state_dir.clone();
        {
            let state = ServeState::new(opts.clone()).unwrap();
            let finished = state.submit("ci", quick_spec()).unwrap();
            state.run_job(&finished);
            state.submit("ci", JobSpec { seed: 77, ..quick_spec() }).unwrap();
            // Simulated crash: the state (and its queue) simply drops.
        }
        let state = ServeState::new(opts).unwrap();
        assert_eq!(state.outstanding(), 1, "only the unfinished job recovers");
        let recovered = state.job("job-1").expect("recovered job keeps its id");
        assert!(recovered.recovered);
        assert_eq!(recovered.spec.seed, 77);
        let next = state.submit("ci", quick_spec()).unwrap();
        assert_eq!(next.id, "job-2", "sequence numbering survives the restart");
        std::fs::remove_dir_all(&state_dir).ok();
    }
}
