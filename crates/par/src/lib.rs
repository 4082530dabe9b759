//! Dependency-free data-parallel execution for the MicroSampler pipeline.
//!
//! The paper's workload is dominated by embarrassingly parallel work:
//! independent simulated trials (per key, per primitive, per escalation
//! round) and per-unit statistical analysis. This crate provides the one
//! primitive both layers share: a scoped `std::thread` worker pool
//! ([`map`]) with
//!
//! * a chunked work-stealing queue (workers grab index ranges from a shared
//!   atomic cursor, so uneven task costs still balance),
//! * **deterministic result ordering** — results are returned in input
//!   order regardless of which worker computed them or when,
//! * panic propagation — a panicking task panics the caller after all
//!   workers have been joined (no orphaned threads, no swallowed errors),
//! * nesting protection — a [`map`] issued from inside a worker runs
//!   serially inline, so parallel harness loops can call parallel library
//!   code without spawning `workers²` threads,
//! * telemetry integration — `par.tasks` / `par.workers` / `par.steal`
//!   metrics per pool run, and spans recorded on worker threads re-attached
//!   under the caller's open span (each worker's busy time shows up as a
//!   `par.worker` node),
//! * fault tolerance — [`run_isolated`] runs one task behind a panic
//!   boundary with a bounded retry policy ([`IsolationPolicy`]), so one
//!   wedged or panicking trial is quarantined as a [`TrialOutcome`]
//!   instead of sinking the whole sweep; callers fan it out with [`map`].
//!
//! # Thread-count resolution
//!
//! [`threads`] resolves, in priority order: the process-wide programmatic
//! override ([`set_threads`], used by `repro --threads N`), the
//! `MICROSAMPLER_THREADS` environment variable, and finally
//! [`std::thread::available_parallelism`]. Invalid environment values (zero
//! or non-numeric) are diagnosed and ignored; absurd values (above
//! [`MAX_THREADS`]) are clamped to the machine's available parallelism.
//!
//! Determinism is a hard guarantee, not a configuration: any computation
//! built from pure per-item functions produces bit-identical results at
//! every thread count, enforced by the workspace's determinism tests.
//!
//! # Example
//!
//! ```
//! microsampler_par::set_threads(Some(4));
//! let squares = microsampler_par::map(&[1u64, 2, 3, 4, 5], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! microsampler_par::set_threads(None);
//! ```

#![forbid(unsafe_code)]

use microsampler_obs::{diag_warn, metrics, span};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Upper bound on accepted thread counts; anything above this is treated
/// as a configuration mistake and clamped to [`available`].
pub const MAX_THREADS: usize = 256;

const ENV_UNRESOLVED: usize = usize::MAX;

/// Programmatic override (0 = none set).
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);
/// Cached `MICROSAMPLER_THREADS` resolution (0 = unset/invalid).
static ENV: AtomicUsize = AtomicUsize::new(ENV_UNRESOLVED);

thread_local! {
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The machine's available parallelism (1 if it cannot be determined).
pub fn available() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// Installs (`Some(n)`) or clears (`None`) the process-wide thread-count
/// override. Takes precedence over `MICROSAMPLER_THREADS`. `Some(0)` is
/// treated as 1 and values above [`MAX_THREADS`] are clamped to
/// [`available`], with a diagnostic; callers wanting a hard error (the
/// `repro` CLI) must validate before calling.
pub fn set_threads(n: Option<usize>) {
    let resolved = match n {
        None => 0,
        Some(0) => {
            diag_warn!("thread count 0 requested; running serially");
            1
        }
        Some(n) if n > MAX_THREADS => {
            let avail = available();
            diag_warn!("thread count {n} exceeds MAX_THREADS={MAX_THREADS}; clamping to {avail}");
            avail
        }
        Some(n) => n,
    };
    OVERRIDE.store(resolved, Ordering::Relaxed);
}

fn env_threads() -> usize {
    let cached = ENV.load(Ordering::Relaxed);
    if cached != ENV_UNRESOLVED {
        return cached;
    }
    let resolved = match std::env::var("MICROSAMPLER_THREADS") {
        Err(_) => 0,
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(0) | Err(_) => {
                diag_warn!("ignoring invalid MICROSAMPLER_THREADS={v:?} (want a positive integer)");
                0
            }
            Ok(n) if n > MAX_THREADS => {
                let avail = available();
                diag_warn!("MICROSAMPLER_THREADS={n} exceeds MAX_THREADS={MAX_THREADS}; clamping to {avail}");
                avail
            }
            Ok(n) => n,
        },
    };
    ENV.store(resolved, Ordering::Relaxed);
    resolved
}

/// The effective worker count: [`set_threads`] override, else
/// `MICROSAMPLER_THREADS`, else [`available`].
pub fn threads() -> usize {
    let explicit = OVERRIDE.load(Ordering::Relaxed);
    if explicit != 0 {
        return explicit;
    }
    let env = env_threads();
    if env != 0 {
        return env;
    }
    available()
}

/// Whether the current thread is a pool worker. A [`map`] called from a
/// worker runs serially inline (nesting protection).
pub fn in_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

/// Resolves an explicit per-call request (`0` = use [`threads`]),
/// clamping absurd values like [`set_threads`] does.
pub fn resolve(requested: usize) -> usize {
    match requested {
        0 => threads(),
        n if n > MAX_THREADS => available(),
        n => n,
    }
}

/// Chunk size targeting ~4 grabs per worker, so slow chunks can be
/// balanced by stealing without paying one cursor bump per item.
fn chunk_size(tasks: usize, workers: usize) -> usize {
    (tasks / (workers * 4)).max(1)
}

/// Applies `f` to every item and returns the results **in input order**.
///
/// Runs on the pool sized by [`threads`]; falls back to a serial inline
/// loop when the pool would not help (one item, one thread, or already on
/// a worker).
///
/// # Panics
///
/// Re-raises the panic of any task after all workers have been joined.
pub fn map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    map_with(0, items, f)
}

/// [`map`] with an explicit worker count (`0` = resolve via [`threads`]).
/// Lets a caller carry its own configuration without touching the
/// process-wide override.
pub fn map_with<T, R, F>(threads_requested: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = resolve(threads_requested).min(items.len());
    if workers <= 1 || in_worker() {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    run_pool(items.len(), workers, |i| f(i, &items[i]))
}

/// Cooperative cancellation token shared between a pool run and its
/// controller (e.g. a `repro serve` client session cancelling its job).
///
/// Cancellation is a latch: once [`cancel`](CancelToken::cancel) fires,
/// every clone observes it and it never resets. Tasks already running are
/// not interrupted — [`run_isolated`] simply stops *starting* attempts,
/// so a cancelled fan-out drains quickly (bounded by the longest single
/// task) and the skipped tasks report [`FailureClass::Cancelled`].
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Latches the token; all clones observe the cancellation.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether [`cancel`](CancelToken::cancel) has been called on any
    /// clone.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Why a pooled run stopped early.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The run's [`CancelToken`] was cancelled.
    Cancelled,
    /// The run's deadline passed.
    DeadlineExceeded,
}

/// Control surface for [`run_isolated`]: cooperative cancellation and
/// an optional wall-clock deadline. The default (no token, no deadline)
/// never stops a run early.
#[derive(Clone, Debug, Default)]
pub struct RunControl {
    /// Cancel latch checked before each task and each retry attempt.
    pub cancel: Option<CancelToken>,
    /// Hard stop: tasks not *started* before this instant are skipped
    /// with [`FailureClass::Cancelled`] (running tasks finish).
    pub deadline: Option<Instant>,
}

impl RunControl {
    /// Whether new work should stop being started, and why. Cancellation
    /// wins over the deadline when both hold.
    pub fn stop_reason(&self) -> Option<StopReason> {
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Some(StopReason::Cancelled);
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Some(StopReason::DeadlineExceeded);
        }
        None
    }
}

/// How an isolated trial ultimately failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FailureClass {
    /// The task returned `Err` — a simulator-level error such as a
    /// deadlock watchdog trip or an exhausted cycle budget.
    SimError,
    /// The task panicked; the panic was caught at the isolation boundary.
    Panicked,
    /// The task completed but exceeded the policy's wall-clock budget.
    TimedOut,
    /// The task never ran (or stopped retrying) because the run's
    /// [`RunControl`] was cancelled or hit its deadline.
    Cancelled,
}

impl FailureClass {
    /// Stable lowercase identifier used in journals and JSON reports.
    pub fn name(self) -> &'static str {
        match self {
            FailureClass::SimError => "sim-error",
            FailureClass::Panicked => "panicked",
            FailureClass::TimedOut => "timed-out",
            FailureClass::Cancelled => "cancelled",
        }
    }
}

impl std::fmt::Display for FailureClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Terminal failure record for a quarantined trial.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrialFailure {
    /// How the final attempt failed.
    pub class: FailureClass,
    /// Human-readable error or panic message from the final attempt.
    pub message: String,
    /// Total attempts made (1 = failed with no retry).
    pub attempts: u32,
}

/// Result of one isolated trial: the task's value, or a quarantine record
/// after the retry budget is exhausted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TrialOutcome<R> {
    /// The task produced a value within the attempt and time budget.
    Completed(R),
    /// Every permitted attempt failed; the trial is quarantined.
    Failed(TrialFailure),
}

impl<R> TrialOutcome<R> {
    /// Whether the trial produced a value.
    pub fn is_completed(&self) -> bool {
        matches!(self, TrialOutcome::Completed(_))
    }

    /// The completed value, if any.
    pub fn completed(self) -> Option<R> {
        match self {
            TrialOutcome::Completed(r) => Some(r),
            TrialOutcome::Failed(_) => None,
        }
    }

    /// The failure record, if the trial was quarantined.
    pub fn failure(&self) -> Option<&TrialFailure> {
        match self {
            TrialOutcome::Completed(_) => None,
            TrialOutcome::Failed(f) => Some(f),
        }
    }
}

/// Retry and timeout policy for [`run_isolated`].
///
/// The timeout is a *post-hoc classifier*, not a preemption mechanism: a
/// running task cannot be killed from outside, so the simulator's own
/// cycle budget (and deadlock watchdog) bounds how long a trial can run.
/// A task whose wall-clock time reaches `timeout` is classified
/// [`FailureClass::TimedOut`] even if it returned `Ok`, because its
/// result is considered untrustworthy for timing-sensitive sweeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IsolationPolicy {
    /// Maximum attempts per trial (minimum 1; the default 2 allows one
    /// retry). Attempts that returned `Err` (transient simulator errors)
    /// or exceeded the wall-clock budget are retried; a panic never is,
    /// because a panic is a bug and a deterministic trial would just panic
    /// again.
    pub max_attempts: u32,
    /// Wall-clock budget per attempt (`None` = unlimited).
    pub timeout: Option<Duration>,
    /// First retry delay of the deterministic exponential backoff
    /// schedule ([`backoff_delay`](IsolationPolicy::backoff_delay)).
    /// `Duration::ZERO` (the default) retries immediately, preserving the
    /// legacy schedule.
    pub backoff_base: Duration,
    /// Upper bound on any single backoff delay. `Duration::ZERO` means
    /// "uncapped" (bounded only by the attempt budget).
    pub backoff_cap: Duration,
}

impl Default for IsolationPolicy {
    fn default() -> Self {
        IsolationPolicy {
            max_attempts: 2,
            timeout: None,
            backoff_base: Duration::ZERO,
            backoff_cap: Duration::ZERO,
        }
    }
}

impl IsolationPolicy {
    /// The delay slept before retry number `attempt` (1 = first retry):
    /// deterministic capped exponential, `base * 2^(attempt-1)` clamped
    /// to `backoff_cap` when a cap is set. No jitter — sweeps must be
    /// reproducible, and independent trials never thundering-herd a
    /// shared resource here.
    pub fn backoff_delay(&self, attempt: u32) -> Duration {
        if self.backoff_base.is_zero() || attempt == 0 {
            return Duration::ZERO;
        }
        // 2^31 * base already overflows any sane budget; saturate the
        // shift so huge attempt counts cannot wrap.
        let factor = 1u32.checked_shl(attempt - 1).unwrap_or(u32::MAX);
        let delay = self.backoff_base.saturating_mul(factor);
        if self.backoff_cap.is_zero() {
            delay
        } else {
            delay.min(self.backoff_cap)
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Runs one task behind a panic boundary under the policy's attempt
/// budget and classifies the outcome: the task's value, or a
/// [`TrialOutcome::Failed`] record instead of an unwinding caller.
/// Simulator errors and timeouts are retried while attempts remain;
/// panics never are.
///
/// The task receives the attempt number, counting from 0, so callers can
/// salt retries (e.g. re-seed a fault plan per attempt). `index` only
/// names the task in retry diagnostics. Once `ctl` is cancelled or its
/// deadline passes, an attempt that has not started is skipped with
/// [`FailureClass::Cancelled`]; a running attempt finishes normally.
/// Fan tasks out with [`map`]. Records `trial.retried` per retry and
/// `trial.quarantined` on terminal failure.
pub fn run_isolated<R>(
    policy: &IsolationPolicy,
    ctl: &RunControl,
    index: usize,
    task: impl Fn(u32) -> Result<R, String>,
) -> TrialOutcome<R> {
    let max_attempts = policy.max_attempts.max(1);
    let mut attempt = 0u32;
    loop {
        if let Some(reason) = ctl.stop_reason() {
            let message = match reason {
                StopReason::Cancelled => format!("cancelled before attempt {}", attempt + 1),
                StopReason::DeadlineExceeded => {
                    format!("deadline exceeded before attempt {}", attempt + 1)
                }
            };
            return TrialOutcome::Failed(TrialFailure {
                class: FailureClass::Cancelled,
                message,
                attempts: attempt,
            });
        }
        let start = Instant::now();
        let caught = catch_unwind(AssertUnwindSafe(|| task(attempt)));
        let overtime = policy.timeout.is_some_and(|budget| start.elapsed() >= budget);
        let (class, message) = match caught {
            Ok(Ok(result)) if !overtime => return TrialOutcome::Completed(result),
            Ok(Ok(_)) => {
                let budget = policy.timeout.expect("overtime implies a timeout is set");
                (
                    FailureClass::TimedOut,
                    format!("exceeded {budget:?} wall-clock budget (took {:?})", start.elapsed()),
                )
            }
            // An explicit error message wins over the overtime flag.
            Ok(Err(message)) => (FailureClass::SimError, message),
            Err(payload) => (FailureClass::Panicked, panic_message(payload)),
        };
        attempt += 1;
        // Cancellation returns above without classifying an attempt.
        let retryable = matches!(class, FailureClass::SimError | FailureClass::TimedOut);
        if attempt < max_attempts && retryable {
            metrics::record("trial.retried", 1.0);
            diag_warn!("trial {index} attempt {attempt} failed ({class}): {message}; retrying");
            let delay = policy.backoff_delay(attempt);
            if !delay.is_zero() {
                thread::sleep(delay);
            }
            continue;
        }
        metrics::record("trial.quarantined", 1.0);
        return TrialOutcome::Failed(TrialFailure { class, message, attempts: attempt });
    }
}

/// The scoped pool core: `workers` threads steal chunked index ranges
/// from a shared cursor, stash `(index, result)` pairs locally, and the
/// caller scatters them back into input order.
fn run_pool<R, F>(tasks: usize, workers: usize, task: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let chunk = chunk_size(tasks, workers);
    let cursor = AtomicUsize::new(0);
    let steals = AtomicUsize::new(0);
    let collect_spans = span::enabled();
    let mut slots: Vec<Option<R>> = Vec::with_capacity(tasks);
    slots.resize_with(tasks, || None);
    thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (cursor, steals, task) = (&cursor, &steals, &task);
                s.spawn(move || {
                    IN_WORKER.with(|w| w.set(true));
                    let worker_span = span::span("par.worker");
                    let mut local: Vec<(usize, R)> = Vec::new();
                    let mut grabs = 0usize;
                    loop {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= tasks {
                            break;
                        }
                        grabs += 1;
                        for i in start..(start + chunk).min(tasks) {
                            local.push((i, task(i)));
                        }
                    }
                    steals.fetch_add(grabs.saturating_sub(1), Ordering::Relaxed);
                    drop(worker_span);
                    let forest = if collect_spans { span::take() } else { Vec::new() };
                    (local, forest)
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok((local, forest)) => {
                    for (i, r) in local {
                        slots[i] = Some(r);
                    }
                    span::merge_under_current(forest);
                }
                // Propagate the first worker panic; `thread::scope` still
                // joins the remaining workers before unwinding past it.
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    metrics::record_batch(
        "par",
        &[
            ("tasks", tasks as f64),
            ("workers", workers as f64),
            ("steal", steals.load(Ordering::Relaxed) as f64),
        ],
    );
    slots.into_iter().map(|r| r.expect("every index executed by exactly one worker")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // The override and the obs registries are process-global; serialize
    // every test that touches them.
    static LOCK: Mutex<()> = Mutex::new(());

    fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
        set_threads(Some(n));
        let out = f();
        set_threads(None);
        out
    }

    #[test]
    fn map_preserves_input_order() {
        let _l = LOCK.lock().unwrap();
        let items: Vec<u64> = (0..101).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        for threads in [1, 2, 7, 32] {
            let par = with_threads(threads, || map(&items, |_, &x| x * 3 + 1));
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn map_passes_matching_indices() {
        let _l = LOCK.lock().unwrap();
        let items = vec![10u64, 11, 12, 13, 14];
        let pairs = with_threads(3, || map(&items, |i, &x| (i as u64, x)));
        for (i, (idx, x)) in pairs.iter().enumerate() {
            assert_eq!(*idx, i as u64);
            assert_eq!(*x, items[i]);
        }
    }

    #[test]
    fn empty_and_single_item_inputs() {
        let _l = LOCK.lock().unwrap();
        let empty: [u64; 0] = [];
        assert!(with_threads(4, || map(&empty, |_, &x| x)).is_empty());
        assert_eq!(with_threads(4, || map(&[9u64], |_, &x| x + 1)), vec![10]);
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let _l = LOCK.lock().unwrap();
        let items: Vec<usize> = (0..16).collect();
        let result = std::panic::catch_unwind(|| {
            with_threads(4, || {
                map(&items, |_, &x| {
                    assert!(x != 11, "task 11 exploded");
                    x
                })
            })
        });
        assert!(result.is_err(), "panic must reach the caller");
        set_threads(None); // with_threads unwound before restoring
    }

    #[test]
    fn nested_map_runs_inline() {
        let _l = LOCK.lock().unwrap();
        let outer: Vec<u64> = (0..4).collect();
        let matrix = with_threads(4, || {
            map(&outer, |_, &row| {
                assert!(in_worker());
                let inner: Vec<u64> = (0..8).collect();
                // Must not spawn a second pool layer; runs serially inline.
                map(&inner, move |_, &col| row * 100 + col)
            })
        });
        assert_eq!(matrix[2][5], 205);
        assert!(!in_worker());
    }

    #[test]
    fn thread_count_resolution_and_clamping() {
        let _l = LOCK.lock().unwrap();
        set_threads(Some(7));
        assert_eq!(threads(), 7);
        set_threads(Some(MAX_THREADS + 1));
        assert_eq!(threads(), available(), "absurd values clamp to available_parallelism");
        set_threads(Some(0));
        assert_eq!(threads(), 1, "zero is treated as serial");
        set_threads(None);
        assert!(threads() >= 1);
    }

    #[test]
    fn pool_records_metrics() {
        let _l = LOCK.lock().unwrap();
        metrics::set_enabled(true);
        metrics::reset();
        let items: Vec<u64> = (0..64).collect();
        with_threads(4, || map(&items, |_, &x| x));
        let snap = metrics::snapshot();
        metrics::set_enabled(false);
        metrics::reset();
        let get = |name: &str| snap.iter().find(|(n, _)| n == name).map(|(_, a)| a.last);
        assert_eq!(get("par.tasks"), Some(64.0));
        assert_eq!(get("par.workers"), Some(4.0));
        assert!(get("par.steal").is_some());
    }

    /// Fans `f` out with [`map`], each task behind [`run_isolated`].
    fn isolate_each<T: Sync, R: Send>(
        policy: &IsolationPolicy,
        ctl: &RunControl,
        items: &[T],
        f: impl Fn(usize, &T, u32) -> Result<R, String> + Sync,
    ) -> Vec<TrialOutcome<R>> {
        map(items, |i, item| run_isolated(policy, ctl, i, |attempt| f(i, item, attempt)))
    }

    #[test]
    fn run_isolated_completes_ordinary_tasks() {
        let _l = LOCK.lock().unwrap();
        let items: Vec<u64> = (0..23).collect();
        let outcomes = with_threads(4, || {
            isolate_each(&IsolationPolicy::default(), &RunControl::default(), &items, |_, &x, _| {
                Ok(x * 2)
            })
        });
        let values: Vec<u64> = outcomes.into_iter().map(|o| o.completed().unwrap()).collect();
        let want: Vec<u64> = items.iter().map(|&x| x * 2).collect();
        assert_eq!(values, want);
    }

    #[test]
    fn run_isolated_quarantines_panics_without_unwinding() {
        let _l = LOCK.lock().unwrap();
        let items: Vec<u64> = (0..8).collect();
        let outcomes = with_threads(4, || {
            isolate_each(&IsolationPolicy::default(), &RunControl::default(), &items, |_, &x, _| {
                assert!(x != 5, "trial 5 exploded");
                Ok::<u64, String>(x)
            })
        });
        assert_eq!(outcomes.iter().filter(|o| o.is_completed()).count(), 7);
        let failure = outcomes[5].failure().expect("trial 5 quarantined");
        assert_eq!(failure.class, FailureClass::Panicked);
        assert_eq!(failure.attempts, 1, "panics are never retried");
        assert!(failure.message.contains("trial 5 exploded"), "{}", failure.message);
    }

    #[test]
    fn run_isolated_retries_sim_errors_with_attempt_salt() {
        let _l = LOCK.lock().unwrap();
        let items = [1u64, 2, 3];
        let outcomes = with_threads(2, || {
            isolate_each(
                &IsolationPolicy::default(),
                &RunControl::default(),
                &items,
                |_, &x, attempt| {
                    if x == 2 && attempt == 0 {
                        Err("transient wobble".to_string())
                    } else {
                        Ok(x * 10 + attempt as u64)
                    }
                },
            )
        });
        assert_eq!(outcomes[0], TrialOutcome::Completed(10));
        assert_eq!(outcomes[1], TrialOutcome::Completed(21), "succeeded on the retry attempt");
        assert_eq!(outcomes[2], TrialOutcome::Completed(30));
    }

    #[test]
    fn run_isolated_exhausts_retries_and_records_metrics() {
        let _l = LOCK.lock().unwrap();
        metrics::set_enabled(true);
        metrics::reset();
        let items = [0u64];
        let outcomes = with_threads(1, || {
            isolate_each(&IsolationPolicy::default(), &RunControl::default(), &items, |_, _, _| {
                Err::<u64, String>("deadlock: no commit for 20000 cycles".to_string())
            })
        });
        let snap = metrics::snapshot();
        metrics::set_enabled(false);
        metrics::reset();
        let failure = outcomes[0].failure().expect("quarantined");
        assert_eq!(failure.class, FailureClass::SimError);
        assert_eq!(failure.attempts, 2);
        let sum = |name: &str| snap.iter().find(|(n, _)| n == name).map(|(_, a)| a.sum);
        assert_eq!(sum("trial.retried"), Some(1.0));
        assert_eq!(sum("trial.quarantined"), Some(1.0));
    }

    #[test]
    fn backoff_schedule_is_deterministic_capped_exponential() {
        let policy = IsolationPolicy {
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(60),
            ..IsolationPolicy::default()
        };
        let schedule: Vec<Duration> = (0..=6).map(|a| policy.backoff_delay(a)).collect();
        assert_eq!(
            schedule,
            vec![
                Duration::ZERO,            // attempt 0 never sleeps
                Duration::from_millis(10), // first retry: base
                Duration::from_millis(20), // base * 2
                Duration::from_millis(40), // base * 4
                Duration::from_millis(60), // base * 8 clamps to the cap
                Duration::from_millis(60),
                Duration::from_millis(60),
            ]
        );
        // No cap: pure exponential.
        let uncapped = IsolationPolicy { backoff_cap: Duration::ZERO, ..policy };
        assert_eq!(uncapped.backoff_delay(5), Duration::from_millis(160));
        // Absurd attempt counts saturate instead of wrapping.
        assert!(uncapped.backoff_delay(1000) >= uncapped.backoff_delay(999));
        // The legacy default (no base) never sleeps.
        assert_eq!(IsolationPolicy::default().backoff_delay(3), Duration::ZERO);
    }

    #[test]
    fn run_isolated_sleeps_backoff_between_retries() {
        let _l = LOCK.lock().unwrap();
        let policy = IsolationPolicy {
            max_attempts: 3,
            backoff_base: Duration::from_millis(20),
            ..IsolationPolicy::default()
        };
        let start = Instant::now();
        let outcomes = with_threads(1, || {
            isolate_each(&policy, &RunControl::default(), &[0u64], |_, _, _| {
                Err::<u64, String>("always fails".into())
            })
        });
        // Two retries: 20ms + 40ms of scheduled backoff.
        assert!(start.elapsed() >= Duration::from_millis(60), "backoff must be slept");
        assert_eq!(outcomes[0].failure().unwrap().attempts, 3);
    }

    #[test]
    fn cancelled_token_skips_unstarted_tasks() {
        let _l = LOCK.lock().unwrap();
        let token = CancelToken::new();
        token.cancel();
        let ctl = RunControl { cancel: Some(token.clone()), deadline: None };
        let items: Vec<u64> = (0..8).collect();
        let outcomes = with_threads(2, || {
            isolate_each(&IsolationPolicy::default(), &ctl, &items, |_, &x, _| Ok(x))
        });
        for o in &outcomes {
            let failure = o.failure().expect("pre-cancelled run never starts a task");
            assert_eq!(failure.class, FailureClass::Cancelled);
            assert_eq!(failure.attempts, 0, "no attempt was made");
            assert!(failure.message.contains("cancelled"), "{}", failure.message);
        }
        assert!(token.is_cancelled());
    }

    #[test]
    fn mid_run_cancellation_completes_started_tasks_only() {
        let _l = LOCK.lock().unwrap();
        let token = CancelToken::new();
        let ctl = RunControl { cancel: Some(token.clone()), deadline: None };
        let items: Vec<u64> = (0..64).collect();
        let outcomes = with_threads(1, || {
            let token = token.clone();
            isolate_each(&IsolationPolicy::default(), &ctl, &items, move |i, &x, _| {
                if i == 2 {
                    token.cancel();
                }
                Ok(x)
            })
        });
        let completed = outcomes.iter().filter(|o| o.is_completed()).count();
        assert_eq!(completed, 3, "tasks after the cancelling one are skipped");
        assert_eq!(outcomes[3].failure().unwrap().class, FailureClass::Cancelled);
    }

    #[test]
    fn expired_deadline_reports_deadline_message() {
        let _l = LOCK.lock().unwrap();
        let ctl = RunControl { cancel: None, deadline: Some(Instant::now()) };
        let outcomes = with_threads(1, || {
            isolate_each(&IsolationPolicy::default(), &ctl, &[1u64], |_, &x, _| Ok(x))
        });
        let failure = outcomes[0].failure().expect("expired deadline skips the task");
        assert_eq!(failure.class, FailureClass::Cancelled);
        assert!(failure.message.contains("deadline"), "{}", failure.message);
    }

    #[test]
    fn run_isolated_classifies_overtime_results() {
        let _l = LOCK.lock().unwrap();
        let policy = IsolationPolicy {
            max_attempts: 1,
            timeout: Some(Duration::ZERO),
            ..IsolationPolicy::default()
        };
        let outcomes = with_threads(1, || {
            isolate_each(&policy, &RunControl::default(), &[7u64], |_, &x, _| Ok(x))
        });
        let failure = outcomes[0].failure().expect("zero budget times out");
        assert_eq!(failure.class, FailureClass::TimedOut);
        assert_eq!(failure.attempts, 1);
    }

    #[test]
    fn worker_spans_merge_under_caller_span() {
        let _l = LOCK.lock().unwrap();
        span::set_enabled(true);
        span::take();
        {
            let _stage = span::span("stage");
            let items: Vec<u64> = (0..32).collect();
            with_threads(4, || {
                map(&items, |_, &x| {
                    span::with_span("task", || x);
                })
            });
        }
        let tree = span::take();
        span::set_enabled(false);
        let stage = span::find(&tree, "stage").expect("stage span recorded");
        let worker = stage.child("par.worker").expect("worker spans under the caller's span");
        assert!(worker.count >= 1);
        assert_eq!(span::find(&tree, "stage/par.worker/task").unwrap().count, 32);
    }
}
