//! Job specifications, lifecycle states, handles, and the write-ahead
//! job log (WAL) backing `repro serve`.
//!
//! Every accepted job is appended to the WAL **before** it is enqueued,
//! so a crash at any point leaves enough on disk to re-run the job on
//! restart (see [`super::recovery`]). The WAL is append-only JSONL with
//! one `microsampler-serve-job-v1` event per line; compaction rewrites
//! it through a temporary file plus atomic rename, so readers (and a
//! crash mid-compaction) never observe a half-written log.

use microsampler_kernels::modexp::ModexpVariant;
use microsampler_obs::{diag_warn, Value};
use microsampler_par::CancelToken;
use microsampler_sim::CoreConfig;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Schema tag on every WAL line.
pub const WAL_SCHEMA: &str = "microsampler-serve-job-v1";

/// Most keys (one trial each) a job may ask for. A sweep allocates all of
/// its keys before the first trial runs, so without a cap one request
/// line could ask for terabytes and abort the daemon, and the WAL would
/// re-enqueue it at every restart.
pub const MAX_KEYS: usize = 65_536;

/// Longest key, in bytes, a job may ask for (8,192 iterations per trial;
/// the paper's 1024-bit keys are 128 bytes). It also keeps the per-trial
/// cycle budget far from overflow.
pub const MAX_KEY_BYTES: usize = 1_024;

/// An audit job as submitted over the socket: which kernel to sweep,
/// under which core, at what trial budget.
///
/// The spec is *content-addressable*: [`JobSpec::content_key`] hashes
/// the canonical JSON rendering, and the daemon keys the job's trial
/// journal by it — resubmitting an unchanged job replays every
/// completed trial from the journal for free.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Modexp kernel variant to audit.
    pub kernel: ModexpVariant,
    /// Core configuration name: `mega` or `small`.
    pub config: String,
    /// Enable the ME-V2-FB fast-bypass network on the chosen core.
    pub fast_bypass: bool,
    /// Number of random keys (one trial per key).
    pub keys: usize,
    /// Key length in bytes.
    pub key_bytes: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Per-trial cycle budget override.
    pub max_cycles: Option<u64>,
    /// Trial index to wedge (deliberate deadlock, for fault drills).
    pub wedge_trial: Option<usize>,
    /// Run the sweep under the anytime-valid sequential analyzer: the
    /// job completes as soon as the confidence sequence closes, and the
    /// verdict carries a `microsampler-stop-v1` stopping trace.
    pub sequential: bool,
}

impl Default for JobSpec {
    fn default() -> JobSpec {
        JobSpec {
            kernel: ModexpVariant::V2Safe,
            config: "mega".to_string(),
            fast_bypass: false,
            keys: 4,
            key_bytes: 1,
            seed: 42,
            max_cycles: None,
            wedge_trial: None,
            sequential: false,
        }
    }
}

impl JobSpec {
    /// Resolves the named core configuration.
    ///
    /// # Errors
    ///
    /// Returns a message naming the valid configs for unknown names.
    pub fn core_config(&self) -> Result<CoreConfig, String> {
        let base = match self.config.as_str() {
            "mega" => CoreConfig::mega_boom(),
            "small" => CoreConfig::small_boom(),
            other => return Err(format!("unknown config `{other}` (expected mega or small)")),
        };
        Ok(if self.fast_bypass { base.with_fast_bypass() } else { base })
    }

    /// Canonical JSON rendering (stable field order; also the WAL
    /// `spec` payload). `sequential` is rendered only when set: the
    /// content key of every pre-existing spec — and therefore every
    /// journal on disk keyed by it — must not change under the default.
    pub fn to_json(&self) -> Value {
        let b = Value::object()
            .field("kernel", self.kernel.name())
            .field("config", self.config.as_str())
            .field("fast_bypass", self.fast_bypass)
            .field("keys", self.keys)
            .field("key_bytes", self.key_bytes)
            .field("seed", self.seed)
            .field("max_cycles", self.max_cycles.map_or(Value::Null, Value::from))
            .field("wedge", self.wedge_trial.map_or(Value::Null, |w| Value::from(w as u64)));
        if self.sequential {
            b.field("sequential", true).build()
        } else {
            b.build()
        }
    }

    /// Parses a spec from a submit request or WAL line. Missing optional
    /// fields take the [`Default`] values; `kernel`, `config`, `keys`
    /// and `key_bytes` are validated, the sizes against [`MAX_KEYS`] and
    /// [`MAX_KEY_BYTES`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub fn from_json(v: &Value) -> Result<JobSpec, String> {
        let mut spec = JobSpec::default();
        if let Some(name) = v.get("kernel").and_then(Value::as_str) {
            spec.kernel =
                ModexpVariant::ALL.iter().copied().find(|k| k.name() == name).ok_or_else(|| {
                    let known: Vec<&str> = ModexpVariant::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown kernel `{name}` (expected one of {})", known.join(", "))
                })?;
        }
        if let Some(config) = v.get("config").and_then(Value::as_str) {
            spec.config = config.to_string();
        }
        if let Some(fb) = v.get("fast_bypass").and_then(Value::as_bool) {
            spec.fast_bypass = fb;
        }
        if let Some(keys) = v.get("keys").and_then(Value::as_u64) {
            spec.keys = keys as usize;
        }
        if let Some(kb) = v.get("key_bytes").and_then(Value::as_u64) {
            spec.key_bytes = kb as usize;
        }
        if let Some(seed) = v.get("seed").and_then(Value::as_u64) {
            spec.seed = seed;
        }
        spec.max_cycles = v.get("max_cycles").and_then(Value::as_u64);
        spec.wedge_trial = v.get("wedge").and_then(Value::as_u64).map(|w| w as usize);
        if let Some(seq) = v.get("sequential").and_then(Value::as_bool) {
            spec.sequential = seq;
        }
        if spec.keys == 0 || spec.key_bytes == 0 {
            return Err("keys and key_bytes must be at least 1".to_string());
        }
        if spec.keys > MAX_KEYS || spec.key_bytes > MAX_KEY_BYTES {
            return Err(format!(
                "keys must be at most {MAX_KEYS} and key_bytes at most {MAX_KEY_BYTES}"
            ));
        }
        spec.core_config()?;
        Ok(spec)
    }

    /// Content address: a 64-bit SipHash-2-4 of the canonical JSON
    /// rendering, hex-encoded. Two specs collide iff every field
    /// matches, so the per-spec trial journal `trials-<key>.jsonl` is
    /// shared exactly by resubmissions of the same job.
    pub fn content_key(&self) -> String {
        // Fixed keys: the address must be stable across daemon restarts.
        const K0: u64 = 0x4d69_6372_6f53_616d;
        const K1: u64 = 0x706c_6572_4a6f_6221;
        let canonical = self.to_json().render_compact();
        format!("{:016x}", microsampler_stats::siphash24(K0, K1, canonical.as_bytes()))
    }
}

/// Job lifecycle: `queued → running → (retrying → running)* →
/// done | quarantined | cancelled`.
#[derive(Clone, Debug)]
pub enum JobState {
    /// Accepted and WAL-logged, waiting for the executor.
    Queued,
    /// The executor is sweeping trials (attempt is 1-based).
    Running {
        /// 1-based job attempt.
        attempt: u32,
    },
    /// An attempt timed out; the executor is backing off before the next.
    Retrying {
        /// The attempt that just failed.
        attempt: u32,
    },
    /// Terminal: the sweep finished and produced a verdict.
    Done {
        /// Whether the analysis flagged a leak.
        leaky: bool,
        /// The full deterministic verdict object streamed to clients.
        verdict: Value,
    },
    /// Terminal: every attempt exhausted its budget.
    Quarantined {
        /// Failure class (`timed-out`, `config`).
        class: String,
        /// Human-readable failure description.
        message: String,
        /// Job-level attempts made.
        attempts: u32,
    },
    /// Terminal: cancelled by the client (explicitly or by disconnect)
    /// before completion.
    Cancelled,
}

impl JobState {
    /// Stable state name (WAL `event` field for terminal states).
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running { .. } => "running",
            JobState::Retrying { .. } => "retrying",
            JobState::Done { .. } => "done",
            JobState::Quarantined { .. } => "quarantined",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Whether the job has reached a final state.
    pub fn is_terminal(&self) -> bool {
        matches!(self, JobState::Done { .. } | JobState::Quarantined { .. } | JobState::Cancelled)
    }
}

/// Shared handle to one job: the executor drives the state machine,
/// session threads observe it and pull the cancel lever.
#[derive(Debug)]
pub struct JobHandle {
    /// Stable id (`job-<seq>`), unique per daemon state directory.
    pub id: String,
    /// Monotonic submission sequence number (survives restarts).
    pub seq: u64,
    /// Submitting client's tag (per-client quota accounting).
    pub client: String,
    /// Content address of [`JobHandle::spec`].
    pub key: String,
    /// The submitted job.
    pub spec: JobSpec,
    /// Whether this handle was rebuilt from the WAL after a crash.
    pub recovered: bool,
    /// Cooperative cancel latch, shared with the trial sweep.
    pub cancel: CancelToken,
    state: Mutex<JobState>,
    changed: Condvar,
}

impl JobHandle {
    /// A fresh queued job.
    pub fn new(seq: u64, client: &str, spec: JobSpec, recovered: bool) -> JobHandle {
        JobHandle {
            id: format!("job-{seq}"),
            seq,
            client: client.to_string(),
            key: spec.content_key(),
            spec,
            recovered,
            cancel: CancelToken::new(),
            state: Mutex::new(JobState::Queued),
            changed: Condvar::new(),
        }
    }

    /// Snapshot of the current state.
    pub fn state(&self) -> JobState {
        self.state.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }

    /// Advances the state machine and wakes waiters.
    pub fn set_state(&self, next: JobState) {
        *self.state.lock().unwrap_or_else(|p| p.into_inner()) = next;
        self.changed.notify_all();
    }

    /// Whether the job has reached a final state.
    pub fn is_terminal(&self) -> bool {
        self.state().is_terminal()
    }

    /// Latches the cancel token; the executor observes it between
    /// trials and before each attempt.
    pub fn request_cancel(&self) {
        self.cancel.cancel();
    }

    /// Blocks until the job is terminal or `timeout` elapses; returns
    /// the terminal state if reached.
    pub fn wait_terminal(&self, timeout: Duration) -> Option<JobState> {
        let deadline = std::time::Instant::now() + timeout;
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if state.is_terminal() {
                return Some(state.clone());
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return None;
            }
            let (next, _) =
                self.changed.wait_timeout(state, deadline - now).unwrap_or_else(|p| p.into_inner());
            state = next;
        }
    }
}

/// The WAL `submitted` event for a job (carries everything recovery
/// needs to re-enqueue it).
pub fn submitted_event(job: &JobHandle) -> Value {
    Value::object()
        .field("schema", WAL_SCHEMA)
        .field("event", "submitted")
        .field("job", job.id.as_str())
        .field("seq", job.seq)
        .field("client", job.client.as_str())
        .field("key", job.key.as_str())
        .field("spec", job.spec.to_json())
        .build()
}

/// The WAL `started` event (one per attempt).
pub fn started_event(id: &str, attempt: u32) -> Value {
    Value::object()
        .field("schema", WAL_SCHEMA)
        .field("event", "started")
        .field("job", id)
        .field("attempt", attempt)
        .build()
}

/// The WAL `retrying` event: attempt `attempt` failed; the executor
/// sleeps `backoff` before the next one.
pub fn retrying_event(id: &str, attempt: u32, reason: &str, backoff: Duration) -> Value {
    Value::object()
        .field("schema", WAL_SCHEMA)
        .field("event", "retrying")
        .field("job", id)
        .field("attempt", attempt)
        .field("reason", reason)
        .field("backoff_ms", backoff.as_millis() as u64)
        .build()
}

/// The WAL terminal event for `state`, or `None` for non-terminal
/// states. Terminal events deliberately omit the verdict body — it is
/// reproducible from the content-addressed trial journal, and the WAL
/// stays small enough to replay on every restart.
pub fn terminal_event(id: &str, state: &JobState) -> Option<Value> {
    let base = Value::object().field("schema", WAL_SCHEMA).field("event", state.name());
    match state {
        JobState::Done { leaky, .. } => Some(base.field("job", id).field("leaky", *leaky).build()),
        JobState::Quarantined { class, message, attempts } => Some(
            base.field("job", id)
                .field("class", class.as_str())
                .field("message", message.as_str())
                .field("attempts", *attempts)
                .build(),
        ),
        JobState::Cancelled => Some(base.field("job", id).build()),
        _ => None,
    }
}

/// Append-only WAL writer with atomic-rename compaction.
#[derive(Debug)]
pub struct WalWriter {
    path: PathBuf,
    file: File,
    terminal_since_compact: usize,
}

impl WalWriter {
    /// Opens (creating if absent) the WAL at `path` for appending.
    ///
    /// # Errors
    ///
    /// Returns a message if the file cannot be opened.
    pub fn open(path: &Path) -> Result<WalWriter, String> {
        let file = File::options()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open serve WAL {}: {e}", path.display()))?;
        Ok(WalWriter { path: path.to_path_buf(), file, terminal_since_compact: 0 })
    }

    /// Appends one event line. Write failures are diagnosed, not fatal:
    /// losing a WAL line degrades recovery, not the running job.
    pub fn append(&mut self, event: &Value) {
        if let Err(e) = writeln!(self.file, "{}", event.render_compact()) {
            diag_warn!("serve WAL append failed: {e}");
        }
        if event
            .get("event")
            .and_then(Value::as_str)
            .is_some_and(|ev| matches!(ev, "done" | "quarantined" | "cancelled"))
        {
            self.terminal_since_compact += 1;
        }
    }

    /// Terminal events appended since the last compaction (compaction
    /// trigger: the log only grows stale through finished jobs).
    pub fn terminal_since_compact(&self) -> usize {
        self.terminal_since_compact
    }

    /// Rewrites the WAL to exactly `keep` (the `submitted` events of
    /// still-live jobs), via a temporary file in the same directory and
    /// an atomic rename — a crash mid-compaction leaves either the old
    /// or the new log, never a torn one.
    ///
    /// # Errors
    ///
    /// Returns a message on write or rename failure; the original WAL
    /// is untouched in that case.
    pub fn compact(&mut self, keep: &[Value]) -> Result<(), String> {
        let tmp = self.path.with_file_name(format!(
            "{}.tmp.{}",
            self.path.file_name().and_then(|n| n.to_str()).unwrap_or("serve-wal.jsonl"),
            std::process::id()
        ));
        let mut text = String::new();
        for event in keep {
            text.push_str(&event.render_compact());
            text.push('\n');
        }
        std::fs::write(&tmp, text).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &self.path).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            format!("cannot rename {} to {}: {e}", tmp.display(), self.path.display())
        })?;
        self.file = File::options()
            .create(true)
            .append(true)
            .open(&self.path)
            .map_err(|e| format!("cannot reopen serve WAL {}: {e}", self.path.display()))?;
        self.terminal_since_compact = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_json_round_trips_and_validates() {
        let spec = JobSpec {
            kernel: ModexpVariant::V1MicroarchVuln,
            config: "small".into(),
            fast_bypass: true,
            keys: 7,
            key_bytes: 2,
            seed: 9,
            max_cycles: Some(50_000),
            wedge_trial: Some(3),
            sequential: true,
        };
        let back = JobSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
        assert!(
            !JobSpec::default().to_json().render_compact().contains("sequential"),
            "default rendering must stay byte-identical so existing journals keep their keys"
        );
        assert!(JobSpec::from_json(&Value::object().field("kernel", "nope").build())
            .unwrap_err()
            .contains("ME-V2-Safe"));
        assert!(JobSpec::from_json(&Value::object().field("config", "huge").build())
            .unwrap_err()
            .contains("mega or small"));
        assert!(JobSpec::from_json(&Value::object().field("keys", 0u64).build()).is_err());
    }

    #[test]
    fn spec_sizes_are_capped() {
        let sized = |keys: u64, key_bytes: u64| {
            JobSpec::from_json(
                &Value::object().field("keys", keys).field("key_bytes", key_bytes).build(),
            )
        };
        let (keys, key_bytes) = (MAX_KEYS as u64, MAX_KEY_BYTES as u64);
        let spec = sized(keys, key_bytes).expect("the caps themselves are accepted");
        assert_eq!((spec.keys, spec.key_bytes), (MAX_KEYS, MAX_KEY_BYTES));
        for (keys, key_bytes) in [(keys + 1, 1), (1, key_bytes + 1), (1 << 40, 1), (1, u64::MAX)] {
            let e = sized(keys, key_bytes).unwrap_err();
            assert!(e.contains("at most 65536") && e.contains("at most 1024"), "{e}");
        }
    }

    /// A submit request with every spec field set, as `repro submit`
    /// sends it.
    fn real_request() -> String {
        let spec = JobSpec {
            kernel: ModexpVariant::V1MicroarchVuln,
            config: "small".into(),
            fast_bypass: true,
            keys: 7,
            key_bytes: 2,
            seed: 9,
            max_cycles: Some(50_000),
            wedge_trial: Some(3),
            sequential: true,
        };
        let mut fields =
            vec![("op".to_string(), "submit".into()), ("client".to_string(), "ci".into())];
        if let Value::Object(spec_fields) = spec.to_json() {
            fields.extend(spec_fields);
        }
        Value::Object(fields).render_compact()
    }

    /// Puts `field` first in the request's outermost object, so it wins
    /// over a later field of the same name.
    fn prepend_field(text: &mut String, field: &str) {
        if let Some(open) = text.find('{') {
            text.insert_str(open + 1, &format!("{field},"));
        }
    }

    const SPEC_KEYS: [&str; 9] = [
        "kernel",
        "config",
        "fast_bypass",
        "keys",
        "key_bytes",
        "seed",
        "max_cycles",
        "wedge",
        "sequential",
    ];
    const ODD_VALUES: [&str; 14] = [
        "0",
        "1",
        "65536",
        "65537",
        "1024",
        "1025",
        "1099511627776",
        "-1",
        "1.5",
        "\"x\"",
        "null",
        "[]",
        "{}",
        "\"ME-V2-Safe\"",
    ];
    const BAD_STRINGS: [&str; 6] =
        [r#""\q""#, r#""\ud800""#, r#""\udc00x""#, r#""\u12""#, r#""\ud83e\u0041""#, r#""\u+041""#];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]
        /// A real request truncated, with fields repeated in front of it,
        /// values nested near the 128-level cap, 30-digit numbers, and bad
        /// escapes or lone surrogates, parses to an error or to a spec
        /// within the caps — `json::parse` and `JobSpec::from_json` never
        /// panic.
        #[test]
        fn request_parsing_never_panics_on_mangled_requests(
            edits in proptest::collection::vec(
                (0u8..5, proptest::prelude::any::<usize>(), proptest::prelude::any::<usize>()),
                0..8,
            ),
        ) {
            let mut text = real_request();
            for (op, at, arg) in edits {
                let key = SPEC_KEYS[arg % SPEC_KEYS.len()];
                match op {
                    0 => {
                        let mut len = at % (text.len() + 1);
                        while !text.is_char_boundary(len) {
                            len -= 1;
                        }
                        text.truncate(len);
                    }
                    1 => prepend_field(&mut text, &format!("\"{key}\":{}", ODD_VALUES[at % ODD_VALUES.len()])),
                    2 => {
                        let depth = 120 + at % 16;
                        let nested = "[".repeat(depth) + "1" + &"]".repeat(depth);
                        prepend_field(&mut text, &format!("\"{key}\":{nested}"));
                    }
                    3 => {
                        let sign = if at % 2 == 0 { "" } else { "-" };
                        prepend_field(&mut text, &format!("\"{key}\":{sign}123456789012345678901234567890"));
                    }
                    _ => {
                        let bad = BAD_STRINGS[at % BAD_STRINGS.len()];
                        prepend_field(&mut text, &format!("\"{key}\":{bad}"));
                    }
                }
            }
            let got = std::panic::catch_unwind(|| {
                microsampler_obs::json::parse(&text).ok().map(|v| JobSpec::from_json(&v))
            });
            match got {
                Ok(Some(Ok(spec))) => {
                    proptest::prop_assert!((1..=MAX_KEYS).contains(&spec.keys), "{text}");
                    proptest::prop_assert!((1..=MAX_KEY_BYTES).contains(&spec.key_bytes), "{text}");
                    proptest::prop_assert!(spec.core_config().is_ok(), "{text}");
                }
                Ok(_) => {}
                Err(_) => panic!("request parsing panicked on:\n{text}"),
            }
        }
    }

    #[test]
    fn content_key_is_stable_and_field_sensitive() {
        let spec = JobSpec::default();
        let key = spec.content_key();
        assert_eq!(key.len(), 16, "64-bit hex address");
        assert_eq!(key, spec.clone().content_key(), "same spec, same address");
        let variants = [
            JobSpec { seed: 43, ..spec.clone() },
            JobSpec { keys: 5, ..spec.clone() },
            JobSpec { key_bytes: 2, ..spec.clone() },
            JobSpec { config: "small".into(), ..spec.clone() },
            JobSpec { fast_bypass: true, ..spec.clone() },
            JobSpec { kernel: ModexpVariant::Naive, ..spec.clone() },
            JobSpec { max_cycles: Some(1), ..spec.clone() },
            JobSpec { wedge_trial: Some(0), ..spec.clone() },
            JobSpec { sequential: true, ..spec.clone() },
        ];
        for other in variants {
            assert_ne!(other.content_key(), key, "{other:?} must re-address");
        }
    }

    #[test]
    fn job_state_machine_names_and_terminality() {
        let h = JobHandle::new(3, "ci", JobSpec::default(), false);
        assert_eq!(h.id, "job-3");
        assert_eq!(h.state().name(), "queued");
        assert!(!h.is_terminal());
        h.set_state(JobState::Running { attempt: 1 });
        assert_eq!(h.state().name(), "running");
        h.set_state(JobState::Retrying { attempt: 1 });
        assert!(!h.is_terminal());
        h.set_state(JobState::Cancelled);
        assert!(h.is_terminal());
        assert_eq!(h.wait_terminal(Duration::from_millis(10)).unwrap().name(), "cancelled");
        let pending = JobHandle::new(4, "ci", JobSpec::default(), false);
        assert!(pending.wait_terminal(Duration::from_millis(10)).is_none());
    }

    #[test]
    fn wal_appends_and_compacts_atomically() {
        let path = std::env::temp_dir()
            .join(format!("microsampler-serve-wal-{}.jsonl", std::process::id()));
        std::fs::remove_file(&path).ok();
        let job = JobHandle::new(0, "ci", JobSpec::default(), false);
        let mut wal = WalWriter::open(&path).unwrap();
        wal.append(&submitted_event(&job));
        wal.append(&started_event(&job.id, 1));
        wal.append(&retrying_event(&job.id, 1, "timed out", Duration::from_millis(40)));
        assert_eq!(wal.terminal_since_compact(), 0);
        wal.append(
            &terminal_event(&job.id, &JobState::Done { leaky: false, verdict: Value::Null })
                .unwrap(),
        );
        assert_eq!(wal.terminal_since_compact(), 1);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 4);
        assert!(text.contains("\"event\":\"retrying\""));
        assert!(text.contains("\"backoff_ms\":40"));

        let live = JobHandle::new(1, "ci", JobSpec::default(), false);
        wal.compact(&[submitted_event(&live)]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1, "compaction keeps only live jobs");
        assert!(text.contains("\"job\":\"job-1\""));
        assert_eq!(wal.terminal_since_compact(), 0);
        wal.append(&started_event(&live.id, 1));
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2, "appends continue after compaction");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn terminal_event_covers_only_terminal_states() {
        assert!(terminal_event("job-0", &JobState::Queued).is_none());
        assert!(terminal_event("job-0", &JobState::Running { attempt: 1 }).is_none());
        let q = terminal_event(
            "job-0",
            &JobState::Quarantined { class: "timed-out".into(), message: "m".into(), attempts: 3 },
        )
        .unwrap();
        assert_eq!(q.get("event").unwrap().as_str(), Some("quarantined"));
        assert_eq!(q.get("attempts").unwrap().as_u64(), Some(3));
        let c = terminal_event("job-0", &JobState::Cancelled).unwrap();
        assert_eq!(c.get("event").unwrap().as_str(), Some("cancelled"));
    }
}
