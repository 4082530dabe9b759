//! Crash-resilient sweep harness: fault-injected trials, per-trial
//! isolation with bounded retry, and a JSONL journal enabling
//! checkpoint/resume (`repro --resume`).
//!
//! Every modexp key trial runs here: [`RunContext::modexp_iterations`] is
//! [`run_modexp_sweep`] under the context's [`SweepOptions`]. Each trial
//! runs behind [`microsampler_par::run_isolated`]: a trial that
//! deadlocks, exhausts its cycle budget, or panics is *quarantined* — the
//! sweep completes with partial results and the quarantine list flows into
//! the `repro --json` run report instead of sinking hours of work. A
//! caller that did not ask for [`SweepOptions::isolate`] gets a panic
//! naming the quarantined trial instead of partial results.
//!
//! # Journal format
//!
//! The journal is append-only JSONL: one `microsampler-trial-v1` object
//! per line, written as each trial finishes (so a crash loses at most the
//! in-flight trials). Completed lines carry the trial's iteration
//! snapshots with per-unit hashes — everything the analyzer needs — and
//! an `order` array for each unit whose features the sweep collected
//! ([`SweepOptions::features`]), but not raw matrices; quarantined lines
//! carry the failure class, message, and attempt count. On resume,
//! completed trials are restored from the journal and only the missing
//! ones re-run; quarantined trials are retried, and so are completed
//! trials that lack features the resuming sweep collects. Completed lines
//! are written straight into one string and decoded in one pass with
//! [`microsampler_obs::json::Reader`], with no JSON tree in between.
//!
//! A fresh journal starts with a `microsampler-journal-header-v1` line
//! carrying [`options_config_hash`]: the fault config and the
//! snapshot-hash format the trials were recorded under. Trials are
//! restored only when that hash matches the resuming sweep's; a journal
//! with another hash, or with trial lines but no header, is refused (by
//! `repro --resume` with exit 2, by a sweep with a warning). A sweep that
//! refuses a journal appends its own header before its trials, and
//! [`load_journal`] reads only the segment after the last header.

use crate::Scale;
use microsampler_core::{SeqConfig, SequentialAnalyzer, StopTrace, STOP_SCHEMA};
use microsampler_kernels::inputs::random_keys;
use microsampler_kernels::modexp::{self, ModexpError, ModexpKernel, ModexpVariant};
use microsampler_obs::json::{ParseError, Reader};
use microsampler_obs::{diag, diag_warn, json, Value};
use microsampler_par::{CancelToken, FailureClass, IsolationPolicy, RunControl, TrialOutcome};
use microsampler_sim::{
    CoreConfig, FaultConfig, IterationTrace, PipelineStats, TraceConfig, Tracer, UnitId, UnitSet,
    UnitTrace,
};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Schema tag on every trial journal line.
pub const TRIAL_SCHEMA: &str = "microsampler-trial-v1";

/// Schema tag on progress-heartbeat lines interleaved into the journal.
pub const HEARTBEAT_SCHEMA: &str = "microsampler-heartbeat-v1";

/// Schema tag on the journal-header line (first line of a fresh journal)
/// carrying the sweep config hash that `--resume` validates.
pub const HEADER_SCHEMA: &str = "microsampler-journal-header-v1";

/// Sweep configuration, carried by a [`RunContext`]. The default injects
/// no faults, keeps no journal, collects no features, and panics on a
/// quarantined trial.
#[derive(Clone, Debug, Default)]
pub struct SweepOptions {
    /// Fault-injection rates applied to every trial (re-seeded per trial
    /// and per attempt via [`FaultConfig::for_trial`]).
    pub faults: Option<FaultConfig>,
    /// Trial index whose core is wedged at [`microsampler_sim::WEDGE_CYCLE`]
    /// (a deliberate deadlock, for exercising quarantine end-to-end).
    pub wedge_trial: Option<usize>,
    /// What [`RunContext::modexp_iterations`] does when a trial is
    /// quarantined: return the surviving trials' iterations (`true`) or
    /// panic naming the trial (`false`). `repro` sets it whenever a sweep
    /// flag is given.
    pub isolate: bool,
    /// Retry/timeout policy for isolated trials.
    pub policy: IsolationPolicy,
    /// Append-only JSONL trial journal.
    pub journal: Option<PathBuf>,
    /// Restore completed trials from the journal before running.
    pub resume: bool,
    /// Per-trial cycle budget override (default: the kernel's own
    /// [`modexp::cycle_budget`]).
    pub max_cycles: Option<u64>,
    /// Cooperative cancellation: once the token latches, trials that have
    /// not started are skipped (not journaled) and counted under
    /// [`SweepOutcome::cancelled`].
    pub cancel: Option<CancelToken>,
    /// Per-sweep wall-clock deadline (`repro serve` job timeouts): trials
    /// not started before it are skipped like cancelled ones.
    pub deadline: Option<std::time::Instant>,
    /// Sequential (anytime) auditing: judge a confidence sequence at
    /// doubling key-count look points and stop the sweep as soon as it
    /// closes, counting the skipped tail in [`SweepOutcome::early_stopped`]
    /// and recording the stopping trace in [`SweepOutcome::stop`] (and the
    /// journal).
    pub sequential: Option<SeqConfig>,
    /// The units whose features ([`UnitTrace::order`]) every trial
    /// collects ([`TraceConfig::features`]); the default is none. Snapshot
    /// hashes, and so verdicts, do not depend on it. A journaled trial
    /// without features for every unit in the set re-runs on resume, and
    /// a restored one keeps exactly the set's features.
    pub features: UnitSet,
}

/// What an experiment passes to its trial sweeps: the [`Scale`], the
/// [`SweepOptions`] every modexp sweep runs under, and the trial tally
/// behind the run report's `trials` section. `repro` builds one per
/// experiment. The tally sits behind a mutex because Table V records
/// quarantined primitives from pool workers.
#[derive(Debug, Default)]
pub struct RunContext {
    /// Experiment scale.
    pub scale: Scale,
    /// Options for every modexp sweep run in this context.
    pub options: SweepOptions,
    tally: Mutex<Tally>,
}

impl RunContext {
    /// A context with an empty tally.
    pub fn new(scale: Scale, options: SweepOptions) -> RunContext {
        RunContext { scale, options, tally: Mutex::default() }
    }

    /// Runs [`run_modexp_sweep`] under the context's options, adds its
    /// outcome to the tally, and returns the pooled iterations.
    ///
    /// # Panics
    ///
    /// If a trial is quarantined (it failed to assemble or simulate, or
    /// its result diverged from the reference model) and the options do
    /// not set [`isolate`](SweepOptions::isolate); the message names the
    /// trial. With `isolate` set, the surviving trials' iterations are
    /// returned instead.
    pub fn modexp_iterations(
        &self,
        variant: ModexpVariant,
        config: &CoreConfig,
        n_keys: usize,
        key_bytes: usize,
        seed: u64,
    ) -> Vec<IterationTrace> {
        self.modexp_iterations_with_features(
            UnitSet::NONE,
            variant,
            config,
            n_keys,
            key_bytes,
            seed,
        )
    }

    /// [`RunContext::modexp_iterations`] for an experiment that reads the
    /// features of `features`: the sweep collects them on top of the
    /// options' own [`SweepOptions::features`].
    ///
    /// # Panics
    ///
    /// As [`RunContext::modexp_iterations`].
    pub(crate) fn modexp_iterations_with_features(
        &self,
        features: UnitSet,
        variant: ModexpVariant,
        config: &CoreConfig,
        n_keys: usize,
        key_bytes: usize,
        seed: u64,
    ) -> Vec<IterationTrace> {
        let opts = SweepOptions {
            features: self.options.features.union(features),
            ..self.options.clone()
        };
        let out = run_modexp_sweep(variant, config, n_keys, key_bytes, seed, &opts);
        self.tally().add(&out);
        if let (Some(q), false) = (out.quarantined.first(), self.options.isolate) {
            panic!("trial {} failed ({}): {}", q.id, q.class, q.message);
        }
        out.iterations
    }

    /// Adds a trial that failed outside a sweep (a Table V primitive) to
    /// the tally's quarantine list.
    pub(crate) fn quarantine(&self, q: QuarantinedTrial) {
        self.tally().quarantined.push(q);
    }

    /// The tally as the run report's `trials` section.
    pub fn trials_to_json(&self) -> Value {
        self.tally().to_json()
    }

    fn tally(&self) -> MutexGuard<'_, Tally> {
        self.tally.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// No-op. Sweep options and trial tallies travel in a `RunContext`; this,
/// `options` and `reset_events` stay only because the benchmark under
/// `perfbench/` still calls them, and go with the next benchmark change.
#[doc(hidden)]
pub fn set_options(_: Option<SweepOptions>) {}

/// No-op that always returns `None`; see `set_options`.
#[doc(hidden)]
pub fn options() -> Option<SweepOptions> {
    None
}

/// No-op; see `set_options`.
#[doc(hidden)]
pub fn reset_events() {}

/// Trial counts of a context's sweeps, for the run report's `trials`
/// section. Each sweep adds its [`SweepOutcome`] once, so the tally stays
/// a few counters plus the quarantine list however many trials run.
#[derive(Debug, Default)]
struct Tally {
    completed: usize,
    restored: usize,
    cancelled: usize,
    early_stopped: usize,
    quarantined: Vec<QuarantinedTrial>,
}

impl Tally {
    fn add(&mut self, out: &SweepOutcome) {
        self.completed += out.completed;
        self.restored += out.restored;
        self.cancelled += out.cancelled;
        self.early_stopped += out.early_stopped;
        self.quarantined.extend(out.quarantined.iter().cloned());
    }

    /// Stable schema: `completed`, `restored`, `cancelled`,
    /// `early_stopped`, and `quarantined` with `id`/`class`/`message`/
    /// `attempts` each.
    fn to_json(&self) -> Value {
        Value::object()
            .field("completed", self.completed)
            .field("restored", self.restored)
            .field("cancelled", self.cancelled)
            .field("early_stopped", self.early_stopped)
            .field(
                "quarantined",
                self.quarantined.iter().map(QuarantinedTrial::to_json).collect::<Vec<_>>(),
            )
            .build()
    }
}

/// A trial dropped from the pooled results after exhausting its retries.
#[derive(Clone, Debug)]
pub struct QuarantinedTrial {
    /// Stable trial id.
    pub id: String,
    /// How the final attempt failed.
    pub class: FailureClass,
    /// Error or panic message from the final attempt.
    pub message: String,
    /// Attempts made.
    pub attempts: u32,
}

impl QuarantinedTrial {
    /// `id`, `class`, `message` and `attempts`, as run reports and serve
    /// verdicts list the trial. Journal lines keep their own field order
    /// (`quarantined_line`).
    pub(crate) fn to_json(&self) -> Value {
        Value::object()
            .field("id", self.id.as_str())
            .field("class", self.class.name())
            .field("message", self.message.as_str())
            .field("attempts", self.attempts)
            .build()
    }
}

/// Result of [`run_modexp_sweep`].
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// Pooled iterations from completed and restored trials, in key order.
    pub iterations: Vec<IterationTrace>,
    /// Trials run to completion this invocation.
    pub completed: usize,
    /// Trials restored from the resume journal.
    pub restored: usize,
    /// Trials skipped by cancellation or the sweep deadline (they remain
    /// unjournaled, so a resume re-runs exactly these).
    pub cancelled: usize,
    /// Trials skipped because the confidence sequence closed first
    /// (sequential sweeps only).
    pub early_stopped: usize,
    /// Trials dropped after exhausting their retries.
    pub quarantined: Vec<QuarantinedTrial>,
    /// Stopping trace for sequential sweeps (`None` for fixed-budget).
    pub stop: Option<StopTrace>,
}

/// One completed journal line (compact JSON, no trailing newline), written
/// straight into one `String`. It is byte for byte the compact rendering
/// of the record as a [`Value`] object (`schema`, `id`, `status`,
/// `iterations`; per iteration `label`, `start_cycle`, `end_cycle`,
/// `dropped_cycles`, `pipeline`, `units`; per unit `hash`,
/// `hash_timeless`, `cycle_rows`, and `order` where it is `Some`), which
/// the tests keep as the reference: integers go through
/// [`json::write_u64`], as `Value` renders them, and `pipeline` is
/// [`PipelineStats::to_json`]'s object, `ipc` in `{:?}` as `Value::Float`.
fn completed_line(id: &str, iterations: &[IterationTrace]) -> String {
    use std::fmt::Write as _;
    // About what a featureless iteration of 16 units takes.
    let mut out = String::with_capacity(96 + id.len() + iterations.len() * 1800);
    out.push_str("{\"schema\":\"");
    out.push_str(TRIAL_SCHEMA);
    out.push_str("\",\"id\":");
    json::write_str(&mut out, id);
    out.push_str(",\"status\":\"completed\",\"iterations\":[");
    for (i, it) in iterations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let fields = [
            ("{\"label\":", it.label),
            (",\"start_cycle\":", it.start_cycle),
            (",\"end_cycle\":", it.end_cycle),
            (",\"dropped_cycles\":", it.dropped_cycles),
        ];
        for (key, v) in fields {
            out.push_str(key);
            json::write_u64(&mut out, v);
        }
        let mut open = ",\"pipeline\":{";
        for (name, v) in PipelineStats::FIELD_NAMES.iter().zip(it.pipeline.to_array()) {
            out.push_str(open);
            out.push('"');
            out.push_str(name);
            out.push_str("\":");
            json::write_u64(&mut out, v);
            open = ",";
        }
        // A ratio of counters, so always finite.
        let _ = write!(out, ",\"ipc\":{:?}}},\"units\":[", it.pipeline.ipc());
        for (j, u) in it.units.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str("{\"hash\":");
            json::write_u64(&mut out, u.hash);
            out.push_str(",\"hash_timeless\":");
            json::write_u64(&mut out, u.hash_timeless);
            out.push_str(",\"cycle_rows\":");
            json::write_u64(&mut out, u.cycle_rows);
            if let Some(order) = &u.order {
                out.push_str(",\"order\":[");
                for (k, &v) in order.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    json::write_u64(&mut out, v);
                }
                out.push(']');
            }
            out.push('}');
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// One quarantined journal line (compact JSON, no trailing newline).
fn quarantined_line(q: &QuarantinedTrial) -> String {
    Value::object()
        .field("schema", TRIAL_SCHEMA)
        .field("id", q.id.as_str())
        .field("status", "quarantined")
        .field("class", q.class.name())
        .field("message", q.message.as_str())
        .field("attempts", q.attempts)
        .build()
        .render_compact()
}

/// The snapshot-hash format: the `(hash, hash_timeless)` a fresh
/// [`Tracer`] folds a fixed probe matrix into. The probe has repeated and
/// distinct rows, so any change to how rows are folded changes it.
fn snapshot_fold_identity() -> (u64, u64) {
    let mut t = Tracer::new(TraceConfig::default());
    t.scr_start(0);
    t.iter_start(0, 0);
    let probe: [&[u64]; 6] = [&[1, 2], &[1, 2], &[3, 0, 5], &[3, 0, 5], &[3, 0, 5], &[1, 2]];
    for (cycle, row) in (1..).zip(probe) {
        t.begin_cycle(cycle);
        t.record_row(UnitId::SqAddr, row);
    }
    t.iter_end(7);
    let u = t.iterations[0].unit(UnitId::SqAddr);
    (u.hash, u.hash_timeless)
}

/// Content hash of the sweep knobs that change what a journaled trial's
/// *data means*: the [`FaultConfig`] rates and fault seed, which perturb
/// the recorded traces themselves, and the snapshot-hash format, which
/// decides what a recorded hash value stands for. Trial ids already pin
/// the variant, core config, key width, key seed, and key index, and
/// knobs that only decide whether a trial finishes (`wedge_trial`,
/// `max_cycles`) leave completed records bit-identical — so raising
/// `--keys`, changing thread counts, or lifting a wedge keeps the hash
/// stable, while resuming a journal recorded under different fault noise
/// or by a build that folds snapshots differently is rejected rather than
/// silently pooling incomparable trials (two folds give identical
/// snapshots different hashes, which would split one category in two).
///
/// [`SweepOptions::features`] is left out too: it changes no hash, and a
/// trial journaled without a feature the resuming sweep collects is
/// re-run trial by trial rather than refused wholesale, so one journal
/// serves every experiment of a `repro` run whatever each one reads.
pub fn options_config_hash(opts: &SweepOptions) -> String {
    let f = opts.faults.unwrap_or_default();
    let (fold_hash, fold_hash_timeless) = snapshot_fold_identity();
    let canonical = Value::object()
        .field("snapshot_fold", fold_hash)
        .field("snapshot_fold_timeless", fold_hash_timeless)
        .field("fault_seed", f.seed)
        .field("squash_per_64k", f.squash_per_64k as u64)
        .field("evict_per_64k", f.evict_per_64k as u64)
        .field("mshr_stall_per_64k", f.mshr_stall_per_64k as u64)
        .field("drop_row_per_64k", f.drop_row_per_64k as u64)
        .field("bitflip_per_64k", f.bitflip_per_64k as u64)
        .build()
        .render_compact();
    let k0 = 0x4d69_6372_6f53_616d; // "MicroSam", matching the serve job key
    let k1 = 0x6a6f_7572_6e61_6c21; // "journal!"
    format!("{:016x}", microsampler_stats::siphash24(k0, k1, canonical.as_bytes()))
}

/// One journal-header line (compact JSON, no trailing newline). Written
/// as the first line of a fresh journal; resumes compare its config hash
/// against the resuming sweep's.
fn header_line(config_hash: &str) -> String {
    Value::object()
        .field("schema", HEADER_SCHEMA)
        .field("config_hash", config_hash)
        .build()
        .render_compact()
}

/// The first occurrence of a key in an object, as [`Value::get`] finds
/// it: `None` until the key is seen, then `Some(None)` when its value had
/// the wrong type.
type First<T> = Option<Option<T>>;

/// Reads a key's value into `slot` with `read` if this is the key's first
/// occurrence, and skips it otherwise: the first of repeated keys wins.
fn first<'a, T>(
    slot: &mut First<T>,
    r: &mut Reader<'a>,
    read: impl FnOnce(&mut Reader<'a>) -> Result<Option<T>, ParseError>,
) -> Result<(), ParseError> {
    match slot {
        Some(_) => r.skip_value(),
        None => {
            *slot = Some(read(r)?);
            Ok(())
        }
    }
}

/// Walks an object, calling `field` to read or skip each key's value. A
/// value of another type is skipped: like an object without fields, it
/// has no key [`Value::get`] can find.
fn decode_object<'a>(
    r: &mut Reader<'a>,
    mut field: impl FnMut(&str, &mut Reader<'a>) -> Result<(), ParseError>,
) -> Result<(), ParseError> {
    if r.peek() != Some(b'{') {
        return r.skip_value();
    }
    r.begin_object()?;
    while let Some(key) = r.next_key()? {
        field(&key, r)?;
    }
    Ok(())
}

fn need_u64(v: First<u64>, key: &str) -> Result<u64, String> {
    v.flatten().ok_or_else(|| format!("missing or non-integer `{key}`"))
}

/// Decodes an array with `item`, or skips a value of another type
/// (`None`). Like decoding a parsed array in order, the first item that
/// fails to decode is the array's error; the items after it are only
/// checked and skipped.
fn decode_array<'a, T>(
    r: &mut Reader<'a>,
    capacity: usize,
    mut item: impl FnMut(&mut Reader<'a>) -> Result<Result<T, String>, ParseError>,
) -> Result<Option<Result<Vec<T>, String>>, ParseError> {
    if r.peek() != Some(b'[') {
        return r.skip_value().map(|()| None);
    }
    r.begin_array()?;
    let mut items = Vec::with_capacity(capacity);
    let mut failed = None;
    while r.next_element()? {
        if failed.is_some() {
            r.skip_value()?;
            continue;
        }
        match item(r)? {
            Ok(x) => items.push(x),
            Err(e) => failed = Some(e),
        }
    }
    Ok(Some(failed.map_or(Ok(items), Err)))
}

/// A unit's fields as read; [`UnitFields::build`] applies the rules.
#[derive(Default)]
struct UnitFields {
    hash: First<u64>,
    hash_timeless: First<u64>,
    cycle_rows: First<u64>,
    order: First<Result<Vec<u64>, String>>,
}

impl UnitFields {
    /// A missing `order` is a unit whose features were not collected; an
    /// `order` that is not an array is an error.
    fn build(self) -> Result<UnitTrace, String> {
        let order = match self.order {
            None => None,
            Some(order) => Some(order.ok_or("non-array `order`")??),
        };
        Ok(UnitTrace {
            hash: need_u64(self.hash, "hash")?,
            hash_timeless: need_u64(self.hash_timeless, "hash_timeless")?,
            order,
            rows: None,
            cycle_rows: need_u64(self.cycle_rows, "cycle_rows")?,
        })
    }
}

fn decode_unit(r: &mut Reader<'_>) -> Result<Result<UnitTrace, String>, ParseError> {
    let mut f = UnitFields::default();
    decode_object(r, |key, r| match key {
        "hash" => first(&mut f.hash, r, Reader::read_u64),
        "hash_timeless" => first(&mut f.hash_timeless, r, Reader::read_u64),
        "cycle_rows" => first(&mut f.cycle_rows, r, Reader::read_u64),
        "order" => first(&mut f.order, r, |r| {
            decode_array(r, 0, |r| {
                Ok(r.read_u64()?.ok_or_else(|| "non-integer feature in `order`".to_string()))
            })
        }),
        _ => r.skip_value(),
    })?;
    Ok(f.build())
}

/// Pipeline counters as [`PipelineStats::from_json`] reads them: a
/// counter that is missing or not a non-negative integer reads as 0, and
/// so does every counter of a value that is not an object. Each key is
/// first tried as the counter written after the previous key's, the order
/// [`completed_line`] writes them in, before the names are searched.
fn decode_pipeline(r: &mut Reader<'_>) -> Result<Option<PipelineStats>, ParseError> {
    const NAMES: [&str; PipelineStats::FIELDS] = PipelineStats::FIELD_NAMES;
    let mut counters: [First<u64>; PipelineStats::FIELDS] = [None; PipelineStats::FIELDS];
    let mut next = 0;
    decode_object(r, |key, r| {
        let at = match NAMES.get(next) {
            Some(&name) if name == key => Some(next),
            _ => NAMES.iter().position(|&n| n == key),
        };
        match at {
            Some(i) => {
                next = i + 1;
                first(&mut counters[i], r, Reader::read_u64)
            }
            None => r.skip_value(),
        }
    })?;
    Ok(Some(PipelineStats::from_array(counters.map(|c| c.flatten().unwrap_or(0)))))
}

/// An iteration's fields as read; [`IterationFields::build`] applies the
/// rules.
#[derive(Default)]
struct IterationFields {
    label: First<u64>,
    start_cycle: First<u64>,
    end_cycle: First<u64>,
    dropped_cycles: First<u64>,
    pipeline: First<PipelineStats>,
    units: First<Result<Vec<UnitTrace>, String>>,
}

impl IterationFields {
    fn build(self) -> Result<IterationTrace, String> {
        let units = self.units.flatten().ok_or("iteration lacks `units`")??;
        Ok(IterationTrace {
            label: need_u64(self.label, "label")?,
            start_cycle: need_u64(self.start_cycle, "start_cycle")?,
            end_cycle: need_u64(self.end_cycle, "end_cycle")?,
            dropped_cycles: need_u64(self.dropped_cycles, "dropped_cycles")?,
            // Journals written before the profiler existed lack this field;
            // restore them with zeroed counters.
            pipeline: self.pipeline.flatten().unwrap_or_default(),
            units,
        })
    }
}

fn decode_iteration(r: &mut Reader<'_>) -> Result<Result<IterationTrace, String>, ParseError> {
    let mut f = IterationFields::default();
    decode_object(r, |key, r| match key {
        "label" => first(&mut f.label, r, Reader::read_u64),
        "start_cycle" => first(&mut f.start_cycle, r, Reader::read_u64),
        "end_cycle" => first(&mut f.end_cycle, r, Reader::read_u64),
        "dropped_cycles" => first(&mut f.dropped_cycles, r, Reader::read_u64),
        "pipeline" => first(&mut f.pipeline, r, decode_pipeline),
        "units" => first(&mut f.units, r, |r| decode_array(r, UnitId::ALL.len(), decode_unit)),
        _ => r.skip_value(),
    })?;
    Ok(f.build())
}

/// A journal line's fields as read; [`LineFields::apply`] applies the
/// rules.
#[derive(Default)]
struct LineFields<'a> {
    schema: First<Cow<'a, str>>,
    id: First<Cow<'a, str>>,
    status: First<Cow<'a, str>>,
    config_hash: First<Cow<'a, str>>,
    iterations: First<Result<Vec<IterationTrace>, String>>,
}

impl LineFields<'_> {
    /// Reads one line in a single pass. Only JSON syntax errors fail here;
    /// what the fields mean is checked by [`LineFields::apply`], because a
    /// line's `schema` may come after the fields it governs. The
    /// `iterations` of a trial whose `id`, read before them, does not start
    /// with `id_prefix` are skipped, not decoded.
    fn decode<'a>(line: &'a str, id_prefix: &str) -> Result<LineFields<'a>, ParseError> {
        let mut f = LineFields::default();
        let mut r = Reader::new(line);
        decode_object(&mut r, |key, r| match key {
            "schema" => first(&mut f.schema, r, Reader::read_str),
            "id" => first(&mut f.id, r, Reader::read_str),
            "status" => first(&mut f.status, r, Reader::read_str),
            "config_hash" => first(&mut f.config_hash, r, Reader::read_str),
            "iterations" => match &f.id {
                // Another sweep's trial: its syntax is checked, no more.
                Some(Some(id)) if !id.starts_with(id_prefix) => r.skip_value(),
                _ => first(&mut f.iterations, r, |r| decode_array(r, 0, decode_iteration)),
            },
            _ => r.skip_value(),
        })?;
        r.finish()?;
        Ok(f)
    }

    /// Applies the line to `state`. A completed trial whose id does not
    /// start with `id_prefix` is counted but not restored.
    fn apply(self, id_prefix: &str, state: &mut JournalState) -> Result<(), String> {
        match self.schema.flatten().as_deref() {
            // Progress heartbeats interleave with trial lines, and stopping
            // traces are statistical receipts for report consumers; neither
            // carries restorable trial state.
            Some(HEARTBEAT_SCHEMA | STOP_SCHEMA) => return Ok(()),
            Some(HEADER_SCHEMA) => {
                let hash = self.config_hash.flatten().ok_or("header missing `config_hash`")?;
                *state = JournalState {
                    config_hash: Some(hash.into_owned()),
                    ..JournalState::default()
                };
                return Ok(());
            }
            Some(TRIAL_SCHEMA) => {}
            _ => return Err(format!("expected schema {TRIAL_SCHEMA}")),
        }
        let id = self.id.flatten().ok_or("missing `id`")?.into_owned();
        state.trial_lines += 1;
        match self.status.flatten().as_deref() {
            Some("completed") if !id.starts_with(id_prefix) => {}
            Some("completed") => {
                let iterations = self.iterations.flatten().ok_or("missing `iterations`")??;
                // Later lines win: a re-run trial supersedes its older
                // journal entry.
                state.completed.insert(id, iterations);
            }
            Some("quarantined") => {}
            _ => return Err("missing or unknown `status`".to_string()),
        }
        Ok(())
    }
}

/// Parsed journal contents: completed trials by id. Quarantined lines are
/// validated but not restored — a resumed run retries them.
///
/// A header line starts a new segment: the trials after it were recorded
/// under its config hash, and the trials before it are dropped (a sweep
/// that refuses to resume a journal appends a header of its own before
/// its trials).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JournalState {
    /// Completed trials of the last segment: id → iteration snapshots.
    pub completed: BTreeMap<String, Vec<IterationTrace>>,
    /// Config hash from the last journal header, `None` for a journal
    /// without one.
    pub config_hash: Option<String>,
    /// Trial lines (completed or quarantined) in the last segment.
    pub trial_lines: usize,
}

impl JournalState {
    /// Why this journal's trials must not be pooled with a sweep whose
    /// [`options_config_hash`] is `want`, or `None` when they may be: its
    /// header names another hash, or it has trial lines but no header (a
    /// journal from before headers existed, whose fault config and
    /// snapshot-hash format are unknown).
    pub fn mismatch(&self, want: &str) -> Option<String> {
        match &self.config_hash {
            Some(have) if have != want => Some(format!(
                "it was written under a different FaultConfig, fault seed or snapshot-hash \
                 format (journal config {have}, current {want})"
            )),
            None if self.trial_lines > 0 => Some(format!(
                "it has {} trial lines but no config header, so the FaultConfig and \
                 snapshot-hash format they were recorded under are unknown",
                self.trial_lines
            )),
            _ => None,
        }
    }
}

/// Loads a trial journal written by a previous sweep.
///
/// A crash (or `kill -9`) mid-append can tear the final line: the file
/// then ends with a partial record and no trailing newline. Such a torn
/// tail is skipped with a diagnostic — the trial it belonged to simply
/// re-runs on resume — while malformed *complete* lines (newline-
/// terminated) remain hard errors, since they indicate corruption rather
/// than an interrupted append.
///
/// # Errors
///
/// Returns a message naming the offending line for unreadable files,
/// invalid JSON, schema mismatches, and malformed trial records.
pub fn load_journal(path: &Path) -> Result<JournalState, String> {
    load_sweep_journal(path, "")
}

/// [`load_journal`] for one sweep, whose trial ids start with
/// `id_prefix`: the other sweeps' trial lines are counted and checked for
/// JSON syntax, but their iterations are skipped and not restored.
fn load_sweep_journal(path: &Path, id_prefix: &str) -> Result<JournalState, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read journal {}: {e}", path.display()))?;
    decode_journal(&text, path, |line, state| parse_sweep_line(line, id_prefix, state))
}

/// Applies every line of the journal text read from `path` with
/// `parse_line`, under [`load_journal`]'s torn-tail rule, in one pass over
/// the text: a line is the last one when nothing follows it.
fn decode_journal(
    text: &str,
    path: &Path,
    parse_line: impl Fn(&str, &mut JournalState) -> Result<(), String>,
) -> Result<JournalState, String> {
    let mut state = JournalState::default();
    let mut rest = text;
    let mut number = 0;
    while !rest.is_empty() {
        number += 1;
        let (line, last) = match rest.split_once('\n') {
            Some((line, tail)) => {
                rest = tail;
                (line, false)
            }
            None => (std::mem::take(&mut rest), true),
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match parse_line(line, &mut state) {
            Ok(()) => {}
            // No newline after it: a torn final record.
            Err(msg) if last => {
                diag_warn!(
                    "journal {} line {number}: skipping torn trailing record \
                     (crash mid-append?): {msg}",
                    path.display()
                );
            }
            Err(msg) => return Err(format!("journal {} line {number}: {msg}", path.display())),
        }
    }
    Ok(state)
}

/// Decodes one journal line and applies it to `state`.
fn parse_journal_line(line: &str, state: &mut JournalState) -> Result<(), String> {
    parse_sweep_line(line, "", state)
}

/// [`parse_journal_line`] for the sweep whose trial ids start with
/// `id_prefix` (see [`load_sweep_journal`]).
fn parse_sweep_line(line: &str, id_prefix: &str, state: &mut JournalState) -> Result<(), String> {
    LineFields::decode(line, id_prefix).map_err(|e| e.to_string())?.apply(id_prefix, state)
}

/// Repairs a journal's final line before the file is reopened for append.
///
/// A crash, `kill -9`, or per-job timeout mid-append leaves the file
/// without a trailing newline. Appending straight after that would glue
/// the next record onto the remnant, corrupting *both* lines; instead, a
/// complete-but-unterminated final record gets its newline back, and a
/// truncated one is dropped with a warning — the same torn-tail rule
/// [`load_journal`] applies on read, here made durable so the append
/// path stays line-oriented. Only a journal whose last byte is not a
/// newline is read.
fn compact_torn_tail(path: &Path) {
    let mut last = [0u8; 1];
    let terminated = File::open(path).and_then(|mut f| {
        if f.metadata()?.len() == 0 {
            return Ok(true);
        }
        f.seek(SeekFrom::End(-1))?;
        f.read_exact(&mut last)?;
        Ok(last[0] == b'\n')
    });
    if terminated.unwrap_or(true) {
        return;
    }
    let Ok(text) = std::fs::read_to_string(path) else { return };
    let tail_start = text.rfind('\n').map_or(0, |i| i + 1);
    let tail = text[tail_start..].trim();
    let mut scratch = JournalState::default();
    if !tail.is_empty() && parse_journal_line(tail, &mut scratch).is_ok() {
        // The record is whole; only its newline was lost.
        let done = File::options().append(true).open(path).and_then(|mut f| f.write_all(b"\n"));
        if let Err(e) = done {
            diag_warn!("journal {}: cannot terminate final record: {e}", path.display());
        }
        return;
    }
    diag_warn!(
        "journal {}: dropping torn trailing record ({} bytes) left by an interrupted append",
        path.display(),
        text.len() - tail_start
    );
    let done = File::options().write(true).open(path).and_then(|f| f.set_len(tail_start as u64));
    if let Err(e) = done {
        diag_warn!("journal {}: cannot drop torn record: {e}", path.display());
    }
}

/// Deterministic pooled-budget allocator for the sequential audit
/// (`repro audit`): hands each still-undecided item doubling trial
/// chunks out of a shared pool, so budget freed by early-stopped items
/// reflows to the borderline ones.
///
/// Grants depend only on `(n_items, per_item)` and the sequence of
/// [`retire`](AdaptiveAllocator::retire) calls between rounds — never on
/// timing or thread count — so re-runs reproduce the same allocation. A
/// run in which nothing retires grants every item exactly `per_item`
/// trials (chunks of `per_item/8, per_item/8, per_item/4, per_item/2`),
/// making the fixed-budget audit a special case of the adaptive one.
pub struct AdaptiveAllocator {
    chunk0: usize,
    pool: usize,
    spent: Vec<usize>,
    alive: Vec<bool>,
}

impl AdaptiveAllocator {
    /// A pool of `n_items * per_item` trials over `n_items` items.
    pub fn new(n_items: usize, per_item: usize) -> AdaptiveAllocator {
        AdaptiveAllocator {
            chunk0: (per_item / 8).max(1),
            pool: n_items * per_item,
            spent: vec![0; n_items],
            alive: vec![true; n_items],
        }
    }

    /// Grants for one round, in item order: an item's next chunk doubles
    /// its spend (`max(spent, chunk0)`), clamped to its fair share of
    /// the remaining pool. Retired items (and an exhausted pool) grant 0.
    pub fn round(&mut self) -> Vec<usize> {
        let alive_count = self.alive.iter().filter(|a| **a).count();
        let mut grants = vec![0; self.spent.len()];
        if alive_count == 0 {
            return grants;
        }
        let share = self.pool / alive_count;
        for (i, spent) in self.spent.iter_mut().enumerate() {
            if !self.alive[i] {
                continue;
            }
            let grant = (*spent).max(self.chunk0).min(share).min(self.pool);
            self.pool -= grant;
            *spent += grant;
            grants[i] = grant;
        }
        grants
    }

    /// Stops granting to item `i`; its unused share stays in the pool.
    pub fn retire(&mut self, i: usize) {
        self.alive[i] = false;
    }

    /// Trials granted to item `i` so far.
    pub fn spent(&self, i: usize) -> usize {
        self.spent[i]
    }

    /// Trials left in the shared pool.
    pub fn remaining(&self) -> usize {
        self.pool
    }
}

/// Appends `line` and its newline to the journal in one write.
fn append_line(journal: &Mutex<File>, mut line: String) {
    line.push('\n');
    let mut file = journal.lock().unwrap_or_else(|p| p.into_inner());
    if let Err(e) = file.write_all(line.as_bytes()) {
        diag_warn!("trial journal write failed: {e}");
    }
}

/// One heartbeat journal line (compact JSON, no trailing newline).
fn heartbeat_line(
    task: &str,
    completed: usize,
    total: usize,
    elapsed_sec: f64,
    trials_per_sec: f64,
    eta_sec: f64,
) -> String {
    Value::object()
        .field("schema", HEARTBEAT_SCHEMA)
        .field("task", task)
        .field("completed", completed)
        .field("total", total)
        .field("elapsed_sec", elapsed_sec)
        .field("trials_per_sec", trials_per_sec)
        .field("eta_sec", if eta_sec.is_finite() { Value::from(eta_sec) } else { Value::Null })
        .build()
        .render_compact()
}

/// Live sweep progress: counts finished trials — completed **and**
/// quarantined — and emits a throttled heartbeat (stderr line via
/// [`diag::progress_rate`], JSONL event via the trial journal).
///
/// The sweep ticks once per trial outcome, after
/// [`microsampler_par::run_isolated`] has settled every retry, so the
/// count ends at exactly `total`. The final tick always emits, so
/// consumers can assert the heartbeat reaches `total/total` even when
/// every emission in between was throttled away; ticks emit under one
/// lock, so the journal's heartbeat counts never go down.
struct Heartbeat<'a> {
    task: &'a str,
    total: usize,
    journal: Option<&'a Mutex<File>>,
    start: Instant,
    /// Trials finished so far, and when the last heartbeat was emitted.
    progress: Mutex<(usize, Option<Instant>)>,
}

impl<'a> Heartbeat<'a> {
    fn new(task: &'a str, total: usize, journal: Option<&'a Mutex<File>>) -> Heartbeat<'a> {
        Heartbeat { task, total, journal, start: Instant::now(), progress: Mutex::new((0, None)) }
    }

    /// Marks one trial finished and emits a heartbeat if one is due
    /// (first tick, ~1 s since the last emission, or sweep complete).
    fn tick(&self) {
        let mut progress = self.progress.lock().unwrap_or_else(|p| p.into_inner());
        let (finished, last) = &mut *progress;
        *finished += 1;
        let due =
            *finished >= self.total || last.is_none_or(|t| t.elapsed() >= Duration::from_secs(1));
        if !due {
            return;
        }
        *last = Some(Instant::now());
        let elapsed = self.start.elapsed().as_secs_f64();
        let rate = if elapsed > 0.0 { *finished as f64 / elapsed } else { 0.0 };
        let eta = if rate > 0.0 { (self.total - *finished) as f64 / rate } else { f64::INFINITY };
        diag::progress_rate(self.task, *finished, self.total, rate, eta);
        if let Some(j) = self.journal {
            append_line(j, heartbeat_line(self.task, *finished, self.total, elapsed, rate, eta));
        }
    }
}

/// Opens `path` for append, first repairing a torn tail, and writes a
/// header when the file is empty or `new_segment` is set.
fn open_journal(path: &Path, config_hash: &str, new_segment: bool) -> Option<Mutex<File>> {
    compact_torn_tail(path);
    match File::options().create(true).append(true).open(path) {
        Ok(f) => {
            let empty = f.metadata().map(|m| m.len() == 0).unwrap_or(false);
            let file = Mutex::new(f);
            if empty || new_segment {
                append_line(&file, header_line(config_hash));
            }
            Some(file)
        }
        Err(e) => {
            diag_warn!("cannot open trial journal {}: {e}", path.display());
            None
        }
    }
}

/// A journaled trial's iterations as a sweep collecting `features` traces
/// them: every other unit's features dropped, or `None` when an iteration
/// lacks a unit or a unit in the set has no features to restore, so the
/// trial re-runs.
fn with_features(
    mut iterations: Vec<IterationTrace>,
    features: UnitSet,
) -> Option<Vec<IterationTrace>> {
    for it in &mut iterations {
        if it.units.len() != UnitId::COUNT {
            return None;
        }
        for (unit, u) in UnitId::ALL.into_iter().zip(&mut it.units) {
            if !features.contains(unit) {
                u.order = None;
            } else if u.order.is_none() {
                return None;
            }
        }
    }
    Some(iterations)
}

/// Runs a modexp variant over `n_keys` random keys with per-trial fault
/// isolation, journaling, and resume, per `opts`. The caller tallies the
/// outcome.
///
/// Trial ids are stable across invocations (variant, core config,
/// key-bytes, seed, key index), so a journal written at one thread count
/// resumes correctly at any other. Pooled iterations are concatenated in
/// key order regardless of which trials were restored, so the analysis is
/// bit-identical to an uninterrupted sweep over the same surviving
/// trials.
pub fn run_modexp_sweep(
    variant: ModexpVariant,
    config: &CoreConfig,
    n_keys: usize,
    key_bytes: usize,
    seed: u64,
    opts: &SweepOptions,
) -> SweepOutcome {
    let kernel = ModexpKernel::new(variant, key_bytes);
    // Assembled once for all keys; an assembly error fails every trial
    // that runs.
    let program = kernel.program().map_err(ModexpError::from);
    let keys = random_keys(n_keys, key_bytes, seed);
    let fb = if config.fast_bypass { "+fb" } else { "" };
    let sweep_id = format!("{}/{}{fb}/kb{key_bytes}/s{seed}", variant.name(), config.name);
    let trial_id = |i: usize| -> String { format!("{sweep_id}/key{i:04}") };

    let mut restored: BTreeMap<usize, Vec<IterationTrace>> = BTreeMap::new();
    let journal: Option<Mutex<File>> = opts.journal.as_ref().and_then(|path| {
        let config_hash = options_config_hash(opts);
        // A refused journal gets a fresh header before this sweep's
        // trials, so the next resume pools only what this configuration
        // recorded.
        let mut new_segment = false;
        if opts.resume {
            // Only this sweep's trials are decoded (`trial_id`'s prefix).
            match load_sweep_journal(path, &format!("{sweep_id}/")) {
                Ok(mut state) => match state.mismatch(&config_hash) {
                    Some(why) => {
                        diag_warn!("resume ignored: journal {}: {why}", path.display());
                        new_segment = true;
                    }
                    None => {
                        for i in 0..n_keys {
                            let journaled = state.completed.remove(&trial_id(i));
                            if let Some(iters) =
                                journaled.and_then(|iters| with_features(iters, opts.features))
                            {
                                restored.insert(i, iters);
                            }
                        }
                    }
                },
                Err(e) => diag_warn!("resume ignored: {e}"),
            }
        }
        open_journal(path, &config_hash, new_segment)
    });

    let heartbeat = Heartbeat::new(variant.name(), n_keys - restored.len(), journal.as_ref());
    let ctl = RunControl { cancel: opts.cancel.clone(), deadline: opts.deadline };
    let run_trial = |i: usize, attempt: u32| -> Result<Vec<IterationTrace>, String> {
        let wedge = opts.wedge_trial == Some(i);
        // Re-seed per trial *and* per attempt: a retry explores a fresh
        // fault schedule, while `--threads N` determinism holds because
        // the schedule depends only on (seed, trial, attempt).
        let faults = match opts.faults {
            Some(fc) => {
                let mut fc = fc.for_trial(i as u64, attempt);
                fc.wedge = fc.wedge || wedge;
                Some(fc)
            }
            None if wedge => Some(FaultConfig { wedge: true, ..FaultConfig::default() }),
            None => None,
        };
        let mut cfg = config.clone();
        cfg.faults = faults;
        let trace = TraceConfig { faults, features: opts.features, ..TraceConfig::default() };
        let key = &keys[i];
        let program = program.as_ref().map_err(|e| format!("{}: {e}", variant.name()))?;
        let mut machine = kernel.machine_from(program, cfg, key, trace);
        let budget = opts.max_cycles.unwrap_or_else(|| modexp::cycle_budget(key_bytes));
        let run = machine.run(budget).map_err(|e| format!("{}: {e}", variant.name()))?;
        let want = kernel.reference(key);
        if run.exit_code != want {
            return Err(format!(
                "{} functional mismatch: got {}, want {want}",
                variant.name(),
                run.exit_code
            ));
        }
        Ok(run.iterations)
    };
    // Runs `work` (key indices) on the pool and files each outcome under
    // its index. Once a trial's retries are settled it ticks progress,
    // and a completed one is journaled; a cancelled trial does neither.
    let run_keys = |work: &[usize], fresh: &mut BTreeMap<usize, TrialOutcome<_>>| {
        let outcomes = microsampler_par::map(work, |_, &i| {
            let outcome =
                microsampler_par::run_isolated(&opts.policy, &ctl, i, |a| run_trial(i, a));
            match &outcome {
                TrialOutcome::Failed(f) if f.class == FailureClass::Cancelled => return outcome,
                TrialOutcome::Completed(iters) => {
                    if let Some(j) = &journal {
                        append_line(j, completed_line(&trial_id(i), iters));
                    }
                }
                TrialOutcome::Failed(_) => {}
            }
            heartbeat.tick();
            outcome
        });
        fresh.extend(work.iter().copied().zip(outcomes));
    };

    let mut fresh: BTreeMap<usize, TrialOutcome<Vec<IterationTrace>>> = BTreeMap::new();
    let mut stop: Option<StopTrace> = None;
    // First key index NOT covered by this sweep: n_keys unless the
    // confidence sequence closed early.
    let mut stop_bound = n_keys;
    let unrestored = |range: std::ops::Range<usize>| -> Vec<usize> {
        range.filter(|i| !restored.contains_key(i)).collect()
    };
    match opts.sequential {
        None => run_keys(&unrestored(0..n_keys), &mut fresh),
        Some(cfg) => {
            let mut analyzer = SequentialAnalyzer::new(cfg);
            let mut next_key = 0usize;
            let mut interrupted = false;
            // Look after the allocator's doubling chunks of the key budget:
            // an early-stop run and a full-budget run share the same look
            // prefix, which is what makes the verdict-identity guarantee
            // checkable.
            let mut looks = AdaptiveAllocator::new(1, n_keys);
            while looks.round()[0] > 0 {
                let bound = looks.spent(0);
                run_keys(&unrestored(next_key..bound), &mut fresh);
                // Pool this segment in key order — restored and fresh
                // interleave exactly as an uninterrupted sweep would, so
                // the look sequence (and therefore the stopping point) is
                // identical on resume. Quarantined trials are excluded,
                // as in the batch analysis over surviving trials.
                for i in next_key..bound {
                    if let Some(iters) = restored.get(&i) {
                        analyzer.ingest_all(iters);
                    } else {
                        match fresh.get(&i) {
                            Some(TrialOutcome::Completed(iters)) => analyzer.ingest_all(iters),
                            Some(TrialOutcome::Failed(f)) if f.class == FailureClass::Cancelled => {
                                interrupted = true;
                            }
                            _ => {}
                        }
                    }
                }
                next_key = bound;
                if interrupted {
                    // A cancelled/deadline-skipped trial leaves this look
                    // point with partial data; judging it would make the
                    // stopping point depend on where the interruption
                    // landed. Leave the sequence open for the resume.
                    break;
                }
                if analyzer.look(bound as u64).is_decided() {
                    break;
                }
            }
            if next_key >= n_keys && !interrupted {
                analyzer.resolve(n_keys as u64);
            }
            if analyzer.verdict().is_decided() {
                stop_bound = next_key;
            } else if next_key < n_keys {
                // Interrupted mid-sequence: drain the remaining trials
                // through the (latched) cancel gate so they are accounted
                // as cancelled exactly like the fixed-budget path, and
                // the resume re-runs precisely that set.
                run_keys(&unrestored(next_key..n_keys), &mut fresh);
            }
            let trace = analyzer.trace().clone();
            if !trace.looks.is_empty() {
                if let Some(j) = &journal {
                    append_line(j, trace.to_json(&sweep_id).render_compact());
                }
            }
            stop = Some(trace);
        }
    }

    let mut out = SweepOutcome {
        iterations: Vec::new(),
        completed: 0,
        restored: 0,
        cancelled: 0,
        early_stopped: 0,
        quarantined: Vec::new(),
        stop,
    };
    for i in 0..n_keys {
        if i >= stop_bound {
            // Past the stopping point. Restored trials beyond it keep
            // their journal records (a later full-budget resume can still
            // use them) but are not pooled, so an early-stopped resume is
            // bit-identical to an early-stopped fresh run.
            out.early_stopped += 1;
            continue;
        }
        if let Some(iters) = restored.remove(&i) {
            out.restored += 1;
            out.iterations.extend(iters);
            continue;
        }
        match fresh.remove(&i) {
            Some(TrialOutcome::Completed(iters)) => {
                out.completed += 1;
                out.iterations.extend(iters);
            }
            // Cancelled/deadline-skipped trials are neither journaled nor
            // quarantined: a resume re-runs exactly this set.
            Some(TrialOutcome::Failed(f)) if f.class == FailureClass::Cancelled => {
                out.cancelled += 1;
            }
            Some(TrialOutcome::Failed(f)) => {
                let q = QuarantinedTrial {
                    id: trial_id(i),
                    class: f.class,
                    message: f.message,
                    attempts: f.attempts,
                };
                diag_warn!(
                    "quarantined {} after {} attempts ({}): {}",
                    q.id,
                    q.attempts,
                    q.class,
                    q.message
                );
                if let Some(j) = &journal {
                    append_line(j, quarantined_line(&q));
                }
                out.quarantined.push(q);
            }
            None => unreachable!("every non-restored index has an outcome"),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The encoder's reference: the record built as a [`Value`] and
    /// rendered compactly.
    fn reference_completed_line(id: &str, iterations: &[IterationTrace]) -> String {
        let unit_to_json = |u: &UnitTrace| {
            let unit = Value::object()
                .field("hash", u.hash)
                .field("hash_timeless", u.hash_timeless)
                .field("cycle_rows", u.cycle_rows);
            match &u.order {
                Some(order) => unit.field("order", Value::array(order.iter().copied())),
                None => unit,
            }
            .build()
        };
        let iteration_to_json = |it: &IterationTrace| {
            Value::object()
                .field("label", it.label)
                .field("start_cycle", it.start_cycle)
                .field("end_cycle", it.end_cycle)
                .field("dropped_cycles", it.dropped_cycles)
                .field("pipeline", it.pipeline.to_json())
                .field("units", Value::Array(it.units.iter().map(unit_to_json).collect()))
                .build()
        };
        Value::object()
            .field("schema", TRIAL_SCHEMA)
            .field("id", id)
            .field("status", "completed")
            .field("iterations", Value::Array(iterations.iter().map(iteration_to_json).collect()))
            .build()
            .render_compact()
    }

    /// The decoder's reference: the line parsed into a [`Value`] tree and
    /// walked with [`Value::get`].
    fn reference_parse_journal_line(line: &str, state: &mut JournalState) -> Result<(), String> {
        fn need_u64(v: &Value, key: &str) -> Result<u64, String> {
            v.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("missing or non-integer `{key}`"))
        }
        fn unit_from_json(v: &Value) -> Result<UnitTrace, String> {
            let order = match v.get("order") {
                None => None,
                Some(order) => Some(
                    order
                        .as_array()
                        .ok_or("non-array `order`")?
                        .iter()
                        .map(|x| {
                            x.as_u64().ok_or_else(|| "non-integer feature in `order`".to_string())
                        })
                        .collect::<Result<_, _>>()?,
                ),
            };
            Ok(UnitTrace {
                hash: need_u64(v, "hash")?,
                hash_timeless: need_u64(v, "hash_timeless")?,
                order,
                rows: None,
                cycle_rows: need_u64(v, "cycle_rows")?,
            })
        }
        fn iteration_from_json(v: &Value) -> Result<IterationTrace, String> {
            let units = v
                .get("units")
                .and_then(Value::as_array)
                .ok_or("iteration lacks `units`")?
                .iter()
                .map(unit_from_json)
                .collect::<Result<Vec<_>, _>>()?;
            Ok(IterationTrace {
                label: need_u64(v, "label")?,
                start_cycle: need_u64(v, "start_cycle")?,
                end_cycle: need_u64(v, "end_cycle")?,
                dropped_cycles: need_u64(v, "dropped_cycles")?,
                pipeline: v.get("pipeline").map(PipelineStats::from_json).unwrap_or_default(),
                units,
            })
        }
        let v = json::parse(line).map_err(|e| e.to_string())?;
        let schema = v.get("schema").and_then(Value::as_str);
        if schema == Some(HEARTBEAT_SCHEMA) || schema == Some(STOP_SCHEMA) {
            return Ok(());
        }
        if schema == Some(HEADER_SCHEMA) {
            let hash = v
                .get("config_hash")
                .and_then(Value::as_str)
                .ok_or("header missing `config_hash`")?;
            *state = JournalState { config_hash: Some(hash.to_owned()), ..JournalState::default() };
            return Ok(());
        }
        if schema != Some(TRIAL_SCHEMA) {
            return Err(format!("expected schema {TRIAL_SCHEMA}"));
        }
        let id = v.get("id").and_then(Value::as_str).ok_or("missing `id`")?.to_owned();
        state.trial_lines += 1;
        match v.get("status").and_then(Value::as_str) {
            Some("completed") => {
                let iterations = v
                    .get("iterations")
                    .and_then(Value::as_array)
                    .ok_or("missing `iterations`")?
                    .iter()
                    .map(iteration_from_json)
                    .collect::<Result<Vec<_>, _>>()?;
                state.completed.insert(id, iterations);
            }
            Some("quarantined") => {}
            _ => return Err("missing or unknown `status`".to_string()),
        }
        Ok(())
    }

    fn sample_iteration(label: u64) -> IterationTrace {
        let unit = |hash: u64| UnitTrace {
            hash,
            hash_timeless: hash ^ 0xff,
            order: Some(vec![hash, 3]),
            rows: None,
            cycle_rows: 7,
        };
        IterationTrace {
            label,
            start_cycle: 100,
            end_cycle: 140,
            dropped_cycles: 2,
            pipeline: PipelineStats {
                cycles: 40,
                committed: 66,
                rob_full_cycles: 5,
                ..PipelineStats::default()
            },
            units: vec![unit(0xdead_beef_dead_beef), unit(42)],
        }
    }

    #[test]
    fn journal_lines_round_trip() {
        let iters = vec![sample_iteration(0), sample_iteration(1)];
        let path = std::env::temp_dir()
            .join(format!("microsampler-journal-roundtrip-{}.jsonl", std::process::id()));
        let text = format!(
            "{}\n{}\n",
            completed_line("v/mega/kb4/s42/key0000", &iters),
            quarantined_line(&QuarantinedTrial {
                id: "v/mega/kb4/s42/key0001".into(),
                class: FailureClass::SimError,
                message: "deadlock".into(),
                attempts: 2,
            })
        );
        std::fs::write(&path, text).unwrap();
        let state = load_journal(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(state.completed.len(), 1, "quarantined lines are not restored");
        let restored = &state.completed["v/mega/kb4/s42/key0000"];
        assert_eq!(restored, &iters, "order/hashes survive the round trip");
        assert_eq!(restored[0].pipeline, iters[0].pipeline, "profiling counters round-trip");
    }

    #[test]
    fn journal_without_pipeline_field_restores_zeroed_counters() {
        // A pre-profiler journal line: same schema, no `pipeline` object.
        let mut it = sample_iteration(0);
        it.pipeline = PipelineStats::default();
        let line = completed_line("v/mega/kb4/s42/key0000", &[it.clone()]);
        let stripped = {
            let v = json::parse(&line).unwrap();
            // Re-render without the pipeline field via a hand-built line.
            let iters = v.get("iterations").unwrap().as_array().unwrap();
            let legacy: Vec<Value> = iters
                .iter()
                .map(|i| {
                    Value::object()
                        .field("label", i.get("label").unwrap().clone())
                        .field("start_cycle", i.get("start_cycle").unwrap().clone())
                        .field("end_cycle", i.get("end_cycle").unwrap().clone())
                        .field("dropped_cycles", i.get("dropped_cycles").unwrap().clone())
                        .field("units", i.get("units").unwrap().clone())
                        .build()
                })
                .collect();
            Value::object()
                .field("schema", TRIAL_SCHEMA)
                .field("id", "v/mega/kb4/s42/key0000")
                .field("status", "completed")
                .field("iterations", Value::Array(legacy))
                .build()
                .render_compact()
        };
        let path = std::env::temp_dir()
            .join(format!("microsampler-journal-legacy-{}.jsonl", std::process::id()));
        std::fs::write(&path, format!("{stripped}\n")).unwrap();
        let state = load_journal(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let restored = &state.completed["v/mega/kb4/s42/key0000"];
        assert_eq!(restored[0].pipeline, PipelineStats::default());
        assert_eq!(restored[0], it);
    }

    #[test]
    fn load_journal_skips_heartbeat_lines() {
        let iters = vec![sample_iteration(0)];
        let text = format!(
            "{}\n{}\n",
            heartbeat_line("sweep", 3, 8, 1.5, 2.0, 2.5),
            completed_line("v/mega/kb4/s42/key0000", &iters),
        );
        let path = std::env::temp_dir()
            .join(format!("microsampler-journal-heartbeat-{}.jsonl", std::process::id()));
        std::fs::write(&path, text).unwrap();
        let state = load_journal(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(state.completed.len(), 1, "heartbeat lines restore nothing");
        // The heartbeat line itself is well-formed JSON with the documented fields.
        let hb = json::parse(&heartbeat_line("sweep", 8, 8, 4.0, 2.0, 0.0)).unwrap();
        assert_eq!(hb.get("schema").unwrap().as_str(), Some(HEARTBEAT_SCHEMA));
        assert_eq!(hb.get("completed").unwrap().as_u64(), Some(8));
        assert_eq!(hb.get("total").unwrap().as_u64(), Some(8));
        assert!(hb.get("trials_per_sec").unwrap().as_f64().is_some());
        assert!(hb.get("elapsed_sec").unwrap().as_f64().is_some());
    }

    #[test]
    fn load_journal_skips_torn_trailing_line() {
        // Simulate a kill -9 mid-append: a complete record followed by a
        // truncated one with no trailing newline.
        let iters = vec![sample_iteration(0)];
        let full = completed_line("v/mega/kb4/s42/key0000", &iters);
        let second = completed_line("v/mega/kb4/s42/key0001", &iters);
        let torn = &second[..second.len() / 2];
        let path = std::env::temp_dir()
            .join(format!("microsampler-journal-torn-{}.jsonl", std::process::id()));
        std::fs::write(&path, format!("{full}\n{torn}")).unwrap();
        let state = load_journal(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(state.completed.len(), 1, "the torn record is skipped, not fatal");
        assert!(state.completed.contains_key("v/mega/kb4/s42/key0000"));
    }

    #[test]
    fn load_journal_accepts_valid_final_line_without_newline() {
        // A writer that never got to flush the trailing newline but wrote
        // the full record: still restorable.
        let iters = vec![sample_iteration(0)];
        let line = completed_line("v/mega/kb4/s42/key0000", &iters);
        let path = std::env::temp_dir()
            .join(format!("microsampler-journal-nonewline-{}.jsonl", std::process::id()));
        std::fs::write(&path, &line).unwrap();
        let state = load_journal(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(state.completed.len(), 1);
    }

    #[test]
    fn load_journal_still_rejects_torn_line_mid_file() {
        // A truncated record *followed by more lines* is corruption, not
        // an interrupted append — the newline after it proves the writer
        // kept going.
        let iters = vec![sample_iteration(0)];
        let full = completed_line("v/mega/kb4/s42/key0000", &iters);
        let torn = &full[..full.len() / 2];
        let path = std::env::temp_dir()
            .join(format!("microsampler-journal-midtorn-{}.jsonl", std::process::id()));
        std::fs::write(&path, format!("{torn}\n{full}\n")).unwrap();
        let got = load_journal(&path);
        std::fs::remove_file(&path).ok();
        let err = got.expect_err("mid-file truncation is a hard error");
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn cancelled_sweep_skips_unstarted_trials_without_journaling_them() {
        let token = CancelToken::new();
        token.cancel();
        let path = std::env::temp_dir()
            .join(format!("microsampler-journal-cancelled-{}.jsonl", std::process::id()));
        std::fs::write(&path, "").unwrap();
        let opts = SweepOptions {
            cancel: Some(token),
            journal: Some(path.clone()),
            isolate: true,
            ..SweepOptions::default()
        };
        let out = run_modexp_sweep(
            ModexpVariant::V2Safe,
            &microsampler_sim::CoreConfig::mega_boom(),
            3,
            1,
            42,
            &opts,
        );
        let journal_text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(out.cancelled, 3, "pre-cancelled sweep skips every trial");
        assert_eq!(out.completed, 0);
        assert!(out.quarantined.is_empty(), "cancellation is not quarantine");
        assert!(
            !journal_text.contains(TRIAL_SCHEMA),
            "cancelled trials leave no journal records: {journal_text}"
        );
    }

    #[test]
    fn load_journal_rejects_malformed_lines() {
        let dir = std::env::temp_dir();
        let cases = [
            ("not json at all", "bad-json"),
            ("{\"schema\":\"wrong-schema\",\"id\":\"x\",\"status\":\"completed\"}", "bad-schema"),
            ("{\"schema\":\"microsampler-trial-v1\",\"status\":\"completed\"}", "no-id"),
            ("{\"schema\":\"microsampler-trial-v1\",\"id\":\"x\"}", "no-status"),
            (
                "{\"schema\":\"microsampler-trial-v1\",\"id\":\"x\",\"status\":\"completed\"}",
                "no-iterations",
            ),
        ];
        for (line, tag) in cases {
            let path = dir.join(format!("microsampler-journal-{tag}-{}.jsonl", std::process::id()));
            std::fs::write(&path, format!("{line}\n")).unwrap();
            let got = load_journal(&path);
            std::fs::remove_file(&path).ok();
            assert!(got.is_err(), "{tag} must be rejected");
            assert!(got.unwrap_err().contains("line 1"), "{tag} error names the line");
        }
        assert!(load_journal(Path::new("/nonexistent/journal.jsonl")).is_err());
    }

    #[test]
    fn allocator_with_no_stops_grants_exactly_the_fixed_budget() {
        let mut alloc = AdaptiveAllocator::new(27, 96);
        let mut per_round = Vec::new();
        loop {
            let grants = alloc.round();
            if grants.iter().all(|&g| g == 0) {
                break;
            }
            assert!(grants.iter().all(|&g| g == grants[0]), "symmetric items, equal grants");
            per_round.push(grants[0]);
        }
        assert_eq!(per_round, vec![12, 12, 24, 48], "doubling chunks sum to per_item");
        assert_eq!(alloc.remaining(), 0, "the pool is exactly exhausted");
        for i in 0..27 {
            assert_eq!(alloc.spent(i), 96);
        }
    }

    #[test]
    fn allocator_reflows_freed_budget_to_survivors() {
        let mut alloc = AdaptiveAllocator::new(4, 96);
        assert_eq!(alloc.round(), vec![12, 12, 12, 12]);
        // Three items decide after the first chunk; their budget reflows.
        alloc.retire(0);
        alloc.retire(1);
        alloc.retire(2);
        let mut total = alloc.spent(3);
        loop {
            let grants = alloc.round();
            assert_eq!(grants[0] + grants[1] + grants[2], 0, "retired items grant nothing");
            if grants[3] == 0 {
                break;
            }
            total += grants[3];
        }
        assert_eq!(total, alloc.spent(3));
        assert!(
            alloc.spent(3) > 96,
            "the survivor runs past its own budget on reflowed trials: {}",
            alloc.spent(3)
        );
        assert!(alloc.spent(3) + 3 * 12 <= 4 * 96, "reflow never exceeds the pool");
    }

    /// One item's cumulative grants are the `--sequential` sweep's look
    /// points: doubling from `max(budget / 8, 1)` and always ending at the
    /// budget.
    #[test]
    fn look_points_double_and_always_cover_the_budget() {
        let looks = |budget| {
            let mut alloc = AdaptiveAllocator::new(1, budget);
            let mut out = Vec::new();
            while alloc.round()[0] > 0 {
                out.push(alloc.spent(0));
            }
            out
        };
        assert_eq!(looks(96), vec![12, 24, 48, 96]);
        assert_eq!(looks(16), vec![2, 4, 8, 16]);
        assert_eq!(looks(27), vec![3, 6, 12, 24, 27]);
        assert_eq!(looks(8), vec![1, 2, 4, 8]);
        assert_eq!(looks(1), vec![1]);
        assert_eq!(looks(0), Vec::<usize>::new());
    }

    #[test]
    fn config_hash_tracks_fault_noise_only() {
        let base = SweepOptions::default();
        let noisy = SweepOptions {
            faults: Some(FaultConfig { evict_per_64k: 64, ..FaultConfig::default() }),
            ..SweepOptions::default()
        };
        assert_ne!(options_config_hash(&base), options_config_hash(&noisy));
        let reseeded = SweepOptions {
            faults: Some(FaultConfig { seed: 7, ..FaultConfig::default() }),
            ..SweepOptions::default()
        };
        assert_ne!(options_config_hash(&base), options_config_hash(&reseeded));
        // Knobs that only decide *whether* a trial finishes leave
        // completed records bit-identical, so they don't taint resumes.
        let budget =
            SweepOptions { max_cycles: Some(500), wedge_trial: Some(1), ..SweepOptions::default() };
        assert_eq!(options_config_hash(&base), options_config_hash(&budget));
        // An explicit all-zero FaultConfig injects nothing, like None.
        let explicit =
            SweepOptions { faults: Some(FaultConfig::default()), ..SweepOptions::default() };
        assert_eq!(options_config_hash(&base), options_config_hash(&explicit));
    }

    #[test]
    fn journal_header_round_trips_config_hash() {
        let path = std::env::temp_dir()
            .join(format!("microsampler-journal-header-{}.jsonl", std::process::id()));
        std::fs::write(&path, format!("{}\n", header_line("deadbeef01234567"))).unwrap();
        let state = load_journal(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(state.config_hash.as_deref(), Some("deadbeef01234567"));
        assert!(state.completed.is_empty());
    }

    #[test]
    fn journal_header_opens_a_segment_and_mismatch_names_the_cause() {
        let iters = vec![sample_iteration(0)];
        let quarantined = QuarantinedTrial {
            id: "v/mega/kb4/s42/key0002".into(),
            class: FailureClass::SimError,
            message: "deadlock".into(),
            attempts: 2,
        };
        let lines = [
            completed_line("v/mega/kb4/s42/key0000", &iters),
            header_line("00000000000000aa"),
            completed_line("v/mega/kb4/s42/key0001", &iters),
            quarantined_line(&quarantined),
        ];
        let path = std::env::temp_dir()
            .join(format!("microsampler-journal-segments-{}.jsonl", std::process::id()));
        let load = |lines: &[String]| {
            std::fs::write(&path, lines.join("\n") + "\n").unwrap();
            load_journal(&path).unwrap()
        };

        let state = load(&lines);
        assert_eq!(state.config_hash.as_deref(), Some("00000000000000aa"));
        assert_eq!(state.completed.keys().collect::<Vec<_>>(), ["v/mega/kb4/s42/key0001"]);
        assert_eq!(state.trial_lines, 2, "trial lines of the last segment only");
        assert_eq!(state.mismatch("00000000000000aa"), None);
        let other = state.mismatch("00000000000000bb").expect("another hash is refused");
        assert!(other.contains("snapshot-hash format") && other.contains("FaultConfig"), "{other}");

        let headerless = load(&lines[..1]);
        let why = headerless.mismatch("00000000000000aa").expect("headerless trials are refused");
        assert!(why.contains("no config header"), "{why}");
        // A headerless journal without trial lines has nothing to pool.
        let idle = load(&[heartbeat_line("sweep", 0, 2, 0.0, 0.0, 0.0)]);
        std::fs::remove_file(&path).ok();
        assert_eq!(idle.mismatch("00000000000000aa"), None);
    }

    #[test]
    fn load_journal_skips_stop_trace_lines() {
        let iters = vec![sample_iteration(0)];
        let text = format!(
            "{}\n{}\n",
            StopTrace::default().to_json("v/mega/kb4/s42").render_compact(),
            completed_line("v/mega/kb4/s42/key0000", &iters),
        );
        let path = std::env::temp_dir()
            .join(format!("microsampler-journal-stopline-{}.jsonl", std::process::id()));
        std::fs::write(&path, text).unwrap();
        let state = load_journal(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(state.completed.len(), 1, "stop traces restore nothing");
    }

    #[test]
    fn compact_torn_tail_repairs_unterminated_and_torn_tails() {
        let iters = vec![sample_iteration(0)];
        let full = completed_line("v/mega/kb4/s42/key0000", &iters);
        let path = std::env::temp_dir()
            .join(format!("microsampler-journal-compact-{}.jsonl", std::process::id()));

        // A complete final record missing only its newline gets it back —
        // appending straight after it would glue two records together.
        std::fs::write(&path, &full).unwrap();
        compact_torn_tail(&path);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), format!("{full}\n"));

        // A truncated final record is dropped back to the last newline.
        std::fs::write(&path, format!("{full}\n{}", &full[..full.len() / 2])).unwrap();
        compact_torn_tail(&path);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), format!("{full}\n"));

        // A torn sole line empties the file.
        std::fs::write(&path, &full[..10]).unwrap();
        compact_torn_tail(&path);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "");

        // Terminated files are untouched.
        std::fs::write(&path, format!("{full}\n")).unwrap();
        compact_torn_tail(&path);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), format!("{full}\n"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_rejects_mismatched_fault_config() {
        let path = std::env::temp_dir()
            .join(format!("microsampler-journal-hashgate-{}.jsonl", std::process::id()));
        std::fs::write(&path, "").unwrap();
        let noisy = SweepOptions {
            isolate: true,
            journal: Some(path.clone()),
            faults: Some(FaultConfig { evict_per_64k: 16, ..FaultConfig::default() }),
            ..SweepOptions::default()
        };
        let first = run_modexp_sweep(
            ModexpVariant::V2Safe,
            &microsampler_sim::CoreConfig::mega_boom(),
            2,
            1,
            42,
            &noisy,
        );
        assert_eq!(first.completed, 2);

        // Resuming under different fault noise must not pool the old trials.
        let clean_resume = SweepOptions { faults: None, resume: true, ..noisy.clone() };
        let second = run_modexp_sweep(
            ModexpVariant::V2Safe,
            &microsampler_sim::CoreConfig::mega_boom(),
            2,
            1,
            42,
            &clean_resume,
        );
        assert_eq!(second.restored, 0, "mismatched fault config must not restore");
        assert_eq!(second.completed, 2, "trials re-run under the new config");

        // The refused resume opened a new journal segment for its clean
        // trials, so going back to the original noise must not restore
        // them either: it re-runs, and opens a segment of its own.
        let same_resume = SweepOptions { resume: true, ..noisy.clone() };
        let resume = || {
            let mega = microsampler_sim::CoreConfig::mega_boom();
            run_modexp_sweep(ModexpVariant::V2Safe, &mega, 2, 1, 42, &same_resume)
        };
        let third = resume();
        assert_eq!((third.restored, third.completed), (0, 2), "clean trials never pool");
        // Resuming under the last segment's config restores it exactly.
        let fourth = resume();
        std::fs::remove_file(&path).ok();
        assert_eq!((fourth.restored, fourth.completed), (2, 0));
        assert_eq!(fourth.iterations, first.iterations, "the restored trials are the noisy ones");
    }

    /// ME-V2-Safe over two one-byte keys, collecting `features`,
    /// journaled to `journal` (resuming it when `resume` is set) or, with
    /// no journal, fresh.
    fn features_sweep(journal: Option<&Path>, features: UnitSet, resume: bool) -> SweepOutcome {
        let opts = SweepOptions {
            isolate: true,
            journal: journal.map(Path::to_path_buf),
            resume,
            features,
            ..SweepOptions::default()
        };
        let mega = microsampler_sim::CoreConfig::mega_boom();
        run_modexp_sweep(ModexpVariant::V2Safe, &mega, 2, 1, 42, &opts)
    }

    fn features_journal(tag: &str) -> PathBuf {
        let path = std::env::temp_dir()
            .join(format!("microsampler-journal-features-{tag}-{}.jsonl", std::process::id()));
        std::fs::write(&path, "").unwrap();
        path
    }

    #[test]
    fn a_featureless_journal_reruns_every_trial_of_a_sweep_that_reads_features() {
        let path = features_journal("rerun");
        let sq = UnitSet::of(&[UnitId::SqAddr]);
        let first = features_sweep(Some(&path), UnitSet::NONE, false);
        assert_eq!(first.completed, 2);
        let second = features_sweep(Some(&path), sq, true);
        assert_eq!((second.restored, second.completed), (0, 2), "no trial has SQ-ADDR features");
        assert_eq!(second.iterations, features_sweep(None, sq, false).iterations);
        // The re-run trials' lines supersede the featureless ones.
        let third = features_sweep(Some(&path), sq, true);
        std::fs::remove_file(&path).ok();
        assert_eq!((third.restored, third.completed), (2, 0));
        assert_eq!(third.iterations, second.iterations);
    }

    #[test]
    fn a_featureless_journal_restores_every_trial_of_a_featureless_sweep() {
        let path = features_journal("restore");
        features_sweep(Some(&path), UnitSet::NONE, false);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains(TRIAL_SCHEMA) && !text.contains("\"order\""), "{text}");
        let resumed = features_sweep(Some(&path), UnitSet::NONE, true);
        std::fs::remove_file(&path).ok();
        assert_eq!((resumed.restored, resumed.completed), (2, 0));
        assert_eq!(resumed.iterations, features_sweep(None, UnitSet::NONE, false).iterations);
    }

    /// A journaled trial whose iterations lack a unit re-runs instead of
    /// reaching the analysis, which reads all sixteen.
    #[test]
    fn a_journaled_trial_without_every_unit_reruns() {
        let path = features_journal("units");
        let full = features_sweep(Some(&path), UnitSet::NONE, false);
        let mut short = full.iterations[..1].to_vec();
        short[0].units.pop();
        let id = "ME-V2-Safe/MegaBoom/kb1/s42/key0000";
        let line = completed_line(id, &short) + "\n";
        File::options().append(true).open(&path).unwrap().write_all(line.as_bytes()).unwrap();
        let resumed = features_sweep(Some(&path), UnitSet::NONE, true);
        std::fs::remove_file(&path).ok();
        assert_eq!((resumed.restored, resumed.completed), (1, 1));
        assert_eq!(resumed.iterations, full.iterations);
    }

    /// A resumed sweep decodes only its own trials. Another sweep's line
    /// whose iterations hold a non-integer label, which [`load_journal`]
    /// refuses, is only counted and syntax-checked, so the resume goes
    /// ahead. Its id is this sweep's with `s4` for `s42`: the prefix ends
    /// at a `/`.
    #[test]
    fn a_resumed_sweep_skips_the_other_sweeps_trials() {
        let path = features_journal("other-sweep");
        let first = features_sweep(Some(&path), UnitSet::NONE, false);
        let broken = completed_line("ME-V2-Safe/MegaBoom/kb1/s4/key0000", &first.iterations[..1])
            .replacen("\"label\":", "\"label\":\"x\",\"was\":", 1);
        let line = broken + "\n";
        File::options().append(true).open(&path).unwrap().write_all(line.as_bytes()).unwrap();
        let whole = load_journal(&path);
        assert!(whole.as_ref().is_err_and(|e| e.contains("non-integer `label`")), "{whole:?}");
        let resumed = features_sweep(Some(&path), UnitSet::NONE, true);
        std::fs::remove_file(&path).ok();
        assert_eq!((resumed.restored, resumed.completed), (2, 0));
        assert_eq!(resumed.iterations, first.iterations);
    }

    /// The filtered decoder's state is the full decoder's with the other
    /// sweeps' trials left out of `completed`: the same `trial_lines`,
    /// header and torn-tail rule. Another sweep's `iterations` are still
    /// checked for JSON syntax.
    #[test]
    fn the_sweep_filter_keeps_every_rule_but_decoding_other_trials() {
        let good = [sample_iteration(0), sample_iteration(1)];
        let quarantined = QuarantinedTrial {
            id: "other/key0002".into(),
            class: FailureClass::Panicked,
            message: "boom".into(),
            attempts: 1,
        };
        let lines = [
            completed_line("mine/key0000", &good),
            header_line("h"),
            completed_line("other/key0000", &good),
            completed_line("mine/key0001", &good[..1]),
            // `iterations` before `id`: decoded, then left out.
            r#"{"schema":"microsampler-trial-v1","iterations":[],"id":"other/key0001","status":"completed"}"#.to_string(),
            quarantined_line(&quarantined),
        ];
        let path = Path::new("two-sweeps.jsonl");
        let mine = |text: &str| decode_journal(text, path, |l, s| parse_sweep_line(l, "mine/", s));
        for torn in [false, true] {
            let mut text = lines.join("\n") + "\n";
            if torn {
                text += &lines[2][..100];
            }
            let mut want = decode_journal(&text, path, parse_journal_line).unwrap();
            want.completed.retain(|id, _| id.starts_with("mine/"));
            let got = mine(&text).unwrap();
            assert_eq!(got, want);
            assert_eq!(got.completed.len(), 1, "the header dropped key0000");
            assert_eq!((got.trial_lines, got.config_hash.as_deref()), (4, Some("h")));
        }
        let bad_syntax = lines[2].replacen("\"label\":0", "\"label\":0:", 1) + "\n";
        let e = mine(&bad_syntax).unwrap_err();
        assert!(e.starts_with("journal two-sweeps.jsonl line 1: JSON parse error"), "{e}");
    }

    /// Lines with every unit's `order` are what sweeps wrote before a
    /// sweep could leave features out. They restore into any sweep, which
    /// keeps exactly its own set's features.
    #[test]
    fn a_journal_with_every_feature_restores_with_only_the_sweeps_features() {
        let path = features_journal("all");
        let all = features_sweep(Some(&path), UnitSet::ALL, false);
        let text = std::fs::read_to_string(&path).unwrap();
        let units: usize = all.iterations.iter().map(|it| it.units.len()).sum();
        assert_eq!(text.matches("\"order\":[").count(), units, "every unit has its order");
        for features in [UnitSet::NONE, UnitSet::of(&[UnitId::SqAddr])] {
            let resumed = features_sweep(Some(&path), features, true);
            assert_eq!((resumed.restored, resumed.completed), (2, 0));
            assert_eq!(resumed.iterations, features_sweep(None, features, false).iterations);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sequential_sweep_stops_early_and_resume_reproduces_the_stopping_point() {
        use microsampler_core::SeqVerdict;
        let path = std::env::temp_dir()
            .join(format!("microsampler-journal-seq-{}.jsonl", std::process::id()));
        std::fs::write(&path, "").unwrap();
        let opts = SweepOptions {
            isolate: true,
            journal: Some(path.clone()),
            sequential: Some(SeqConfig::default()),
            ..SweepOptions::default()
        };
        let out = run_modexp_sweep(
            ModexpVariant::Naive,
            &microsampler_sim::CoreConfig::mega_boom(),
            16,
            1,
            42,
            &opts,
        );
        let stop = out.stop.clone().expect("sequential sweeps carry a stop trace");
        assert_eq!(stop.verdict, SeqVerdict::Leaky, "naive modexp is the known leak");
        assert!(!stop.fallback, "an obvious leak closes the sequence, not the fallback");
        assert!(out.early_stopped > 0, "the full key budget must not be needed");
        assert_eq!(out.completed + out.early_stopped, 16);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains(STOP_SCHEMA), "the journal records the stopping trace");

        // A resume replays the journal and reproduces the same stopping
        // point — same looks, same verdict, same pooled iterations —
        // without running a single trial.
        let resumed = run_modexp_sweep(
            ModexpVariant::Naive,
            &microsampler_sim::CoreConfig::mega_boom(),
            16,
            1,
            42,
            &SweepOptions { resume: true, ..opts.clone() },
        );
        std::fs::remove_file(&path).ok();
        assert_eq!(resumed.completed, 0, "nothing re-runs on resume");
        assert_eq!(resumed.restored, out.completed);
        assert_eq!(resumed.early_stopped, out.early_stopped);
        let rstop = resumed.stop.expect("resumed sweep still carries a stop trace");
        assert_eq!(rstop.verdict, stop.verdict);
        assert_eq!(rstop.looks, stop.looks, "stopping points are bit-identical on resume");
        assert_eq!(resumed.iterations, out.iterations);
    }

    #[test]
    fn sequential_clean_sweep_matches_batch_verdict() {
        let opts = SweepOptions {
            isolate: true,
            sequential: Some(SeqConfig::default()),
            ..SweepOptions::default()
        };
        let out = run_modexp_sweep(
            ModexpVariant::V2Safe,
            &microsampler_sim::CoreConfig::mega_boom(),
            8,
            1,
            42,
            &opts,
        );
        let stop = out.stop.expect("sequential sweeps carry a stop trace");
        assert_eq!(stop.verdict, microsampler_core::SeqVerdict::Clean);
        // Whatever trials the sequence used, the verdict agrees with the
        // batch rule over the pooled iterations.
        let report = microsampler_core::analyze(&out.iterations);
        assert!(!report.is_leaky());
    }

    #[test]
    fn events_registry_renders_stable_json() {
        let mut tally = Tally::default();
        let outcome = |completed, quarantined| SweepOutcome {
            iterations: Vec::new(),
            completed,
            restored: 0,
            cancelled: 1,
            early_stopped: 0,
            quarantined,
            stop: None,
        };
        tally.add(&outcome(2, Vec::new()));
        tally.add(&outcome(
            1,
            vec![QuarantinedTrial {
                id: "b".into(),
                class: FailureClass::Panicked,
                message: "boom".into(),
                attempts: 1,
            }],
        ));
        let v = tally.to_json();
        assert_eq!(v.get("completed").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("restored").unwrap().as_u64(), Some(0));
        assert_eq!(v.get("cancelled").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("early_stopped").unwrap().as_u64(), Some(0));
        let q = v.get("quarantined").unwrap().as_array().unwrap();
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].get("id").unwrap().as_str(), Some("b"));
        assert_eq!(q[0].get("class").unwrap().as_str(), Some("panicked"));
        assert_eq!(q[0].get("message").unwrap().as_str(), Some("boom"));
        assert_eq!(q[0].get("attempts").unwrap().as_u64(), Some(1));
    }

    /// One line applied to a fresh state by the decoder, which must agree
    /// with the `Value`-walk reference.
    fn decoded(line: &str) -> Result<JournalState, String> {
        let (mut got, mut want) = (JournalState::default(), JournalState::default());
        let result = parse_journal_line(line, &mut got).map(|()| got);
        assert_eq!(result, reference_parse_journal_line(line, &mut want).map(|()| want), "{line}");
        result
    }

    #[test]
    fn repeated_keys_keep_their_first_value() {
        let unit =
            r#"{"hash":1,"hash":"x","hash_timeless":2,"cycle_rows":3,"order":[4],"order":[]}"#;
        let iteration = format!(
            r#"{{"label":5,"label":-1,"start_cycle":6,"end_cycle":7,"dropped_cycles":0,"pipeline":{{"cycles":8,"cycles":9}},"pipeline":null,"units":[{unit}],"units":[]}}"#
        );
        let line = format!(
            r#"{{"schema":"{TRIAL_SCHEMA}","schema":"x","id":"first","id":"second","status":"completed","status":"quarantined","iterations":[{iteration}],"iterations":7}}"#
        );
        let want = IterationTrace {
            label: 5,
            start_cycle: 6,
            end_cycle: 7,
            dropped_cycles: 0,
            pipeline: PipelineStats { cycles: 8, ..PipelineStats::default() },
            units: vec![UnitTrace {
                hash: 1,
                hash_timeless: 2,
                order: Some(vec![4]),
                rows: None,
                cycle_rows: 3,
            }],
        };
        let state = decoded(&line).unwrap();
        assert_eq!(state.completed.keys().collect::<Vec<_>>(), ["first"]);
        assert_eq!(state.completed["first"], [want]);
        // A first value of the wrong type is not made good by a later one.
        let bad = line.replace(r#""label":5,"label":-1"#, r#""label":-1,"label":5"#);
        assert_eq!(decoded(&bad), Err("missing or non-integer `label`".to_string()));
    }

    #[test]
    fn fields_in_any_order_and_unknown_fields_decode_alike() {
        fn reshape(v: &mut Value) {
            match v {
                Value::Array(items) => items.iter_mut().for_each(reshape),
                Value::Object(fields) => {
                    fields.iter_mut().for_each(|(_, x)| reshape(x));
                    fields.reverse();
                    let note = json::parse(r#"{"deep":[1,"x",null,{"y":true}],"f":-2.5e3}"#);
                    fields.insert(1, ("note".into(), note.unwrap()));
                }
                _ => {}
            }
        }
        let iters = vec![sample_iteration(0), sample_iteration(1)];
        let line = completed_line("v/mega/kb4/s42/key0000", &iters);
        let mut v = json::parse(&line).unwrap();
        reshape(&mut v);
        let reshaped = v.render_compact();
        assert!(reshaped.find("\"iterations\"").unwrap() < reshaped.find("\"schema\"").unwrap());
        assert_eq!(decoded(&reshaped), decoded(&line));
        assert_eq!(decoded(&line).unwrap().completed["v/mega/kb4/s42/key0000"], iters);
        // A header whose hash comes before its schema.
        let header = format!(r#"{{"config_hash":"00000000000000aa","schema":"{HEADER_SCHEMA}"}}"#);
        assert_eq!(decoded(&header).unwrap().config_hash.as_deref(), Some("00000000000000aa"));
    }

    #[test]
    fn pipeline_counters_read_as_zero_unless_non_negative_integers() {
        let line = completed_line("k", &[sample_iteration(0)]);
        let start = line.find("\"pipeline\":").unwrap() + "\"pipeline\":".len();
        let end = start + line[start..].find('}').unwrap() + 1;
        let pipeline = |p: &str| {
            let state = decoded(&format!("{}{p}{}", &line[..start], &line[end..])).unwrap();
            state.completed["k"][0].pipeline
        };
        let mixed = r#"{"cycles":-1,"committed":1.5,"alu_busy":"5","agu_busy":null,"mul_busy":18446744073709551616,"div_busy":[3],"rob_full_cycles":9,"bogus":4}"#;
        assert_eq!(
            pipeline(mixed),
            PipelineStats { rob_full_cycles: 9, ..PipelineStats::default() }
        );
        for not_counters in ["null", "7", "\"x\"", "[1,2]", "{}"] {
            assert_eq!(pipeline(not_counters), PipelineStats::default(), "{not_counters}");
        }
    }

    #[test]
    fn required_integers_must_be_non_negative_integers() {
        let line = completed_line("k", &[sample_iteration(0)]);
        // The line with the first value of `key` replaced by `value`.
        let with = |key: &str, value: &str| {
            let at = line.find(&format!("\"{key}\":")).unwrap() + key.len() + 3;
            let len = line[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
            format!("{}{value}{}", &line[..at], &line[at + len..])
        };
        let keys = [
            "label",
            "start_cycle",
            "end_cycle",
            "dropped_cycles",
            "hash",
            "hash_timeless",
            "cycle_rows",
        ];
        for key in keys {
            for bad in ["-1", "1.0", "1e2", "\"1\"", "null", "[1]", "18446744073709551616"] {
                let want = Err(format!("missing or non-integer `{key}`"));
                assert_eq!(decoded(&with(key, bad)), want, "{key}: {bad}");
            }
            assert!(decoded(&with(key, "18446744073709551615")).is_ok(), "{key}: u64::MAX");
        }
        let order = |edit: &str| decoded(&line.replacen("\"order\":[", edit, 1));
        assert_eq!(order("\"order\":[1.5,"), Err("non-integer feature in `order`".to_string()));
        assert_eq!(order("\"order\":7,\"x\":["), Err("non-array `order`".to_string()));
    }

    #[test]
    fn malformed_header_and_trial_lines_say_what_is_wrong() {
        let trial = |fields: &str| format!(r#"{{"schema":"{TRIAL_SCHEMA}",{fields}}}"#);
        let unit = r#"{"hash":1,"hash_timeless":2,"cycle_rows":3,"order":{}}"#;
        let iteration = r#"{"label":0,"start_cycle":0,"end_cycle":0,"dropped_cycles":0}"#;
        let cases = [
            (format!(r#"{{"schema":"{HEADER_SCHEMA}"}}"#), "header missing `config_hash`"),
            (
                format!(r#"{{"schema":"{HEADER_SCHEMA}","config_hash":7}}"#),
                "header missing `config_hash`",
            ),
            (r#"{"schema":7}"#.to_string(), "expected schema microsampler-trial-v1"),
            ("[]".to_string(), "expected schema microsampler-trial-v1"),
            (trial(r#""id":7,"status":"completed""#), "missing `id`"),
            (trial(r#""id":"k","status":"done""#), "missing or unknown `status`"),
            (trial(r#""id":"k","status":"completed","iterations":{}"#), "missing `iterations`"),
            (
                trial(&format!(r#""id":"k","status":"completed","iterations":[{iteration}]"#)),
                "iteration lacks `units`",
            ),
            (
                trial(&format!(
                    r#""id":"k","status":"completed","iterations":[{{"units":[{unit}]}}]"#
                )),
                "non-array `order`",
            ),
        ];
        for (line, want) in cases {
            assert_eq!(decoded(&line), Err(want.to_string()), "{line}");
        }
    }

    /// A unit without `order` decodes to `None`, one with `[]` to an
    /// empty order, and one whose `order` is not an array is an error.
    #[test]
    fn an_absent_order_is_none_and_an_empty_one_is_empty() {
        let line = |unit: &str| {
            format!(
                r#"{{"schema":"{TRIAL_SCHEMA}","id":"k","status":"completed","iterations":[{{"label":0,"start_cycle":0,"end_cycle":0,"dropped_cycles":0,"units":[{unit}]}}]}}"#
            )
        };
        let order = |unit: &str| decoded(&line(unit)).map(|s| s.completed["k"][0].units[0].clone());
        let fields = r#""hash":1,"hash_timeless":2,"cycle_rows":3"#;
        let want =
            |order| UnitTrace { hash: 1, hash_timeless: 2, order, rows: None, cycle_rows: 3 };
        assert_eq!(order(&format!("{{{fields}}}")), Ok(want(None)));
        assert_eq!(order(&format!(r#"{{{fields},"order":[]}}"#)), Ok(want(Some(vec![]))));
        assert_eq!(order(&format!(r#"{{"order":[9,7],{fields}}}"#)), Ok(want(Some(vec![9, 7]))));
        for bad in ["null", "7", "\"x\"", "{}", "true"] {
            let got = order(&format!(r#"{{{fields},"order":{bad}}}"#));
            assert_eq!(got, Err("non-array `order`".to_string()), "{bad}");
        }
        // The encoder writes `order` exactly where it is `Some`.
        let mut it = sample_iteration(0);
        it.units[1].order = None;
        let written = completed_line("k", &[it.clone()]);
        assert_eq!(written.matches("\"order\"").count(), 1, "{written}");
        assert_eq!(decoded(&written).unwrap().completed["k"], [it]);
    }

    #[test]
    fn the_first_bad_item_is_the_error_and_later_items_are_still_checked() {
        let unit = r#"{"hash":1,"hash_timeless":2,"cycle_rows":3,"order":[]}"#;
        let bad_unit = r#"{"hash":"x","hash_timeless":2,"cycle_rows":3,"order":[]}"#;
        let iteration = |label: &str, unit: &str| {
            format!(
                r#"{{"label":{label},"start_cycle":0,"end_cycle":0,"dropped_cycles":0,"units":[{unit}]}}"#
            )
        };
        let line = |iterations: &[String]| {
            format!(
                r#"{{"schema":"{TRIAL_SCHEMA}","id":"k","status":"completed","iterations":[{}]}}"#,
                iterations.join(",")
            )
        };
        let label = Err("missing or non-integer `label`".to_string());
        let hash = Err("missing or non-integer `hash`".to_string());
        let (good, bad_label) = (iteration("1", unit), iteration("-1", unit));
        assert_eq!(
            decoded(&line(&[good.clone(), bad_label.clone(), iteration("2", bad_unit)])),
            label
        );
        assert_eq!(decoded(&line(&[iteration("1", bad_unit), bad_label.clone()])), hash);
        // The items after the failing one must still be well-formed JSON.
        let e = decoded(&line(&[bad_label, iteration("1", "{\"hash\":}")])).unwrap_err();
        assert!(e.starts_with("JSON parse error"), "{e}");
        assert!(decoded(&line(&[good])).is_ok());
    }

    #[test]
    fn a_later_completed_line_supersedes_an_earlier_one() {
        let (old, new) =
            (vec![sample_iteration(0)], vec![sample_iteration(1), sample_iteration(2)]);
        let text = format!(
            "{}\n{}\n{}\n",
            completed_line("k", &old),
            completed_line("other", &old),
            completed_line("k", &new)
        );
        let state = decode_journal(&text, Path::new("j.jsonl"), parse_journal_line).unwrap();
        assert_eq!(state.completed["k"], new);
        assert_eq!(state.completed["other"], old);
        assert_eq!(state.trial_lines, 3);
    }

    #[test]
    fn journal_errors_name_the_file_line_counting_blank_lines() {
        let full = completed_line("k", &[sample_iteration(0)]);
        let path = Path::new("j.jsonl");
        // CRLF endings and blank or whitespace-only lines are fine.
        let crlf = format!("\r\n  \r\n{full}\r\n\t\r\n{full}\r\n");
        let state = decode_journal(&crlf, path, parse_journal_line).unwrap();
        assert_eq!((state.trial_lines, state.completed.len()), (2, 1));
        let text = format!("\n  \n{full}\nnot json\n{full}\n");
        let e = decode_journal(&text, path, parse_journal_line).unwrap_err();
        assert_eq!(e, "journal j.jsonl line 4: JSON parse error at byte 0: expected `null`");
    }

    #[test]
    fn compact_torn_tail_drops_blank_and_foreign_tails_and_leaves_empty_files() {
        let full = completed_line("k", &[sample_iteration(0)]);
        let path = std::env::temp_dir()
            .join(format!("microsampler-journal-tails-{}.jsonl", std::process::id()));
        let compacted = |text: &str| {
            std::fs::write(&path, text).unwrap();
            compact_torn_tail(&path);
            std::fs::read_to_string(&path).unwrap()
        };
        assert_eq!(compacted(""), "");
        // A whitespace tail, and a whole line that is no journal record,
        // are dropped back to the last newline.
        for tail in [" \t ", "{\"schema\":\"other\"}", "[1,2]"] {
            assert_eq!(compacted(&format!("{full}\n{tail}")), format!("{full}\n"), "{tail}");
        }
        // A whole heartbeat line only lacks its newline.
        let heartbeat = heartbeat_line("sweep", 1, 2, 0.5, 2.0, 0.5);
        let text = format!("{full}\n{heartbeat}");
        assert_eq!(compacted(&text), format!("{text}\n"));
        std::fs::remove_file(&path).ok();
        // A journal that does not exist is not created.
        compact_torn_tail(&path);
        assert!(!path.exists());
    }

    #[test]
    fn append_line_writes_each_record_with_its_newline() {
        let path = std::env::temp_dir()
            .join(format!("microsampler-journal-append-{}.jsonl", std::process::id()));
        std::fs::write(&path, "header\n").unwrap();
        let journal = Mutex::new(File::options().append(true).open(&path).unwrap());
        append_line(&journal, "first".to_string());
        append_line(&journal, completed_line("k", &[sample_iteration(0)]));
        drop(journal);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = text.split_inclusive('\n').collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert_eq!(lines[..2], ["header\n", "first\n"]);
        assert_eq!(lines[2], format!("{}\n", completed_line("k", &[sample_iteration(0)])));
    }

    /// One line of every kind a journal holds: header, completed and
    /// quarantined trials, a heartbeat and a stop trace.
    fn real_journal_lines() -> Vec<String> {
        let quarantined = QuarantinedTrial {
            id: "v/mega/kb4/s42/key0002".into(),
            class: FailureClass::Panicked,
            message: "trial exploded \"mid-run\"".into(),
            attempts: 3,
        };
        vec![
            header_line(&options_config_hash(&SweepOptions::default())),
            completed_line("v/mega/kb4/s42/key0000", &[sample_iteration(0), sample_iteration(1)]),
            completed_line("v/mega/kb4/s42/key0001", &[sample_iteration(1)]),
            quarantined_line(&quarantined),
            heartbeat_line("sweep", 2, 4, 1.5, 1.25, 1.6),
            StopTrace::default().to_json("v/mega/kb4/s42").render_compact(),
        ]
    }

    /// Lines no sweep writes: wrong types, missing fields, out-of-range
    /// numbers and nesting far past the JSON parser's limit.
    fn garbage_journal_lines() -> Vec<String> {
        let mut lines: Vec<String> = [
            "",
            "{",
            "not json",
            "null",
            "[]",
            "{\"schema\":7}",
            "{\"schema\":\"microsampler-journal-header-v1\"}",
            "{\"schema\":\"microsampler-journal-header-v1\",\"config_hash\":[]}",
            "{\"schema\":\"microsampler-trial-v1\",\"id\":\"x\",\"status\":\"completed\",\
             \"iterations\":[{\"label\":-1,\"units\":[{}]}]}",
            "{\"schema\":\"microsampler-trial-v1\",\"id\":\"x\",\"status\":\"completed\",\
             \"iterations\":[{\"label\":1e400,\"start_cycle\":18446744073709551616}]}",
            "{\"schema\":\"microsampler-trial-v1\",\"id\":\"x\",\"status\":\"done\"}",
            "\"\\ud83e\\u0041\"",
        ]
        .map(String::from)
        .to_vec();
        lines.push("[".repeat(100_000));
        lines.push("{\"a\":".repeat(200) + &"}".repeat(200));
        lines
    }

    /// Cuts `s` at byte `at % (s.len() + 1)`, backing off to a char
    /// boundary.
    fn cut(s: &mut String, at: usize) {
        let mut len = at % (s.len() + 1);
        while !s.is_char_boundary(len) {
            len -= 1;
        }
        s.truncate(len);
    }

    /// Rewrites each object in `v`, steered by `seed`, into a shape no
    /// sweep writes: fields reversed or rotated, a field repeated before or
    /// after itself with a value of another type, or an unknown field
    /// added. Some objects are left as they were.
    fn rework(v: &mut Value, seed: &mut u64) {
        match v {
            Value::Array(items) => items.iter_mut().for_each(|x| rework(x, seed)),
            Value::Object(fields) => {
                fields.iter_mut().for_each(|(_, x)| rework(x, seed));
                *seed = seed
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let pick = (*seed >> 33) as usize;
                if fields.is_empty() {
                    return;
                }
                let i = pick / 8 % fields.len();
                let odd = [Value::Null, "x".into(), Value::Int(-1), Value::Float(1.5), 7u64.into()]
                    [pick / 64 % 5]
                    .clone();
                let key = fields[i].0.clone();
                match pick % 8 {
                    0 => fields.reverse(),
                    1 => fields.rotate_left(1),
                    2 => fields.insert(i + 1, (key, odd)),
                    3 => fields.insert(i, (key, odd)),
                    4 => fields.push(("extra".into(), Value::array([odd]))),
                    _ => {}
                }
            }
            _ => {}
        }
    }

    /// Real journal lines truncated, duplicated, reordered, deleted,
    /// interleaved with garbage or reworked (fields reordered, repeated or
    /// added), then cut at a random byte.
    fn mangled_journal(edits: &[(u8, usize, usize)], end: usize) -> String {
        let mut lines = real_journal_lines();
        let garbage = garbage_journal_lines();
        for &(op, at, arg) in edits {
            let (i, j) = (at % lines.len(), arg % lines.len());
            match op {
                0 => cut(&mut lines[i], arg),
                1 => lines.insert(i, lines[i].clone()),
                2 => lines.swap(i, j),
                3 => lines.insert(i, garbage[arg % garbage.len()].clone()),
                4 if lines.len() > 1 => drop(lines.remove(i)),
                5 => {
                    if let Ok(mut v) = json::parse(&lines[i]) {
                        rework(&mut v, &mut (arg as u64));
                        lines[i] = v.render_compact();
                    }
                }
                _ => {}
            }
        }
        let mut text = lines.join("\n");
        cut(&mut text, end);
        text
    }

    /// Characters for trial ids: plain, JSON-escaped, control and
    /// multi-byte.
    const ID_CHARS: [char; 13] =
        ['k', '/', '"', '\\', '\n', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é', '日', '🦀', '\u{2028}'];

    /// `n` iterations of `units` units drawn from `seed`: hashes and
    /// counters over the whole `u64` range (half of them above
    /// `i64::MAX`), and orders of 0 to 4 values or none.
    fn drawn_iterations(seed: u64, n: usize, units: usize) -> Vec<IterationTrace> {
        let mut state = seed;
        let mut draw = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut value = move || match draw() % 4 {
            0 => draw() % 10,
            1 => draw() >> 32,
            _ => draw(),
        };
        (0..n)
            .map(|_| IterationTrace {
                label: value(),
                start_cycle: value(),
                end_cycle: value(),
                dropped_cycles: value(),
                pipeline: PipelineStats::from_array(std::array::from_fn(|_| value())),
                units: (0..units)
                    .map(|_| UnitTrace {
                        hash: value(),
                        hash_timeless: value(),
                        order: match value() % 6 {
                            5 => None,
                            len => Some((0..len).map(|_| value()).collect()),
                        },
                        rows: None,
                        cycle_rows: value(),
                    })
                    .collect(),
            })
            .collect()
    }

    static MANGLED_CASE: AtomicUsize = AtomicUsize::new(0);

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]
        /// Mangled journals ([`mangled_journal`]) load to `Ok` or to an
        /// error naming one of the file's lines — never a panic.
        #[test]
        fn load_journal_never_panics_on_mangled_journals(
            edits in proptest::collection::vec(
                (0u8..6, proptest::prelude::any::<usize>(), proptest::prelude::any::<usize>()),
                0..12,
            ),
            end in proptest::prelude::any::<usize>(),
        ) {
            let text = mangled_journal(&edits, end);
            let line_count = text.lines().count();
            let case = MANGLED_CASE.fetch_add(1, Ordering::Relaxed);
            let path = std::env::temp_dir().join(format!(
                "microsampler-journal-mangled-{}-{case}.jsonl",
                std::process::id()
            ));
            std::fs::write(&path, &text).unwrap();
            let got = std::panic::catch_unwind(|| load_journal(&path));
            std::fs::remove_file(&path).ok();
            match got {
                Ok(Ok(_)) => {}
                Ok(Err(e)) => {
                    let line = e
                        .split(" line ")
                        .nth(1)
                        .and_then(|rest| rest.split(':').next())
                        .and_then(|n| n.parse::<usize>().ok());
                    proptest::prop_assert!(
                        line.is_some_and(|n| (1..=line_count).contains(&n)),
                        "{e}: not one of the journal's {line_count} lines"
                    );
                }
                Err(_) => panic!("load_journal panicked on:\n{text}"),
            }
        }

        /// On the same mangled journals, the single-pass decoder gives
        /// exactly what parsing each line into a `Value` tree and walking
        /// it gives: the same state, or the same error.
        #[test]
        fn decoder_matches_the_value_walk_on_mangled_journals(
            edits in proptest::collection::vec(
                (0u8..6, proptest::prelude::any::<usize>(), proptest::prelude::any::<usize>()),
                0..12,
            ),
            end in proptest::prelude::any::<usize>(),
        ) {
            let text = mangled_journal(&edits, end);
            let path = Path::new("mangled.jsonl");
            proptest::prop_assert_eq!(
                decode_journal(&text, path, parse_journal_line),
                decode_journal(&text, path, reference_parse_journal_line),
                "{}",
                text
            );
            // Line by line as well, going on past errors: a line that
            // fails must leave the same state behind (a torn last line is
            // skipped, so what it changed before failing counts).
            let (mut got, mut want) = (JournalState::default(), JournalState::default());
            for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
                proptest::prop_assert_eq!(
                    parse_journal_line(line, &mut got),
                    reference_parse_journal_line(line, &mut want),
                    "{}",
                    line
                );
                proptest::prop_assert_eq!(&got, &want, "{}", line);
            }
        }

        /// The direct encoder writes exactly the `Value` rendering, for
        /// hashes above `i64::MAX`, empty orders and ids that need
        /// escaping, and decoding its line gives the input back.
        #[test]
        fn completed_line_matches_the_value_rendering_and_round_trips(
            seed in proptest::prelude::any::<u64>(),
            n in 0usize..4,
            units in 0usize..4,
            id in proptest::collection::vec(0usize..ID_CHARS.len(), 0..10),
        ) {
            let id: String = id.iter().map(|&c| ID_CHARS[c]).collect();
            let iterations = drawn_iterations(seed, n, units);
            let line = completed_line(&id, &iterations);
            proptest::prop_assert_eq!(&line, &reference_completed_line(&id, &iterations));
            let mut state = JournalState::default();
            parse_journal_line(&line, &mut state).unwrap();
            proptest::prop_assert_eq!(state.trial_lines, 1);
            proptest::prop_assert_eq!(state.completed.get(&id), Some(&iterations));
        }
    }
}
