//! Cycle-granularity microarchitectural tracing (paper §V-A/§V-B).
//!
//! Each simulated cycle inside an active security-critical region, the core
//! reports one row of values per tracked unit (Table IV). Rows are folded
//! into per-iteration summaries:
//!
//! * a **snapshot hash** over the full 2-D matrix (rows × cycles),
//! * a **timeless hash** with consecutive duplicate rows consolidated
//!   (the timing-removal transform of Fig. 9),
//! * the **feature order**: each distinct non-zero value once, in
//!   first-occurrence order, for the uniqueness and ordering analyses —
//!   collected only for the units in [`TraceConfig::features`],
//! * optionally the **raw matrix** (for small runs, figures and tests).
//!
//! The fold is run-length over *row digests*. A row's digest is a
//! polynomial over GF(2^61 − 1): its 32-bit limbs are the coefficients of
//! the powers `K^1, K^2, …` of a fixed point `K`, its width is the constant
//! term, and the sum goes through a bijective 64-bit mixer. A row whose
//! digest equals the run's only extends the current run. The timeless hash
//! absorbs the digest of each run; the snapshot hash absorbs
//! `(digest, run length)` as each run closes. Two distinct rows of width at
//! most `W` share a digest with probability at most `2W/2^61` over `K`
//! (about 2^-53 at `W = 128`), beside SipHash's 2^-64, so two matrices get
//! the same snapshot hash exactly when they are equal, and the same
//! timeless hash exactly when they are equal after consecutive duplicate
//! rows are merged, up to those collisions. The contingency tables (§V-C)
//! only ask which iterations share a hash, so any fold with these two
//! properties gives the same verdicts; the hash values themselves are
//! specific to this fold.
//!
//! The digest is linear in the positions, so a queue that changes at its
//! ends can keep its row's digest current as it changes. Where the row
//! itself is not needed (see [`Tracer::record_digest`]), the core records
//! ROB-PC by the digest it keeps current that way, and the SQ and LQ units
//! by a digest read straight from their queues, without building a row.
//!
//! A text-log path ([`Tracer::enable_log`] / [`parse_text_log`]) mirrors the
//! paper's simulator-log-then-parse pipeline and is checked in tests to
//! produce byte-identical summaries.

use crate::digest::row_digest;
use crate::fault::{FaultConfig, FaultPlan};
use crate::pipeline::PipelineStats;
use microsampler_stats::{MulShift, SipHasher};
use std::collections::HashSet;
use std::fmt;
use std::hash::BuildHasherDefault;

/// Identifier of a tracked microarchitectural unit (paper Table IV).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum UnitId {
    /// Store queue destination addresses.
    SqAddr,
    /// Store queue program counters.
    SqPc,
    /// Load queue addresses.
    LqAddr,
    /// Load queue program counters.
    LqPc,
    /// ROB occupancy (single column).
    RobOccupancy,
    /// ROB program counters (includes wrong-path entries until squash).
    RobPc,
    /// Line-fill buffer content digests.
    LfbData,
    /// Line-fill buffer addresses.
    LfbAddr,
    /// ALU busy-with-PC.
    EuuAlu,
    /// Address-generation unit busy-with-PC.
    EuuAddrGen,
    /// Divider busy-with-PC.
    EuuDiv,
    /// Multiplier busy-with-PC.
    EuuMul,
    /// Next-line prefetcher addresses issued.
    NlpAddr,
    /// D-cache request addresses issued.
    CacheAddr,
    /// TLB resident entries.
    TlbAddr,
    /// MSHR outstanding miss addresses.
    MshrAddr,
}

impl UnitId {
    /// All sixteen units, in canonical order.
    pub const ALL: [UnitId; 16] = [
        UnitId::SqAddr,
        UnitId::SqPc,
        UnitId::LqAddr,
        UnitId::LqPc,
        UnitId::RobOccupancy,
        UnitId::RobPc,
        UnitId::LfbData,
        UnitId::LfbAddr,
        UnitId::EuuAlu,
        UnitId::EuuAddrGen,
        UnitId::EuuDiv,
        UnitId::EuuMul,
        UnitId::NlpAddr,
        UnitId::CacheAddr,
        UnitId::TlbAddr,
        UnitId::MshrAddr,
    ];

    /// Number of tracked units.
    pub const COUNT: usize = 16;

    /// Canonical index, `0..16`: the position in [`UnitId::ALL`], which
    /// lists the units in declaration order.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Paper feature ID, e.g. `"SQ-ADDR"`.
    pub fn name(self) -> &'static str {
        match self {
            UnitId::SqAddr => "SQ-ADDR",
            UnitId::SqPc => "SQ-PC",
            UnitId::LqAddr => "LQ-ADDR",
            UnitId::LqPc => "LQ-PC",
            UnitId::RobOccupancy => "ROB-OCPNCY",
            UnitId::RobPc => "ROB-PC",
            UnitId::LfbData => "LFB-Data",
            UnitId::LfbAddr => "LFB-ADDR",
            UnitId::EuuAlu => "EUU-ALU",
            UnitId::EuuAddrGen => "EUU-ADDRGEN",
            UnitId::EuuDiv => "EUU-DIV",
            UnitId::EuuMul => "EUU-MUL",
            UnitId::NlpAddr => "NLP-ADDR",
            UnitId::CacheAddr => "Cache-ADDR",
            UnitId::TlbAddr => "TLB-ADDR",
            UnitId::MshrAddr => "MSHR-ADDR",
        }
    }

    /// Parses a paper feature ID.
    pub fn from_name(name: &str) -> Option<UnitId> {
        UnitId::ALL.iter().copied().find(|u| u.name() == name)
    }
}

impl fmt::Display for UnitId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A set of units, one bit per [`UnitId::index`]: the units whose
/// features a [`Tracer`] collects ([`TraceConfig::features`]). The
/// default is the empty set, [`UnitSet::NONE`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct UnitSet(u16);

const _: () = assert!(UnitId::COUNT <= u16::BITS as usize, "one bit per unit");

impl UnitSet {
    /// Every unit.
    pub const ALL: UnitSet = UnitSet::of(&UnitId::ALL);
    /// No unit.
    pub const NONE: UnitSet = UnitSet(0);

    /// The set of `units`.
    pub const fn of(units: &[UnitId]) -> UnitSet {
        let mut bits = 0;
        let mut i = 0;
        while i < units.len() {
            bits |= 1 << units[i] as u16;
            i += 1;
        }
        UnitSet(bits)
    }

    /// Whether `unit` is in the set.
    pub fn contains(self, unit: UnitId) -> bool {
        self.0 & (1 << unit.index()) != 0
    }

    /// The units in either set.
    pub fn union(self, other: UnitSet) -> UnitSet {
        UnitSet(self.0 | other.0)
    }
}

/// Tracer configuration.
///
/// Snapshot hashes are always SipHash-1-3 (CPython's default) under the
/// fixed key `(0x4d53_4d50, 0x4c52_5f31)`, over row digests evaluated at
/// the fixed point `K = 0x0a4f_9c31_d2b7_6e85` of GF(2^61 − 1) (see the
/// module docs), so a hash value means the same thing in every run, log
/// parse and journal.
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// Retain raw per-cycle matrices in each [`UnitTrace`] (memory-hungry;
    /// intended for small runs, figures and tests).
    pub keep_matrices: bool,
    /// Measurement-fault injection: when set, the tracer drops whole
    /// snapshot cycles ([`FaultConfig::drop_row_per_64k`]) and flips
    /// snapshot bits ([`FaultConfig::bitflip_per_64k`]) on a
    /// seed-deterministic schedule. Parse a faulted log back with
    /// `faults: None` — drops are replayed from `D` records and flips
    /// are already baked into the logged values.
    pub faults: Option<FaultConfig>,
    /// Number of leading `ITER_START` markers that open no iteration:
    /// their cycles are simulated but never sampled, so no row is
    /// captured, faulted, folded or logged for them and
    /// [`Tracer::iterations`] starts at the first kept iteration. Used
    /// for warm-up trials whose snapshots the analysis discards.
    pub warmup_iterations: usize,
    /// The units whose features ([`UnitTrace::order`]) are collected.
    /// Every other unit folds only its two hashes, which do not depend on
    /// this set. The default is [`UnitSet::ALL`].
    pub features: UnitSet,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            keep_matrices: false,
            faults: None,
            warmup_iterations: 0,
            features: UnitSet::ALL,
        }
    }
}

/// The snapshot hasher: SipHash-1-3 under the fixed key documented on
/// [`TraceConfig`].
fn snapshot_hasher() -> SipHasher {
    SipHasher::new_1_3(0x4d53_4d50, 0x4c52_5f31)
}

/// Per-iteration summary of one unit's snapshot (see module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnitTrace {
    /// Snapshot hash over the full matrix: the run-length fold of
    /// `(row digest, run length)` over the matrix's runs of equal rows.
    /// Equal exactly for equal matrices (up to 64-bit collisions).
    pub hash: u64,
    /// Snapshot hash with consecutive duplicate rows consolidated: the fold
    /// of the row digests of the matrix's runs. Equal exactly for matrices
    /// that are equal once consecutive duplicate rows are merged.
    pub hash_timeless: u64,
    /// Distinct non-zero values in first-occurrence order: the unit's
    /// features, each listed once. `Some` exactly for the units in
    /// [`TraceConfig::features`]; `None` means the features were not
    /// collected, not that there were none.
    pub order: Option<Vec<u64>>,
    /// Raw matrix (`rows[cycle][entry]`), kept only when
    /// [`TraceConfig::keep_matrices`] is set.
    pub rows: Option<Vec<Vec<u64>>>,
    /// Number of sampled cycles.
    pub cycle_rows: u64,
}

/// Everything sampled for one algorithmic iteration, labeled with its
/// secret class.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IterationTrace {
    /// Secret-class label written by the `ITER_START` marker.
    pub label: u64,
    /// First sampled cycle.
    pub start_cycle: u64,
    /// Last sampled cycle.
    pub end_cycle: u64,
    /// Snapshot cycles lost to injected capture faults (0 in clean runs).
    pub dropped_cycles: u64,
    /// Pipeline profiling deltas over this iteration (set by the core via
    /// [`Tracer::set_pipeline`]; all-zero for hand-driven tracers and logs
    /// without `P` records).
    pub pipeline: PipelineStats,
    /// Per-unit summaries, indexed by [`UnitId::index`].
    pub units: Vec<UnitTrace>,
}

impl IterationTrace {
    /// Iteration length in cycles.
    pub fn cycles(&self) -> u64 {
        self.end_cycle.saturating_sub(self.start_cycle) + 1
    }

    /// Snapshot cycles actually captured (every unit samples once per
    /// captured cycle, so the first unit's row count is the figure).
    pub fn sampled_cycles(&self) -> u64 {
        self.units.first().map_or(0, |u| u.cycle_rows)
    }

    /// The summary for one unit.
    pub fn unit(&self, unit: UnitId) -> &UnitTrace {
        &self.units[unit.index()]
    }
}

/// One unit's fold state. The tracer keeps one per unit for its whole
/// life: [`UnitBuilder::finish`] hands out the open iteration's summary
/// and resets the builder in place, keeping its buffers.
struct UnitBuilder {
    /// Absorbs `(row digest, run length)` as each run of equal rows closes.
    hasher: SipHasher,
    /// Absorbs the row digest of each run.
    timeless_hasher: SipHasher,
    /// A row of the current run; meaningful only while `run > 0` and
    /// `row_known`.
    last_row: Vec<u64>,
    /// Whether `last_row` holds a row of the current run: not when the run
    /// was opened by [`Tracer::record_digest`], which has no row.
    row_known: bool,
    /// Row digest of the current run.
    last_digest: u64,
    /// Length of the current run (0 before the iteration's first row).
    run: u64,
    /// The source version recorded with the current run's row by
    /// [`Tracer::record_versioned`]; `None` when no run is open or its row
    /// came through [`Tracer::record_row`].
    version: Option<u64>,
    /// Whether this unit's features are collected
    /// ([`TraceConfig::features`]). When not, `seen` and `order` stay
    /// empty.
    collect: bool,
    /// Membership index over `order`. Holds every non-zero value of
    /// `last_row` while `run > 0` and `row_known`.
    seen: HashSet<u64, BuildHasherDefault<MulShift>>,
    order: Vec<u64>,
    rows: Option<Vec<Vec<u64>>>,
    cycle_rows: u64,
}

impl UnitBuilder {
    fn new(cfg: &TraceConfig, unit: UnitId) -> UnitBuilder {
        UnitBuilder {
            hasher: snapshot_hasher(),
            timeless_hasher: snapshot_hasher(),
            last_row: Vec::new(),
            row_known: false,
            last_digest: 0,
            run: 0,
            version: None,
            collect: cfg.features.contains(unit),
            seen: HashSet::default(),
            order: Vec::new(),
            rows: cfg.keep_matrices.then(Vec::new),
            cycle_rows: 0,
        }
    }

    /// Folds one row into the hash/feature accumulators; returns the
    /// number of bytes fed to the SipHash streams on the row's behalf.
    fn fold_row(&mut self, row: &[u64]) -> u64 {
        if let Some(rows) = &mut self.rows {
            rows.push(row.to_vec());
        }
        // An unchanged row only extends the run: its values are already
        // features (they were recorded when this row content first
        // appeared).
        let known = self.run > 0 && self.row_known;
        if known && self.last_row == row {
            self.cycle_rows += 1;
            self.run += 1;
            return 0;
        }
        if self.collect {
            // Every non-zero value of the previous row is already a
            // feature, so values carried over from it need no membership
            // check: first the prefix that continues it shifted left
            // (queues retiring from the head), then the positions whose
            // value is unchanged.
            let prev: &[u64] = if known { &self.last_row } else { &[] };
            let skip = shifted_prefix(prev, row);
            for (i, &v) in row.iter().enumerate().skip(skip) {
                if v != 0 && prev.get(i) != Some(&v) && self.seen.insert(v) {
                    self.order.push(v);
                }
            }
        }
        self.last_row.clear();
        self.last_row.extend_from_slice(row);
        self.row_known = true;
        self.fold_digest(row_digest(row))
    }

    /// Folds one row known by its digest: a digest equal to the run's
    /// extends the run, any other closes it and opens a new one. Returns
    /// the number of bytes fed to the SipHash streams: the digest into the
    /// timeless hash and the `(digest, run length)` pair its run closes
    /// with, once per run.
    fn fold_digest(&mut self, digest: u64) -> u64 {
        self.cycle_rows += 1;
        if self.run > 0 && digest == self.last_digest {
            self.run += 1;
            return 0;
        }
        self.close_run();
        self.timeless_hasher.write_u64(digest);
        self.last_digest = digest;
        self.run = 1;
        24
    }

    /// Feeds the current run, if any, to the full hasher.
    fn close_run(&mut self) {
        if self.run > 0 {
            self.hasher.write_u64(self.last_digest);
            self.hasher.write_u64(self.run);
        }
    }

    /// Closes the iteration: returns its summary and resets the builder
    /// to a fresh fold, keeping its buffers.
    fn finish(&mut self) -> UnitTrace {
        self.close_run();
        self.run = 0;
        self.row_known = false;
        self.version = None;
        self.seen.clear();
        UnitTrace {
            hash: std::mem::replace(&mut self.hasher, snapshot_hasher()).finish(),
            hash_timeless: std::mem::replace(&mut self.timeless_hasher, snapshot_hasher()).finish(),
            order: self.collect.then(|| std::mem::take(&mut self.order)),
            rows: self.rows.as_mut().map(std::mem::take),
            cycle_rows: std::mem::take(&mut self.cycle_rows),
        }
    }
}

/// Length of the prefix of `row` that continues `prev` from its first
/// entry `k >= 1` equal to `row[0]`, i.e. the part of a queue row that
/// only moved left as head entries retired; 0 when the head value did
/// not change or does not occur in `prev`.
fn shifted_prefix(prev: &[u64], row: &[u64]) -> usize {
    let Some(&head) = row.first() else { return 0 };
    if prev.first() == Some(&head) {
        return 0;
    }
    match prev.iter().skip(1).position(|&v| v == head) {
        Some(k) => row.iter().zip(&prev[k + 1..]).take_while(|(a, b)| a == b).count(),
        None => 0,
    }
}

struct InProgress {
    label: u64,
    start_cycle: u64,
    last_cycle: u64,
    dropped: u64,
}

/// Collects per-cycle unit rows into labeled [`IterationTrace`]s,
/// optionally also emitting the text log format. Each row is folded into
/// its unit's hashers as it arrives.
pub struct Tracer {
    cfg: TraceConfig,
    in_scr: bool,
    current: Option<InProgress>,
    /// `ITER_START` markers still to pass over untraced
    /// ([`TraceConfig::warmup_iterations`]).
    warmup_left: usize,
    /// Per-unit fold state, indexed by [`UnitId::index`]; reset in place
    /// as each iteration closes.
    units: Vec<UnitBuilder>,
    /// Completed iterations in commit order.
    pub iterations: Vec<IterationTrace>,
    /// Unit rows sampled so far (telemetry volume counter).
    pub rows_sampled: u64,
    /// Bytes fed to the two SipHash streams so far: per run of rows with
    /// one row digest, 8 for the digest into the timeless hash and 16 for
    /// the `(digest, run length)` pair into the full hash. A row's words
    /// go into its digest, not into SipHash, and a row that extends a run
    /// feeds nothing.
    pub hash_bytes: u64,
    /// Matrix cells retained so far (nonzero only with
    /// [`TraceConfig::keep_matrices`]).
    pub matrix_cells: u64,
    /// Snapshot cycles dropped by injected capture faults so far.
    pub dropped_cycles: u64,
    /// Snapshot bits flipped by injected capture faults so far.
    pub bit_flips: u64,
    /// Derived from [`TraceConfig::faults`]; `None` means no injection.
    fault_plan: Option<FaultPlan>,
    /// The cycle begun by [`Tracer::begin_cycle`] is a dropped capture:
    /// its `record_row` calls are suppressed.
    drop_this_cycle: bool,
    /// Guards double-counting a drop when the same cycle is begun twice
    /// (the parser replays one `D` record per lost cycle).
    counted_drop_for: Option<u64>,
    /// Pipeline deltas for the open iteration, staged by
    /// [`Tracer::set_pipeline`] and consumed when the iteration closes.
    current_pipeline: PipelineStats,
    log: Option<String>,
}

impl Tracer {
    /// Creates a tracer.
    pub fn new(cfg: TraceConfig) -> Tracer {
        Tracer {
            cfg,
            in_scr: false,
            current: None,
            warmup_left: cfg.warmup_iterations,
            units: UnitId::ALL.iter().map(|&unit| UnitBuilder::new(&cfg, unit)).collect(),
            iterations: Vec::new(),
            rows_sampled: 0,
            hash_bytes: 0,
            matrix_cells: 0,
            dropped_cycles: 0,
            bit_flips: 0,
            fault_plan: cfg.faults.map(FaultPlan::new),
            drop_this_cycle: false,
            counted_drop_for: None,
            current_pipeline: PipelineStats::default(),
            log: None,
        }
    }

    /// Starts accumulating the text log (paper's simulator-log pipeline).
    pub fn enable_log(&mut self) {
        self.log = Some(String::from("# MicroSampler trace log v1\n"));
    }

    /// The accumulated text log, if enabled.
    pub fn log_text(&self) -> Option<&str> {
        self.log.as_deref()
    }

    /// Whether sampling should run this cycle.
    pub fn active(&self) -> bool {
        self.in_scr && self.current.is_some()
    }

    /// Handles an `SCR_START` marker commit.
    pub fn scr_start(&mut self, cycle: u64) {
        self.in_scr = true;
        if let Some(log) = &mut self.log {
            log.push_str(&format!("M SCR_START {cycle}\n"));
        }
    }

    /// Handles an `SCR_END` marker commit.
    pub fn scr_end(&mut self, cycle: u64) {
        self.in_scr = false;
        if let Some(log) = &mut self.log {
            log.push_str(&format!("M SCR_END {cycle}\n"));
        }
    }

    /// Handles an `ITER_START` marker commit. An unterminated previous
    /// iteration is closed first. The first
    /// [`TraceConfig::warmup_iterations`] markers open nothing and are
    /// not logged.
    pub fn iter_start(&mut self, cycle: u64, label: u64) {
        self.iter_end(cycle);
        if self.warmup_left > 0 {
            self.warmup_left -= 1;
            return;
        }
        self.current_pipeline = PipelineStats::default();
        self.current =
            Some(InProgress { label, start_cycle: cycle, last_cycle: cycle, dropped: 0 });
        if let Some(log) = &mut self.log {
            log.push_str(&format!("M ITER_START {cycle} {label}\n"));
        }
    }

    /// Stages the pipeline profiling deltas for the open iteration (the
    /// core calls this right before the closing marker commit). No-op when
    /// no iteration is open, so stray marker sequences leave no residue.
    pub fn set_pipeline(&mut self, pipeline: PipelineStats) {
        if self.current.is_none() {
            return;
        }
        self.current_pipeline = pipeline;
        if let Some(log) = &mut self.log {
            log.push('P');
            for v in pipeline.to_array() {
                log.push_str(&format!(" {v}"));
            }
            log.push('\n');
        }
    }

    /// Handles an `ITER_END` marker commit.
    pub fn iter_end(&mut self, cycle: u64) {
        if let Some(cur) = self.current.take() {
            self.iterations.push(IterationTrace {
                label: cur.label,
                start_cycle: cur.start_cycle,
                end_cycle: cur.last_cycle,
                dropped_cycles: cur.dropped,
                pipeline: std::mem::take(&mut self.current_pipeline),
                units: self.units.iter_mut().map(UnitBuilder::finish).collect(),
            });
            if let Some(log) = &mut self.log {
                log.push_str(&format!("M ITER_END {cycle}\n"));
            }
        }
    }

    /// Records one unit's row for the current cycle. Call exactly once per
    /// unit per active cycle, after [`Tracer::begin_cycle`]. With fault
    /// injection configured, the row may be bit-flipped before folding
    /// (post-flip values are also what the text log records), and rows of
    /// a dropped cycle are discarded wholesale.
    pub fn record_row(&mut self, unit: UnitId, row: &[u64]) {
        self.record(unit, None, row);
    }

    /// [`Tracer::record_row`] for a row built from a source whose
    /// `version` changes whenever the row may have changed: while the
    /// unit's run stays open, [`Tracer::repeat_unchanged`] with the same
    /// version extends it without the row.
    pub(crate) fn record_versioned(&mut self, unit: UnitId, version: u64, row: &[u64]) {
        self.record(unit, Some(version), row);
    }

    /// Records `unit`'s row for the current cycle without the row, when
    /// that is exact: `version` equals the one [`Tracer::record_versioned`]
    /// or [`Tracer::record_digest`] stored with the unit's open run, so the
    /// row equals the run's row and only extends the run. Returns `false`,
    /// recording nothing, when the row is needed: at the start of an
    /// iteration, after a plain [`Tracer::record_row`] or a version change,
    /// with matrices kept, the text log on or a fault plan set, and in a
    /// dropped cycle (whose rows record nothing either way). The caller
    /// then passes the row to [`Tracer::record_versioned`], or its digest
    /// to [`Tracer::record_digest`] where [`Tracer::wants_rows`] allows.
    #[inline]
    pub(crate) fn repeat_unchanged(&mut self, unit: UnitId, version: u64) -> bool {
        let b = &mut self.units[unit.index()];
        if b.version != Some(version)
            || self.current.is_none()
            || self.drop_this_cycle
            || self.cfg.keep_matrices
            || self.fault_plan.is_some()
            || self.log.is_some()
        {
            return false;
        }
        b.run += 1;
        b.cycle_rows += 1;
        self.rows_sampled += 1;
        true
    }

    /// Whether `unit`'s rows must be passed as rows: with matrices kept,
    /// the text log on or a fault plan set (which keep, log or flip the
    /// row itself), and for a unit whose features are collected. Otherwise
    /// the caller may pass a row by its digest to [`Tracer::record_digest`].
    #[inline]
    pub(crate) fn wants_rows(&self, unit: UnitId) -> bool {
        self.cfg.keep_matrices
            || self.log.is_some()
            || self.fault_plan.is_some()
            || self.units[unit.index()].collect
    }

    /// Records `unit`'s row for the current cycle by its row digest alone,
    /// with the version of its source as [`Tracer::record_versioned`]
    /// takes it (`None` for a source without one). Only where
    /// [`Tracer::wants_rows`] is false, so no row is kept, logged, flipped
    /// or mined for features: the fold then reads nothing of the row but
    /// its digest, and folds exactly what [`Tracer::record_versioned`]
    /// with the row would.
    pub(crate) fn record_digest(&mut self, unit: UnitId, version: Option<u64>, digest: u64) {
        debug_assert!(!self.wants_rows(unit), "{unit}: the row itself is needed");
        if self.current.is_none() || self.drop_this_cycle {
            return;
        }
        self.rows_sampled += 1;
        let b = &mut self.units[unit.index()];
        self.hash_bytes += b.fold_digest(digest);
        b.row_known = false;
        b.version = version;
    }

    /// The row digest of `unit`'s open run, if any.
    pub(crate) fn run_digest(&self, unit: UnitId) -> Option<u64> {
        let b = &self.units[unit.index()];
        (b.run > 0).then_some(b.last_digest)
    }

    fn record(&mut self, unit: UnitId, version: Option<u64>, row: &[u64]) {
        if self.current.is_none() || self.drop_this_cycle {
            return;
        }
        let flipped = self.flip_row(unit, row);
        let row: &[u64] = flipped.as_deref().unwrap_or(row);
        self.rows_sampled += 1;
        let b = &mut self.units[unit.index()];
        self.hash_bytes += b.fold_row(row);
        b.version = version;
        if self.cfg.keep_matrices {
            self.matrix_cells += row.len() as u64;
        }
        if let Some(log) = &mut self.log {
            let cycle = self.current.as_ref().expect("checked above").last_cycle;
            log.push_str(&format!("C {cycle} {}", unit.name()));
            for v in row {
                log.push_str(&format!(" {v:x}"));
            }
            log.push('\n');
        }
    }

    /// Applies the fault plan's bit-flip for `(current cycle, unit)`, if
    /// one fires: returns the perturbed copy of `row`.
    fn flip_row(&mut self, unit: UnitId, row: &[u64]) -> Option<Vec<u64>> {
        let plan = self.fault_plan.as_ref()?;
        let cycle = self.current.as_ref()?.last_cycle;
        let salt = plan.bitflip_at(cycle, unit.index())?;
        if row.is_empty() {
            return None;
        }
        let mut out = row.to_vec();
        let bit = salt % (out.len() as u64 * 64);
        out[(bit / 64) as usize] ^= 1 << (bit % 64);
        self.bit_flips += 1;
        Some(out)
    }

    /// Marks the cycle being sampled (call before the `record_row` batch).
    /// With fault injection configured this is also where the plan decides
    /// whether the cycle's capture is dropped.
    pub fn begin_cycle(&mut self, cycle: u64) {
        self.drop_this_cycle = false;
        if let Some(cur) = &mut self.current {
            cur.last_cycle = cycle;
        }
        if self.current.is_some()
            && self.fault_plan.as_ref().is_some_and(|p| p.drop_cycle_at(cycle))
        {
            self.drop_cycle(cycle);
        }
    }

    /// Records a lost snapshot capture for `cycle`: the cycle cursor still
    /// advances, but the cycle's `record_row` calls are suppressed and the
    /// loss is counted (and logged as a `D` record, so faulted text logs
    /// round-trip). Invoked by the fault plan on the live path and by
    /// [`parse_text_log`] when replaying `D` records.
    pub fn drop_cycle(&mut self, cycle: u64) {
        if self.current.is_none() {
            return;
        }
        self.drop_this_cycle = true;
        let first = self.counted_drop_for != Some(cycle);
        if let Some(cur) = &mut self.current {
            cur.last_cycle = cycle;
            if first {
                cur.dropped += 1;
            }
        }
        if first {
            self.counted_drop_for = Some(cycle);
            self.dropped_cycles += 1;
            if let Some(log) = &mut self.log {
                log.push_str(&format!("D {cycle}\n"));
            }
        }
    }
}

/// Errors from [`parse_text_log`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseLogError {
    /// 1-based line number.
    pub line: u32,
    /// Description.
    pub message: String,
}

impl fmt::Display for ParseLogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace log line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseLogError {}

/// Parses a text trace log back into [`IterationTrace`]s (the MicroSampler
/// Parser of paper step ②). Produces summaries identical to the ones a
/// live [`Tracer`] under `cfg` builds, so features are collected for the
/// units in `cfg.features` only. `cfg.warmup_iterations` is ignored: a log
/// holds only the iterations its tracer kept.
///
/// # Errors
///
/// Returns [`ParseLogError`] on malformed lines.
pub fn parse_text_log(text: &str, cfg: TraceConfig) -> Result<Vec<IterationTrace>, ParseLogError> {
    let _span = microsampler_obs::span::span("parse");
    let mut tracer = Tracer::new(TraceConfig { warmup_iterations: 0, ..cfg });
    for (idx, line) in text.lines().enumerate() {
        let lno = idx as u32 + 1;
        let err = |m: String| ParseLogError { line: lno, message: m };
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("M") => {
                let kind = parts.next().ok_or_else(|| err("missing marker kind".into()))?;
                let cycle: u64 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err("missing marker cycle".into()))?;
                match kind {
                    "SCR_START" => tracer.scr_start(cycle),
                    "SCR_END" => tracer.scr_end(cycle),
                    "ITER_START" => {
                        let label: u64 = parts
                            .next()
                            .and_then(|s| s.parse().ok())
                            .ok_or_else(|| err("missing iteration label".into()))?;
                        tracer.iter_start(cycle, label);
                    }
                    "ITER_END" => tracer.iter_end(cycle),
                    other => return Err(err(format!("unknown marker `{other}`"))),
                }
            }
            Some("C") => {
                let cycle: u64 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err("missing cycle".into()))?;
                let unit_name = parts.next().ok_or_else(|| err("missing unit".into()))?;
                let unit = UnitId::from_name(unit_name)
                    .ok_or_else(|| err(format!("unknown unit `{unit_name}`")))?;
                let mut row = Vec::new();
                for tok in parts {
                    row.push(
                        u64::from_str_radix(tok, 16)
                            .map_err(|_| err(format!("bad value `{tok}`")))?,
                    );
                }
                tracer.begin_cycle(cycle);
                tracer.record_row(unit, &row);
            }
            Some("D") => {
                let cycle: u64 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err("missing dropped cycle".into()))?;
                tracer.drop_cycle(cycle);
            }
            Some("P") => {
                let mut vals = [0u64; PipelineStats::FIELDS];
                for slot in vals.iter_mut() {
                    *slot = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| err("bad pipeline record".into()))?;
                }
                if parts.next().is_some() {
                    return Err(err("trailing pipeline values".into()));
                }
                tracer.set_pipeline(PipelineStats::from_array(vals));
            }
            Some(other) => return Err(err(format!("unknown record `{other}`"))),
            None => {}
        }
    }
    // An unterminated trailing iteration (truncated log) is dropped, like
    // the live tracer drops an iteration whose ITER_END never commits.
    Ok(tracer.iterations)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tracer(keep: bool) -> Tracer {
        let mut t = Tracer::new(TraceConfig { keep_matrices: keep, ..TraceConfig::default() });
        t.enable_log();
        t.scr_start(10);
        t.iter_start(10, 1);
        t.begin_cycle(11);
        t.record_row(UnitId::SqAddr, &[0x100, 0, 0]);
        t.record_row(UnitId::RobOccupancy, &[3]);
        t.begin_cycle(12);
        t.record_row(UnitId::SqAddr, &[0x100, 0, 0]);
        t.record_row(UnitId::RobOccupancy, &[4]);
        t.begin_cycle(13);
        t.record_row(UnitId::SqAddr, &[0x100, 0x200, 0]);
        t.record_row(UnitId::RobOccupancy, &[4]);
        t.set_pipeline(PipelineStats { cycles: 4, committed: 6, ..PipelineStats::default() });
        t.iter_end(14);
        t.scr_end(14);
        t
    }

    /// The run-length fold written plainly: group consecutive equal rows,
    /// digest each group's row with the reference digest, and collect
    /// features with a `BTreeSet`.
    fn reference_fold(rows: &[Vec<u64>]) -> UnitTrace {
        let (mut full, mut timeless) = (snapshot_hasher(), snapshot_hasher());
        let mut features = std::collections::BTreeSet::new();
        let mut order = Vec::new();
        for run in rows.chunk_by(|a, b| a == b) {
            let row = &run[0];
            let digest = crate::digest::reference_digest(row);
            timeless.write_u64(digest);
            full.write_u64(digest);
            full.write_u64(run.len() as u64);
            for &v in row {
                if v != 0 && features.insert(v) {
                    order.push(v);
                }
            }
        }
        UnitTrace {
            hash: full.finish(),
            hash_timeless: timeless.finish(),
            order: Some(order),
            rows: None,
            cycle_rows: rows.len() as u64,
        }
    }

    fn fold(rows: &[Vec<u64>]) -> UnitTrace {
        let mut b = UnitBuilder::new(&TraceConfig::default(), UnitId::SqAddr);
        for row in rows {
            b.fold_row(row);
        }
        b.finish()
    }

    /// `rows` with consecutive duplicate rows merged.
    fn dedup(rows: &[Vec<u64>]) -> Vec<Vec<u64>> {
        let mut out = rows.to_vec();
        out.dedup();
        out
    }

    /// `prev` with its first `shift` values retired, `values` appended and
    /// the result zero-padded or cut to `prev`'s width, like a queue row
    /// whose head entries committed.
    fn shifted(prev: &[u64], shift: usize, values: &[u64]) -> Vec<u64> {
        let mut row = prev[shift.min(prev.len())..].to_vec();
        row.extend_from_slice(values);
        row.resize(prev.len(), 0);
        row
    }

    /// Rows for the equivalence proptest: four short rows, two of which
    /// share their first word and two of which are zero-padded versions of
    /// each other, so equal and near-equal matrices are common.
    const ALPHABET: [&[u64]; 4] = [&[], &[1], &[1, 0], &[0, 1]];

    proptest::proptest! {
        /// Rows over a small alphabet (zeros, values repeated across and
        /// within rows), of changing widths, with exact repeats and
        /// shifted copies of the previous row mixed in.
        #[test]
        fn fold_equals_run_length_reference(
            steps in proptest::collection::vec(
                (0u8..3, 1usize..4, proptest::collection::vec(0u64..6, 0..6)),
                0..48,
            ),
        ) {
            let mut rows: Vec<Vec<u64>> = Vec::new();
            for (kind, shift, values) in steps {
                let row = match (kind, rows.last()) {
                    (1, Some(prev)) => prev.clone(),
                    (2, Some(prev)) => shifted(prev, shift, &values),
                    _ => values,
                };
                rows.push(row);
            }
            proptest::prop_assert_eq!(fold(&rows), reference_fold(&rows));
        }

        /// One builder folding matrix after matrix, finished between
        /// them, summarises each exactly as the reference does: nothing
        /// of one iteration's fold (run, row, features, kept rows) leaks
        /// into the next. Tiny rows make a matrix that starts with the
        /// previous one's last row common.
        #[test]
        fn reused_builder_folds_each_matrix_afresh(
            matrices in proptest::collection::vec(
                proptest::collection::vec(proptest::collection::vec(0u64..3, 0..3), 0..6),
                0..6,
            ),
        ) {
            let cfg = TraceConfig { keep_matrices: true, ..TraceConfig::default() };
            let mut builder = UnitBuilder::new(&cfg, UnitId::SqAddr);
            for rows in &matrices {
                for row in rows {
                    builder.fold_row(row);
                }
                let expect = UnitTrace { rows: Some(rows.clone()), ..reference_fold(rows) };
                proptest::prop_assert_eq!(builder.finish(), expect);
            }
        }

        /// The fold's two hashes partition matrices exactly as equality
        /// and equality after merging consecutive duplicate rows do. `b` is
        /// `a` itself, `a` with one row repeated, `a` with one row removed,
        /// or an independent matrix, so every relation occurs often.
        #[test]
        fn fold_hashes_partition_like_matrix_equality(
            a in proptest::collection::vec(0usize..4, 0..8),
            other in proptest::collection::vec(0usize..4, 0..8),
            op in 0u8..4,
            at in proptest::prelude::any::<usize>(),
        ) {
            let a: Vec<Vec<u64>> = a.iter().map(|&i| ALPHABET[i].to_vec()).collect();
            let mut b = a.clone();
            match op {
                1 if !b.is_empty() => b.insert(at % b.len(), b[at % b.len()].clone()),
                2 if !b.is_empty() => drop(b.remove(at % b.len())),
                3 => b = other.iter().map(|&i| ALPHABET[i].to_vec()).collect(),
                _ => {}
            }
            let (fa, fb) = (fold(&a), fold(&b));
            proptest::prop_assert_eq!(fa.hash == fb.hash, a == b, "{:?} vs {:?}", a, b);
            proptest::prop_assert_eq!(
                fa.hash_timeless == fb.hash_timeless,
                dedup(&a) == dedup(&b),
                "{:?} vs {:?}",
                a,
                b
            );
        }
    }

    /// A tracer with one iteration open and one cycle begun.
    fn open_tracer(cfg: TraceConfig) -> Tracer {
        let mut t = Tracer::new(cfg);
        t.scr_start(0);
        t.iter_start(0, 0);
        t.begin_cycle(1);
        t
    }

    #[test]
    fn versioned_shortcut_needs_a_same_version_run() {
        let unit = UnitId::TlbAddr;
        let mut t = open_tracer(TraceConfig::default());
        assert!(!t.repeat_unchanged(unit, 0), "refused at the start of an iteration");
        t.record_versioned(unit, 5, &[7, 0]);
        t.begin_cycle(2);
        assert!(!t.repeat_unchanged(unit, 6), "refused on another version");
        assert!(t.repeat_unchanged(unit, 5), "accepted on the run's version");
        t.begin_cycle(3);
        // A new version with an equal row extends the run under that version.
        t.record_versioned(unit, 6, &[7, 0]);
        t.begin_cycle(4);
        assert!(!t.repeat_unchanged(unit, 5));
        assert!(t.repeat_unchanged(unit, 6));
        t.begin_cycle(5);
        t.record_row(unit, &[7, 0]);
        t.begin_cycle(6);
        assert!(!t.repeat_unchanged(unit, 6), "refused after a plain record_row");
        t.record_versioned(unit, 6, &[7, 0]);
        assert_eq!(t.rows_sampled, 6, "one row per cycle: refusals record nothing");
        t.iter_end(7);
        assert_eq!(*t.iterations[0].unit(unit), fold(&vec![vec![7, 0]; 6]));
        t.iter_start(8, 1);
        t.begin_cycle(9);
        assert!(!t.repeat_unchanged(unit, 6), "refused at the next iteration's start");
    }

    #[test]
    fn versioned_shortcut_is_refused_when_the_row_itself_is_needed() {
        let kept = TraceConfig { keep_matrices: true, ..TraceConfig::default() };
        let faulted =
            TraceConfig { faults: Some(FaultConfig::default()), ..TraceConfig::default() };
        let mut logged = open_tracer(TraceConfig::default());
        logged.enable_log();
        for (what, mut t) in [
            ("keep_matrices", open_tracer(kept)),
            ("a fault plan", open_tracer(faulted)),
            ("the log", logged),
        ] {
            t.record_versioned(UnitId::SqPc, 3, &[1, 2]);
            t.begin_cycle(2);
            assert!(!t.repeat_unchanged(UnitId::SqPc, 3), "refused under {what}");
        }
        // A dropped cycle records nothing, shortcut or not.
        let mut t = open_tracer(TraceConfig::default());
        t.record_versioned(UnitId::SqPc, 3, &[1, 2]);
        t.begin_cycle(2);
        t.drop_cycle(2);
        assert!(!t.repeat_unchanged(UnitId::SqPc, 3), "refused in a dropped cycle");
        t.record_versioned(UnitId::SqPc, 3, &[1, 2]);
        assert_eq!(t.rows_sampled, 1);
    }

    /// The rows the shortcut proptest's versions stand for: versions 1
    /// and 2 give equal rows, so a version change need not change the row.
    const VERSIONED_ROWS: [&[u64]; 4] = [&[0, 0], &[4, 0], &[4, 0], &[4, 5]];

    proptest::proptest! {
        /// Driving a unit by version (the shortcut where the tracer takes
        /// it, else the row with its version) folds every iteration to the
        /// same summaries and counters as recording every row, whether or
        /// not another unit's rows are plain.
        #[test]
        fn versioned_rows_fold_like_plain_rows(
            iterations in proptest::collection::vec(
                proptest::collection::vec(0usize..VERSIONED_ROWS.len(), 0..24),
                1..4,
            ),
        ) {
            let (mut plain, mut versioned) =
                (Tracer::new(TraceConfig::default()), Tracer::new(TraceConfig::default()));
            let mut shortcuts = 0;
            for t in [&mut plain, &mut versioned] {
                t.scr_start(0);
            }
            let mut cycle = 0;
            for (label, versions) in iterations.iter().enumerate() {
                plain.iter_start(cycle, label as u64);
                versioned.iter_start(cycle, label as u64);
                for &v in versions {
                    cycle += 1;
                    let row = VERSIONED_ROWS[v];
                    plain.begin_cycle(cycle);
                    plain.record_row(UnitId::MshrAddr, row);
                    plain.record_row(UnitId::RobOccupancy, &[v as u64]);
                    versioned.begin_cycle(cycle);
                    if versioned.repeat_unchanged(UnitId::MshrAddr, v as u64) {
                        shortcuts += 1;
                    } else {
                        versioned.record_versioned(UnitId::MshrAddr, v as u64, row);
                    }
                    versioned.record_row(UnitId::RobOccupancy, &[v as u64]);
                }
                cycle += 1;
                plain.iter_end(cycle);
                versioned.iter_end(cycle);
            }
            proptest::prop_assert_eq!(&versioned.iterations, &plain.iterations);
            proptest::prop_assert_eq!(versioned.rows_sampled, plain.rows_sampled);
            proptest::prop_assert_eq!(versioned.hash_bytes, plain.hash_bytes);
            let repeats: usize = iterations
                .iter()
                .map(|vs| vs.windows(2).filter(|w| w[0] == w[1]).count())
                .sum();
            proptest::prop_assert_eq!(shortcuts, repeats, "every same-version repeat is a shortcut");
        }
    }

    proptest::proptest! {
        /// Recording one unit by its row digest (with the versioned
        /// shortcut where the tracer takes it) and another by digest with
        /// no version folds every iteration to the same summaries and
        /// counters as recording every row.
        #[test]
        fn digest_records_fold_like_plain_rows(
            iterations in proptest::collection::vec(
                proptest::collection::vec(
                    (0usize..VERSIONED_ROWS.len(), 0usize..ALPHABET.len()),
                    0..24,
                ),
                1..4,
            ),
        ) {
            let cfg = TraceConfig { features: UnitSet::NONE, ..TraceConfig::default() };
            let (mut plain, mut digested) = (Tracer::new(cfg), Tracer::new(cfg));
            for t in [&mut plain, &mut digested] {
                t.scr_start(0);
            }
            let mut cycle = 0;
            for (label, cycles) in iterations.iter().enumerate() {
                for t in [&mut plain, &mut digested] {
                    t.iter_start(cycle, label as u64);
                }
                for &(v, a) in cycles {
                    cycle += 1;
                    let (row, rob) = (VERSIONED_ROWS[v], ALPHABET[a]);
                    plain.begin_cycle(cycle);
                    plain.record_row(UnitId::SqAddr, row);
                    plain.record_row(UnitId::RobPc, rob);
                    digested.begin_cycle(cycle);
                    if !digested.repeat_unchanged(UnitId::SqAddr, v as u64) {
                        digested.record_digest(UnitId::SqAddr, Some(v as u64), row_digest(row));
                    }
                    digested.record_digest(UnitId::RobPc, None, row_digest(rob));
                }
                cycle += 1;
                for t in [&mut plain, &mut digested] {
                    t.iter_end(cycle);
                }
            }
            proptest::prop_assert_eq!(&digested.iterations, &plain.iterations);
            proptest::prop_assert_eq!(digested.rows_sampled, plain.rows_sampled);
            proptest::prop_assert_eq!(digested.hash_bytes, plain.hash_bytes);
        }
    }

    #[test]
    fn rows_are_wanted_exactly_where_the_row_itself_is_needed() {
        let sq = Tracer::new(TraceConfig {
            features: UnitSet::of(&[UnitId::SqAddr]),
            ..TraceConfig::default()
        });
        assert!(sq.wants_rows(UnitId::SqAddr), "its features are collected");
        assert!(!sq.wants_rows(UnitId::RobPc), "a digest is enough");
        let none = TraceConfig { features: UnitSet::NONE, ..TraceConfig::default() };
        let mut logged = Tracer::new(none);
        logged.enable_log();
        for (what, t) in [
            ("keep_matrices", Tracer::new(TraceConfig { keep_matrices: true, ..none })),
            (
                "a fault plan",
                Tracer::new(TraceConfig { faults: Some(FaultConfig::default()), ..none }),
            ),
            ("the log", logged),
        ] {
            for unit in UnitId::ALL {
                assert!(t.wants_rows(unit), "{unit} under {what}");
            }
        }
    }

    #[test]
    fn unit_names_roundtrip() {
        for (i, u) in UnitId::ALL.into_iter().enumerate() {
            assert_eq!(UnitId::from_name(u.name()), Some(u));
            assert_eq!(u.index(), i, "ALL lists the units in declaration order");
        }
        assert_eq!(UnitId::from_name("BOGUS"), None);
        assert_eq!(UnitId::ALL.len(), UnitId::COUNT);
    }

    #[test]
    fn features_and_order_collected() {
        let t = sample_tracer(false);
        let iter = &t.iterations[0];
        let sq = iter.unit(UnitId::SqAddr);
        assert_eq!(sq.order, Some(vec![0x100, 0x200]));
        assert_eq!(sq.cycle_rows, 3);
        assert_eq!(iter.cycles(), 13 - 10 + 1);
        assert_eq!(iter.label, 1);
    }

    #[test]
    fn unit_sets_hold_exactly_their_units() {
        let queues = UnitSet::of(&[UnitId::SqAddr, UnitId::RobPc]);
        for u in UnitId::ALL {
            assert!(UnitSet::ALL.contains(u) && !UnitSet::NONE.contains(u), "{u}");
            assert_eq!(queues.contains(u), matches!(u, UnitId::SqAddr | UnitId::RobPc), "{u}");
            assert_eq!(UnitSet::of(&[u]).union(UnitSet::NONE), UnitSet::of(&[u]));
        }
        let union = UnitSet::of(&[UnitId::SqAddr]).union(UnitSet::of(&[UnitId::RobPc]));
        assert_eq!(union, queues);
        assert_eq!(UnitSet::of(&UnitId::ALL), UnitSet::ALL);
        assert_eq!(UnitSet::of(&[]), UnitSet::NONE);
        assert_eq!(TraceConfig::default().features, UnitSet::ALL);
    }

    proptest::proptest! {
        /// Collecting features for any set of units folds every unit to
        /// the hashes, row counts and kept rows that collecting them for
        /// all units gives, with `order` `Some` exactly for the units in
        /// the set (and equal to the full collection's there); the counters
        /// agree too, and the full run's text log parses back under the set
        /// to the same summaries.
        #[test]
        fn any_feature_set_folds_the_hashes_of_all(
            members in proptest::collection::vec(proptest::prelude::any::<bool>(), UnitId::COUNT),
            keep_matrices in proptest::prelude::any::<bool>(),
            iterations in proptest::collection::vec(
                proptest::collection::vec(
                    (0u8..3, 1usize..4, proptest::collection::vec(0u64..6, 0..6)),
                    0..24,
                ),
                1..4,
            ),
        ) {
            let chosen: Vec<UnitId> =
                UnitId::ALL.into_iter().filter(|u| members[u.index()]).collect();
            let set = UnitSet::of(&chosen);
            let all_cfg = TraceConfig { keep_matrices, ..TraceConfig::default() };
            let set_cfg = TraceConfig { features: set, ..all_cfg };
            let (mut all, mut some) = (Tracer::new(all_cfg), Tracer::new(set_cfg));
            all.enable_log();
            let mut prev: Vec<Vec<u64>> = vec![Vec::new(); UnitId::COUNT];
            let mut cycle = 0;
            for t in [&mut all, &mut some] {
                t.scr_start(0);
            }
            for (label, cycles) in iterations.iter().enumerate() {
                for t in [&mut all, &mut some] {
                    t.iter_start(cycle, label as u64);
                }
                for (kind, shift, values) in cycles {
                    cycle += 1;
                    for t in [&mut all, &mut some] {
                        t.begin_cycle(cycle);
                    }
                    for unit in UnitId::ALL {
                        // Units see different values, some of them zero.
                        let fresh: Vec<u64> =
                            values.iter().map(|v| v * (unit.index() as u64 % 3)).collect();
                        let prev = &mut prev[unit.index()];
                        let row = match kind {
                            1 => prev.clone(),
                            2 => shifted(prev, *shift, &fresh),
                            _ => fresh,
                        };
                        all.record_row(unit, &row);
                        some.record_row(unit, &row);
                        *prev = row;
                    }
                }
                cycle += 1;
                for t in [&mut all, &mut some] {
                    t.iter_end(cycle);
                }
            }
            let mut want = all.iterations.clone();
            for it in &mut want {
                for (unit, u) in UnitId::ALL.iter().zip(&mut it.units) {
                    proptest::prop_assert!(u.order.is_some(), "ALL collects {}", unit);
                    if !set.contains(*unit) {
                        u.order = None;
                    }
                }
            }
            proptest::prop_assert_eq!(&some.iterations, &want);
            proptest::prop_assert_eq!(some.rows_sampled, all.rows_sampled);
            proptest::prop_assert_eq!(some.hash_bytes, all.hash_bytes);
            proptest::prop_assert_eq!(some.matrix_cells, all.matrix_cells);
            let parsed = parse_text_log(all.log_text().unwrap(), set_cfg).unwrap();
            proptest::prop_assert_eq!(parsed, want);
        }
    }

    #[test]
    fn order_lists_each_non_zero_value_once_in_first_seen_order() {
        // Zeros, a value that leaves and comes back, a queue shifting left
        // and a row rotating: each value is recorded once, when first seen.
        let rows: [&[u64]; 7] =
            [&[5, 0, 5], &[0, 0, 0], &[7, 5, 0], &[5, 0, 0], &[9, 7, 5], &[7, 5, 0], &[5, 9, 7]];
        let mut t = Tracer::new(TraceConfig::default());
        t.scr_start(0);
        t.iter_start(0, 0);
        for (cycle, row) in (1..).zip(rows) {
            t.begin_cycle(cycle);
            t.record_row(UnitId::SqAddr, row);
        }
        t.iter_end(8);
        let sq = t.iterations[0].unit(UnitId::SqAddr);
        assert_eq!(sq.order, Some(vec![5, 7, 9]));
        assert_eq!(sq.cycle_rows, 7);
    }

    #[test]
    fn timeless_hash_collapses_duplicates() {
        let t = sample_tracer(false);
        let sq = t.iterations[0].unit(UnitId::SqAddr);
        // Rows: A A B → timeless = A B; full = A A B. Hashes differ.
        assert_ne!(sq.hash, sq.hash_timeless);
        // ROB occupancy rows 3 4 4 → timeless 3 4.
        let rob = t.iterations[0].unit(UnitId::RobOccupancy);
        assert_ne!(rob.hash, rob.hash_timeless);
    }

    #[test]
    fn identical_matrices_hash_equal() {
        let t1 = sample_tracer(false);
        let t2 = sample_tracer(false);
        assert_eq!(
            t1.iterations[0].unit(UnitId::SqAddr).hash,
            t2.iterations[0].unit(UnitId::SqAddr).hash
        );
    }

    #[test]
    fn matrices_kept_when_requested() {
        let t = sample_tracer(true);
        let rows = t.iterations[0].unit(UnitId::SqAddr).rows.as_ref().unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2], vec![0x100, 0x200, 0]);
        let t2 = sample_tracer(false);
        assert!(t2.iterations[0].unit(UnitId::SqAddr).rows.is_none());
    }

    #[test]
    fn log_parses_back_to_identical_summaries() {
        let t = sample_tracer(false);
        let parsed = parse_text_log(t.log_text().unwrap(), TraceConfig::default()).unwrap();
        assert_eq!(parsed, t.iterations);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_text_log("X what\n", TraceConfig::default()).is_err());
        assert!(parse_text_log("C 5 NOT-A-UNIT 1 2\n", TraceConfig::default()).is_err());
        assert!(parse_text_log("M WHAT 5\n", TraceConfig::default()).is_err());
        let e = parse_text_log("# ok\nM ITER_START nope\n", TraceConfig::default()).unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn unterminated_iteration_flushed_by_next_start() {
        let mut t = Tracer::new(TraceConfig::default());
        t.scr_start(0);
        t.iter_start(1, 7);
        t.begin_cycle(2);
        t.record_row(UnitId::SqAddr, &[1]);
        t.iter_start(3, 8); // implicitly ends iteration 7
        t.iter_end(4);
        assert_eq!(t.iterations.len(), 2);
        assert_eq!(t.iterations[0].label, 7);
        assert_eq!(t.iterations[1].label, 8);
    }

    #[test]
    fn rows_of_different_widths_hash_differently() {
        let cfg = TraceConfig::default();
        let mut a = UnitBuilder::new(&cfg, UnitId::SqAddr);
        a.fold_row(&[1, 0]);
        a.fold_row(&[2, 0]);
        let mut b = UnitBuilder::new(&cfg, UnitId::SqAddr);
        b.fold_row(&[1, 0, 2, 0]);
        assert_ne!(a.finish().hash, b.finish().hash);
    }

    fn drive_faulted(faults: Option<FaultConfig>) -> Tracer {
        drive(TraceConfig { faults, ..TraceConfig::default() })
    }

    /// Three marked iterations of 24 sampled cycles each, logged.
    fn drive(cfg: TraceConfig) -> Tracer {
        let mut t = Tracer::new(cfg);
        t.enable_log();
        t.scr_start(0);
        for i in 0..3u64 {
            t.iter_start(i * 100, i);
            for c in 0..24u64 {
                t.begin_cycle(i * 100 + 1 + c);
                t.record_row(UnitId::SqAddr, &[0x100 + c, 0x200]);
                t.record_row(UnitId::RobOccupancy, &[c % 4]);
            }
            t.iter_end(i * 100 + 30);
        }
        t.scr_end(350);
        t
    }

    fn heavy_faults() -> FaultConfig {
        FaultConfig {
            seed: 9,
            drop_row_per_64k: 20_000,
            bitflip_per_64k: 20_000,
            ..FaultConfig::default()
        }
    }

    #[test]
    fn injected_drops_and_flips_fire_and_perturb_hashes() {
        let clean = drive_faulted(None);
        let faulted = drive_faulted(Some(heavy_faults()));
        assert!(faulted.dropped_cycles > 0, "drop rate of ~30% over 48 cycles must fire");
        assert!(faulted.bit_flips > 0, "flip rate of ~30% over 96 rows must fire");
        assert_eq!(clean.dropped_cycles, 0);
        assert_eq!(clean.bit_flips, 0);
        assert_eq!(clean.iterations[0].dropped_cycles, 0);
        assert_ne!(
            clean.iterations[0].unit(UnitId::SqAddr).hash,
            faulted.iterations[0].unit(UnitId::SqAddr).hash
        );
        let it = &faulted.iterations[0];
        assert_eq!(it.sampled_cycles() + it.dropped_cycles, 24, "every cycle sampled or dropped");
        // Same plan, same schedule: re-driving reproduces everything.
        assert_eq!(drive_faulted(Some(heavy_faults())).iterations, faulted.iterations);
    }

    #[test]
    fn faulted_log_round_trips_with_plain_parse() {
        let faulted = drive_faulted(Some(heavy_faults()));
        let log = faulted.log_text().unwrap();
        assert!(log.contains("\nD "), "dropped cycles must be logged as D records");
        // Parse with faults off: flips are baked into logged values and
        // drops replay from D records.
        let parsed = parse_text_log(log, TraceConfig::default()).unwrap();
        assert_eq!(parsed, faulted.iterations);
        let parsed_dropped: u64 = parsed.iter().map(|i| i.dropped_cycles).sum();
        assert_eq!(parsed_dropped, faulted.dropped_cycles);
    }

    /// Warm-up markers are neither traced nor logged, so a log written
    /// with warm-up parses back to the kept iterations under any
    /// `warmup_iterations`, and those equal the fully traced run's tail.
    #[test]
    fn warmup_log_round_trips_to_the_kept_iterations() {
        let faults = Some(heavy_faults());
        let warm = drive(TraceConfig { faults, warmup_iterations: 2, ..TraceConfig::default() });
        assert_eq!(warm.iterations, drive_faulted(faults).iterations[2..]);
        let log = warm.log_text().unwrap();
        assert_eq!(log.matches("M ITER_START").count(), 1, "warm-up markers are not logged");
        for warmup_iterations in [0, 2] {
            let cfg = TraceConfig { warmup_iterations, ..TraceConfig::default() };
            assert_eq!(parse_text_log(log, cfg).unwrap(), warm.iterations);
        }
    }

    #[test]
    fn parse_rejects_bad_drop_record() {
        assert!(parse_text_log("D nope\n", TraceConfig::default()).is_err());
    }

    #[test]
    fn pipeline_deltas_attach_to_iterations_and_round_trip() {
        let t = sample_tracer(false);
        let expect = PipelineStats { cycles: 4, committed: 6, ..PipelineStats::default() };
        assert_eq!(t.iterations[0].pipeline, expect);
        let log = t.log_text().unwrap();
        assert!(log.contains("\nP 4 6 "), "pipeline record must be logged");
        let parsed = parse_text_log(log, TraceConfig::default()).unwrap();
        assert_eq!(parsed[0].pipeline, expect);
    }

    #[test]
    fn set_pipeline_without_open_iteration_leaves_no_residue() {
        let mut t = Tracer::new(TraceConfig::default());
        t.enable_log();
        t.scr_start(0);
        t.set_pipeline(PipelineStats { cycles: 99, ..PipelineStats::default() });
        t.iter_start(1, 0);
        t.begin_cycle(2);
        t.record_row(UnitId::SqAddr, &[1]);
        t.iter_end(3);
        t.scr_end(4);
        assert_eq!(t.iterations[0].pipeline, PipelineStats::default());
        assert!(!t.log_text().unwrap().contains("\nP "), "stray set must not be logged");
    }

    #[test]
    fn parse_rejects_bad_pipeline_record() {
        assert!(parse_text_log("P 1 2\n", TraceConfig::default()).is_err());
        let too_many = format!("P{}\n", " 1".repeat(PipelineStats::FIELDS + 1));
        assert!(parse_text_log(&too_many, TraceConfig::default()).is_err());
    }

    /// Every record kind the tracer writes: markers, rows and a pipeline
    /// record from [`sample_tracer`], dropped cycles from [`drive_faulted`].
    fn real_log_lines() -> Vec<String> {
        let logs = [sample_tracer(false), drive_faulted(Some(heavy_faults()))];
        logs.iter().flat_map(|t| t.log_text().unwrap().lines().map(String::from)).collect()
    }

    /// Lines no tracer writes, aimed at the parser's edges: missing,
    /// extra and unparsable fields, extreme cycles, labels and values.
    fn garbage_lines() -> Vec<String> {
        let max = u64::MAX;
        let mut lines: Vec<String> = [
            "",
            "#",
            "X what",
            "M",
            "M ITER_START",
            "M ITER_START 5",
            "M BOGUS 1",
            "C",
            "C 5",
            "C -1 SQ-ADDR 1",
            "C 5 NOT-A-UNIT 1",
            "C 5 ROB-PC",
            "C 5 SQ-ADDR zz",
            "C 5 SQ-ADDR 1ffffffffffffffff",
            "D",
            "D x",
            "P",
            "P 1 2",
            "\u{fffd} \u{0}",
        ]
        .map(String::from)
        .to_vec();
        lines.extend([
            format!("M ITER_START {max} {max}"),
            format!("M ITER_END {max}"),
            format!("M SCR_END {max}"),
            format!("C {max} LQ-PC {max:x} 0 0"),
            format!("D {max}"),
            format!("P{}", format!(" {max}").repeat(PipelineStats::FIELDS)),
            format!("P{}", " 1".repeat(PipelineStats::FIELDS + 1)),
        ]);
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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]
        /// A real log whose lines are truncated, duplicated, reordered,
        /// deleted or interleaved with garbage, then cut at a random byte,
        /// parses to `Ok` or to a `ParseLogError` naming one of its lines,
        /// with or without fault injection — it never panics.
        #[test]
        fn parse_text_log_never_panics_on_mangled_logs(
            edits in proptest::collection::vec(
                (0u8..5, proptest::prelude::any::<usize>(), proptest::prelude::any::<usize>()),
                0..12,
            ),
            end in proptest::prelude::any::<usize>(),
        ) {
            let mut lines = real_log_lines();
            let garbage = garbage_lines();
            for (op, at, arg) in edits {
                let (i, j) = (at % lines.len(), arg % lines.len());
                match op {
                    0 => cut(&mut lines[i], arg),
                    1 => lines.insert(i, lines[i].clone()),
                    2 => lines.swap(i, j),
                    3 => lines.insert(i, garbage[arg % garbage.len()].clone()),
                    _ if lines.len() > 1 => drop(lines.remove(i)),
                    _ => {}
                }
            }
            let mut text = lines.join("\n");
            cut(&mut text, end);
            let line_count = text.lines().count() as u32;
            let faulted = TraceConfig {
                keep_matrices: true,
                faults: Some(heavy_faults()),
                ..TraceConfig::default()
            };
            for cfg in [TraceConfig::default(), faulted] {
                match std::panic::catch_unwind(|| parse_text_log(&text, cfg)) {
                    Ok(Ok(_)) => {}
                    Ok(Err(e)) => proptest::prop_assert!(
                        (1..=line_count).contains(&e.line),
                        "{e}: not one of the input's {line_count} lines"
                    ),
                    Err(_) => panic!("parse_text_log panicked on:\n{text}"),
                }
            }
        }
    }
}
