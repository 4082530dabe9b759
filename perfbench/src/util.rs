//! Measurement plumbing shared by the workloads: the benchmark's own span
//! recorder, the program's metrics-registry counters, per-input failure
//! accounting, the determinism fingerprint, and small statistics helpers.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One span the benchmark recorded around a call into a layer.
#[derive(Clone, Debug)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Span recorder for traced runs. Disabled recorders run the closure and
/// record nothing, so untraced runs pay one branch per call.
pub struct Spans {
    origin: Instant,
    recs: Option<Mutex<Vec<SpanRec>>>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans { origin: Instant::now(), recs: enabled.then(|| Mutex::new(Vec::new())) }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; `f` receives the new span's id
    /// so nested calls (also on pool workers) can name it as their parent.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce(Option<usize>) -> R,
    ) -> R {
        let Some(recs) = &self.recs else {
            return f(None);
        };
        let id = {
            let mut recs = recs.lock().expect("span recorder poisoned by a panicking request");
            recs.push(SpanRec { name, start_ns: 0, end_ns: 0, parent, request });
            recs.len() - 1
        };
        let start = self.now_ns();
        let out = f(Some(id));
        let end = self.now_ns();
        let mut recs = recs.lock().expect("span recorder poisoned by a panicking request");
        recs[id].start_ns = start;
        recs[id].end_ns = end;
        out
    }

    pub fn records(&self) -> Vec<SpanRec> {
        self.recs.as_ref().map_or_else(Vec::new, |r| {
            r.lock().expect("span recorder poisoned by a panicking request").clone()
        })
    }
}

/// Per-layer totals derived from span records: calls, inclusive time, and
/// self time (duration minus the part covered by direct children; children
/// running in parallel on pool workers can cover more than the parent's
/// wall time, so self time is clamped at zero).
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTime {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn layer_times(recs: &[SpanRec]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns = vec![0u64; recs.len()];
    for r in recs {
        if let Some(p) = r.parent {
            child_ns[p] += r.end_ns - r.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (i, r) in recs.iter().enumerate() {
        let dur = r.end_ns - r.start_ns;
        let t = out.entry(r.name).or_default();
        t.calls += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(child_ns[i]);
    }
    out
}

/// Renders span records as JSON lines (one span per line).
pub fn spans_jsonl(recs: &[SpanRec]) -> String {
    let mut out = String::new();
    for (i, r) in recs.iter().enumerate() {
        let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}\n",
            r.name, r.start_ns, r.end_ns, r.request
        ));
    }
    out
}

/// Sums of the simulator's own counters in the process metrics registry
/// (`Machine::run` records one observation per run while it is enabled).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimCounts {
    pub cycles: u64,
    pub committed: u64,
    pub rows: u64,
}

impl SimCounts {
    pub fn read() -> SimCounts {
        let snap = microsampler_obs::metrics::snapshot();
        let sum = |name: &str| {
            snap.iter().find(|(n, _)| n == name).map_or(0, |(_, agg)| agg.sum.round() as u64)
        };
        SimCounts {
            cycles: sum("sim.cycles"),
            committed: sum("sim.committed"),
            rows: sum("trace.rows_sampled"),
        }
    }

    pub fn since(self, before: SimCounts) -> SimCounts {
        SimCounts {
            cycles: self.cycles - before.cycles,
            committed: self.committed - before.committed,
            rows: self.rows - before.rows,
        }
    }

    pub fn add(&mut self, other: SimCounts) {
        self.cycles += other.cycles;
        self.committed += other.committed;
        self.rows += other.rows;
    }
}

/// Failure accounting over the distinct inputs a run judged. An input
/// fails when any of its requests errors, panics, or returns a verdict
/// other than the expected one (including a repeat that differs from the
/// input's first verdict).
#[derive(Default)]
pub struct Tally {
    inputs: BTreeMap<u64, Option<String>>,
}

impl Tally {
    pub fn judge(&mut self, input: u64, result: Result<(), String>) {
        let slot = self.inputs.entry(input).or_insert(None);
        if let (None, Err(e)) = (&slot, result) {
            *slot = Some(e);
        }
    }

    pub fn attempted(&self) -> u64 {
        self.inputs.len() as u64
    }

    pub fn failures(&self) -> Vec<(u64, &str)> {
        self.inputs.iter().filter_map(|(k, v)| v.as_deref().map(|e| (*k, e))).collect()
    }
}

/// Runs one request, turning a panic into an error so that a failing
/// request is counted instead of aborting the run.
pub fn catch<R>(f: impl FnOnce() -> Result<R, String>) -> Result<R, String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(p) => Err(format!(
            "panic: {}",
            p.downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| p.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string payload>")
        )),
    }
}

/// Deterministic digest plus exact counts over the first
/// [`Fingerprint::window`] inputs of a run: two runs of the same code at
/// the same seed print the same fingerprint.
#[derive(Clone, Debug, Default)]
pub struct Fingerprint {
    pub window: usize,
    pub requests: usize,
    pub counts: SimCounts,
    pub trials_spent: u64,
    bytes: Vec<u8>,
}

impl Fingerprint {
    pub fn new(window: usize) -> Fingerprint {
        Fingerprint { window, ..Fingerprint::default() }
    }

    /// Whether input `i` falls inside the fingerprint window.
    pub fn covers(&self, i: usize) -> bool {
        i < self.window
    }

    pub fn absorb(
        &mut self,
        verdict: &[u8],
        hashes: impl IntoIterator<Item = u64>,
        counts: SimCounts,
    ) {
        self.requests += 1;
        self.counts.add(counts);
        self.bytes.extend_from_slice(verdict);
        for h in hashes {
            self.bytes.extend_from_slice(&h.to_le_bytes());
        }
    }

    pub fn digest(&self) -> u64 {
        microsampler_stats::siphash24(0x7065_7266, 0x6265_6e63, &self.bytes)
    }

    pub fn line(&self) -> String {
        let status = if self.requests == self.window { "complete" } else { "PARTIAL" };
        format!(
            "fingerprint ({status}: {}/{} inputs): digest={:016x} sim.cycles={} sim.committed={} trace.rows={} audit.trials_spent={}",
            self.requests,
            self.window,
            self.digest(),
            self.counts.cycles,
            self.counts.committed,
            self.counts.rows,
            self.trials_spent
        )
    }
}

/// Nearest-rank percentile (`q` in 0..=1) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median that averages the two middle samples of an even count.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Host memory high-water mark of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Host-speed yardstick: a fixed random read-modify-write walk over a
/// 1 MiB table, timed on `threads` threads at once. It runs no program
/// code, so only the host's speed moves it; the benchmark samples it
/// before set-up, about every second between requests (while the program
/// is idle) and after the workload has shut down.
pub struct HostSpeed {
    threads: usize,
    samples_ms: Vec<f64>,
    last: Instant,
}

const YARD_WORDS: usize = 1 << 17;
const YARD_STEPS: u64 = 8_000_000;
const YARD_EVERY: Duration = Duration::from_secs(1);

/// One thread's yardstick walk, in seconds (table set-up untimed).
fn yardstick_walk() -> f64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut xorshift = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut table: Vec<u64> = (0..YARD_WORDS).map(|_| xorshift()).collect();
    let start = Instant::now();
    let mut acc = 0u64;
    for _ in 0..YARD_STEPS {
        let i = xorshift() as usize & (YARD_WORDS - 1);
        if table[i] & 1 == 0 {
            acc = acc.wrapping_add(table[i]);
        } else {
            table[i] ^= acc.rotate_left(7);
        }
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64()
}

impl HostSpeed {
    pub fn new(threads: usize) -> HostSpeed {
        let mut h =
            HostSpeed { threads: threads.max(1), samples_ms: Vec::new(), last: Instant::now() };
        h.sample();
        h
    }

    /// Times the walk on every thread at once and records the harmonic
    /// mean: the pool steals work, so its throughput is the sum of the
    /// threads' speeds, and one slowed core costs it less than the
    /// arithmetic mean of the times would say.
    pub fn sample(&mut self) {
        let times: Vec<f64> = std::thread::scope(|scope| {
            let extra: Vec<_> = (1..self.threads).map(|_| scope.spawn(yardstick_walk)).collect();
            let mut times = vec![yardstick_walk()];
            times.extend(extra.into_iter().map(|h| h.join().expect("yardstick walk cannot panic")));
            times
        });
        let speed: f64 = times.iter().map(|t| 1.0 / t).sum();
        self.samples_ms.push(times.len() as f64 / speed * 1e3);
        self.last = Instant::now();
    }

    /// Samples when the last sample is more than a second old.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= YARD_EVERY {
            self.sample();
        }
    }

    pub fn median_ms(&self) -> f64 {
        median(&self.samples_ms)
    }

    pub fn samples(&self) -> usize {
        self.samples_ms.len()
    }
}
