//! Layered time-to-verdict benchmark for the MicroSampler workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <casestudy|audit|serve> --seed N --seconds S --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --smoke
//! ```
//!
//! Three closed-loop workloads, one client each, drive the crates' public
//! functions in this one process. With `--trace 0` the run prints the
//! end-to-end metrics; with `--trace 1` it re-drives every request through
//! the layers one call at a time, under the benchmark's own spans, and
//! prints the per-layer metrics. The last line of standard output is
//! always one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! See `README.md` for the workloads, metrics and layer table.

mod audit;
mod casestudy;
mod probes;
mod serve;
mod util;

use std::collections::BTreeMap;
use util::{median, percentile, Fingerprint, HostSpeed, SpanRec, Tally};

/// Set-up is repeated this many times per run and reported as a median.
pub const SETUP_REPEATS: usize = 25;

/// The host-speed yardstick's median on the reference host (2 vCPUs,
/// Intel Xeon) when it runs at its usual speed. End-to-end times are
/// reported at this speed: each is scaled by this over the run's own
/// yardstick median, so a host that slows down for minutes at a time
/// slows the yardstick and the workload alike and the metric holds still.
const YARD_REF_MS: f64 = 25.0;

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("verdicts_per_s", "1/s"),
    ("verdict_p50_ms", "ms"),
    ("verdict_p90_ms", "ms"),
    ("replay_p50_ms", "ms"),
    ("sim_cycles_per_s", "cycles/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with units. A workload that does not
/// exercise a layer reports 0 for it (see README.md).
const PER_LAYER: [(&str, &str); 28] = [
    ("isa.assemble_us", "us"),
    ("isa.assemble_calls", "count"),
    ("sim.load_us", "us"),
    ("sim.tick_ns_per_cycle", "ns"),
    ("sim.traced_ns_per_cycle", "ns"),
    ("sim.cycles", "count"),
    ("sim.committed", "count"),
    ("trace.capture_ns_per_cycle", "ns"),
    ("trace.fold_ns_per_row", "ns"),
    ("trace.rows", "count"),
    ("trace.cells", "count"),
    ("trace.repeat_row_frac", "ratio"),
    ("audit.chunks", "count"),
    ("audit.trials_spent", "count"),
    ("audit.warmup_frac", "ratio"),
    ("core.analyze_ms", "ms"),
    ("core.look_us", "us"),
    ("stats.distinct_hashes", "count"),
    ("par.busy_frac", "ratio"),
    ("journal.decode_mb_per_s", "MB/s"),
    ("journal.encode_us_per_trial", "us"),
    ("journal.bytes_per_trial", "bytes"),
    ("serve.exec_ms", "ms"),
    ("serve.protocol_ms", "ms"),
    ("serve.replay_exec_ms", "ms"),
    ("serve.replay_protocol_ms", "ms"),
    ("serve.stream_bytes", "bytes"),
    ("bench.trace_overhead_frac", "ratio"),
];

/// Run options shared by the workloads.
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Smoke-test sizes: tiny kernels and windows, every self-check on.
    pub tiny: bool,
    pub nproc: usize,
}

/// A per-layer value, or why its self-check invalidated it.
pub enum Layer {
    Value(f64),
    Invalid(String),
}

/// Everything one workload run measured.
pub struct Run {
    pub threads: usize,
    pub setup_s: Vec<f64>,
    pub requests: usize,
    /// Latencies the verdict percentiles are taken over: every request,
    /// except on `serve`, where only fresh jobs count.
    pub verdict_ms: Vec<f64>,
    pub replay_ms: Vec<f64>,
    /// Σ request latency: the client's busy time.
    pub busy_s: f64,
    /// Simulated cycles the program ran inside requests.
    pub sim_cycles: u64,
    pub tally: Tally,
    pub fingerprint: Fingerprint,
    pub layers: BTreeMap<&'static str, Layer>,
    /// Self-checks: name → detail on success, reason on failure.
    pub checks: Vec<(&'static str, Result<String, String>)>,
    pub spans: Vec<SpanRec>,
    pub notes: Vec<String>,
    pub host: HostSpeed,
}

impl Run {
    pub fn new(threads: usize, fingerprint_window: usize) -> Run {
        Run {
            threads,
            setup_s: Vec::new(),
            requests: 0,
            verdict_ms: Vec::new(),
            replay_ms: Vec::new(),
            busy_s: 0.0,
            sim_cycles: 0,
            tally: Tally::default(),
            fingerprint: Fingerprint::new(fingerprint_window),
            layers: BTreeMap::new(),
            checks: Vec::new(),
            spans: Vec::new(),
            notes: Vec::new(),
            host: HostSpeed::new(threads),
        }
    }

    /// Records a request that reached a verdict: its latency, the cycles
    /// it simulated, and which latency samples it joins.
    pub fn record(&mut self, latency_s: f64, cycles: u64, percentiles: bool, replay: bool) {
        self.requests += 1;
        self.busy_s += latency_s;
        self.sim_cycles += cycles;
        if percentiles {
            self.verdict_ms.push(latency_s * 1e3);
        }
        if replay {
            self.replay_ms.push(latency_s * 1e3);
        }
    }

    /// Records a per-layer value; a non-finite value (no samples) is
    /// recorded as invalid rather than printed.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unknown layer metric {name}");
        let layer = if value.is_finite() {
            Layer::Value(value)
        } else {
            Layer::Invalid("no samples".to_string())
        };
        self.layers.insert(name, layer);
    }

    /// End-to-end metrics as measured on this host, and scaled to the
    /// reference host speed (the reported values).
    fn end_to_end(&self) -> Result<[BTreeMap<&'static str, f64>; 2], String> {
        let mut m = BTreeMap::new();
        m.insert("setup_s", median(&self.setup_s));
        m.insert("verdicts_per_s", self.requests as f64 / self.busy_s);
        m.insert("verdict_p50_ms", median(&self.verdict_ms));
        m.insert("verdict_p90_ms", percentile(&self.verdict_ms, 0.9));
        m.insert("replay_p50_ms", median(&self.replay_ms));
        m.insert("sim_cycles_per_s", self.sim_cycles as f64 / self.busy_s);
        m.insert("peak_rss_mb", util::peak_rss_mb()?);
        for (name, v) in &m {
            if !v.is_finite() || *v <= 0.0 {
                return Err(format!("{name} has no valid samples ({v})"));
            }
        }
        let speed = YARD_REF_MS / self.host.median_ms();
        let scaled = m
            .iter()
            .map(|(&name, &v)| {
                let v = match name {
                    "peak_rss_mb" => v,
                    "verdicts_per_s" | "sim_cycles_per_s" => v / speed,
                    _ => v * speed,
                };
                (name, v)
            })
            .collect();
        Ok([m, scaled])
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <casestudy|audit|serve> --seed N --seconds S --trace <0|1>\n       perfbench --smoke"
    );
    std::process::exit(2)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Args {
    let mut args =
        Args { workload: String::new(), seed: 42, seconds: 10.0, trace: false, smoke: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                args.seconds =
                    value().parse().ok().filter(|s: &f64| *s > 0.0).unwrap_or_else(|| usage())
            }
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--smoke" => args.smoke = true,
            _ => usage(),
        }
    }
    if !args.smoke && !matches!(args.workload.as_str(), "casestudy" | "audit" | "serve") {
        usage();
    }
    args
}

/// Output directory for span dumps and serve state, inside the benchmark's
/// own directory.
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn git_commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r)).ok().or_else(|| {
            let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
            packed.lines().find(|l| l.ends_with(r)).map(|l| l[..40.min(l.len())].to_string())
        }),
        None => Some(head.to_string()),
    };
    commit
        .map(|c| c.trim().to_string())
        .filter(|c| !c.is_empty())
        .unwrap_or("unknown (not a git checkout)".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `serve` runs the pool at one thread so the executor and the session
/// thread fit in `nproc` busy threads; the others use every core.
fn pool_threads(workload: &str, nproc: usize) -> usize {
    if workload == "serve" {
        1
    } else {
        nproc
    }
}

/// Resets the program's process-wide state before a workload, so nothing
/// leaks from one workload into the next.
fn isolate(threads: usize) {
    microsampler_bench::sweep::set_options(None);
    microsampler_bench::sweep::reset_events();
    microsampler_obs::metrics::reset();
    microsampler_par::set_threads(Some(threads));
}

fn run_workload(name: &str, opts: &Opts) -> Result<Run, String> {
    match name {
        "casestudy" => casestudy::run(opts),
        "audit" => audit::run(opts),
        "serve" => serve::run(opts),
        other => Err(format!("unknown workload {other}")),
    }
}

fn print_run(name: &str, opts: &Opts, run: &Run) {
    println!("== workload {name} (seed {}, {} pool threads)", opts.seed, run.threads);
    println!(
        "requests: {} ({} in the verdict percentiles, {} replays); client busy {:.3} s; set-up median of {} = {:.3e} s",
        run.requests,
        run.verdict_ms.len(),
        run.replay_ms.len(),
        run.busy_s,
        run.setup_s.len(),
        median(&run.setup_s)
    );
    println!(
        "inputs: {} attempted, {} failed (failed_frac {:.4})",
        run.tally.attempted(),
        run.tally.failures().len(),
        run.tally.failures().len() as f64 / run.tally.attempted().max(1) as f64
    );
    for (input, why) in run.tally.failures() {
        println!("  FAILED input {input} (seed {}): {why}", opts.seed.wrapping_add(input));
    }
    println!("{}", run.fingerprint.line());
    for (check, result) in &run.checks {
        match result {
            Ok(detail) => println!("self-check {check}: ok ({detail})"),
            Err(why) => println!("self-check {check}: FAILED ({why})"),
        }
    }
    for note in &run.notes {
        println!("{note}");
    }
}

/// Self time per layer over the traced run's spans.
fn print_self_times(recs: &[SpanRec]) {
    let layers = util::layer_times(recs);
    let total: u64 = layers.values().map(|l| l.self_ns).sum();
    println!("span self time by layer ({} spans):", recs.len());
    for (name, l) in &layers {
        println!(
            "  {name:<16} calls {:>7}  total {:>10.3} ms  self {:>10.3} ms ({:>5.1}%)",
            l.calls,
            l.total_ns as f64 / 1e6,
            l.self_ns as f64 / 1e6,
            100.0 * l.self_ns as f64 / total.max(1) as f64
        );
    }
}

fn json_number(v: f64) -> String {
    // Rust's `Display` for f64 prints the shortest text that reads back
    // as the same value: every digit that was measured.
    format!("{v}")
}

fn smoke(nproc: usize) -> i32 {
    let mut ok = true;
    for name in ["casestudy", "audit", "serve"] {
        let opts = Opts { seed: 42, seconds: 0.5, trace: true, tiny: true, nproc };
        isolate(pool_threads(name, nproc));
        match run_workload(name, &opts) {
            Ok(run) => {
                print_run(name, &opts, &run);
                let checks_ok = !run.checks.is_empty() && run.checks.iter().all(|(_, r)| r.is_ok());
                let requested = !run.verdict_ms.is_empty() && !run.replay_ms.is_empty();
                let leaked = microsampler_bench::sweep::options().is_some();
                println!(
                    "smoke {name}: self-checks {}, fresh+replay requests {}, sweep options {}",
                    if checks_ok { "pass" } else { "FAIL" },
                    if requested { "ran" } else { "MISSING" },
                    if leaked { "LEAKED" } else { "clean" }
                );
                ok &= checks_ok && requested && !leaked;
            }
            Err(e) => {
                println!("smoke {name}: set-up failed: {e}");
                ok = false;
            }
        }
    }
    println!("smoke: {}", if ok { "pass" } else { "FAIL" });
    if ok {
        0
    } else {
        1
    }
}

fn main() {
    let args = parse_args();
    let nproc = microsampler_par::available();
    microsampler_obs::diag::set_max_level(None);
    microsampler_obs::diag::set_progress(false);
    microsampler_obs::span::set_enabled(false);
    // The simulator's own counters (`sim.cycles`, `trace.rows_sampled`)
    // are read from the process metrics registry.
    microsampler_obs::metrics::set_enabled(true);

    println!(
        "host: nproc {nproc}, cpu {}; commit {}; base seed {}",
        cpu_model(),
        git_commit(),
        args.seed
    );
    if args.smoke {
        std::process::exit(smoke(nproc));
    }

    isolate(pool_threads(&args.workload, nproc));
    let opts =
        Opts { seed: args.seed, seconds: args.seconds, trace: args.trace, tiny: false, nproc };
    let run = match run_workload(&args.workload, &opts) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("error: {} set-up failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let mut run = run;
    run.host.sample();
    print_run(&args.workload, &opts, &run);
    if run.tally.attempted() == 0 {
        eprintln!("error: {} judged no input", args.workload);
        std::process::exit(1);
    }

    let mut correct = run.checks.iter().all(|(_, r)| r.is_ok());
    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    if args.trace {
        print_self_times(&run.spans);
        let dump = out_dir().join(format!("spans-{}-s{}.jsonl", args.workload, args.seed));
        let written = std::fs::create_dir_all(out_dir())
            .and_then(|()| std::fs::write(&dump, util::spans_jsonl(&run.spans)));
        match written {
            Ok(()) => println!("spans written to {}", dump.display()),
            Err(e) => println!("spans not written: {e}"),
        }
        for (name, unit) in PER_LAYER {
            match run.layers.get(name) {
                Some(Layer::Value(v)) => metrics.push((name, unit, *v)),
                Some(Layer::Invalid(why)) => {
                    println!("layer {name}: INVALID ({why})");
                    correct = false;
                }
                None => metrics.push((name, unit, 0.0)),
            }
        }
    } else {
        match run.end_to_end() {
            Ok([raw, scaled]) => {
                println!(
                    "host yardstick: median {:.2} ms over {} samples (reference {YARD_REF_MS} ms); as measured on this host:",
                    run.host.median_ms(),
                    run.host.samples()
                );
                for (name, unit) in END_TO_END {
                    println!("  {name} = {} {unit}", json_number(raw[name]));
                    metrics.push((name, unit, scaled[name]));
                }
            }
            Err(e) => {
                println!("end-to-end metrics incomplete: {e}");
                correct = false;
            }
        }
    }
    for (name, unit, v) in &metrics {
        println!("metric {name} = {} {unit}", json_number(*v));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*v))
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.tally.attempted(),
        run.tally.failures().len(),
        body.join(", ")
    );
}
