//! Regenerates the paper's evaluation tables and figures, and drives the
//! Table V audit, the static lint and the audit daemon. `repro --help`
//! prints the synopsis of every subcommand.
//!
//! `--faults` injects seed-deterministic microarchitectural faults into
//! every modexp trial (see `microsampler_sim::FaultConfig`); `--journal`
//! checkpoints each finished trial as a JSONL record and `--resume`
//! restores completed trials from such a journal, re-running only the
//! missing ones. Every modexp trial runs in the crash-isolation harness,
//! with bounded retries; the fault/journal/retry flags decide only what a
//! trial that still fails does. With any of them, a deadlocked,
//! over-budget, or panicking trial is quarantined and the sweep completes
//! on the surviving trials, listing the quarantine under `trials` in
//! `--json` run reports; without them, it stops the run.
//!
//! `--threads N` sizes the worker pool for trial fan-out and analysis.
//! Precedence: the `--threads` flag wins over the `MICROSAMPLER_THREADS`
//! env var, which wins over the default of every available core. Results
//! are bit-identical at any thread count.
//!
//! `repro lint` runs the static constant-time taint analyzer
//! (`microsampler-ct`) over Table V primitives and the seeded-leaky
//! fixtures; `--all` additionally cross-validates the static verdicts
//! against the dynamic statistical audit, both under the paper's MegaBoom
//! configuration and under adversarial speculation (polarized predictor
//! state plus spurious-squash fault plans) to check CT-SPEC findings
//! end to end. `--spec-depth N` bounds the modeled transient window in
//! instructions (default: the MegaBoom ROB size); `--no-spec` disables
//! speculative taint entirely. `--update-baseline` atomically rewrites
//! the `--baseline` file (default `lint-baseline.json`) with the current
//! verdicts, sorted by kernel name. Exit codes: 0 = clean,
//! 3 = architectural violations found, 4 = only transient (CT-SPEC)
//! violations found, 1 = `--baseline` verdict mismatch, 2 = usage error.
//!
//! `repro profile` sweeps modexp kernels with the simulator's always-on
//! pipeline counters and prints a riscv-perf-model-style utilization dump
//! (simulated IPC, per-EU utilization, stall-cause breakdown), writing
//! the stable-schema `BENCH_sim.json` pipeline report; `--trace-out FILE`
//! additionally exports the span forest as Chrome trace-event JSON,
//! openable at <https://ui.perfetto.dev>. Exits nonzero if any kernel
//! reports zero IPC.
//!
//! With `--json DIR`, each experiment additionally writes
//! `DIR/<experiment>.json`: a stable-schema run report carrying the
//! experiment's structured result, the pipeline span tree, and the
//! aggregated simulator metrics for the sweep. Set `MICROSAMPLER_PROGRESS=1`
//! for trial-N-of-M heartbeats, with rate and ETA, during long sweeps.

use microsampler_bench::experiments as exp;
use microsampler_bench::{lint, print_cycle_histogram, print_v_chart, profile, sweep, Scale};
use microsampler_core::association_to_json;
use microsampler_kernels::modexp::ModexpVariant;
use microsampler_obs::{diag, diag_error, json, metrics, span, trace_event, Value};
use microsampler_sim::{CoreConfig, FaultConfig, UnitSet};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

const EXPERIMENTS: [&str; 16] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig9",
    "fig10",
    "sensitivity",
];

fn main() -> ExitCode {
    // CLI errors must be visible even though library diagnostics default
    // to silent; respect an explicit MICROSAMPLER_LOG if one is set.
    if std::env::var_os("MICROSAMPLER_LOG").is_none() {
        diag::set_max_level(Some(diag::Level::Error));
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint_main(&args[1..]),
        Some("profile") => profile_main(&args[1..]),
        Some("audit") => audit_main(&args[1..]),
        #[cfg(unix)]
        Some("serve") => serve_main(&args[1..]),
        #[cfg(unix)]
        Some("submit") => submit_main(&args[1..]),
        _ => experiments_main(&args),
    }
}

/// Runs each named experiment in turn. Exit codes: 0 = done, 1 = no
/// experiment named, 2 = usage error.
fn experiments_main(args: &[String]) -> ExitCode {
    let mut scale = Scale::default();
    let mut wanted: Vec<&str> = Vec::new();
    let mut json_dir: Option<PathBuf> = None;
    let mut sweep_opts = sweep::SweepOptions::default();
    let mut sweep_requested = false;
    let mut flags = Flags::new("", args);
    while let Some(flag) = flags.next() {
        match flag {
            "--keys" => scale.keys = flags.count(),
            "--key-bytes" => scale.key_bytes = flags.count(),
            "--reps" => scale.memcmp_reps = flags.count(),
            "--trials" => scale.primitive_trials = flags.count(),
            "--seed" => scale.seed = flags.number(),
            "--threads" => flags.threads(),
            "--full" => scale = Scale::full(),
            "--json" => json_dir = Some(flags.path()),
            word if !word.starts_with('-') => wanted.push(word),
            // The sweep flags: with any of them, a trial that still fails
            // is quarantined instead of stopping the run.
            _ => {
                sweep_requested = true;
                match flag {
                    "--faults" => (sweep_opts.faults, sweep_opts.wedge_trial) = flags.faults(),
                    // A later `--journal` names the file an earlier
                    // `--resume` resumes.
                    "--journal" | "--resume" => {
                        sweep_opts.journal = Some(flags.path());
                        sweep_opts.resume |= flag == "--resume";
                    }
                    // N retries = N+1 attempts; 0 disables retrying.
                    "--retries" => {
                        sweep_opts.policy.max_attempts = flags.number::<u32>().saturating_add(1);
                    }
                    "--sequential" => {
                        sweep_opts.sequential = Some(microsampler_core::SeqConfig::default());
                    }
                    "--trial-timeout" => {
                        sweep_opts.policy.timeout = Some(Duration::from_secs(flags.number()));
                    }
                    _ => flags.unknown(),
                }
            }
        }
    }
    // A journal written under different FaultConfig rates or fault seed
    // holds trials from a different distribution, and one written by a
    // build that folds snapshots differently holds hashes that split
    // identical snapshots into two categories; mixing either into this
    // run would silently bias the statistics. Checked once the whole
    // command line is read, so a later `--faults` cannot dodge it, and
    // before anything is written. A missing or corrupt journal is a
    // usage error too, not a silently-ignored restart.
    if let (Some(path), true) = (&sweep_opts.journal, sweep_opts.resume) {
        let state =
            sweep::load_journal(path).unwrap_or_else(|e| fail(&format!("cannot resume: {e}")));
        if let Some(why) = state.mismatch(&sweep::options_config_hash(&sweep_opts)) {
            fail(&format!(
                "cannot resume {}: {why}; restore the original --faults spec or start a fresh \
                 journal",
                path.display()
            ));
        }
    }
    if wanted.is_empty() {
        usage();
        return ExitCode::FAILURE;
    }
    if wanted.contains(&"all") {
        wanted = EXPERIMENTS.to_vec();
    }
    // Validate every id up front so a typo late in the list fails before
    // hours of sweeps, not after.
    for w in &wanted {
        if !EXPERIMENTS.contains(w) {
            fail(&format!("unknown experiment `{w}`"));
        }
    }
    if let Some(dir) = &json_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            fail(&format!("cannot create --json directory {}: {e}", dir.display()));
        }
    }
    if sweep_requested {
        // A fresh (non-resume) journal starts empty; sweeps append to it.
        if let (Some(path), false) = (&sweep_opts.journal, sweep_opts.resume) {
            if let Err(e) = std::fs::write(path, "") {
                fail(&format!("cannot create trial journal {}: {e}", path.display()));
            }
        }
        sweep_opts.isolate = true;
    }
    if sweep_opts.journal.is_some() {
        // Every experiment of the run shares the journal, later resumes read
        // it, and fig4 and fig5 journal the same trials: its lines keep every
        // unit's features, whatever each experiment reads.
        sweep_opts.features = UnitSet::ALL;
    }
    for w in wanted {
        let ctx = sweep::RunContext::new(scale, sweep_opts.clone());
        if let Some(dir) = &json_dir {
            span::set_enabled(true);
            metrics::set_enabled(true);
            span::take();
            metrics::reset();
            let result = run(w, &ctx);
            let spans = span::take();
            let snapshot = metrics::snapshot();
            span::set_enabled(false);
            metrics::set_enabled(false);
            let report = Value::object()
                .field("schema", "microsampler-run-report-v1")
                .field("experiment", w)
                .field("scale", scale_to_json(&scale))
                .field("threads", microsampler_par::threads())
                .field("result", result)
                .field("trials", ctx.trials_to_json())
                .field("spans", span::nodes_to_json(&spans))
                .field("metrics", metrics::snapshot_to_json(&snapshot))
                .build();
            let path = dir.join(format!("{w}.json"));
            if let Err(e) = std::fs::write(&path, report.render_pretty()) {
                fail(&format!("cannot write {}: {e}", path.display()));
            }
            println!("wrote {}", path.display());
        } else {
            run(w, &ctx);
        }
    }
    ExitCode::SUCCESS
}

fn fail(msg: &str) -> ! {
    // Unconditional: a usage error must be visible even under
    // MICROSAMPLER_LOG=off (which silences the diag sink entirely).
    eprintln!("repro: {msg}");
    usage();
    std::process::exit(2)
}

/// The flag reader every subcommand drives: it hands out the arguments in
/// order, parses each flag's value into the type its option holds, and
/// names the flag in hand in every usage error. `--help` and `-h`, read
/// where a flag may stand, print the usage and exit 0.
struct Flags<'a> {
    /// The subcommand, for the unknown-flag error (empty for experiments).
    command: &'static str,
    args: std::slice::Iter<'a, String>,
    /// The argument `next` returned last.
    flag: &'a str,
}

impl<'a> Flags<'a> {
    fn new(command: &'static str, args: &'a [String]) -> Flags<'a> {
        Flags { command, args: args.iter(), flag: "" }
    }

    /// The next flag or positional word, or `None` after the last.
    fn next(&mut self) -> Option<&'a str> {
        let arg = self.args.next()?;
        if arg == "--help" || arg == "-h" {
            usage();
            std::process::exit(0);
        }
        self.flag = arg;
        Some(arg)
    }

    /// The argument after the flag, whatever it looks like.
    fn value(&mut self) -> &'a str {
        match self.args.next() {
            Some(value) => value,
            None => fail(&format!("expected a value after {}", self.flag)),
        }
    }

    fn path(&mut self) -> PathBuf {
        self.value().into()
    }

    /// The value as the unsigned integer type its option holds, so a minus
    /// sign or a value past the type's range is a usage error, not a wrap.
    fn number<T: std::str::FromStr>(&mut self) -> T {
        let value = self.value();
        value.parse().unwrap_or_else(|_| {
            let max = u128::MAX >> (128 - 8 * std::mem::size_of::<T>());
            self.invalid(value, &format!("an integer from 0 to {max}"))
        })
    }

    /// A count: a number of at least 1.
    fn count(&mut self) -> usize {
        let value = self.value();
        match value.parse() {
            Ok(0) | Err(_) => self.invalid(value, "a positive integer"),
            Ok(n) => n,
        }
    }

    /// `--threads N`: a count, applied at once. `set_threads` clamps a
    /// count past the host's parallelism, with a warning.
    fn threads(&mut self) {
        microsampler_par::set_threads(Some(self.count()));
    }

    /// A `--faults` spec (see `parse_faults`).
    fn faults(&mut self) -> (Option<FaultConfig>, Option<usize>) {
        let spec = self.value();
        parse_faults(spec).unwrap_or_else(|e| fail(&format!("invalid --faults spec `{spec}`: {e}")))
    }

    fn invalid(&self, value: &str, expected: &str) -> ! {
        fail(&format!("invalid {} value `{value}`: expected {expected}", self.flag))
    }

    fn unknown(&self) -> ! {
        match self.command {
            "" => fail(&format!("unknown flag `{}`", self.flag)),
            command => fail(&format!("unknown {command} flag `{}`", self.flag)),
        }
    }
}

/// The modexp kernel `name` names, as `profile` and `submit --kernel`
/// take it.
fn modexp_kernel(name: &str) -> ModexpVariant {
    ModexpVariant::ALL.iter().copied().find(|v| v.name() == name).unwrap_or_else(|| {
        let known: Vec<&str> = ModexpVariant::ALL.iter().map(|v| v.name()).collect();
        fail(&format!("unknown kernel `{name}` (expected one of {})", known.join(", ")))
    })
}

/// What a rate of `--faults` or a level of `--noise` must be.
const RATE: &str = "a probability per 64k cycles, at most 65536";

/// A `--faults` rate or `--noise` level, or `None` if `value` is not one.
fn parse_rate(value: &str) -> Option<u32> {
    value.parse().ok().filter(|&rate| rate <= 65536)
}

/// Parses a `--faults` spec: comma-separated `key=value` pairs with keys
/// `seed`, `squash`, `evict`, `mshr`, `drop`, `flip` (rates are
/// probabilities per 64k cycles, at most 65536) and `wedge=K` (wedge
/// trial K's core — a deliberate deadlock).
fn parse_faults(spec: &str) -> Result<(Option<FaultConfig>, Option<usize>), String> {
    let mut faults = FaultConfig::default();
    let mut wedge_trial = None;
    for part in spec.split(',') {
        let (key, value) =
            part.split_once('=').ok_or_else(|| format!("expected key=value, got `{part}`"))?;
        let invalid =
            |expected: &str| format!("invalid value `{value}` for `{key}`: expected {expected}");
        let rate = || parse_rate(value).ok_or_else(|| invalid(RATE));
        match key {
            "seed" => faults.seed = value.parse().map_err(|_| invalid("an integer"))?,
            "squash" => faults.squash_per_64k = rate()?,
            "evict" => faults.evict_per_64k = rate()?,
            "mshr" => faults.mshr_stall_per_64k = rate()?,
            "drop" => faults.drop_row_per_64k = rate()?,
            "flip" => faults.bitflip_per_64k = rate()?,
            "wedge" => {
                wedge_trial = Some(value.parse().map_err(|_| invalid("a trial index"))?);
            }
            other => {
                return Err(format!(
                    "unknown fault key `{other}` (expected seed/squash/evict/mshr/drop/flip/wedge)"
                ))
            }
        }
    }
    Ok((faults.any().then_some(faults), wedge_trial))
}

/// `repro lint`: the static constant-time lint.
///
/// Exit codes: 0 = all analyzed kernels are clean, 3 = architectural
/// constant-time violations were found, 4 = only transient (CT-SPEC)
/// violations were found, 1 = verdicts diverge from `--baseline`,
/// 2 = usage error.
fn lint_main(args: &[String]) -> ExitCode {
    let mut scale = Scale::default();
    let mut names: Vec<&str> = Vec::new();
    let mut all = false;
    let mut static_only = false;
    let mut sarif_path: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut update_baseline = false;
    let mut spec_depth: Option<usize> = None;
    let mut no_spec = false;
    let mut flags = Flags::new("lint", args);
    while let Some(flag) = flags.next() {
        match flag {
            "--all" => all = true,
            "--static" => static_only = true,
            "--sarif" => sarif_path = Some(flags.path()),
            "--baseline" => baseline_path = Some(flags.path()),
            "--update-baseline" => update_baseline = true,
            "--spec-depth" => spec_depth = Some(flags.number()),
            "--no-spec" => no_spec = true,
            "--trials" => scale.primitive_trials = flags.count(),
            "--seed" => scale.seed = flags.number(),
            "--threads" => flags.threads(),
            name if !name.starts_with('-') => names.push(name),
            _ => flags.unknown(),
        }
    }
    if all != names.is_empty() {
        fail("lint takes either --all or at least one kernel name, not both");
    }
    if no_spec && spec_depth.is_some() {
        fail("--no-spec and --spec-depth are mutually exclusive");
    }
    let spec = if no_spec {
        microsampler_ct::SpecModel::disabled()
    } else {
        spec_depth.map_or_else(microsampler_ct::SpecModel::default, |depth| {
            microsampler_ct::SpecModel { depth }
        })
    };
    let results = if all {
        lint::lint_static_all_with(spec)
    } else {
        names
            .iter()
            .map(|n| {
                lint::lint_one_with(n, spec).unwrap_or_else(|| {
                    fail(&format!(
                        "unknown kernel `{n}` (expected a Table V primitive or a fixture; \
                         see `repro lint --all`)"
                    ))
                })
            })
            .collect()
    };
    for r in &results {
        print!("{}", r.report);
    }
    let arch_leaky = results.iter().filter(|r| r.report.has_architectural_violations()).count();
    let transient_only = results.iter().filter(|r| r.report.is_transient_only()).count();
    let clean = results.len() - arch_leaky - transient_only;
    println!(
        "linted {} kernels: {} clean, {} leaky, {} leaky-transient",
        results.len(),
        clean,
        arch_leaky,
        transient_only
    );
    if let Some(path) = &sarif_path {
        let pairs: Vec<(&microsampler_ct::StaticReport, u64)> =
            results.iter().map(|r| (&r.report, r.text_base)).collect();
        let doc = microsampler_ct::sarif_document(&pairs);
        if let Err(e) = std::fs::write(path, doc.render_pretty()) {
            fail(&format!("cannot write {}: {e}", path.display()));
        }
        println!("wrote {}", path.display());
    }
    // Cross-validate static vs dynamic verdicts over the real primitives
    // (--all only; fixtures are static-only regression anchors).
    if all && !static_only {
        println!("\n== cross-validation: static taint vs dynamic audit ==");
        let cross = lint::lint_crossval(&results, &scale);
        print!("{cross}");
    }
    if update_baseline {
        let path = baseline_path.clone().unwrap_or_else(|| PathBuf::from("lint-baseline.json"));
        match write_baseline(&path, &results) {
            Ok(()) => {
                println!("wrote {}", path.display());
                return ExitCode::SUCCESS;
            }
            Err(msg) => {
                diag_error!("{msg}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = &baseline_path {
        match check_baseline(path, &results) {
            Ok(()) => println!("verdicts match {}", path.display()),
            Err(msg) => {
                diag_error!("{msg}");
                return ExitCode::FAILURE;
            }
        }
    }
    if arch_leaky > 0 {
        ExitCode::from(3)
    } else if transient_only > 0 {
        ExitCode::from(4)
    } else {
        ExitCode::SUCCESS
    }
}

/// `repro profile`: the pipeline profile of modexp kernels.
///
/// Exit codes: 0 = profiled and `BENCH_sim.json` written, 1 = a kernel
/// failed or reported zero IPC, 2 = usage error.
fn profile_main(args: &[String]) -> ExitCode {
    let mut opts = profile::ProfileOptions::default();
    let mut names: Vec<&str> = Vec::new();
    let mut all = false;
    let mut out = PathBuf::from("BENCH_sim.json");
    let mut trace_out: Option<PathBuf> = None;
    let mut flags = Flags::new("profile", args);
    while let Some(flag) = flags.next() {
        match flag {
            "--all" => all = true,
            "--keys" => opts.keys = flags.count(),
            "--key-bytes" => opts.key_bytes = flags.count(),
            "--seed" => opts.seed = flags.number(),
            "--threads" => flags.threads(),
            "--out" => out = flags.path(),
            "--trace-out" => trace_out = Some(flags.path()),
            name if !name.starts_with('-') => names.push(name),
            _ => flags.unknown(),
        }
    }
    if all != names.is_empty() {
        fail("profile takes either --all or at least one kernel name, not both");
    }
    if !all {
        opts.kernels = names.into_iter().map(modexp_kernel).collect();
    }
    let config = CoreConfig::mega_boom();
    if trace_out.is_some() {
        span::set_enabled(true);
        span::take();
    }
    let profiles = match profile::profile_kernels(&config, &opts) {
        Ok(profiles) => profiles,
        Err(e) => {
            diag_error!("{e}");
            return ExitCode::FAILURE;
        }
    };
    for p in &profiles {
        profile::print_profile(p, &config);
    }
    let report = profile::report_to_json(&profiles, &config, microsampler_par::threads());
    if let Err(e) = std::fs::write(&out, report.render_pretty()) {
        diag_error!("cannot write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    println!("\nwrote {}", out.display());
    if let Some(path) = &trace_out {
        let spans = span::take();
        span::set_enabled(false);
        let doc = trace_event::spans_to_trace_events(&spans);
        if let Err(e) = std::fs::write(path, doc.render_compact()) {
            diag_error!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {} (open at https://ui.perfetto.dev)", path.display());
    }
    // The report is useless if the counters read zero; make that a hard
    // failure so CI catches a broken profiler immediately.
    for p in &profiles {
        if p.pipeline.ipc() <= 0.0 {
            diag_error!("{}: zero IPC in the profile", p.name);
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// `repro audit`: runs the 27-primitive Table V audit under anytime-valid
/// early stopping (default) or the fixed budget (`--full-budget`), printing
/// one row per primitive with its stopping point and writing the
/// `microsampler-stats-bench-v1` trials-to-verdict benchmark. With
/// `--robustness`, replays the audit in both modes across the fault
/// noise ladder and writes per-primitive verdict-stability curves
/// (`microsampler-stability-v1`).
///
/// Exit codes: 0 = all verdicts clean and stable, 3 = a leak was
/// flagged (or, under `--robustness`, a primitive is UNSTABLE),
/// 1 = a primitive failed to simulate, 2 = usage error.
fn audit_main(args: &[String]) -> ExitCode {
    use microsampler_bench::audit;
    let mut opts = audit::AuditOptions::default();
    let mut robustness = false;
    let mut noise: Vec<u32> = audit::DEFAULT_NOISE_LEVELS.to_vec();
    let mut out: Option<PathBuf> = None;
    let mut stats_out = PathBuf::from("BENCH_stats.json");
    let mut stability_out = PathBuf::from("stability.json");
    let mut flags = Flags::new("audit", args);
    while let Some(flag) = flags.next() {
        match flag {
            "--trials" => opts.trials = flags.count(),
            "--seed" => opts.seed = flags.number(),
            "--threads" => flags.threads(),
            "--faults" => match flags.faults() {
                (faults, None) => opts.faults = faults,
                (_, Some(_)) => fail("audit does not take wedge= in --faults"),
            },
            "--full-budget" => opts.early_stop = false,
            "--robustness" => robustness = true,
            // The levels are squash/evict/MSHR rates, so `--faults`'s
            // rate rule holds for them.
            "--noise" => {
                noise = flags
                    .value()
                    .split(',')
                    .map(|level| {
                        parse_rate(level).unwrap_or_else(|| {
                            fail(&format!("invalid --noise level `{level}`: expected {RATE}"))
                        })
                    })
                    .collect();
            }
            "--out" => out = Some(flags.path()),
            "--stats-out" => stats_out = flags.path(),
            "--stability-out" => stability_out = flags.path(),
            _ => flags.unknown(),
        }
    }

    let rows = audit::run_audit(&opts);
    println!(
        "\n== adaptive sequential audit ({} budget, {}) ==",
        opts.trials,
        if opts.early_stop { "early stop" } else { "full budget" }
    );
    println!(
        "{:<34} {:>9} {:>5} {:>7} {:>11} {:>5} {:>8}",
        "primitive", "verdict", "func", "maxV", "trials", "looks", "fallback"
    );
    for r in &rows {
        println!(
            "{:<34} {:>9} {:>5} {:>7.3} {:>5}/{:<5} {:>5} {:>8}",
            r.name,
            r.verdict.name(),
            if r.functional_ok { "ok" } else { "FAIL" },
            r.max_v,
            r.trials_spent,
            r.budget,
            r.stop.looks.len(),
            if r.stop.fallback { "batch" } else { "-" },
        );
        if let Some(e) = &r.error {
            println!("{:<34} error: {e}", "");
        }
    }
    let bench = audit::stats_bench_json(&rows);
    println!(
        "median trials-to-verdict: {} of {} ({}x)",
        bench.get("median_trials_to_verdict").and_then(Value::as_u64).unwrap_or(0),
        opts.trials,
        bench.get("median_speedup").map_or(0.0, |v| v.as_f64().unwrap_or(0.0)),
    );
    if let Err(e) = std::fs::write(&stats_out, bench.render_pretty()) {
        fail(&format!("cannot write {}: {e}", stats_out.display()));
    }
    println!("wrote {}", stats_out.display());
    if let Some(path) = &out {
        if let Err(e) = std::fs::write(path, audit::audit_to_json(&rows).render_pretty()) {
            fail(&format!("cannot write {}: {e}", path.display()));
        }
        println!("wrote {}", path.display());
    }

    let mut unstable = 0usize;
    if robustness {
        println!("\n== verdict stability across fault noise (per-64k levels {noise:?}) ==");
        let curves = audit::robustness(&opts, &noise);
        for c in &curves {
            let points: Vec<String> = c
                .points
                .iter()
                .map(|p| {
                    format!(
                        "{}:{}{}",
                        p.noise,
                        p.early.name(),
                        if p.early == p.full {
                            String::new()
                        } else {
                            format!("!={}", p.full.name())
                        }
                    )
                })
                .collect();
            println!(
                "{:<34} {:>9}  {}",
                c.name,
                if c.unstable { "UNSTABLE" } else { "stable" },
                points.join("  ")
            );
        }
        unstable = curves.iter().filter(|c| c.unstable).count();
        if let Err(e) =
            std::fs::write(&stability_out, audit::stability_to_json(&curves).render_pretty())
        {
            fail(&format!("cannot write {}: {e}", stability_out.display()));
        }
        println!("wrote {}", stability_out.display());
    }

    if rows.iter().any(|r| r.error.is_some() || !r.functional_ok) {
        diag_error!("a primitive failed to simulate or diverged from its reference");
        return ExitCode::FAILURE;
    }
    if unstable > 0 {
        diag_error!("{unstable} primitives have UNSTABLE verdicts");
        return ExitCode::from(3);
    }
    if rows.iter().any(|r| r.verdict == microsampler_core::SeqVerdict::Leaky) {
        return ExitCode::from(3);
    }
    ExitCode::SUCCESS
}

/// `repro serve`: runs the leakage-audit daemon until SIGTERM/SIGINT,
/// then drains in-flight jobs and exits 0. Exit codes: 0 = clean
/// shutdown, 1 = setup or drain failure, 2 = usage error.
#[cfg(unix)]
fn serve_main(args: &[String]) -> ExitCode {
    use microsampler_bench::serve;
    let mut opts = serve::ServeOptions::default();
    let mut socket: Option<PathBuf> = None;
    let mut flags = Flags::new("serve", args);
    while let Some(flag) = flags.next() {
        match flag {
            "--socket" => socket = Some(flags.path()),
            "--state" => opts.state_dir = flags.path(),
            "--queue" => opts.queue_cap = flags.count(),
            "--per-client" => opts.per_client = flags.count(),
            "--job-timeout-ms" => opts.job_timeout = Some(Duration::from_millis(flags.number())),
            "--job-retries" => opts.job_retries = flags.number(),
            "--backoff-ms" => {
                opts.backoff_base = Duration::from_millis(flags.number());
                opts.backoff_cap = opts.backoff_base.saturating_mul(16);
            }
            "--threads" => flags.threads(),
            _ => flags.unknown(),
        }
    }
    opts.socket = socket.unwrap_or_else(|| opts.state_dir.join("serve.sock"));
    match serve::serve(opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro serve: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `repro submit`: submits one audit job to a running `repro serve`
/// daemon (or cancels a job / queries status), echoing every streamed
/// line to stdout. Exit codes: 0 = clean verdict (or ack), 3 = leaky verdict,
/// 4 = quarantined, 5 = cancelled, 6 = busy rejection, 1 = connection
/// or protocol error, 2 = usage error.
#[cfg(unix)]
fn submit_main(args: &[String]) -> ExitCode {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;

    let mut socket: Option<PathBuf> = None;
    let mut request = Value::object().field("op", "submit");
    let mut client = "cli";
    let mut cancel_job: Option<&str> = None;
    let mut status = false;
    let mut flags = Flags::new("submit", args);
    while let Some(flag) = flags.next() {
        match flag {
            "--socket" => socket = Some(flags.path()),
            "--client" => client = flags.value(),
            "--kernel" => request = request.field("kernel", modexp_kernel(flags.value()).name()),
            "--config" => match flags.value() {
                name @ ("mega" | "small") => request = request.field("config", name),
                name => flags.invalid(name, "mega or small"),
            },
            "--fast-bypass" => request = request.field("fast_bypass", true),
            "--keys" => request = request.field("keys", flags.count()),
            "--key-bytes" => request = request.field("key_bytes", flags.count()),
            "--seed" => request = request.field("seed", flags.number::<u64>()),
            "--wedge" => request = request.field("wedge", flags.number::<usize>()),
            "--max-cycles" => request = request.field("max_cycles", flags.number::<u64>()),
            "--sequential" => request = request.field("sequential", true),
            "--cancel" => cancel_job = Some(flags.value()),
            "--status" => status = true,
            _ => flags.unknown(),
        }
    }
    let socket = socket.unwrap_or_else(|| fail("submit needs --socket PATH"));
    let request = if status {
        Value::object().field("op", "status").build()
    } else if let Some(job) = cancel_job {
        Value::object().field("op", "cancel").field("job", job).build()
    } else {
        request.field("client", client).build()
    };
    let mut stream = match UnixStream::connect(&socket) {
        Ok(stream) => stream,
        Err(e) => {
            eprintln!("repro submit: cannot connect to {}: {e}", socket.display());
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = writeln!(stream, "{}", request.render_compact()) {
        eprintln!("repro submit: cannot send the request: {e}");
        return ExitCode::FAILURE;
    }
    let reader = match stream.try_clone() {
        Ok(clone) => BufReader::new(clone),
        Err(e) => {
            eprintln!("repro submit: cannot clone the stream: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in reader.lines() {
        let line = match line {
            Ok(line) => line,
            Err(e) => {
                eprintln!("repro submit: stream read failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!("{line}");
        // Trial lines are most of the stream and tens of KB each: read
        // only up to their schema.
        if !microsampler_bench::serve::session::is_serve_line(&line) {
            continue;
        }
        let Ok(v) = json::parse(&line) else { continue };
        match v.get("event").and_then(Value::as_str) {
            Some("busy") => return ExitCode::from(6),
            Some("error") => return ExitCode::FAILURE,
            Some("status") | Some("cancel-ack") => return ExitCode::SUCCESS,
            Some("verdict") => {
                return match v.get("status").and_then(Value::as_str) {
                    Some("done") => {
                        if v.get("leaky").and_then(Value::as_bool) == Some(true) {
                            ExitCode::from(3)
                        } else {
                            ExitCode::SUCCESS
                        }
                    }
                    Some("quarantined") => ExitCode::from(4),
                    Some("cancelled") => ExitCode::from(5),
                    _ => ExitCode::FAILURE,
                }
            }
            _ => {}
        }
    }
    eprintln!("repro submit: the daemon closed the stream without a verdict");
    ExitCode::FAILURE
}

/// Compares each result's static verdict against the checked-in baseline.
///
/// The baseline records verdicts only — they are deterministic and
/// scale-independent, unlike violation counts or dynamic statistics.
fn check_baseline(path: &std::path::Path, results: &[lint::LintResult]) -> Result<(), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
    let doc = json::parse(&text)
        .map_err(|e| format!("baseline {} is not valid JSON: {e}", path.display()))?;
    if doc.get("schema").and_then(Value::as_str) != Some("microsampler-lint-baseline-v1") {
        return Err(format!("baseline {} has an unexpected schema", path.display()));
    }
    let verdicts = doc
        .get("verdicts")
        .ok_or_else(|| format!("baseline {} lacks `verdicts`", path.display()))?;
    let mut mismatches = Vec::new();
    for r in results {
        match verdicts.get(&r.name).and_then(Value::as_str) {
            Some(expected) if expected == r.report.verdict() => {}
            Some(expected) => mismatches.push(format!(
                "{}: baseline says {expected}, analysis says {}",
                r.name,
                r.report.verdict()
            )),
            None => mismatches.push(format!("{}: missing from baseline", r.name)),
        }
    }
    if mismatches.is_empty() {
        Ok(())
    } else {
        Err(format!("static verdicts diverge from baseline:\n  {}", mismatches.join("\n  ")))
    }
}

/// Atomically rewrites the lint baseline: verdicts for every analyzed
/// kernel, keyed and sorted by name, written to a temporary file in the
/// same directory and renamed into place so a crash or concurrent reader
/// never observes a half-written baseline.
fn write_baseline(path: &std::path::Path, results: &[lint::LintResult]) -> Result<(), String> {
    let mut sorted: Vec<&lint::LintResult> = results.iter().collect();
    sorted.sort_by(|a, b| a.name.cmp(&b.name));
    let mut verdicts = Value::object();
    for r in sorted {
        verdicts = verdicts.field(&r.name, r.report.verdict());
    }
    let doc = Value::object()
        .field("schema", "microsampler-lint-baseline-v1")
        .field("verdicts", verdicts.build())
        .build();
    let mut text = doc.render_pretty();
    text.push('\n');
    let tmp = path.with_file_name(format!(
        "{}.tmp.{}",
        path.file_name().and_then(|n| n.to_str()).unwrap_or("lint-baseline.json"),
        std::process::id()
    ));
    std::fs::write(&tmp, text).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        format!("cannot rename {} to {}: {e}", tmp.display(), path.display())
    })
}

fn usage() {
    eprintln!(
        "usage: repro <experiment>... [--keys N] [--key-bytes N] [--reps N] [--trials N] \
         [--seed N] [--threads N] [--full] [--json DIR] [--faults SPEC] [--journal FILE] \
         [--resume FILE] [--retries N] [--trial-timeout SECS] [--sequential]"
    );
    eprintln!(
        "       repro lint [--all | <kernel>...] [--static] [--sarif FILE] [--baseline FILE] \
         [--update-baseline] [--spec-depth N] [--no-spec] [--trials N] [--seed N] [--threads N]"
    );
    eprintln!(
        "       repro profile [--all | <kernel>...] [--keys N] [--key-bytes N] [--seed N] \
         [--threads N] [--out FILE] [--trace-out FILE]"
    );
    eprintln!(
        "       repro audit [--trials N] [--seed N] [--threads N] [--faults SPEC] \
         [--full-budget] [--out FILE] [--stats-out FILE] [--robustness] \
         [--noise L1,L2,...] [--stability-out FILE]"
    );
    eprintln!(
        "       repro serve --state DIR [--socket PATH] [--queue N] [--per-client N] \
         [--job-timeout-ms MS] [--job-retries N] [--backoff-ms MS] [--threads N]"
    );
    eprintln!(
        "       repro submit --socket PATH [--client NAME] [--kernel NAME] \
         [--config mega|small] [--fast-bypass] [--keys N] [--key-bytes N] [--seed N] \
         [--wedge K] [--max-cycles N] [--sequential] [--cancel JOB] [--status]"
    );
    eprintln!("experiments: table1-table7 fig2-fig10 sensitivity all");
    eprintln!("--json DIR writes a machine-readable run report per experiment");
    eprintln!(
        "--faults SPEC injects microarchitectural faults into every trial; SPEC is \
         comma-separated key=value with keys seed, squash, evict, mshr, drop, flip \
         (rates per 64k cycles, max 65536) and wedge=K (deadlock trial K)"
    );
    eprintln!(
        "--journal FILE appends one JSONL record per finished trial; --resume FILE \
         restores completed trials from a journal and re-runs only the missing ones \
         (refused with exit 2 if the journal's FaultConfig rates, fault seed or \
         snapshot-hash format differ from this run's, or if it has no config header)"
    );
    eprintln!(
        "--sequential judges every sweep against an anytime-valid confidence sequence \
         and stops as soon as it closes, appending a microsampler-stop-v1 stopping \
         trace to the journal"
    );
    eprintln!(
        "audit runs the 27 Table V primitives under adaptive sequential early stopping \
         (freed budget reflows to undecided primitives) and writes the \
         microsampler-stats-bench-v1 trials-to-verdict benchmark; --robustness replays \
         early-stop vs full-budget across --noise fault levels and writes \
         microsampler-stability-v1 stability curves, exiting 3 on any UNSTABLE verdict"
    );
    eprintln!(
        "--retries N retries failing trials up to N times (default 1); \
         --trial-timeout SECS quarantines trials exceeding the wall-clock budget. \
         Every modexp trial runs in the isolation harness; with any of these flags \
         a trial that still fails is quarantined (listed under `trials` in --json \
         reports) instead of aborting the run"
    );
    eprintln!(
        "--threads N sizes the worker pool; precedence: --threads, then the \
         MICROSAMPLER_THREADS env var, then all available cores"
    );
    eprintln!(
        "lint statically checks kernels for constant-time violations, including \
         transient (CT-SPEC) leaks down mispredicted branch arms; --all also \
         cross-validates against the dynamic audit (skip with --static), both \
         under MegaBoom and under adversarial speculation"
    );
    eprintln!(
        "lint --spec-depth N bounds the transient window in instructions (default: \
         the MegaBoom ROB size); --no-spec disables speculative taint; \
         --update-baseline atomically rewrites the --baseline file (default \
         lint-baseline.json) with current verdicts, sorted by name"
    );
    eprintln!(
        "lint exit codes: 0 = clean, 3 = architectural violations found, 4 = only \
         transient (CT-SPEC) violations found, 1 = --baseline verdict mismatch, \
         2 = usage error"
    );
    eprintln!(
        "profile sweeps modexp kernels with the pipeline profiler and writes the \
         BENCH_sim.json pipeline report (--out, default BENCH_sim.json); \
         --trace-out FILE exports a Chrome trace-event JSON (ui.perfetto.dev)"
    );
    eprintln!(
        "serve runs the leakage-audit daemon on a unix socket: submitted jobs are \
         WAL-logged, trial journals are content-addressed (resubmitting an \
         unchanged job replays for free), kill -9 recovers bit-identically on \
         restart, and SIGTERM drains in-flight jobs before exiting 0"
    );
    eprintln!(
        "submit exit codes: 0 = clean verdict/ack, 3 = leaky, 4 = quarantined, \
         5 = cancelled, 6 = busy (queue-full, client-quota, shutting-down, or \
         sequence-exhausted), \
         1 = connection/protocol error, 2 = usage error"
    );
}

fn scale_to_json(s: &Scale) -> Value {
    Value::object()
        .field("keys", s.keys)
        .field("key_bytes", s.key_bytes)
        .field("memcmp_reps", s.memcmp_reps)
        .field("primitive_trials", s.primitive_trials)
        .field("seed", s.seed)
        .build()
}

/// Runs one experiment, prints its paper-style output, and returns the
/// structured result for the `--json` run report.
fn run(which: &str, ctx: &sweep::RunContext) -> Value {
    let scale = &ctx.scale;
    match which {
        "table1" => {
            println!("\n== Table I: leakage-detection tool comparison (qualitative) ==");
            let rows = exp::table1();
            for row in &rows {
                println!(
                    "{:<20} {:<26} {:<20} {:<10} {:<12}",
                    row[0], row[1], row[2], row[3], row[4]
                );
            }
            Value::Array(rows.iter().map(|row| Value::array(row.iter().copied())).collect())
        }
        "fig2" => {
            println!("\n== Fig 2: SQ-ADDR iteration snapshots (ME-V1-MV) ==");
            let snapshots = exp::fig2(scale);
            for (label, rows) in &snapshots {
                println!(
                    "key bit = {label} ({} cycles total; empty-queue cycles elided):",
                    rows.len()
                );
                for (cycle, row) in rows.iter().enumerate() {
                    if row.iter().all(|&v| v == 0) {
                        continue;
                    }
                    let cells: Vec<String> = row
                        .iter()
                        .take(8)
                        .map(|&v| if v == 0 { "-".into() } else { format!("{v:#x}") })
                        .collect();
                    println!("  cycle +{cycle:<3} | {}", cells.join(" "));
                }
            }
            Value::Array(
                snapshots
                    .iter()
                    .map(|(label, rows)| {
                        Value::object().field("label", *label).field("cycles", rows.len()).build()
                    })
                    .collect(),
            )
        }
        "table2" => {
            println!("\n== Table II: contingency table for SQ-ADDR (SAM-CT-CMOV) ==");
            let t = exp::table2(ctx);
            println!("{t}");
            let assoc = t.association();
            println!("{assoc}");
            Value::object()
                .field("classes", t.class_count())
                .field("categories", t.category_count())
                .field("total", t.total())
                .field("association", association_to_json(&assoc))
                .build()
        }
        "table3" => {
            println!("\n== Table III: BOOM core configurations ==");
            let (mega, small) = exp::table3();
            for c in [&mega, &small] {
                println!(
                    "{:<10} fetch/dec/iss={}/{}/{} ROB={} PRF={} LDQ/STQ={}/{} LFB={} \
                     bpred={} L1D={}x{} mshr={} tlb={} prefetcher={:?}",
                    c.name,
                    c.fetch_width,
                    c.decode_width,
                    c.issue_width,
                    c.rob_entries,
                    c.prf_regs,
                    c.ldq_entries,
                    c.stq_entries,
                    c.lfb_entries,
                    c.bpred_entries,
                    c.l1d.sets,
                    c.l1d.ways,
                    c.l1d.mshrs,
                    c.tlb_entries,
                    c.prefetcher,
                );
            }
            Value::array([mega.name, small.name])
        }
        "table4" => {
            println!("\n== Table IV: tracked microarchitectural units ==");
            let units = exp::table4();
            for u in &units {
                println!("  {}", u.name());
            }
            Value::array(units.iter().map(|u| u.name()))
        }
        "table5" => {
            println!("\n== Table V: OpenSSL constant-time primitives ==");
            println!(
                "{:<34} {:>5} {:>6} {:>7} {:>6} {:>6}  dominant stall",
                "primitive", "func", "leak", "maxV", "esc", "ipc"
            );
            let rows = exp::table5(ctx);
            for r in &rows {
                println!(
                    "{:<34} {:>5} {:>6} {:>7.3} {:>6} {:>6.3}  {}",
                    r.name,
                    if r.functional_ok { "ok" } else { "FAIL" },
                    if r.leak_identified { "LEAK" } else { "-" },
                    r.max_v,
                    r.escalation_rounds,
                    r.ipc,
                    r.dominant_stall.as_deref().unwrap_or("-"),
                );
                if let Some(e) = &r.error {
                    println!("{:<34} error: {e}", "");
                }
            }
            let flagged = rows.iter().filter(|r| r.leak_identified).count();
            println!("flagged: {flagged}/27 (paper: 0/27; CRYPTO_memcmp — see fig10 — leaks)");
            Value::Array(
                rows.iter()
                    .map(|r| {
                        Value::object()
                            .field("primitive", r.name.as_str())
                            .field("functional_ok", r.functional_ok)
                            .field("leak_identified", r.leak_identified)
                            .field("max_v", r.max_v)
                            .field("escalation_rounds", r.escalation_rounds)
                            .field("ipc", r.ipc)
                            .field(
                                "dominant_stall",
                                r.dominant_stall.as_deref().map_or(Value::Null, Value::from),
                            )
                            .field("error", r.error.as_deref().map_or(Value::Null, Value::from))
                            .build()
                    })
                    .collect(),
            )
        }
        "table6" => {
            println!("\n== Table VI: MicroSampler stage breakdown (ME-V1-CV, MegaBoom) ==");
            let t = exp::table6(scale);
            print_table6(&t);
            table6_to_json(&t)
        }
        "table7" => {
            println!("\n== Table VII: scalability vs XENON ==");
            let t = exp::table7(scale);
            println!("SmallBoom ({} entries): {:?}", t.small_size, t.small.total());
            println!("MegaBoom  ({} entries): {:?}", t.mega_size, t.mega.total());
            println!("MicroSampler: {:.1}x size / {:.1}x time", t.size_ratio(), t.time_ratio());
            println!(
                "XENON (reported): {:.0}x size / {:.0}x time (2.5s ALU -> 14min SCARV)",
                exp::XENON_SIZE_RATIO,
                exp::XENON_TIME_RATIO
            );
            Value::object()
                .field("small", table6_to_json(&t.small))
                .field("mega", table6_to_json(&t.mega))
                .field("small_size", t.small_size)
                .field("mega_size", t.mega_size)
                .field("size_ratio", t.size_ratio())
                .field("time_ratio", t.time_ratio())
                .build()
        }
        "fig3" => {
            let r = exp::fig3(ctx);
            print_v_chart("Fig 3: ME-V1-CV Cramer's V per unit", &r.v_series());
            print_leaks(&r);
            r.to_json()
        }
        "fig4" => {
            let r = exp::fig4(ctx);
            print_v_chart("Fig 4: ME-V1-MV Cramer's V per unit", &r.v_series());
            print_leaks(&r);
            let rp = exp::fig4_with_pressure(scale);
            print_v_chart("Fig 4 (with cache pressure): miss-path units light up", &rp.v_series());
            Value::object()
                .field("report", r.to_json())
                .field("with_pressure", rp.to_json())
                .build()
        }
        "fig5" => {
            println!("\n== Fig 5: SQ-ADDR feature uniqueness for ME-V1-MV ==");
            let u = exp::fig5(ctx);
            for (class, feats) in &u.unique {
                print!("class bit={class}: {} unique addresses:", feats.len());
                for f in feats.iter().take(8) {
                    print!(" {f:#x}");
                }
                println!();
            }
            println!("shared addresses: {}", u.shared.len());
            Value::object()
                .field("unit", u.unit.name())
                .field("shared", u.shared.len())
                .field(
                    "unique",
                    Value::Array(
                        u.unique
                            .iter()
                            .map(|(class, feats)| {
                                Value::object()
                                    .field("class", *class)
                                    .field(
                                        "addresses",
                                        Value::Array(
                                            feats
                                                .iter()
                                                .map(|f| format!("{f:#x}").into())
                                                .collect(),
                                        ),
                                    )
                                    .build()
                            })
                            .collect(),
                    ),
                )
                .build()
        }
        "fig6" => {
            let f = exp::fig6(scale);
            print_cycle_histogram(
                "Fig 6a: iteration cycles, both buffers uninitialized",
                &f.cold.0,
                &f.cold.1,
            );
            print_cycle_histogram(
                "Fig 6b: iteration cycles, dst initialized (warm)",
                &f.warm.0,
                &f.warm.1,
            );
            let classes = |pair: &(Vec<u64>, Vec<u64>)| {
                Value::object()
                    .field("bit0_cycles", Value::array(pair.0.iter().copied()))
                    .field("bit1_cycles", Value::array(pair.1.iter().copied()))
                    .build()
            };
            Value::object().field("cold", classes(&f.cold)).field("warm", classes(&f.warm)).build()
        }
        "fig7" => {
            let r = exp::fig7(ctx);
            print_v_chart("Fig 7: ME-V2-Safe Cramer's V per unit", &r.v_series());
            print_leaks(&r);
            r.to_json()
        }
        "fig9" => {
            let r = exp::fig9(ctx);
            print_v_chart("Fig 9: ME-V2-FB (fast bypass) with timing", &r.v_series());
            print_v_chart("Fig 9: ME-V2-FB timing removed", &r.v_series_timeless());
            print_leaks(&r);
            r.to_json()
        }
        "sensitivity" => {
            println!("\n== Sensitivity: verdicts vs sample size (§VII-D) ==");
            println!(
                "{:>5} {:>6} | {:>9} {:>8} | {:>8} {:>7} {:>10}",
                "keys", "iters", "leaky maxV", "flagged", "safe maxV", "flagged", "needs more"
            );
            let points = exp::sensitivity(ctx);
            for p in &points {
                println!(
                    "{:>5} {:>6} | {:>10.3} {:>8} | {:>9.3} {:>7} {:>10}",
                    p.keys,
                    p.iterations,
                    p.leaky_max_v,
                    p.leaky_flagged,
                    p.safe_max_v,
                    p.safe_false_positive,
                    p.safe_needs_more,
                );
            }
            Value::Array(
                points
                    .iter()
                    .map(|p| {
                        Value::object()
                            .field("keys", p.keys)
                            .field("iterations", p.iterations)
                            .field("leaky_max_v", p.leaky_max_v)
                            .field("leaky_flagged", p.leaky_flagged)
                            .field("safe_max_v", p.safe_max_v)
                            .field("safe_false_positive", p.safe_false_positive)
                            .field("safe_needs_more", p.safe_needs_more)
                            .build()
                    })
                    .collect(),
            )
        }
        "fig10" => {
            let f = exp::fig10(scale);
            print_v_chart("Fig 10: CT-MEM-CMP Cramer's V per unit", &f.report.v_series());
            println!(
                "call patterns in CRYPTO_memcmp windows: inequal-only={} equal-only={} BOTH={} neither={}",
                f.patterns.inequal_only, f.patterns.equal_only, f.patterns.both, f.patterns.neither
            );
            println!(
                "mispredicts={} ROB-PC ordering mismatches={} leak identified: {}",
                f.mispredicts, f.ordering_mismatches, f.leak_identified
            );
            Value::object()
                .field("leak_identified", f.leak_identified)
                .field(
                    "patterns",
                    Value::object()
                        .field("inequal_only", f.patterns.inequal_only)
                        .field("both", f.patterns.both)
                        .field("equal_only", f.patterns.equal_only)
                        .field("neither", f.patterns.neither)
                        .build(),
                )
                .field("mispredicts", f.mispredicts)
                .field("ordering_mismatches", f.ordering_mismatches)
                .field("report", f.report.to_json())
                .build()
        }
        other => fail(&format!("unknown experiment `{other}`")),
    }
}

fn print_leaks(r: &microsampler_core::AnalysisReport) {
    let leaks: Vec<&str> = r.leaky_units().iter().map(|u| u.unit.name()).collect();
    println!("flagged units: {leaks:?}");
}

fn print_table6(t: &exp::Table6) {
    println!("1- simulate with trace logging     {:>10.2?}", t.simulate);
    println!("2- parse traces into snapshots     {:>10.2?}", t.parse);
    println!("3- Cramer's V for all structures   {:>10.2?}", t.correlate);
    println!("4- feature extraction              {:>10.2?}", t.extract);
    println!("total                              {:>10.2?}", t.total());
    println!("({} iterations, {} simulated cycles)", t.iterations, t.cycles);
}

/// Table VI as JSON. Stage keys are ordered exactly like the printed
/// breakdown (and like the children of the `table6` span this struct was
/// derived from).
fn table6_to_json(t: &exp::Table6) -> Value {
    let stages = json::Value::object()
        .field("simulate_ns", t.simulate.as_nanos() as u64)
        .field("parse_ns", t.parse.as_nanos() as u64)
        .field("correlate_ns", t.correlate.as_nanos() as u64)
        .field("extract_ns", t.extract.as_nanos() as u64)
        .build();
    Value::object()
        .field("stages", stages)
        .field("total_ns", t.total().as_nanos() as u64)
        .field("iterations", t.iterations)
        .field("cycles", t.cycles)
        .build()
}
