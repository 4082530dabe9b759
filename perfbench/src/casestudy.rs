//! `casestudy`: a researcher regenerating the paper's modexp figures.
//!
//! One request is one figure round — Figs. 3, 4, 7 and 9 at one seed, each
//! `bench::modexp_report`'s body (`run_modexp_iterations` then
//! `core::analyze`) at the default `Scale`. Every key trial builds a fresh
//! machine, so caches start empty. Simulation is ~99% of a request, which
//! makes this the workload where tick, capture and fold changes show.

use crate::probes::{self, FoldStats};
use crate::util::{catch, secs, SimCounts, Spans};
use crate::{Layer, Opts, Run};
use microsampler_bench::run_modexp_iterations;
use microsampler_core::{analyze, AnalysisReport, UnitId};
use microsampler_isa::asm::assemble;
use microsampler_kernels::inputs::random_keys;
use microsampler_kernels::modexp::{cycle_budget, ModexpKernel, ModexpVariant};
use microsampler_sim::{CoreConfig, IterationTrace, Machine, TraceConfig};
use std::time::Instant;

/// Distinct seeds per run: requests alternate fresh and replay (the same
/// seed again, re-run in process) and wrap around after the window.
const WINDOW: usize = 16;
/// Inputs covered by the fingerprint.
const FINGERPRINT: usize = 2;

struct Figure {
    name: &'static str,
    variant: ModexpVariant,
    config: CoreConfig,
}

fn figures() -> Vec<Figure> {
    let mega = CoreConfig::mega_boom;
    vec![
        Figure { name: "fig3", variant: ModexpVariant::V1CompilerVuln, config: mega() },
        Figure { name: "fig4", variant: ModexpVariant::V1MicroarchVuln, config: mega() },
        Figure { name: "fig7", variant: ModexpVariant::V2Safe, config: mega() },
        Figure { name: "fig9", variant: ModexpVariant::V2Safe, config: mega().with_fast_bypass() },
    ]
}

/// The paper's verdicts, as asserted by `tests/case_studies.rs`.
fn check_verdict(fig: &str, r: &AnalysisReport) -> Result<(), String> {
    let leaky = |u: UnitId| r.unit(u).is_leaky();
    let fail = |what: &str| Err(format!("{fig}: {what}"));
    match fig {
        "fig3" if !r.is_leaky() => fail("ME-V1-CV not flagged"),
        "fig4" => {
            for u in [UnitId::SqAddr, UnitId::CacheAddr] {
                if !leaky(u) {
                    return fail(&format!("{} not flagged", u.name()));
                }
            }
            for u in [UnitId::RobPc, UnitId::SqPc, UnitId::LqPc, UnitId::RobOccupancy] {
                if leaky(u) {
                    return fail(&format!("{} flagged", u.name()));
                }
            }
            Ok(())
        }
        "fig7" if r.is_leaky() => fail("ME-V2-Safe flagged"),
        "fig9" if !r.is_leaky() => fail("fast bypass not flagged"),
        "fig9" if !r.unit(UnitId::EuuAlu).is_leaky_without_timing() => {
            fail("EUU-ALU not flagged without timing")
        }
        _ => Ok(()),
    }
}

/// What one figure round produced: the verdict bytes, every snapshot
/// hash, and the first failed expectation.
struct Round {
    verdict: Vec<u8>,
    hashes: Vec<u64>,
    reports: Vec<AnalysisReport>,
    expected: Result<(), String>,
}

fn round_of(figs: &[Figure], iters: &[Vec<IterationTrace>], reports: Vec<AnalysisReport>) -> Round {
    let mut round =
        Round { verdict: Vec::new(), hashes: Vec::new(), reports: Vec::new(), expected: Ok(()) };
    for ((fig, its), report) in figs.iter().zip(iters).zip(reports) {
        round.verdict.extend_from_slice(report.to_json().render_compact().as_bytes());
        round.hashes.extend(its.iter().flat_map(|it| it.units.iter().map(|u| u.hash)));
        if round.expected.is_ok() {
            round.expected = check_verdict(fig.name, &report);
        }
        round.reports.push(report);
    }
    round
}

struct Sizes {
    keys: usize,
    key_bytes: usize,
}

/// One request through the program's own entry points, timed.
fn request(figs: &[Figure], sz: &Sizes, seed: u64) -> Result<(Round, f64, SimCounts), String> {
    let before = SimCounts::read();
    let t = Instant::now();
    let mut iters = Vec::with_capacity(figs.len());
    let mut reports = Vec::with_capacity(figs.len());
    for fig in figs {
        let its = run_modexp_iterations(fig.variant, &fig.config, sz.keys, sz.key_bytes, seed);
        reports.push(analyze(&its));
        iters.push(its);
    }
    let elapsed = secs(t);
    let counts = SimCounts::read().since(before);
    Ok((round_of(figs, &iters, reports), elapsed, counts))
}

pub fn run(opts: &Opts) -> Result<Run, String> {
    let sz = if opts.tiny {
        Sizes { keys: 4, key_bytes: 2 }
    } else {
        let s = microsampler_bench::Scale::default();
        Sizes { keys: s.keys, key_bytes: s.key_bytes }
    };
    let threads = opts.nproc;
    let (window, fingerprint) = if opts.tiny { (2, 1) } else { (WINDOW, FINGERPRINT) };
    let mut run = Run::new(threads, fingerprint);

    // Set-up: the figure table, the per-seed request plan, and one
    // minimal round (1 key × 1 byte per figure) that finishes any lazy
    // initialisation before timing starts.
    let mut figs = Vec::new();
    let mut plan = Vec::new();
    for _ in 0..crate::SETUP_REPEATS {
        let t = Instant::now();
        figs = figures();
        plan = (0..window as u64).map(|i| opts.seed.wrapping_add(i)).collect::<Vec<u64>>();
        request(&figs, &Sizes { keys: 1, key_bytes: 1 }, opts.seed)?;
        run.setup_s.push(secs(t));
    }

    let spans = Spans::new(opts.trace);
    let mut first: Vec<Option<Vec<u8>>> = vec![None; window];
    let mut trace = TraceAcc::default();
    let start = Instant::now();
    let mut n = 0usize;
    while secs(start) < opts.seconds || n < if opts.tiny { 2 * window } else { 2 } {
        run.host.tick();
        let input = (n / 2) % window;
        let seed = plan[input];
        let replay = n % 2 == 1;
        let result = catch(|| request(&figs, &sz, seed));
        n += 1;
        let (round, elapsed, counts) = match result {
            Ok(ok) => ok,
            Err(e) => {
                run.tally.judge(input as u64, Err(e));
                continue;
            }
        };
        run.record(elapsed, counts.cycles, true, replay);
        let verdict = match &first[input] {
            None => {
                if run.fingerprint.covers(input) {
                    run.fingerprint.absorb(&round.verdict, round.hashes.iter().copied(), counts);
                }
                first[input] = Some(round.verdict.clone());
                round.expected.clone()
            }
            Some(v) if *v == round.verdict => Ok(()),
            Some(_) => Err(format!("seed {seed}: repeat verdict differs from the first")),
        };
        run.tally.judge(input as u64, verdict);
        if opts.trace {
            let traced = catch(|| traced_request(&spans, n as u64, &figs, &sz, seed, &round));
            match traced {
                Ok(t) => trace.add(t, elapsed),
                Err(e) => trace.errors.push(format!("seed {seed}: {e}")),
            }
        }
    }
    if opts.trace {
        trace.finish(&mut run, &spans, threads);
    }
    Ok(run)
}

/// Per-layer measurements of one traced request.
#[derive(Default)]
struct Traced {
    wall_s: f64,
    counts: SimCounts,
    twin_ns: u64,
    twin_cycles: u64,
    run_ns: u64,
    cycles: u64,
    fold: FoldStats,
    distinct: f64,
    par_wall_ns: u64,
    trial_ns: u64,
    twin_error: Option<String>,
    fold_error: Option<String>,
}

#[derive(Default)]
struct TraceAcc {
    requests: u64,
    untraced_s: f64,
    total: Traced,
    /// The run's first traced request, for the exact counts.
    first: Traced,
    errors: Vec<String>,
}

impl TraceAcc {
    fn add(&mut self, t: Traced, untraced_s: f64) {
        self.requests += 1;
        self.untraced_s += untraced_s;
        let a = &mut self.total;
        a.wall_s += t.wall_s;
        a.counts.add(t.counts);
        a.twin_ns += t.twin_ns;
        a.twin_cycles += t.twin_cycles;
        a.run_ns += t.run_ns;
        a.cycles += t.cycles;
        a.fold.add(t.fold);
        a.par_wall_ns += t.par_wall_ns;
        a.trial_ns += t.trial_ns;
        a.twin_error = a.twin_error.take().or(t.twin_error.clone());
        a.fold_error = a.fold_error.take().or(t.fold_error.clone());
        if self.requests == 1 {
            self.first = t;
        }
    }

    fn finish(self, run: &mut Run, spans: &Spans, threads: usize) {
        let recs = spans.records();
        let layers = crate::util::layer_times(&recs);
        let per_call = |name: &str, scale: f64| {
            layers.get(name).map_or(f64::NAN, |l| l.total_ns as f64 / l.calls as f64 / scale)
        };
        let (a, f) = (&self.total, &self.first);
        run.set("isa.assemble_us", per_call("isa.assemble", 1e3));
        run.set(
            "isa.assemble_calls",
            layers.get("isa.assemble").map_or(0, |l| l.calls) as f64 / self.requests as f64,
        );
        run.set("sim.load_us", per_call("sim.load", 1e3));
        run.set("core.analyze_ms", per_call("core.analyze", 1e6));
        run.set("sim.cycles", f.counts.cycles as f64);
        run.set("sim.committed", f.counts.committed as f64);
        run.set("trace.rows", f.counts.rows as f64);
        run.set("trace.cells", f.fold.cells as f64);
        run.set("trace.repeat_row_frac", f.fold.repeat_rows as f64 / f.fold.rows as f64);
        run.set("stats.distinct_hashes", f.distinct);
        run.set("par.busy_frac", a.trial_ns as f64 / (a.par_wall_ns as f64 * threads as f64));
        run.set("bench.trace_overhead_frac", a.wall_s / self.untraced_s - 1.0);
        let traced = a.run_ns as f64 / a.cycles as f64;
        let tick = a.twin_ns as f64 / a.twin_cycles as f64;
        let fold_row = a.fold.ns as f64 / a.fold.rows as f64;
        // Rows folded by the live runs, spread over their cycles.
        let fold = fold_row * a.counts.rows as f64 / a.counts.cycles as f64;
        let capture = traced - tick - fold;
        run.set("sim.traced_ns_per_cycle", traced);
        match (&a.twin_error, &a.fold_error) {
            (None, None) => {
                run.set("sim.tick_ns_per_cycle", tick);
                run.set("trace.fold_ns_per_row", fold_row);
                run.set("trace.capture_ns_per_cycle", capture);
                run.notes.push(format!(
                    "simulate split per cycle: tick {tick:.0} ns ({:.0}%), capture {capture:.0} ns ({:.0}%), fold {fold:.0} ns ({:.0}%)",
                    100.0 * tick / traced,
                    100.0 * capture / traced,
                    100.0 * fold / traced,
                ));
            }
            (twin, fold) => {
                if let Some(e) = twin {
                    run.layers.insert("sim.tick_ns_per_cycle", Layer::Invalid(e.clone()));
                }
                if let Some(e) = fold {
                    run.layers.insert("trace.fold_ns_per_row", Layer::Invalid(e.clone()));
                }
                let why = twin.clone().or(fold.clone()).unwrap_or_default();
                run.layers.insert("trace.capture_ns_per_cycle", Layer::Invalid(why));
            }
        }
        run.checks.push((
            "untraced twin cycles",
            a.twin_error
                .clone()
                .map_or(Ok(format!("{} = {} cycles", a.twin_cycles, a.cycles)), Err),
        ));
        run.checks.push((
            "fold replay hashes",
            a.fold_error.clone().map_or(Ok(format!("{} rows replayed", a.fold.rows)), Err),
        ));
        run.checks.push((
            "replica = program",
            if self.errors.is_empty() {
                Ok("reports byte-identical".into())
            } else {
                Err(self.errors.join("; "))
            },
        ));
        run.spans = recs;
    }
}

/// One key trial of the replica, timed per layer.
struct Trial {
    iterations: Vec<IterationTrace>,
    cycles: u64,
    run_ns: u64,
    trial_ns: u64,
}

/// Re-drives one request through `run_modexp_iterations`' steps with a
/// span around each layer call, then runs the twin and fold probes.
fn traced_request(
    spans: &Spans,
    req: u64,
    figs: &[Figure],
    sz: &Sizes,
    seed: u64,
    program_round: &Round,
) -> Result<Traced, String> {
    let mut t = Traced::default();
    let keys = random_keys(sz.keys, sz.key_bytes, seed);
    let before = SimCounts::read();
    let wall = Instant::now();
    let mut iters = Vec::with_capacity(figs.len());
    let mut reports = Vec::with_capacity(figs.len());
    let mut live_cycles: Vec<Vec<u64>> = Vec::with_capacity(figs.len());
    spans.time("request", None, req, |root| -> Result<(), String> {
        for fig in figs {
            let kernel = ModexpKernel::new(fig.variant, sz.key_bytes);
            let par_start = Instant::now();
            let trials = spans.time("figure", root, req, |parent| {
                microsampler_par::map(&keys, |_, key| -> Result<Trial, String> {
                    let start = Instant::now();
                    spans.time("trial", parent, req, |trial| {
                        let program = spans
                            .time("isa.assemble", trial, req, |_| kernel.program())
                            .map_err(|e| e.to_string())?;
                        let mut machine = spans.time("sim.load", trial, req, |_| {
                            let mut m = Machine::with_trace_config(
                                fig.config.clone(),
                                &program,
                                TraceConfig::default(),
                            );
                            m.write_mem(program.symbol_addr("key"), key);
                            m
                        });
                        let run_start = Instant::now();
                        let result = spans
                            .time("sim.run", trial, req, |_| {
                                machine.run(cycle_budget(sz.key_bytes))
                            })
                            .map_err(|e| e.to_string())?;
                        let run_ns = run_start.elapsed().as_nanos() as u64;
                        if result.exit_code != kernel.reference(key) {
                            return Err(format!("{}: functional mismatch", fig.name));
                        }
                        Ok(Trial {
                            iterations: result.iterations,
                            cycles: result.cycles,
                            run_ns,
                            trial_ns: start.elapsed().as_nanos() as u64,
                        })
                    })
                })
            });
            t.par_wall_ns += par_start.elapsed().as_nanos() as u64;
            let mut its = Vec::new();
            let mut cycles = Vec::with_capacity(keys.len());
            for trial in trials {
                let trial = trial?;
                cycles.push(trial.cycles);
                t.cycles += trial.cycles;
                t.run_ns += trial.run_ns;
                t.trial_ns += trial.trial_ns;
                its.extend(trial.iterations);
            }
            reports.push(spans.time("core.analyze", root, req, |_| analyze(&its)));
            iters.push(its);
            live_cycles.push(cycles);
        }
        Ok(())
    })?;
    t.wall_s = secs(wall);
    t.counts = SimCounts::read().since(before);
    t.distinct =
        iters.iter().map(|its| probes::distinct_hashes(its)).sum::<f64>() / iters.len() as f64;
    let replica = round_of(figs, &iters, reports);
    if replica.verdict != program_round.verdict || replica.hashes != program_round.hashes {
        return Err("replica round differs from run_modexp_iterations + analyze".into());
    }

    // Probe 1: the untraced twin of every key trial, on the same pool.
    for (fig, live) in figs.iter().zip(&live_cycles) {
        let kernel = ModexpKernel::new(fig.variant, sz.key_bytes);
        let twin = probes::untraced_twin(&kernel.source())
            .and_then(|src| assemble(&src).map_err(|e| format!("twin does not assemble: {e}")));
        let twin = match twin {
            Ok(p) => p,
            Err(e) => {
                t.twin_error.get_or_insert(format!("{}: {e}", fig.name));
                continue;
            }
        };
        let runs = microsampler_par::map(&keys, |_, key| {
            let mut m =
                Machine::with_trace_config(fig.config.clone(), &twin, TraceConfig::default());
            m.write_mem(twin.symbol_addr("key"), key);
            let start = Instant::now();
            let r = m.run(cycle_budget(sz.key_bytes));
            (start.elapsed().as_nanos() as u64, r)
        });
        for ((ns, r), &live) in runs.into_iter().zip(live) {
            match r {
                Ok(r)
                    if r.cycles == live
                        && r.iterations.iter().all(|it| it.sampled_cycles() == 0) =>
                {
                    t.twin_ns += ns;
                    t.twin_cycles += r.cycles;
                }
                Ok(r) => {
                    t.twin_error.get_or_insert(format!(
                        "{}: twin ran {} cycles ({} snapshot rows), live {live}",
                        fig.name,
                        r.cycles,
                        r.iterations.iter().map(|it| it.sampled_cycles()).sum::<u64>()
                    ));
                }
                Err(e) => {
                    t.twin_error.get_or_insert(format!("{}: twin failed: {e}", fig.name));
                }
            }
        }
    }

    // Probe 2: fold replay of one key per figure from a keep_matrices run.
    for fig in figs {
        let kernel = ModexpKernel::new(fig.variant, sz.key_bytes);
        let keep = TraceConfig { keep_matrices: true, ..TraceConfig::default() };
        let replayed = kernel
            .run(fig.config.clone(), &keys[0], keep)
            .map_err(|e| e.to_string())
            .and_then(|r| probes::fold_replay(&r.iterations));
        match replayed {
            Ok(f) => t.fold.add(f),
            Err(e) => {
                t.fold_error.get_or_insert(format!("{}: {e}", fig.name));
            }
        }
    }
    Ok(t)
}
