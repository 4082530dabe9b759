//! `audit`: a CI auditor running the early-stopped Table V audit.
//!
//! One request is one `audit::run_audit` over the 27 OpenSSL-style
//! primitives (default 96-trial budget) at one seed. Each chunk assembles
//! its primitive again and simulates 8 discarded warm-up trials, so
//! per-trial set-up and the sequential looks weigh more here than in
//! `casestudy`: many short machines instead of long traces.

use crate::probes::{self, FoldStats};
use crate::util::{catch, layer_times, secs, SimCounts, Spans};
use crate::{Layer, Opts, Run};
use microsampler_bench::audit::{audit_to_json, run_audit, AuditOptions, AuditRow, REFLOW_CAP};
use microsampler_bench::sweep::AdaptiveAllocator;
use microsampler_core::{SeqVerdict, SequentialAnalyzer};
use microsampler_isa::asm::assemble;
use microsampler_kernels::openssl::Primitive;
use microsampler_sim::{CoreConfig, IterationTrace, Machine, TraceConfig};
use std::time::Instant;

/// Distinct seeds per run: requests alternate fresh and replay (the same
/// seed again, re-run in process) and wrap around after the window.
const WINDOW: usize = 160;
/// Inputs covered by the fingerprint.
const FINGERPRINT: usize = 10;

/// The expected verdict: every primitive clean and functionally correct.
fn check_rows(rows: &[AuditRow]) -> Result<(), String> {
    let bad: Vec<String> = rows
        .iter()
        .filter(|r| r.verdict != SeqVerdict::Clean || !r.functional_ok || r.error.is_some())
        .map(|r| match &r.error {
            Some(e) => format!("{} error: {e}", r.name),
            None if !r.functional_ok => format!("{} functional mismatch", r.name),
            None => format!("{} {} after {} trials", r.name, r.verdict.name(), r.trials_spent),
        })
        .collect();
    if rows.len() != Primitive::all().len() {
        return Err(format!("{} rows, expected {}", rows.len(), Primitive::all().len()));
    }
    if bad.is_empty() {
        Ok(())
    } else {
        Err(bad.join("; "))
    }
}

fn options(opts: &Opts, seed: u64) -> AuditOptions {
    let trials = if opts.tiny { 8 } else { AuditOptions::default().trials };
    AuditOptions { seed, trials, ..AuditOptions::default() }
}

pub fn run(opts: &Opts) -> Result<Run, String> {
    let threads = opts.nproc;
    let mut run = Run::new(threads, if opts.tiny { 1 } else { FINGERPRINT });
    let window = if opts.tiny { 2 } else { WINDOW };

    // Set-up: the per-seed request plan and one minimal audit (one trial
    // per primitive) that finishes any lazy initialisation before timing.
    let mut plan = Vec::new();
    for _ in 0..crate::SETUP_REPEATS {
        let t = Instant::now();
        plan = (0..window as u64)
            .map(|i| options(opts, opts.seed.wrapping_add(i)))
            .collect::<Vec<_>>();
        run_audit(&AuditOptions { trials: 1, ..options(opts, opts.seed) });
        run.setup_s.push(secs(t));
    }

    let spans = Spans::new(opts.trace);
    let mut first: Vec<Option<Vec<u8>>> = vec![None; window];
    let mut acc = TraceAcc::default();
    let start = Instant::now();
    let mut n = 0usize;
    while secs(start) < opts.seconds || n < if opts.tiny { 2 * window } else { 2 } {
        run.host.tick();
        let input = (n / 2) % window;
        let replay = n % 2 == 1;
        n += 1;
        let before = SimCounts::read();
        let t = Instant::now();
        let rows = catch(|| Ok(run_audit(&plan[input])));
        let elapsed = secs(t);
        let counts = SimCounts::read().since(before);
        let rows = match rows {
            Ok(rows) => rows,
            Err(e) => {
                run.tally.judge(input as u64, Err(e));
                continue;
            }
        };
        run.record(elapsed, counts.cycles, true, replay);
        let verdict = audit_to_json(&rows).render_compact().into_bytes();
        let judged = match &first[input] {
            None => {
                if run.fingerprint.covers(input) {
                    run.fingerprint.absorb(&verdict, [], counts);
                    run.fingerprint.trials_spent +=
                        rows.iter().map(|r| r.trials_spent).sum::<u64>();
                }
                first[input] = Some(verdict.clone());
                check_rows(&rows)
            }
            Some(v) if *v == verdict => Ok(()),
            Some(_) => Err("repeat verdict differs from the first".to_string()),
        };
        run.tally.judge(input as u64, judged);
        if opts.trace {
            match catch(|| traced_request(&spans, n as u64, &plan[input], &verdict, threads)) {
                Ok(t) => acc.add(t, elapsed),
                Err(e) => acc.errors.push(format!("seed {}: {e}", plan[input].seed)),
            }
        }
    }
    if opts.trace {
        acc.finish(&mut run, &spans, threads);
    }
    Ok(run)
}

struct Chunk {
    iterations: Vec<IterationTrace>,
    functional_ok: bool,
    cycles: u64,
    warmup_cycles: u64,
    run_ns: u64,
}

#[derive(Default)]
struct Traced {
    wall_s: f64,
    counts: SimCounts,
    chunks: u64,
    trials_spent: u64,
    cycles: u64,
    warmup_cycles: u64,
    run_ns: u64,
    chunk_ns: u64,
    round_wall_ns: u64,
    distinct: f64,
    assemble_ns: u64,
    load_ns: u64,
    fold: FoldStats,
    fold_error: Option<String>,
}

#[derive(Default)]
struct TraceAcc {
    requests: u64,
    untraced_s: f64,
    total: Traced,
    first: Traced,
    errors: Vec<String>,
}

impl TraceAcc {
    fn add(&mut self, t: Traced, untraced_s: f64) {
        self.requests += 1;
        self.untraced_s += untraced_s;
        let a = &mut self.total;
        a.wall_s += t.wall_s;
        a.chunks += t.chunks;
        a.cycles += t.cycles;
        a.warmup_cycles += t.warmup_cycles;
        a.run_ns += t.run_ns;
        a.chunk_ns += t.chunk_ns;
        a.round_wall_ns += t.round_wall_ns;
        a.assemble_ns += t.assemble_ns;
        a.load_ns += t.load_ns;
        a.fold.add(t.fold);
        a.fold_error = a.fold_error.take().or(t.fold_error.clone());
        if self.requests == 1 {
            self.first = t;
        }
    }

    fn finish(self, run: &mut Run, spans: &Spans, threads: usize) {
        let recs = spans.records();
        let layers = layer_times(&recs);
        let a = &self.total;
        let f = &self.first;
        run.set("isa.assemble_us", a.assemble_ns as f64 / a.chunks as f64 / 1e3);
        run.set("isa.assemble_calls", f.chunks as f64);
        run.set("sim.load_us", a.load_ns as f64 / a.chunks as f64 / 1e3);
        run.set("sim.traced_ns_per_cycle", a.run_ns as f64 / a.cycles as f64);
        run.set("sim.cycles", f.counts.cycles as f64);
        run.set("sim.committed", f.counts.committed as f64);
        run.set("trace.rows", f.counts.rows as f64);
        run.set("audit.chunks", f.chunks as f64);
        run.set("audit.trials_spent", f.trials_spent as f64);
        run.set("audit.warmup_frac", a.warmup_cycles as f64 / a.cycles as f64);
        run.set(
            "core.look_us",
            layers.get("core.look").map_or(f64::NAN, |l| l.total_ns as f64 / l.calls as f64 / 1e3),
        );
        run.set("stats.distinct_hashes", f.distinct);
        run.set("par.busy_frac", a.chunk_ns as f64 / (a.round_wall_ns as f64 * threads as f64));
        run.set("bench.trace_overhead_frac", a.wall_s / self.untraced_s - 1.0);
        match &a.fold_error {
            None => {
                run.set("trace.fold_ns_per_row", a.fold.ns as f64 / a.fold.rows as f64);
                run.set("trace.cells", f.fold.cells as f64);
                run.set("trace.repeat_row_frac", f.fold.repeat_rows as f64 / f.fold.rows as f64);
            }
            Some(e) => {
                for name in ["trace.fold_ns_per_row", "trace.cells", "trace.repeat_row_frac"] {
                    run.layers.insert(name, Layer::Invalid(e.clone()));
                }
            }
        }
        let per_request = a.wall_s * 1e3 / self.requests.max(1) as f64;
        run.notes.push(format!(
            "audit split per request ({} traced): {:.1} ms wall, {} chunks, chunk runs {:.1} ms of pool time, assemble {:.2} ms, looks {:.2} ms, warm-up {:.0}% of simulated cycles",
            self.requests,
            per_request,
            f.chunks,
            a.run_ns as f64 / 1e6 / self.requests.max(1) as f64,
            a.assemble_ns as f64 / 1e6 / self.requests.max(1) as f64,
            layers.get("core.look").map_or(0.0, |l| l.total_ns as f64 / 1e6) / self.requests.max(1) as f64,
            100.0 * a.warmup_cycles as f64 / a.cycles.max(1) as f64,
        ));
        run.checks.push((
            "audit replica = run_audit",
            if self.errors.is_empty() {
                Ok(format!("{} requests: verdicts and trials_spent byte-identical", self.requests))
            } else {
                Err(self.errors.join("; "))
            },
        ));
        run.checks.push((
            "fold replay hashes",
            a.fold_error.clone().map_or(Ok(format!("{} rows replayed", a.fold.rows)), Err),
        ));
        run.spans = recs;
    }
}

/// Re-drives `run_audit`'s loop from its public parts — the allocator,
/// `Primitive::run` and `SequentialAnalyzer` — with a span around each
/// layer call, checks it reproduces the program's rows byte for byte,
/// then probes assembly, machine load and the fold.
fn traced_request(
    spans: &Spans,
    req: u64,
    opts: &AuditOptions,
    program_verdict: &[u8],
    threads: usize,
) -> Result<Traced, String> {
    let mut t = Traced::default();
    let primitives = Primitive::all();
    let n = primitives.len();
    let cap = (opts.trials * REFLOW_CAP) as u64;
    struct Item {
        analyzer: SequentialAnalyzer,
        chunks: usize,
        spent: u64,
        functional_ok: bool,
        error: Option<String>,
        iterations: Vec<IterationTrace>,
    }
    let mut items: Vec<Item> = (0..n)
        .map(|_| Item {
            analyzer: SequentialAnalyzer::new(opts.config),
            chunks: 0,
            spent: 0,
            functional_ok: true,
            error: None,
            iterations: Vec::new(),
        })
        .collect();
    let mut executed: Vec<(usize, usize, usize)> = Vec::new();
    let before = SimCounts::read();
    let wall = Instant::now();
    spans.time("request", None, req, |root| {
        let mut alloc = AdaptiveAllocator::new(n, opts.trials);
        loop {
            let grants = alloc.round();
            if grants.iter().all(|&g| g == 0) {
                break;
            }
            let jobs: Vec<(usize, usize, usize)> = grants
                .iter()
                .enumerate()
                .filter(|(_, &g)| g > 0)
                .map(|(i, &g)| (i, items[i].chunks, g))
                .collect();
            let round_start = Instant::now();
            let results = spans.time("audit.round", root, req, |round| {
                microsampler_par::map(&jobs, |_, &(i, chunk, trials)| {
                    let start = Instant::now();
                    let out = spans.time("audit.chunk", round, req, |_| {
                        primitives[i].run(
                            CoreConfig::mega_boom(),
                            trials,
                            opts.seed + chunk as u64 * 7919,
                            TraceConfig::default(),
                        )
                    });
                    let run_ns = start.elapsed().as_nanos() as u64;
                    out.map(|o| Chunk {
                        warmup_cycles: o.result.iterations.first().map_or(0, |it| it.start_cycle),
                        cycles: o.result.cycles,
                        functional_ok: o.functional_ok,
                        iterations: o.result.iterations,
                        run_ns,
                    })
                    .map_err(|e| format!("{}: {e}", primitives[i].name))
                })
            });
            t.round_wall_ns += round_start.elapsed().as_nanos() as u64;
            for (&(i, chunk, trials), result) in jobs.iter().zip(results) {
                executed.push((i, chunk, trials));
                t.chunks += 1;
                let item = &mut items[i];
                item.chunks += 1;
                match result {
                    Ok(c) => {
                        t.cycles += c.cycles;
                        t.warmup_cycles += c.warmup_cycles;
                        t.run_ns += c.run_ns;
                        t.chunk_ns += c.run_ns;
                        item.functional_ok &= c.functional_ok;
                        item.spent += trials as u64;
                        let verdict = spans.time("core.look", root, req, |_| {
                            item.analyzer.ingest_all(&c.iterations);
                            item.analyzer.look(item.spent)
                        });
                        item.iterations.extend(c.iterations);
                        if opts.early_stop && verdict.is_decided() {
                            alloc.retire(i);
                        } else if item.spent >= cap {
                            item.analyzer.resolve(item.spent);
                            alloc.retire(i);
                        }
                    }
                    Err(e) => {
                        item.error.get_or_insert(e);
                        item.functional_ok = false;
                        item.analyzer.resolve(item.spent);
                        alloc.retire(i);
                    }
                }
            }
        }
    });
    t.wall_s = secs(wall);
    t.counts = SimCounts::read().since(before);

    let rows: Vec<AuditRow> = items
        .iter_mut()
        .zip(&primitives)
        .map(|(item, prim)| {
            item.analyzer.resolve(item.spent);
            let report = item.analyzer.report();
            let verdict = if opts.early_stop {
                item.analyzer.verdict()
            } else if report.is_leaky() {
                SeqVerdict::Leaky
            } else {
                SeqVerdict::Clean
            };
            AuditRow {
                name: prim.name.to_owned(),
                verdict,
                functional_ok: item.functional_ok,
                max_v: report.units.iter().map(|u| u.assoc.cramers_v).fold(0.0f64, f64::max),
                trials_spent: item.spent,
                budget: opts.trials as u64,
                stop: item.analyzer.trace().clone(),
                error: item.error.clone(),
            }
        })
        .collect();
    if audit_to_json(&rows).render_compact().as_bytes() != program_verdict {
        return Err("replica rows differ from run_audit".to_string());
    }
    t.trials_spent = rows.iter().map(|r| r.trials_spent).sum();
    t.distinct =
        items.iter().map(|it| probes::distinct_hashes(&it.iterations)).sum::<f64>() / n as f64;

    // Probes: assembly and machine load of every executed chunk (the
    // primitives' input words are private to the kernels crate, so the
    // load probe times `Machine::with_trace_config` alone).
    for &(i, _, _) in &executed {
        let src = primitives[i].source();
        let start = Instant::now();
        let program = assemble(&src).map_err(|e| e.to_string())?;
        t.assemble_ns += start.elapsed().as_nanos() as u64;
        let start = Instant::now();
        let machine =
            Machine::with_trace_config(CoreConfig::mega_boom(), &program, TraceConfig::default());
        t.load_ns += start.elapsed().as_nanos() as u64;
        drop(machine);
    }
    // Fold replay of every primitive's first chunk, kept in full.
    let firsts: Vec<(usize, usize)> =
        executed.iter().filter(|(_, c, _)| *c == 0).map(|&(i, _, g)| (i, g)).collect();
    let keep = TraceConfig { keep_matrices: true, ..TraceConfig::default() };
    let replays = microsampler_par::map_with(threads, &firsts, |_, &(i, trials)| {
        primitives[i]
            .run(CoreConfig::mega_boom(), trials, opts.seed, keep)
            .map_err(|e| e.to_string())
            .and_then(|o| probes::fold_replay(&o.result.iterations))
            .map_err(|e| format!("{}: {e}", primitives[i].name))
    });
    for r in replays {
        match r {
            Ok(f) => t.fold.add(f),
            Err(e) => {
                t.fold_error.get_or_insert(e);
            }
        }
    }
    Ok(t)
}
