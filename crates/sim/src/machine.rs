//! Public top-level API: load a program, run it, collect traces.

use crate::config::CoreConfig;
use crate::core::{Core, CoreExit};
use crate::fault::FaultCounts;
use crate::pipeline::PipelineStats;
use crate::trace::{IterationTrace, TraceConfig};
use crate::CoreStats;
use microsampler_isa::{Program, Reg};
use std::fmt;

/// Why a run failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The cycle budget was exhausted before the program exited.
    OutOfCycles {
        /// Budget that was exceeded.
        limit: u64,
    },
    /// No instruction committed for a long time — the pipeline wedged
    /// (usually a program that wandered off its text section on the
    /// committed path).
    Deadlock {
        /// Cycle at which the watchdog fired.
        cycle: u64,
    },
}

impl SimError {
    /// Stable machine-readable class name, used by job-level failure
    /// classification (trial journals, `repro serve` verdicts). Unlike
    /// the [`Display`](fmt::Display) text, these identifiers are part of
    /// the JSONL schema contract and must not change.
    pub fn class(&self) -> &'static str {
        match self {
            SimError::OutOfCycles { .. } => "out-of-cycles",
            SimError::Deadlock { .. } => "deadlock",
        }
    }

    /// Whether a retry with a different fault schedule could plausibly
    /// succeed. Both current classes qualify: fault injection (spurious
    /// squashes, MSHR stalls) can push a run over its cycle budget or
    /// wedge the pipeline, and retries are re-seeded per attempt.
    pub fn is_retryable(&self) -> bool {
        matches!(self, SimError::OutOfCycles { .. } | SimError::Deadlock { .. })
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::OutOfCycles { limit } => {
                write!(f, "[{}] simulation exceeded the cycle budget of {limit}", self.class())
            }
            SimError::Deadlock { cycle } => {
                write!(
                    f,
                    "[{}] pipeline made no progress (deadlock detected at cycle {cycle})",
                    self.class()
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

/// The outcome of a completed run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Total cycles simulated.
    pub cycles: u64,
    /// Exit code: `a0` for `ecall`, or the value written to the exit CSR.
    pub exit_code: u64,
    /// Labeled per-iteration microarchitectural traces collected inside the
    /// security-critical region.
    pub iterations: Vec<IterationTrace>,
    /// Microarchitectural statistics.
    pub stats: CoreStats,
    /// Pipeline occupancy/stall profiling counters over the whole run.
    pub pipeline: PipelineStats,
    /// Faults injected during the run (all zero without fault injection).
    pub fault_counts: FaultCounts,
}

/// A loaded machine: one core plus memory, ready to run.
pub struct Machine {
    core: Core,
}

impl Machine {
    /// Enables a per-cycle state dump through the diagnostic sink
    /// (debugging aid). Raises the sink to `Debug` verbosity if it is
    /// quieter, so the dump is visible without setting `MICROSAMPLER_LOG`.
    pub fn set_debug(&mut self, on: bool) {
        self.core.debug = on;
        if on && !microsampler_obs::diag::enabled(microsampler_obs::Level::Debug) {
            microsampler_obs::diag::set_max_level(Some(microsampler_obs::Level::Debug));
        }
    }
}

/// Cycles without a commit after which the watchdog declares deadlock.
const WATCHDOG_CYCLES: u64 = 20_000;

impl Machine {
    /// Creates a machine with default tracing (summaries only, no raw
    /// matrices).
    pub fn new(config: CoreConfig, program: &Program) -> Machine {
        Machine::with_trace_config(config, program, TraceConfig::default())
    }

    /// Creates a machine with explicit tracing configuration.
    pub fn with_trace_config(config: CoreConfig, program: &Program, trace: TraceConfig) -> Machine {
        Machine { core: Core::new(config, program, trace) }
    }

    /// Enables text-log emission (the paper's simulator-log pipeline);
    /// retrieve it with [`Machine::log_text`] after the run.
    pub fn enable_log(&mut self) {
        self.core.tracer.enable_log();
    }

    /// The accumulated text log, if enabled.
    pub fn log_text(&self) -> Option<&str> {
        self.core.tracer.log_text()
    }

    /// Runs until the program exits or `max_cycles` elapse.
    ///
    /// # Errors
    ///
    /// [`SimError::OutOfCycles`] if the budget runs out,
    /// [`SimError::Deadlock`] if the pipeline stops committing.
    pub fn run(&mut self, max_cycles: u64) -> Result<RunResult, SimError> {
        let _span = microsampler_obs::span::span("simulate");
        while self.core.exit.is_none() {
            if self.core.cycle >= max_cycles {
                return Err(SimError::OutOfCycles { limit: max_cycles });
            }
            if self.core.cycles_since_commit() > WATCHDOG_CYCLES {
                return Err(SimError::Deadlock { cycle: self.core.cycle });
            }
            self.core.tick();
        }
        let exit_code = match self.core.exit {
            Some(CoreExit::Ecall) => self.reg(Reg::new(10)),
            Some(CoreExit::ExitCsr(code)) => code,
            None => unreachable!("loop exits only when core.exit is set"),
        };
        let mut stats = self.core.stats.clone();
        stats.cycles = self.core.cycle;
        let iterations = std::mem::take(&mut self.core.tracer.iterations);
        let fault_counts = self.fault_counts();
        let pipeline = self.core.pipeline;
        self.export_metrics(&stats, iterations.len(), &fault_counts);
        Ok(RunResult {
            cycles: self.core.cycle,
            exit_code,
            iterations,
            stats,
            pipeline,
            fault_counts,
        })
    }

    /// Combined fault counters: the core's pipeline perturbations plus the
    /// tracer's capture faults.
    fn fault_counts(&self) -> FaultCounts {
        let mut counts = self.core.fault_counts;
        counts.dropped_cycles = self.core.tracer.dropped_cycles;
        counts.bit_flips = self.core.tracer.bit_flips;
        counts
    }

    /// Records the run's `CoreStats` counters and tracer volumes into the
    /// process metrics registry (`sim.*` / `trace.*`; no-op while the
    /// registry is disabled).
    fn export_metrics(&self, stats: &CoreStats, iterations: usize, faults: &FaultCounts) {
        if !microsampler_obs::metrics::enabled() {
            return;
        }
        microsampler_obs::metrics::record_batch(
            "sim",
            &[
                ("cycles", stats.cycles as f64),
                ("committed", stats.committed as f64),
                ("ipc", stats.ipc()),
                ("branches", stats.branches as f64),
                ("branch_mispredicts", stats.branch_mispredicts as f64),
                ("jalr_mispredicts", stats.jalr_mispredicts as f64),
                ("squashed", stats.squashed as f64),
                ("l1d_hits", stats.l1d_hits as f64),
                ("l1d_misses", stats.l1d_misses as f64),
                ("l1i_hits", stats.l1i_hits as f64),
                ("l1i_misses", stats.l1i_misses as f64),
                ("tlb_hits", stats.tlb_hits as f64),
                ("tlb_misses", stats.tlb_misses as f64),
                ("stl_forwards", stats.stl_forwards as f64),
                ("prefetches", stats.prefetches as f64),
                ("fast_bypasses", stats.fast_bypasses as f64),
            ],
        );
        let p = &self.core.pipeline;
        microsampler_obs::metrics::record_batch(
            "sim.pipeline",
            &[
                ("ipc", p.ipc()),
                ("alu_busy", p.alu_busy as f64),
                ("agu_busy", p.agu_busy as f64),
                ("mul_busy", p.mul_busy as f64),
                ("div_busy", p.div_busy as f64),
                ("icache_stall_cycles", p.icache_stall_cycles as f64),
                ("fetch_starved_cycles", p.fetch_starved_cycles as f64),
                ("rob_full_cycles", p.rob_full_cycles as f64),
                ("dispatch_stall_cycles", p.dispatch_stall_cycles as f64),
                ("lsu_retry_events", p.lsu_retry_events as f64),
                ("fault_stall_cycles", p.fault_stall_cycles as f64),
                ("squash_recovery_cycles", p.squash_recovery_cycles as f64),
                ("watchdog_near_misses", p.watchdog_near_misses as f64),
            ],
        );
        let tracer = &self.core.tracer;
        microsampler_obs::metrics::record_batch(
            "trace",
            &[
                ("iterations", iterations as f64),
                ("rows_sampled", tracer.rows_sampled as f64),
                ("hash_bytes", tracer.hash_bytes as f64),
                ("matrix_cells", tracer.matrix_cells as f64),
            ],
        );
        if faults.total() > 0 {
            microsampler_obs::metrics::record("fault.injected", faults.total() as f64);
            microsampler_obs::metrics::record_batch(
                "fault",
                &[
                    ("spurious_squashes", faults.spurious_squashes as f64),
                    ("cache_evictions", faults.cache_evictions as f64),
                    ("mshr_stalls", faults.mshr_stalls as f64),
                    ("dropped_cycles", faults.dropped_cycles as f64),
                    ("bit_flips", faults.bit_flips as f64),
                ],
            );
        }
    }

    /// Committed (architectural) value of a register.
    pub fn reg(&self, r: Reg) -> u64 {
        self.core.arch_regs[r.index()]
    }

    /// Reads committed memory.
    pub fn read_mem(&self, addr: u64, len: usize) -> Vec<u8> {
        self.core.mem.read_bytes(addr, len)
    }

    /// Writes memory directly (harness-level initialization).
    pub fn write_mem(&mut self, addr: u64, bytes: &[u8]) {
        self.core.write_mem(addr, bytes);
    }

    /// Flushes the L1D line containing `addr` (attacker model).
    pub fn flush_dcache_line(&mut self, addr: u64) {
        self.core.flush_dcache_line(addr);
    }

    /// Pre-installs the L1D lines covering `addr .. addr+len` (models data
    /// that was recently touched, e.g. an initialized buffer).
    pub fn warm_dcache(&mut self, addr: u64, len: u64) {
        self.core.warm_dcache(addr, len);
    }

    /// Current cycle count.
    pub fn cycles(&self) -> u64 {
        self.core.cycle
    }

    /// Queues words for the program to read via `csrr rd, 0x8c8`
    /// ([`microsampler_isa::CSR_INPUT`]).
    pub fn push_inputs(&mut self, words: impl IntoIterator<Item = u64>) {
        self.core.input_queue.extend(words);
    }

    /// Takes the words the program wrote via `csrw 0x8c9, rs`
    /// ([`microsampler_isa::CSR_OUTPUT`]).
    pub fn take_outputs(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.core.outputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::UnitSet;
    use microsampler_isa::asm::assemble;

    fn run_on(config: CoreConfig, src: &str) -> (Machine, RunResult) {
        let p = assemble(src).unwrap();
        let mut m = Machine::new(config, &p);
        let r = m.run(2_000_000).expect("run completes");
        (m, r)
    }

    #[test]
    fn straight_line_arithmetic() {
        for cfg in [CoreConfig::small_boom(), CoreConfig::mega_boom()] {
            let (m, r) =
                run_on(cfg, "li a0, 21\nslli a1, a0, 1\nsub a2, a1, a0\nadd a0, a1, a2\necall\n");
            assert_eq!(m.reg(Reg::new(10)), 63);
            assert!(r.cycles > 0);
            assert!(r.stats.ipc() > 0.0);
            // Pipeline profiling mirrors the architectural counters exactly.
            assert_eq!(r.pipeline.cycles, r.stats.cycles);
            assert_eq!(r.pipeline.committed, r.stats.committed);
            assert!(r.pipeline.alu_busy > 0);
            assert!((r.pipeline.ipc() - r.stats.ipc()).abs() < 1e-12);
        }
    }

    #[test]
    fn loop_with_branches() {
        let (m, _) = run_on(
            CoreConfig::small_boom(),
            "li a0, 0\nli t0, 100\nloop: add a0, a0, t0\naddi t0, t0, -1\nbgtz t0, loop\necall\n",
        );
        assert_eq!(m.reg(Reg::new(10)), 5050);
    }

    #[test]
    fn memory_and_forwarding() {
        let (m, r) = run_on(
            CoreConfig::mega_boom(),
            r#"
            .data
            buf: .zero 64
            .text
            la t0, buf
            li t1, 0x1234
            sd t1, 0(t0)
            ld a0, 0(t0)      # should forward from the store queue
            sb a0, 17(t0)
            lbu a1, 17(t0)
            ecall
            "#,
        );
        assert_eq!(m.reg(Reg::new(10)), 0x1234);
        assert_eq!(m.reg(Reg::new(11)), 0x34);
        assert!(r.stats.stl_forwards > 0, "expected store-to-load forwarding");
    }

    #[test]
    fn call_return_uses_ras() {
        let (m, r) = run_on(
            CoreConfig::mega_boom(),
            r#"
            _start:
                li a0, 1
                li t2, 8
            again:
                call bump
                addi t2, t2, -1
                bgtz t2, again
                ecall
            bump:
                slli a0, a0, 1
                ret
            "#,
        );
        assert_eq!(m.reg(Reg::new(10)), 256);
        // After warmup the RAS should make returns predictable.
        assert!(r.stats.jalr_mispredicts <= 3, "{}", r.stats.jalr_mispredicts);
    }

    #[test]
    fn misprediction_recovers_correctly() {
        // A data-dependent unpredictable branch pattern; architectural
        // results must still be exact.
        let (m, r) = run_on(
            CoreConfig::mega_boom(),
            r#"
            li s0, 0          # accumulator
            li s1, 1          # lcg state
            li t3, 200        # iterations
            li t4, 1103515245
            li t5, 12345
            loop:
                mul s1, s1, t4
                add s1, s1, t5
                srli t0, s1, 16
                andi t0, t0, 1
                beqz t0, skip
                addi s0, s0, 1
            skip:
                addi t3, t3, -1
                bgtz t3, loop
            mv a0, s0
            ecall
            "#,
        );
        // Cross-checked with the golden interpreter in differential tests;
        // here just require progress and some mispredictions happened.
        assert!(r.stats.branch_mispredicts > 0);
        assert!(m.reg(Reg::new(10)) <= 200);
        assert!(r.stats.squashed > 0);
    }

    #[test]
    fn caches_and_prefetcher_fire() {
        let (_, r) = run_on(
            CoreConfig::mega_boom(),
            r#"
            .data
            arr: .zero 4096
            .text
            la t0, arr
            li t1, 64         # walk 64 lines
            loop:
                ld t2, 0(t0)
                addi t0, t0, 64
                addi t1, t1, -1
                bgtz t1, loop
            la t0, arr        # second pass: must hit in the cache
            li t1, 64
            loop2:
                ld t2, 0(t0)
                addi t0, t0, 64
                addi t1, t1, -1
                bgtz t1, loop2
            ecall
            "#,
        );
        assert!(r.stats.l1d_misses > 0);
        assert!(r.stats.prefetches > 0);
        assert!(r.stats.l1d_hits >= 32, "second pass should hit ({} hits)", r.stats.l1d_hits);
        assert!(r.stats.tlb_misses >= 1);
    }

    #[test]
    fn iteration_traces_collected() {
        let (_, r) = run_on(
            CoreConfig::small_boom(),
            r#"
            csrw 0x8c0, zero       # SCR start
            li s0, 2               # two iterations
            li s1, 0
            loop:
                csrw 0x8c2, s1     # iter start, label = s1
                li t0, 5
                inner:
                    addi t0, t0, -1
                    bgtz t0, inner
                csrw 0x8c3, zero   # iter end
                addi s1, s1, 1
                addi s0, s0, -1
                bgtz s0, loop
            csrw 0x8c1, zero       # SCR end
            ecall
            "#,
        );
        assert_eq!(r.iterations.len(), 2);
        assert_eq!(r.iterations[0].label, 0);
        assert_eq!(r.iterations[1].label, 1);
        assert!(r.iterations[0].cycles() > 0);
        // ROB-PC must have sampled something.
        assert!(r.iterations[0].unit(crate::UnitId::RobPc).cycle_rows > 0);
        // Each iteration carries its own pipeline delta, and the deltas
        // cannot exceed the run-level totals.
        for it in &r.iterations {
            assert!(it.pipeline.cycles > 0);
            assert!(it.pipeline.committed > 0);
            assert!(it.pipeline.cycles <= r.pipeline.cycles);
        }
        let iter_cycles: u64 = r.iterations.iter().map(|i| i.pipeline.cycles).sum();
        assert!(iter_cycles <= r.pipeline.cycles);
    }

    /// Runs `program` on `config` three ways and checks that they
    /// summarise every iteration alike: capture by version and by digest
    /// where the tracer allows (the default), capture that builds every
    /// row (`keep_matrices` refuses both shortcuts), and capture without
    /// features (which passes ROB-PC and the SQ and LQ units by digest
    /// alone). Returns the iterations with their matrices.
    fn capture_paths_agree(config: CoreConfig, program: &Program) -> Vec<IterationTrace> {
        let run = |trace: TraceConfig| {
            let mut m = Machine::with_trace_config(config.clone(), program, trace);
            m.run(2_000_000).expect("run completes").iterations
        };
        let versioned = run(TraceConfig::default());
        let kept = run(TraceConfig { keep_matrices: true, ..TraceConfig::default() });
        let mut built = kept.clone();
        for unit in built.iter_mut().flat_map(|it| &mut it.units) {
            unit.rows = None;
        }
        assert_eq!(versioned, built);
        // Without features the same rows fold to the same hashes.
        let featureless = run(TraceConfig { features: UnitSet::NONE, ..TraceConfig::default() });
        for unit in built.iter_mut().flat_map(|it| &mut it.units) {
            unit.order = None;
        }
        assert_eq!(featureless, built);
        kept
    }

    /// The capture paths agree on a program that moves each versioned
    /// structure inside the traced iterations: loads and stores over four
    /// pages (queues, LFBs, MSHRs, prefetches, TLB fills), multiplies, a
    /// divide, a D-cache flush and a TLB flush; on MegaBoom, SmallBoom,
    /// the fast-bypass core and a MegaBoom starved of miss bandwidth (one
    /// MSHR, two line-fill buffers), where cache accesses retry and stores
    /// drain out of order.
    #[test]
    fn versioned_capture_equals_building_every_row() {
        let program = assemble(
            r#"
            .data
            arr: .zero 16384
            .text
            csrw 0x8c0, zero       # SCR start
            li s0, 3               # three iterations, labels 3, 2, 1
            loop:
                csrw 0x8c2, s0     # iter start
                la t0, arr
                li t1, 24
                walk:
                    ld t2, 0(t0)
                    mul t3, t2, t1
                    sd t3, 8(t0)
                    addi t0, t0, 520
                    addi t1, t1, -1
                    bgtz t1, walk
                csrw 0x8c7, zero   # flush the TLB
                divu t4, t0, s0
                csrw 0x8c6, zero   # flush the D-cache
                la t0, arr
                ld t2, 0(t0)
                csrw 0x8c3, zero   # iter end
                addi s0, s0, -1
                bgtz s0, loop
            csrw 0x8c1, zero       # SCR end
            ecall
            "#,
        )
        .unwrap();
        let mut starved = CoreConfig::mega_boom();
        starved.l1d.mshrs = 1;
        starved.lfb_entries = 2;
        for config in [
            CoreConfig::mega_boom(),
            CoreConfig::small_boom(),
            CoreConfig::mega_boom().with_fast_bypass(),
            starved,
        ] {
            assert_eq!(capture_paths_agree(config, &program).len(), 3);
        }
    }

    /// On the fast-bypass core, a ROB full of uops that each carry two
    /// fused `and`s behind a chain of divides gives ROB-PC rows of three
    /// PCs per entry: wider than the ROB and past the digest's table of
    /// powers. The capture paths still agree.
    #[test]
    fn fused_rob_rows_wider_than_the_rob_capture_alike() {
        // Writing `zero`, none of the three takes a physical register.
        let body = "and zero, a2, zero\nand zero, a2, zero\nnop\n".repeat(160);
        let program = assemble(&format!(
            "csrw 0x8c0, zero\nli s0, 2\nloop:\ncsrw 0x8c2, s0\nli t0, 1000\nli t1, 3\n\
             divu t0, t0, t1\ndivu t0, t0, t1\ndivu t0, t0, t1\ndivu t0, t0, t1\n{body}\
             csrw 0x8c3, zero\naddi s0, s0, -1\nbgtz s0, loop\ncsrw 0x8c1, zero\necall\n"
        ))
        .unwrap();
        let kept = capture_paths_agree(CoreConfig::mega_boom().with_fast_bypass(), &program);
        let widest = kept
            .iter()
            .flat_map(|it| it.unit(crate::UnitId::RobPc).rows.as_ref().unwrap())
            .map(Vec::len)
            .max()
            .unwrap();
        assert!(widest > crate::digest::TABLE_WORDS, "widest ROB-PC row {widest}");
    }

    #[test]
    fn exit_csr_code_returned() {
        let (_, r) = run_on(CoreConfig::small_boom(), "li a0, 7\ncsrw 0x8c4, a0\nnop\necall\n");
        assert_eq!(r.exit_code, 7);
    }

    #[test]
    fn out_of_cycles_reported() {
        let p = assemble("spin: j spin\n").unwrap();
        let mut m = Machine::new(CoreConfig::small_boom(), &p);
        match m.run(500) {
            Err(SimError::OutOfCycles { limit }) => assert_eq!(limit, 500),
            other => panic!("expected OutOfCycles, got {other:?}"),
        }
    }

    #[test]
    fn sim_error_class_names_are_stable_and_embedded_in_display() {
        let out = SimError::OutOfCycles { limit: 9 };
        let dead = SimError::Deadlock { cycle: 3 };
        assert_eq!(out.class(), "out-of-cycles");
        assert_eq!(dead.class(), "deadlock");
        // The bracketed class prefix is what serve-side job classification
        // greps out of stringified trial errors.
        assert!(out.to_string().starts_with("[out-of-cycles]"), "{out}");
        assert!(dead.to_string().starts_with("[deadlock]"), "{dead}");
        assert!(out.is_retryable() && dead.is_retryable());
    }

    #[test]
    fn division_timing_and_value() {
        let (m, r) = run_on(
            CoreConfig::small_boom(),
            "li a0, 1000\nli a1, 7\ndivu a2, a0, a1\nremu a3, a0, a1\nmv a0, a2\necall\n",
        );
        assert_eq!(m.reg(Reg::new(10)), 142);
        assert_eq!(m.reg(Reg::new(13)), 6);
        assert!(r.cycles >= CoreConfig::small_boom().div_latency);
    }
}
