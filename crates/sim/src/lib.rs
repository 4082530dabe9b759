//! Cycle-accurate out-of-order RV64IM core model for MicroSampler.
//!
//! This crate is the reproduction's substitute for the paper's
//! Verilator-simulated RISC-V BOOM RTL: a from-scratch, cycle-accurate
//! out-of-order core with *full microarchitectural state visibility*. Every
//! structure the paper traces (Table IV) exists as explicit state that is
//! sampled each cycle:
//!
//! | Structure | Features |
//! |-----------|----------|
//! | Store queue | addresses, PCs |
//! | Load queue | addresses, PCs |
//! | ROB | occupancy, PCs (including wrong-path entries) |
//! | Line-fill buffers | addresses, data digests |
//! | Execution units | ALU / AGU / MUL / DIV busy-with-PC |
//! | Next-line prefetcher | prefetch addresses |
//! | D-cache | request addresses |
//! | TLB | resident entries |
//! | MSHRs | outstanding miss addresses |
//!
//! The model implements speculative fetch with gshare + BTB + return-address
//! stack prediction, precise squash on misprediction (wrong-path
//! instructions occupy the ROB until killed — required by the paper's
//! `CRYPTO_memcmp` transient-execution case study), register renaming with
//! a unified physical register file, store-to-load forwarding, a
//! write-allocate L1D with MSHRs and line-fill buffers, a next-line
//! prefetcher, a TLB, and the paper's "fast bypass" trivial-computation
//! optimization (§VII-B) as a config flag.
//!
//! Two ready-made configurations mirror the paper's Table III:
//! [`CoreConfig::mega_boom`] and [`CoreConfig::small_boom`].
//!
//! # Example
//!
//! ```
//! use microsampler_isa::asm::assemble;
//! use microsampler_sim::{CoreConfig, Machine};
//!
//! let program = assemble("li a0, 6\nli a1, 7\nmul a0, a0, a1\necall\n")?;
//! let mut machine = Machine::new(CoreConfig::small_boom(), &program);
//! let result = machine.run(100_000)?;
//! assert_eq!(machine.reg(microsampler_isa::Reg::new(10)), 42);
//! assert!(result.cycles > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

mod cache;
mod config;
mod core;
mod digest;
mod fault;
pub mod interp;
mod machine;
mod memory;
mod pipeline;
mod predictor;
mod tlb;
mod trace;

pub use cache::{Cache, CacheConfig, LineFillBuffer, Mshr};
pub use config::{CoreConfig, PrefetcherKind};
pub use fault::{
    FaultConfig, FaultCounts, FaultEvent, FaultKind, FaultPlan, MSHR_STALL_CYCLES, WEDGE_CYCLE,
};
pub use machine::{Machine, RunResult, SimError};
pub use memory::Memory;
pub use pipeline::{PipelineStats, StallBreakdown, WATCHDOG_NEAR_MISS_CYCLES};
pub use predictor::{Btb, Gshare, ReturnAddressStack};
pub use tlb::Tlb;
pub use trace::{
    parse_text_log, IterationTrace, ParseLogError, TraceConfig, Tracer, UnitId, UnitSet, UnitTrace,
};

/// Statistics accumulated over a run, for benches and ablation studies.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Committed instructions (fused fast-bypass ops included).
    pub committed: u64,
    /// Total cycles executed.
    pub cycles: u64,
    /// Conditional-branch mispredictions detected.
    pub branch_mispredicts: u64,
    /// Conditional branches resolved.
    pub branches: u64,
    /// Indirect-jump (jalr) mispredictions.
    pub jalr_mispredicts: u64,
    /// L1D demand hits.
    pub l1d_hits: u64,
    /// L1D demand misses.
    pub l1d_misses: u64,
    /// L1I hits.
    pub l1i_hits: u64,
    /// L1I misses.
    pub l1i_misses: u64,
    /// TLB hits.
    pub tlb_hits: u64,
    /// TLB misses.
    pub tlb_misses: u64,
    /// Store-to-load forwards.
    pub stl_forwards: u64,
    /// Prefetches issued by the next-line prefetcher.
    pub prefetches: u64,
    /// Instructions squashed on misprediction recovery.
    pub squashed: u64,
    /// Fast-bypass eliminations performed (0 unless the optimization is on).
    pub fast_bypasses: u64,
}

impl CoreStats {
    /// Instructions per cycle over the whole run.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }
}
