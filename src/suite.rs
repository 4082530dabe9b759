//! Umbrella crate for the MicroSampler workspace.
//!
//! Re-exports the public API of every member crate so downstream users can
//! depend on one package. The repository's runnable examples and
//! cross-crate integration tests live in this package.
//!
//! ```
//! use microsampler_suite::prelude::*;
//!
//! let program = assemble("li a0, 1\necall\n")?;
//! let mut machine = Machine::new(CoreConfig::small_boom(), &program);
//! machine.run(10_000)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use microsampler_core as core;
pub use microsampler_isa as isa;
pub use microsampler_kernels as kernels;
pub use microsampler_sim as sim;
pub use microsampler_stats as stats;

/// The names most users need, in one import.
pub mod prelude {
    pub use microsampler_core::{
        analyze, feature_ordering, feature_uniqueness, AnalysisReport, UnitId,
    };
    pub use microsampler_isa::asm::assemble;
    pub use microsampler_isa::{Program, Reg};
    pub use microsampler_sim::{CoreConfig, Machine, RunResult, TraceConfig};
}
