//! MicroSampler: microarchitecture-level leakage detection for
//! constant-time code (DSN 2025).
//!
//! The framework consumes labeled per-iteration microarchitectural traces
//! (produced by [`microsampler_sim`]'s cycle-accurate core, or parsed from
//! a text simulation log) and answers: *does any microarchitectural
//! structure's behavior correlate with the secret data?*
//!
//! The pipeline mirrors the paper's Figure 1:
//!
//! 1. **RTL simulation** — run the kernel under test with markers around
//!    each algorithmic iteration ([`microsampler_sim`]).
//! 2. **Trace pre-processing** — per-iteration snapshot matrices, hashed
//!    with SipHash (done streaming inside the tracer).
//! 3. **Statistical correlation analysis** — contingency tables of hash
//!    frequencies per secret class; Cramér's V + chi-squared p-value per
//!    unit ([`analyze`]).
//! 4. **Feature extraction** — for flagged units, the features
//!    (addresses, PCs, activity words) unique to one class
//!    ([`feature_uniqueness`]) or consistently ordered differently
//!    ([`feature_ordering`]).
//!
//! # Example
//!
//! ```
//! use microsampler_core::analyze;
//! use microsampler_kernels::modexp::{ModexpKernel, ModexpVariant};
//! use microsampler_sim::{CoreConfig, TraceConfig};
//!
//! // Run the known-leaky naive square-and-multiply on 2 one-byte keys.
//! let kernel = ModexpKernel::new(ModexpVariant::Naive, 1);
//! let mut iterations = Vec::new();
//! for key in microsampler_kernels::inputs::random_keys(2, 1, 1) {
//!     let run = kernel.run(CoreConfig::small_boom(), &key, TraceConfig::default())?;
//!     iterations.extend(run.iterations);
//! }
//! let report = analyze(&iterations);
//! assert!(report.is_leaky(), "naive SAM must be flagged");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod analyzer;
mod crossval;
mod features;
mod report;
mod sequential;

pub use analyzer::{analyze, contingency};
pub use crossval::{classify, classify_spec, CrossReport, CrossRow, CrossVerdict, SpecVerdict};
pub use features::{
    feature_ordering, feature_uniqueness, map_features, OrderMismatch, OrderingReport,
    UniquenessReport,
};
pub use report::{association_to_json, AnalysisReport, UnitReport, DEGRADED_DROP_FRACTION};
pub use sequential::{SequentialAnalyzer, StopLook, StopTrace, STOP_SCHEMA};

// Re-exported so downstream users need only this crate for the common path.
pub use microsampler_sim::{parse_text_log, IterationTrace, TraceConfig, UnitId, UnitSet};
pub use microsampler_stats::{Association, SeqConfig, SeqVerdict, Strength};
