//! Cross-thread-count determinism for the parallel execution engine.
//!
//! The acceptance bar is bit-identical output at every worker count: the
//! pooled iterations, every per-unit snapshot hash, the rendered analysis
//! report and the sequential audit's rows and stop traces must not change
//! when the trial fan-out runs on more threads.

use microsampler_bench::audit::{audit_to_json, run_audit, AuditOptions};
use microsampler_bench::run_modexp_iterations;
use microsampler_core::analyze;
use microsampler_kernels::modexp::ModexpVariant;
use microsampler_sim::{CoreConfig, IterationTrace, UnitId};

/// The thread-count override is process-wide state, so the whole sweep
/// lives in one test body where nothing can race it.
#[test]
fn pipeline_is_bit_identical_at_every_thread_count() {
    let run = |threads: usize| -> (Vec<IterationTrace>, String, String) {
        microsampler_par::set_threads(Some(threads));
        let iters = run_modexp_iterations(
            ModexpVariant::V1MicroarchVuln,
            &CoreConfig::mega_boom(),
            4,
            2,
            99,
        );
        let report = analyze(&iters).to_json().render_compact();
        let audit = run_audit(&AuditOptions { trials: 16, ..AuditOptions::default() });
        (iters, report, audit_to_json(&audit).render_compact())
    };
    let (serial_iters, serial_report, serial_audit) = run(1);
    for threads in [2, 7] {
        let (iters, report, audit) = run(threads);
        assert_eq!(iters.len(), serial_iters.len(), "iteration count, threads={threads}");
        for (a, b) in iters.iter().zip(&serial_iters) {
            assert_eq!(a.label, b.label, "label order, threads={threads}");
            for unit in UnitId::ALL {
                assert_eq!(a.unit(unit).hash, b.unit(unit).hash, "{unit} hash, threads={threads}");
                assert_eq!(
                    a.unit(unit).hash_timeless,
                    b.unit(unit).hash_timeless,
                    "{unit} timeless hash, threads={threads}"
                );
            }
        }
        assert_eq!(report, serial_report, "analysis report JSON, threads={threads}");
        assert_eq!(audit, serial_audit, "audit JSON, threads={threads}");
    }
    microsampler_par::set_threads(None);
}
