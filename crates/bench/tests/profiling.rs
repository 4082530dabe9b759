//! Determinism guarantees of the pipeline profiler: the counters are pure
//! simulator state, so they must be bit-identical at every thread count
//! and unaffected by whether the observability layers are enabled.

use microsampler_bench::profile::{profile_kernels, report_to_json, ProfileOptions};
use microsampler_bench::run_modexp_iterations;
use microsampler_kernels::modexp::ModexpVariant;
use microsampler_obs::{span, Value};
use microsampler_sim::{CoreConfig, PipelineStats};
use std::sync::Mutex;

// Thread-count overrides and the span registry are process-global;
// serialize every test that touches them.
static LOCK: Mutex<()> = Mutex::new(());

fn tiny() -> ProfileOptions {
    ProfileOptions {
        kernels: vec![ModexpVariant::V1MicroarchVuln, ModexpVariant::V2Safe],
        keys: 2,
        key_bytes: 1,
        seed: 17,
    }
}

/// The `kernels` array of a `BENCH_sim.json` report.
fn kernels(report: &Value) -> String {
    report.get("kernels").unwrap().render_compact()
}

#[test]
fn pipeline_counters_bit_identical_across_thread_counts() {
    let _l = LOCK.lock().unwrap();
    let config = CoreConfig::mega_boom();
    let opts = tiny();
    microsampler_par::set_threads(Some(1));
    let serial = profile_kernels(&config, &opts).unwrap();
    let serial_json = kernels(&report_to_json(&serial, &config, 1));
    for threads in [2, 4] {
        microsampler_par::set_threads(Some(threads));
        let parallel = profile_kernels(&config, &opts).unwrap();
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.pipeline, p.pipeline, "{} counters diverge at threads={threads}", s.name);
        }
        let parallel_json = kernels(&report_to_json(&parallel, &config, threads));
        assert_eq!(parallel_json, serial_json, "BENCH_sim kernels, threads={threads}");
    }
    microsampler_par::set_threads(None);
    assert!(serial.iter().all(|p| p.pipeline.cycles > 0), "the baseline must be non-trivial");
}

#[test]
fn pipeline_counters_invariant_to_span_enablement() {
    let _l = LOCK.lock().unwrap();
    microsampler_par::set_threads(Some(2));
    let config = CoreConfig::mega_boom();
    let opts = tiny();
    let bare = profile_kernels(&config, &opts).unwrap();
    span::set_enabled(true);
    span::take();
    let instrumented = profile_kernels(&config, &opts).unwrap();
    let forest = span::take();
    span::set_enabled(false);
    microsampler_par::set_threads(None);
    for (b, i) in bare.iter().zip(&instrumented) {
        assert_eq!(b.pipeline, i.pipeline, "{}: spans must not perturb the counters", b.name);
    }
    assert!(span::find(&forest, "profile").is_some(), "the sweep records a `profile` span");
}

#[test]
fn per_iteration_deltas_sum_to_totals_at_any_thread_count() {
    let _l = LOCK.lock().unwrap();
    let config = CoreConfig::mega_boom();
    let mut baseline: Option<Vec<PipelineStats>> = None;
    for threads in [1, 2, 4] {
        microsampler_par::set_threads(Some(threads));
        let iters = run_modexp_iterations(ModexpVariant::V1MicroarchVuln, &config, 2, 1, 17);
        let stats: Vec<PipelineStats> = iters.iter().map(|i| i.pipeline).collect();
        assert!(stats.iter().all(|p| p.cycles > 0 && p.committed > 0));
        match &baseline {
            None => baseline = Some(stats),
            Some(want) => assert_eq!(&stats, want, "threads={threads}"),
        }
    }
    microsampler_par::set_threads(None);
}
