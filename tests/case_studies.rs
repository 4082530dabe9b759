//! End-to-end case-study tests: every paper experiment must reproduce its
//! qualitative shape (who leaks, through which units, and who is clean).
//!
//! These run the full pipeline — assemble kernel → cycle-accurate OoO
//! simulation → iteration snapshots → statistical analysis — at a reduced
//! scale that still clears statistical significance.

use microsampler_bench::experiments as exp;
use microsampler_bench::sweep::{RunContext, SweepOptions};
use microsampler_bench::Scale;
use microsampler_core::UnitId;

fn test_scale() -> Scale {
    Scale { keys: 6, key_bytes: 2, memcmp_reps: 8, primitive_trials: 48, seed: 42 }
}

fn ctx(scale: Scale) -> RunContext {
    RunContext::new(scale, SweepOptions::default())
}

#[test]
fn fig3_compiler_vuln_flags_broadly() {
    // ME-V1-CV needs a couple more keys than the other case studies for
    // every control-flow-side unit to clear significance.
    let report = exp::fig3(&ctx(Scale { keys: 8, ..test_scale() }));
    assert!(report.is_leaky(), "ME-V1-CV must be flagged");
    // The compiler's unbalanced branch shows up in control-flow-side units
    // as well as memory-side units.
    for unit in [UnitId::EuuAlu, UnitId::RobPc, UnitId::SqAddr, UnitId::CacheAddr] {
        assert!(
            report.unit(unit).is_leaky(),
            "{} should be flagged for ME-V1-CV\n{report}",
            unit.name()
        );
    }
}

#[test]
fn fig4_microarch_vuln_flags_memory_side_only() {
    let report = exp::fig4(&ctx(test_scale()));
    assert!(report.unit(UnitId::SqAddr).is_leaky(), "store addresses leak\n{report}");
    assert!(report.unit(UnitId::CacheAddr).is_leaky(), "cache requests leak\n{report}");
    // The instruction stream is identical for both classes: the PC-side
    // units stay clean. (Execution-unit *timing* may still correlate — the
    // secret-addressed stores forward to the next iteration's reload only
    // when they targeted the result buffer, a real MemJam-class channel —
    // so EUU-* units are not asserted clean here.)
    for unit in [UnitId::RobPc, UnitId::SqPc, UnitId::LqPc, UnitId::RobOccupancy] {
        assert!(
            !report.unit(unit).is_leaky(),
            "{} must NOT be flagged for ME-V1-MV\n{report}",
            unit.name()
        );
    }
}

#[test]
fn fig4_pressure_lights_up_miss_path_units() {
    let report = exp::fig4_with_pressure(&test_scale());
    // With per-iteration eviction (paper-scale cache pressure), the
    // secret-addressed stores miss, exposing the fill path.
    for unit in [UnitId::MshrAddr, UnitId::LfbAddr, UnitId::CacheAddr] {
        assert!(
            report.unit(unit).is_leaky(),
            "{} should be flagged under cache pressure\n{report}",
            unit.name()
        );
    }
}

#[test]
fn fig5_unique_store_addresses_split_by_class() {
    let uniq = exp::fig5(&ctx(test_scale()));
    assert!(uniq.has_unique_features(), "each class must have unique store addresses");
    let bit0: Vec<u64> = uniq.unique[&0].iter().copied().collect();
    let bit1: Vec<u64> = uniq.unique[&1].iter().copied().collect();
    assert!(!bit0.is_empty() && !bit1.is_empty());
    // bit=0 stores to the dummy page, bit=1 to the result page.
    assert!(
        bit0.iter().all(|a| bit1.iter().all(|b| a >> 12 != b >> 12)),
        "unique addresses of the two classes must be on different pages: {bit0:x?} vs {bit1:x?}"
    );
}

#[test]
fn fig6_timing_distributions() {
    let f = exp::fig6(&test_scale());
    let mean = |xs: &[u64]| xs.iter().sum::<u64>() as f64 / xs.len() as f64;
    // 6a: cold buffers — overlapping distributions.
    let delta_cold = (mean(&f.cold.0) - mean(&f.cold.1)).abs();
    assert!(delta_cold < 4.0, "cold distributions should overlap (delta {delta_cold})");
    // 6b: warm dst — iterations writing the warm buffer are faster.
    assert!(
        mean(&f.warm.1) + 4.0 < mean(&f.warm.0),
        "warm-dst iterations must be measurably faster: bit1 {} vs bit0 {}",
        mean(&f.warm.1),
        mean(&f.warm.0)
    );
}

#[test]
fn fig7_safe_implementation_is_clean() {
    let report = exp::fig7(&ctx(test_scale()));
    assert!(!report.is_leaky(), "ME-V2-Safe must not be flagged\n{report}");
    assert!(!report.needs_more_samples(), "verdict must be statistically settled\n{report}");
}

#[test]
fn fig9_fast_bypass_breaks_safe_code() {
    let report = exp::fig9(&ctx(test_scale()));
    assert!(report.is_leaky(), "fast bypass must break ME-V2-Safe\n{report}");
    // The skipped AND is a *content* difference: it survives timing
    // removal on the execution-unit trace (paper Fig. 9 orange bars).
    assert!(
        report.unit(UnitId::EuuAlu).is_leaky_without_timing(),
        "EUU-ALU correlation must survive timing removal\n{report}"
    );
    assert!(
        report.unit(UnitId::RobPc).is_leaky_without_timing(),
        "ROB-PC correlation must survive timing removal\n{report}"
    );
    // Purely timing-borne units lose their correlation once timing is
    // removed (LFB/NLP/TLB/MSHR carry no class-dependent content here).
    let timeless_v = report.unit(UnitId::MshrAddr).assoc_timeless.cramers_v;
    assert!(timeless_v < 0.5, "MSHR-ADDR should drop after timing removal ({timeless_v})");
}

#[test]
fn fig10_memcmp_transient_execution_identified() {
    let f = exp::fig10(&test_scale());
    let speculative = f.patterns.both + f.patterns.equal_only + f.patterns.inequal_only;
    assert!(
        speculative > 0,
        "dependent-call PCs must be speculatively present in CRYPTO_memcmp windows"
    );
    assert!(f.leak_identified, "the CRYPTO_memcmp leak must be identified");
    assert!(f.mispredicts > 0);
}

#[test]
fn table2_contingency_is_well_formed() {
    let t = exp::table2(&ctx(test_scale()));
    assert_eq!(t.class_count(), 2, "key bits give two classes");
    assert!(t.total() > 0);
    let a = t.association();
    assert!(a.cramers_v >= 0.0 && a.cramers_v <= 1.0);
}

#[test]
fn table7_scales_better_than_formal_tools() {
    let scale = Scale { keys: 2, key_bytes: 1, ..test_scale() };
    let t = exp::table7(&scale);
    assert!(t.size_ratio() > 1.5, "MegaBoom should be a much larger design");
    // The paper's headline: ~4x the design costs ~2x the time — far from
    // XENON's 336x. Allow generous slack; the shape is sub-linear-in-size
    // scaling, not a precise constant.
    assert!(
        t.time_ratio() < exp::XENON_TIME_RATIO / 10.0,
        "analysis time ratio {} should be far below XENON's {}",
        t.time_ratio(),
        exp::XENON_TIME_RATIO
    );
}
