//! Fault-injection engine integration tests: determinism of injected
//! schedules, architectural purity of the noise faults, and the
//! deliberate-deadlock (wedge) path the crash-resilient sweep harness
//! leans on.

use microsampler_isa::asm::assemble;
use microsampler_isa::Program;
use microsampler_sim::{
    CoreConfig, FaultConfig, FaultPlan, IterationTrace, Machine, SimError, TraceConfig,
};

/// A marker-instrumented kernel: 6 labeled iterations of a store/load
/// loop, exiting with code 7.
fn marked_program() -> Program {
    assemble(
        "
        .data
        buf: .zero 256
        .text
        _start:
            csrw 0x8c0, zero        # SCR start
            la x4, buf
            li x3, 6                # outer iterations
            li x8, 1
        outer:
            and x10, x3, x8
            csrw 0x8c2, x10         # ITER_START, label = parity
            li x5, 16
            li x7, 0
        inner:
            sd x5, 0(x4)
            sd x7, 8(x4)
            ld x6, 0(x4)
            add x7, x7, x6
            addi x5, x5, -1
            bne x5, x0, inner
            csrw 0x8c3, zero        # ITER_END
            addi x3, x3, -1
            bne x3, x0, outer
            csrw 0x8c1, zero        # SCR end
            li a0, 7
            ecall
        ",
    )
    .expect("kernel assembles")
}

/// A kernel that does nothing but stream stores: with the LSU wedged the
/// store queue saturates, dispatch backs up, commits stop, and the
/// watchdog must fire rather than spin forever.
fn store_storm_program() -> Program {
    assemble(
        "
        .data
        buf: .zero 512
        .text
        _start:
            la x4, buf
            li x3, 4096
        storm:
            sd x3, 0(x4)
            sd x3, 8(x4)
            sd x3, 16(x4)
            sd x3, 24(x4)
            sd x3, 32(x4)
            sd x3, 40(x4)
            sd x3, 48(x4)
            sd x3, 56(x4)
            addi x3, x3, -1
            bne x3, x0, storm
            li a0, 1
            ecall
        ",
    )
    .expect("kernel assembles")
}

fn noisy_faults() -> FaultConfig {
    FaultConfig {
        seed: 0xfa17_0001,
        squash_per_64k: 600,
        evict_per_64k: 600,
        mshr_stall_per_64k: 600,
        drop_row_per_64k: 400,
        bitflip_per_64k: 400,
        wedge: false,
    }
}

fn run_faulted(faults: Option<FaultConfig>) -> (u64, Vec<IterationTrace>, u64) {
    let config = match faults {
        Some(f) => CoreConfig::mega_boom().with_faults(f),
        None => CoreConfig::mega_boom(),
    };
    let trace = TraceConfig { faults, ..TraceConfig::default() };
    let mut machine = Machine::with_trace_config(config, &marked_program(), trace);
    let r = machine.run(2_000_000).expect("faulted run still completes");
    (r.exit_code, r.iterations, r.fault_counts.total())
}

#[test]
fn fault_schedule_is_a_pure_function_of_seed_and_cycle() {
    let plan = FaultPlan::new(noisy_faults());
    let a = plan.schedule(0..40_000);
    let b = FaultPlan::new(noisy_faults()).schedule(0..40_000);
    assert!(!a.is_empty(), "rates this high must fire within 40k cycles");
    assert_eq!(a, b, "same seed, same schedule");
    let reseeded = FaultPlan::new(FaultConfig { seed: 0xdead, ..noisy_faults() });
    assert_ne!(a, reseeded.schedule(0..40_000), "different seed, different schedule");
}

/// The same fault configuration reproduces a faulted machine run bit for
/// bit: exit code, every iteration summary and the injected-fault count.
#[test]
fn faulted_run_is_reproducible() {
    let first = run_faulted(Some(noisy_faults()));
    let second = run_faulted(Some(noisy_faults()));
    assert_eq!(first, second);
    assert!(first.2 > 0, "the noise rates must actually inject faults");
}

/// Warm-up iterations run untraced, and the kept iterations come out
/// exactly as a fully traced run's tail: the drop and flip schedule
/// depends on the cycle and unit, not on what was captured before.
#[test]
fn untraced_warmup_keeps_the_traced_tail_exactly() {
    let faults = FaultConfig { drop_row_per_64k: 6000, bitflip_per_64k: 6000, ..noisy_faults() };
    let run = |warmup_iterations| {
        let trace = TraceConfig {
            faults: Some(faults),
            warmup_iterations,
            keep_matrices: true,
            ..TraceConfig::default()
        };
        let config = CoreConfig::mega_boom().with_faults(faults);
        Machine::with_trace_config(config, &marked_program(), trace)
            .run(2_000_000)
            .expect("faulted run completes")
    };
    let full = run(0);
    assert_eq!(full.iterations.len(), 6);
    let kept = &full.iterations[3..];
    assert!(kept.iter().any(|i| i.dropped_cycles > 0), "drops must fire in the kept iterations");
    for k in [1, 3, 6] {
        let warm = run(k);
        assert_eq!(warm.iterations, full.iterations[k..], "warmup_iterations = {k}");
        assert_eq!((warm.cycles, warm.pipeline), (full.cycles, full.pipeline));
        assert_eq!(warm.fault_counts.spurious_squashes, full.fault_counts.spurious_squashes);
        let kept_drops: u64 = warm.iterations.iter().map(|i| i.dropped_cycles).sum();
        assert_eq!(warm.fault_counts.dropped_cycles, kept_drops, "warm-up drops are not counted");
        let flips = warm.fault_counts.bit_flips;
        assert!(flips <= full.fault_counts.bit_flips);
        assert_eq!(flips == 0, k == 6, "flips fire in the kept iterations, and only there");
    }
}

#[test]
fn injected_noise_preserves_architectural_results() {
    let (clean_exit, clean_iters, clean_faults) = run_faulted(None);
    assert_eq!(clean_exit, 7);
    assert_eq!(clean_faults, 0, "no faults configured, none injected");
    let (faulted_exit, faulted_iters, faulted_count) = run_faulted(Some(noisy_faults()));
    assert_eq!(faulted_exit, clean_exit, "faults are microarchitectural noise only");
    assert_eq!(faulted_iters.len(), clean_iters.len());
    assert!(faulted_count > 0);
    // The noise must actually perturb the sampled snapshots somewhere —
    // otherwise the degradation experiments measure nothing.
    let differs = clean_iters
        .iter()
        .zip(&faulted_iters)
        .any(|(c, f)| c.units.iter().zip(&f.units).any(|(cu, fu)| cu.hash != fu.hash));
    assert!(differs, "faulted snapshots should diverge from clean ones");
    let dropped: u64 = faulted_iters.iter().map(|i| i.dropped_cycles).sum();
    assert!(dropped > 0, "drop rate 400/64k should lose some cycles here");
}

#[test]
fn wedge_fault_trips_the_deadlock_watchdog() {
    let faults = FaultConfig { wedge: true, ..FaultConfig::default() };
    let config = CoreConfig::mega_boom().with_faults(faults);
    let mut machine = Machine::new(config, &marked_program());
    match machine.run(2_000_000) {
        Err(SimError::Deadlock { cycle }) => {
            assert!(cycle >= microsampler_sim::WEDGE_CYCLE, "wedge precedes the watchdog trip");
        }
        other => panic!("expected Deadlock, got {other:?}"),
    }
}

#[test]
fn store_queue_saturation_deadlocks_under_wedge() {
    let faults = FaultConfig { wedge: true, ..FaultConfig::default() };
    // Both cores must wedge the same way; the small core's shallower
    // store queue just saturates sooner.
    for config in [CoreConfig::mega_boom(), CoreConfig::small_boom()] {
        let name = config.name;
        let mut machine = Machine::new(config.with_faults(faults), &store_storm_program());
        match machine.run(10_000_000) {
            Err(SimError::Deadlock { .. }) => {}
            other => panic!("{name}: expected Deadlock under a store storm, got {other:?}"),
        }
    }
}

#[test]
fn out_of_cycles_still_reported_under_faults() {
    let config = CoreConfig::mega_boom().with_faults(noisy_faults());
    let mut machine = Machine::new(config, &marked_program());
    match machine.run(300) {
        Err(SimError::OutOfCycles { limit }) => assert_eq!(limit, 300),
        other => panic!("expected OutOfCycles, got {other:?}"),
    }
}

#[test]
fn per_trial_reseeding_is_deterministic_and_distinct() {
    let base = noisy_faults();
    assert_eq!(base.for_trial(3, 0), base.for_trial(3, 0));
    assert_ne!(base.for_trial(3, 0), base.for_trial(4, 0), "trials get distinct schedules");
    assert_ne!(base.for_trial(3, 0), base.for_trial(3, 1), "retries get distinct schedules");
    let wedged = FaultConfig { wedge: true, ..base };
    assert!(wedged.for_trial(9, 2).wedge, "wedge survives re-seeding");
}
