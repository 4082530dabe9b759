//! The two measurements that get past what the program exposes: the
//! untraced twin (simulator tick cost without snapshot capture) and the
//! fold replay (snapshot folding cost without the simulator).

use microsampler_sim::{IterationTrace, TraceConfig, Tracer, UnitId};
use std::time::Instant;

/// The assembler text of `CSR_SCR_START` in every kernel source.
const SCR_START: &str = "csrw 0x8c0";
/// An unused CSR: writing it commits like the marker but starts nothing.
const UNUSED_CSR: &str = "csrw 0x8ca";

/// Retargets the kernel's security-critical-region start marker to an
/// unused CSR, so the tracer never activates while every instruction (and
/// therefore every simulated cycle) stays the same.
pub fn untraced_twin(source: &str) -> Result<String, String> {
    match source.matches(SCR_START).count() {
        1 => Ok(source.replacen(SCR_START, UNUSED_CSR, 1)),
        n => Err(format!("expected exactly one `{SCR_START}` in the kernel source, found {n}")),
    }
}

/// Sizes of the kept snapshot matrices a fold replay consumed.
#[derive(Clone, Copy, Debug, Default)]
pub struct FoldStats {
    /// `record_row` calls replayed (one per unit per sampled cycle).
    pub rows: u64,
    /// Matrix cells replayed.
    pub cells: u64,
    /// Rows equal to the same unit's previous row in the iteration.
    pub repeat_rows: u64,
    /// Host time of the replay.
    pub ns: u64,
}

impl FoldStats {
    pub fn add(&mut self, o: FoldStats) {
        self.rows += o.rows;
        self.cells += o.cells;
        self.repeat_rows += o.repeat_rows;
        self.ns += o.ns;
    }
}

/// Replays the kept matrices of `iterations` (from a `keep_matrices` run)
/// into a fresh [`Tracer`] and checks that every replayed `hash` and
/// `hash_timeless` equals the live one.
pub fn fold_replay(iterations: &[IterationTrace]) -> Result<FoldStats, String> {
    let mut stats = FoldStats::default();
    let mut matrices: Vec<Vec<&Vec<Vec<u64>>>> = Vec::with_capacity(iterations.len());
    for (i, it) in iterations.iter().enumerate() {
        let per_unit = it
            .units
            .iter()
            .map(|u| u.rows.as_ref().ok_or(format!("iteration {i} kept no matrix")))
            .collect::<Result<Vec<_>, _>>()?;
        for m in &per_unit {
            stats.rows += m.len() as u64;
            stats.cells += m.iter().map(|r| r.len() as u64).sum::<u64>();
            stats.repeat_rows += m.windows(2).filter(|w| w[0] == w[1]).count() as u64;
        }
        matrices.push(per_unit);
    }

    let start = Instant::now();
    let mut tracer = Tracer::new(TraceConfig::default());
    tracer.scr_start(0);
    for (it, per_unit) in iterations.iter().zip(&matrices) {
        tracer.iter_start(it.start_cycle, it.label);
        let n = per_unit.first().map_or(0, |m| m.len());
        for r in 0..n {
            tracer.begin_cycle(it.start_cycle + r as u64);
            for (unit, m) in UnitId::ALL.iter().zip(per_unit) {
                tracer.record_row(*unit, &m[r]);
            }
        }
        tracer.iter_end(it.end_cycle);
    }
    tracer.scr_end(u64::MAX);
    stats.ns = start.elapsed().as_nanos() as u64;

    if tracer.iterations.len() != iterations.len() {
        return Err(format!(
            "fold replay produced {} iterations, live run {}",
            tracer.iterations.len(),
            iterations.len()
        ));
    }
    for (i, (live, replayed)) in iterations.iter().zip(&tracer.iterations).enumerate() {
        for (unit, (a, b)) in UnitId::ALL.iter().zip(live.units.iter().zip(&replayed.units)) {
            if a.hash != b.hash || a.hash_timeless != b.hash_timeless {
                return Err(format!(
                    "iteration {i} unit {}: replayed hash {:016x}/{:016x} != live {:016x}/{:016x}",
                    unit.name(),
                    b.hash,
                    b.hash_timeless,
                    a.hash,
                    a.hash_timeless
                ));
            }
        }
    }
    Ok(stats)
}

/// Mean number of distinct full snapshot hashes per unit: the width of
/// the contingency tables the analysis builds over `iterations`.
pub fn distinct_hashes(iterations: &[IterationTrace]) -> f64 {
    let widths: Vec<usize> = (0..UnitId::COUNT)
        .map(|u| {
            iterations
                .iter()
                .map(|it| it.units[u].hash)
                .collect::<std::collections::BTreeSet<_>>()
                .len()
        })
        .collect();
    widths.iter().sum::<usize>() as f64 / widths.len() as f64
}
