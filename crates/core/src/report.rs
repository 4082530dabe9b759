use microsampler_obs::Value;
use microsampler_sim::{PipelineStats, UnitId};
use microsampler_stats::Association;
use std::fmt;

/// Renders an [`Association`] as a JSON value (stable schema used by both
/// report variants and by `repro --json` for bare contingency tables).
pub fn association_to_json(a: &Association) -> Value {
    Value::object()
        .field("chi2", a.chi2)
        .field("dof", a.dof)
        .field("p_value", a.p_value)
        .field("cramers_v", a.cramers_v)
        .field("cramers_v_corrected", a.cramers_v_corrected)
        .field("n", a.n)
        .field("classes", a.classes)
        .field("categories", a.categories)
        .field("significant", a.is_significant())
        .build()
}

/// Per-unit analysis result: association with and without timing
/// information (the paper's Fig. 9 distinction).
#[derive(Clone, Debug, PartialEq)]
pub struct UnitReport {
    /// The microarchitectural unit.
    pub unit: UnitId,
    /// Association between secret classes and full snapshot hashes.
    pub assoc: Association,
    /// Association with consecutive duplicate rows consolidated
    /// (timing removed).
    pub assoc_timeless: Association,
}

impl UnitReport {
    /// The paper's leak verdict for this unit: strong and statistically
    /// significant association.
    pub fn is_leaky(&self) -> bool {
        self.assoc.is_leak()
    }

    /// Leaky even after removing timing information — the correlation is
    /// in *what* happened, not just *when*.
    pub fn is_leaky_without_timing(&self) -> bool {
        self.assoc_timeless.is_leak()
    }

    /// Renders this unit's result as a JSON value (stable schema: `unit`,
    /// `leaky`, `leaky_without_timing`, `assoc`, `assoc_timeless`).
    pub fn to_json(&self) -> Value {
        Value::object()
            .field("unit", self.unit.name())
            .field("leaky", self.is_leaky())
            .field("leaky_without_timing", self.is_leaky_without_timing())
            .field("assoc", association_to_json(&self.assoc))
            .field("assoc_timeless", association_to_json(&self.assoc_timeless))
            .build()
    }
}

/// Fraction of snapshot cycles lost above which a report is flagged
/// [`AnalysisReport::is_degraded`]: the verdicts are still computed, but
/// the analyzer refuses to present them as a clean classification.
pub const DEGRADED_DROP_FRACTION: f64 = 0.05;

/// The full analysis report: one entry per tracked unit, in canonical
/// order.
#[derive(Clone, Debug, PartialEq)]
pub struct AnalysisReport {
    /// Per-unit results, indexed like [`UnitId::ALL`].
    pub units: Vec<UnitReport>,
    /// Number of iterations analyzed.
    pub iterations: usize,
    /// Number of distinct secret classes observed.
    pub classes: usize,
    /// Snapshot cycles lost to injected sampling faults across all
    /// iterations.
    pub dropped_cycles: u64,
    /// Snapshot cycles actually captured across all iterations.
    pub sampled_cycles: u64,
    /// Pipeline profiling counters summed over the analyzed iterations
    /// (per-EU occupancy, IPC, stall causes).
    pub pipeline: PipelineStats,
}

impl AnalysisReport {
    /// The report for one unit.
    pub fn unit(&self, unit: UnitId) -> &UnitReport {
        &self.units[unit.index()]
    }

    /// Units flagged as leaky, most strongly associated first: ranked by
    /// Cramér's V rounded to the three decimals reports print, then in
    /// canonical order. The rounding keeps the ranking off the last bit of
    /// a float: units with perfect association read V = 1.0 or
    /// 0.9999999999999999 depending on their table (fig9 at the verdict
    /// corpus's scale has both), and exact V would rank one ahead of the
    /// other.
    pub fn leaky_units(&self) -> Vec<&UnitReport> {
        let mut v: Vec<&UnitReport> = self.units.iter().filter(|u| u.is_leaky()).collect();
        // A stable sort keeps units with equal printed V in canonical order.
        v.sort_by_key(|u| std::cmp::Reverse((u.assoc.cramers_v * 1000.0).round() as i64));
        v
    }

    /// True when any unit is flagged.
    pub fn is_leaky(&self) -> bool {
        self.units.iter().any(|u| u.is_leaky())
    }

    /// True when enough snapshot cycles were lost (more than
    /// [`DEGRADED_DROP_FRACTION`] of the total) that the verdicts rest on
    /// an incomplete trace. A degraded report must not be read as a clean
    /// constant-time classification — the missing cycles could hide
    /// exactly the rows that differ between classes.
    pub fn is_degraded(&self) -> bool {
        let total = self.dropped_cycles + self.sampled_cycles;
        self.dropped_cycles > 0
            && self.dropped_cycles as f64 > DEGRADED_DROP_FRACTION * total as f64
    }

    /// True when some unit shows strong association whose significance is
    /// still unconfirmed (p ≥ 0.05) — the analyzer's signal to escalate
    /// the number of inputs (paper §VII-D, "False Positives").
    pub fn needs_more_samples(&self) -> bool {
        self.units.iter().any(|u| {
            u.assoc.cramers_v > microsampler_stats::CRAMERS_V_STRONG && !u.assoc.is_significant()
        })
    }

    /// `(unit name, Cramér's V)` series in canonical unit order — the data
    /// behind the paper's Fig. 3/4/7/9/10 bar charts.
    pub fn v_series(&self) -> Vec<(&'static str, f64)> {
        self.units.iter().map(|u| (u.unit.name(), u.assoc.cramers_v)).collect()
    }

    /// Same series computed on timing-removed snapshots (Fig. 9 orange
    /// bars).
    pub fn v_series_timeless(&self) -> Vec<(&'static str, f64)> {
        self.units.iter().map(|u| (u.unit.name(), u.assoc_timeless.cramers_v)).collect()
    }

    /// Renders the report as a JSON value (stable schema: `iterations`,
    /// `classes`, `leaky`, `needs_more_samples`, `degraded`,
    /// `dropped_cycles`, `sampled_cycles`, `pipeline`, `units` in
    /// canonical order).
    pub fn to_json(&self) -> Value {
        Value::object()
            .field("iterations", self.iterations)
            .field("classes", self.classes)
            .field("leaky", self.is_leaky())
            .field("needs_more_samples", self.needs_more_samples())
            .field("degraded", self.is_degraded())
            .field("dropped_cycles", self.dropped_cycles)
            .field("sampled_cycles", self.sampled_cycles)
            .field("pipeline", self.pipeline.to_json())
            .field("units", Value::Array(self.units.iter().map(UnitReport::to_json).collect()))
            .build()
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "MicroSampler analysis: {} iterations, {} classes",
            self.iterations, self.classes
        )?;
        if self.is_degraded() {
            writeln!(
                f,
                "DEGRADED: {} of {} snapshot cycles dropped; verdicts below are unreliable",
                self.dropped_cycles,
                self.dropped_cycles + self.sampled_cycles
            )?;
        }
        writeln!(
            f,
            "{:<12} {:>8} {:>10} {:>10} {:>8}  verdict",
            "unit", "V", "p-value", "V(no-t)", "hashes"
        )?;
        for u in &self.units {
            writeln!(
                f,
                "{:<12} {:>8.3} {:>10.2e} {:>10.3} {:>8}  {}",
                u.unit.name(),
                u.assoc.cramers_v,
                u.assoc.p_value,
                u.assoc_timeless.cramers_v,
                u.assoc.categories,
                if u.is_leaky() { "LEAK" } else { "ok" },
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microsampler_stats::Association;

    fn report_with(v: f64, p: f64) -> AnalysisReport {
        let mut units: Vec<UnitReport> = UnitId::ALL
            .iter()
            .map(|&unit| UnitReport {
                unit,
                assoc: Association::none(),
                assoc_timeless: Association::none(),
            })
            .collect();
        units[0].assoc.cramers_v = v;
        units[0].assoc.p_value = p;
        AnalysisReport {
            units,
            iterations: 10,
            classes: 2,
            dropped_cycles: 0,
            sampled_cycles: 30,
            pipeline: PipelineStats { cycles: 40, committed: 50, ..PipelineStats::default() },
        }
    }

    #[test]
    fn leak_verdict_combines_v_and_p() {
        assert!(report_with(0.9, 0.001).is_leaky());
        assert!(!report_with(0.9, 0.5).is_leaky());
        assert!(!report_with(0.2, 0.001).is_leaky());
    }

    #[test]
    fn escalation_signal() {
        assert!(report_with(0.9, 0.5).needs_more_samples());
        assert!(!report_with(0.9, 0.001).needs_more_samples());
        assert!(!report_with(0.1, 0.5).needs_more_samples());
    }

    #[test]
    fn leaky_units_sorted_by_strength() {
        let mut r = report_with(0.6, 0.001);
        r.units[3].assoc.cramers_v = 0.9;
        r.units[3].assoc.p_value = 0.001;
        let leaky = r.leaky_units();
        assert_eq!(leaky.len(), 2);
        assert!(leaky[0].assoc.cramers_v >= leaky[1].assoc.cramers_v);
    }

    #[test]
    fn leaky_units_with_equal_printed_v_rank_in_canonical_order() {
        let below_one = f64::from_bits(1.0f64.to_bits() - 1);
        let mut r = report_with(below_one, 0.001);
        r.units[5].assoc.cramers_v = 1.0;
        r.units[5].assoc.p_value = 0.001;
        r.units[9].assoc.cramers_v = 0.9;
        r.units[9].assoc.p_value = 0.001;
        let ranked: Vec<UnitId> = r.leaky_units().iter().map(|u| u.unit).collect();
        assert_eq!(ranked, [UnitId::ALL[0], UnitId::ALL[5], UnitId::ALL[9]]);
    }

    #[test]
    fn degraded_flag_tracks_drop_fraction() {
        let mut r = report_with(0.9, 0.001);
        assert!(!r.is_degraded(), "no drops, no degradation");
        // 1 dropped of 31 total (~3.2%) is under the 5% threshold.
        r.dropped_cycles = 1;
        assert!(!r.is_degraded());
        // 3 dropped of 33 total (~9.1%) crosses it.
        r.dropped_cycles = 3;
        assert!(r.is_degraded());
        assert!(r.to_string().contains("DEGRADED"));
        assert_eq!(r.to_json().get("degraded").unwrap(), &microsampler_obs::Value::Bool(true));
        // Degradation never suppresses the verdicts themselves.
        assert!(r.is_leaky());
    }

    #[test]
    fn display_lists_all_units() {
        let s = report_with(0.9, 0.001).to_string();
        for u in UnitId::ALL {
            assert!(s.contains(u.name()), "missing {}", u.name());
        }
        assert!(s.contains("LEAK"));
    }

    /// Golden schema: downstream tooling reads these exact key paths out
    /// of `repro --json` artifacts; changing them is a breaking change to
    /// the run-report format.
    #[test]
    fn json_schema_is_stable() {
        let r = report_with(0.9, 0.001);
        let v = r.to_json();
        assert_eq!(v.get("iterations").unwrap().as_u64(), Some(10));
        assert_eq!(v.get("classes").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("leaky").unwrap(), &microsampler_obs::Value::Bool(true));
        assert_eq!(v.get("needs_more_samples").unwrap(), &microsampler_obs::Value::Bool(false));
        assert_eq!(v.get("degraded").unwrap(), &microsampler_obs::Value::Bool(false));
        assert_eq!(v.get("dropped_cycles").unwrap().as_u64(), Some(0));
        assert_eq!(v.get("sampled_cycles").unwrap().as_u64(), Some(30));
        let pipeline = v.get("pipeline").unwrap();
        assert_eq!(pipeline.get("cycles").unwrap().as_u64(), Some(40));
        assert_eq!(pipeline.get("committed").unwrap().as_u64(), Some(50));
        assert!(pipeline.get("ipc").unwrap().as_f64().is_some());
        for name in PipelineStats::FIELD_NAMES {
            assert!(pipeline.get(name).is_some(), "pipeline.{name} missing");
        }
        let units = v.get("units").unwrap().as_array().unwrap();
        assert_eq!(units.len(), 16);
        let first = &units[0];
        assert_eq!(first.get("unit").unwrap().as_str(), Some("SQ-ADDR"));
        assert_eq!(first.get("leaky").unwrap(), &microsampler_obs::Value::Bool(true));
        assert!(first.get("leaky_without_timing").is_some());
        for key in ["assoc", "assoc_timeless"] {
            let assoc = first.get(key).unwrap();
            for field in [
                "chi2",
                "dof",
                "p_value",
                "cramers_v",
                "cramers_v_corrected",
                "n",
                "classes",
                "categories",
                "significant",
            ] {
                assert!(assoc.get(field).is_some(), "{key}.{field} missing");
            }
        }
        assert!(
            (first.get("assoc").unwrap().get("cramers_v").unwrap().as_f64().unwrap() - 0.9).abs()
                < 1e-12
        );
        // The rendered document must round-trip through the parser.
        let text = v.render_pretty();
        assert_eq!(microsampler_obs::json::parse(&text).unwrap(), v);
    }

    #[test]
    fn v_series_order_matches_units() {
        let r = report_with(0.4, 0.2);
        let s = r.v_series();
        assert_eq!(s.len(), 16);
        assert_eq!(s[0].0, "SQ-ADDR");
        assert!((s[0].1 - 0.4).abs() < 1e-12);
    }
}
