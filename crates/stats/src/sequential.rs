//! Sequential (anytime-valid) association statistics.
//!
//! A fixed-budget verdict is checked once; a sequential one is checked at
//! every *look* while observations keep arriving. The observations stream
//! into a [`ContingencyTable`](crate::ContingencyTable) one at a time
//! (`O(log cells)` each), and a look recomputes the association from the
//! counts in `O(cells log cells)`. Its χ² sum depends only on the counts,
//! so the result is **bit-identical** whatever order the observations
//! arrived in (property-tested in `tests/properties.rs`).
//!
//! On top of those estimates, [`SeqConfig`] defines a stitched
//! confidence-sequence boundary that turns the paper's fixed-budget leak
//! rule (V > 0.5 **and** p < 0.05) into a three-way *anytime* verdict:
//!
//! * [`SeqVerdict::Leaky`] — the lower confidence bound on V clears the
//!   strong threshold and the (look-corrected) p-value is significant;
//! * [`SeqVerdict::Clean`] — the upper confidence bound on the
//!   *bias-corrected* V is below the strong threshold for *every*
//!   monitored association, so the fixed-budget rule can no longer fire;
//! * [`SeqVerdict::Undecided`] — keep sampling.
//!
//! The clean side judges the corrected estimator deliberately: plain V
//! over snapshot tables is inflated by `≈ sqrt(dof/n)` at small `n`
//! (the false-positive mode the paper guards against with p-values,
//! §VII-D), so it cannot certify cleanliness until the full budget. The
//! Bergsma correction subtracts exactly that inflation, letting genuinely
//! clean tables close within a couple of looks while a true leak keeps
//! both estimators high. The leaky side stays on plain V + p — the
//! paper's own rule, made anytime.
//!
//! The boundary spends its error budget across looks with the classic
//! `1/(j(j+1))` series (sums to 1), so the verdict is valid at *every*
//! look, not just a pre-registered final one — the property that makes
//! early stopping safe. The radius scale is calibrated against this
//! simulator's null noise floor; the `repro audit --robustness`
//! stability layer cross-checks the calibration empirically on every CI
//! run.

use crate::association::Association;

/// Three-way anytime verdict from a confidence sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SeqVerdict {
    /// Some association's lower confidence bound cleared the strong
    /// threshold with a significant (look-corrected) p-value.
    Leaky,
    /// Every association's upper confidence bound is below the strong
    /// threshold: the leak rule can no longer fire at full budget.
    Clean,
    /// Not enough evidence either way yet.
    #[default]
    Undecided,
}

impl SeqVerdict {
    /// Stable lowercase name (stop-trace and stability-curve schemas).
    pub fn name(self) -> &'static str {
        match self {
            SeqVerdict::Leaky => "leaky",
            SeqVerdict::Clean => "clean",
            SeqVerdict::Undecided => "undecided",
        }
    }

    /// Parses a [`SeqVerdict::name`] rendering.
    pub fn from_name(s: &str) -> Option<SeqVerdict> {
        match s {
            "leaky" => Some(SeqVerdict::Leaky),
            "clean" => Some(SeqVerdict::Clean),
            "undecided" => Some(SeqVerdict::Undecided),
            _ => None,
        }
    }

    /// Whether the sequence has closed (stopping is allowed).
    pub fn is_decided(self) -> bool {
        self != SeqVerdict::Undecided
    }
}

/// Confidence-sequence parameters (see the module docs for the
/// construction; EXPERIMENTS.md documents how to tune them).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SeqConfig {
    /// Total error budget spread across looks via the `1/(j(j+1))`
    /// spending series.
    pub alpha: f64,
    /// Scale of the confidence radius `sqrt(scale * spend / n)`.
    /// `0.5` is the Hoeffding rate for a `[0,1]`-bounded mean; the default
    /// `0.25` is calibrated to the snapshot-table null noise floor.
    pub boundary_scale: f64,
    /// Cramér's V threshold for a strong association (the paper's 0.5).
    pub v_strong: f64,
    /// Base significance level for the leaky decision (the paper's
    /// 0.05), spent across looks like `alpha`.
    pub p_significant: f64,
    /// Minimum observations before any verdict may be issued.
    pub min_n: u64,
}

impl Default for SeqConfig {
    fn default() -> SeqConfig {
        SeqConfig {
            alpha: 0.1,
            boundary_scale: 0.25,
            v_strong: crate::CRAMERS_V_STRONG,
            p_significant: crate::P_SIGNIFICANT,
            min_n: 8,
        }
    }
}

impl SeqConfig {
    /// Confidence radius around the V estimate at the `look`-th check
    /// (1-based) with `n` observations: the error spend for look `j` is
    /// `alpha / (j (j+1))`, giving a boundary valid uniformly over looks.
    pub fn radius(&self, n: u64, look: u64) -> f64 {
        if n == 0 {
            return 1.0;
        }
        let j = look.max(1) as f64;
        let spend = self.alpha / (j * (j + 1.0));
        (self.boundary_scale * (1.0 / spend).ln() / n as f64).sqrt()
    }

    /// Look-corrected significance threshold for the leaky decision.
    pub fn p_threshold(&self, look: u64) -> f64 {
        let j = look.max(1) as f64;
        self.p_significant / (j * (j + 1.0))
    }

    /// Judges a family of monitored associations (e.g. all units of one
    /// primitive, timed and timeless) at the `look`-th check over `n`
    /// pooled observations. `Leaky` needs one association's plain V
    /// confidently above the strong threshold with a significant
    /// (look-corrected) p-value; `Clean` needs every association's
    /// *bias-corrected* V confidently below it — the corrected estimator
    /// strips the `≈ sqrt(dof/n)` small-sample inflation that would
    /// otherwise keep clean tables undecidable until the full budget
    /// (see the module docs).
    pub fn judge<'a>(
        &self,
        n: u64,
        look: u64,
        assocs: impl IntoIterator<Item = &'a Association>,
    ) -> SeqVerdict {
        if n < self.min_n {
            return SeqVerdict::Undecided;
        }
        let radius = self.radius(n, look);
        let p_thresh = self.p_threshold(look);
        let mut all_clean = true;
        for a in assocs {
            if a.cramers_v - radius > self.v_strong && a.p_value < p_thresh {
                return SeqVerdict::Leaky;
            }
            if a.cramers_v_corrected + radius > self.v_strong {
                all_clean = false;
            }
        }
        if all_clean {
            SeqVerdict::Clean
        } else {
            SeqVerdict::Undecided
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ContingencyTable;

    #[test]
    fn degenerate_tables_are_undecidable_then_clean() {
        // One category only: V = 0 forever; the sequence closes clean
        // once the radius shrinks below the strong threshold.
        let cfg = SeqConfig::default();
        let mut table = ContingencyTable::new();
        let mut verdicts = Vec::new();
        for i in 0..64u64 {
            table.record(i % 2, 42u64);
            verdicts.push(cfg.judge(table.total(), i / 8 + 1, [&table.association()]));
        }
        assert_eq!(verdicts[0], SeqVerdict::Undecided, "min_n gate holds");
        assert_eq!(*verdicts.last().unwrap(), SeqVerdict::Clean);
    }

    #[test]
    fn perfect_split_goes_leaky() {
        let cfg = SeqConfig::default();
        let mut table = ContingencyTable::new();
        let mut verdict = SeqVerdict::Undecided;
        let mut look = 0;
        for i in 0..64u64 {
            table.record(i % 2, 100 + i % 2);
            if i % 8 == 7 {
                look += 1;
                verdict = cfg.judge(table.total(), look, [&table.association()]);
                if verdict.is_decided() {
                    break;
                }
            }
        }
        assert_eq!(verdict, SeqVerdict::Leaky);
        assert!(table.total() < 64, "a perfect split must close early (n={})", table.total());
    }

    #[test]
    fn one_strong_association_blocks_clean() {
        let cfg = SeqConfig::default();
        let mut strong = ContingencyTable::new();
        let mut weak = ContingencyTable::new();
        for i in 0..256u64 {
            strong.record(i % 2, 100 + i % 2);
            weak.record(i % 2, 7u64);
        }
        let (strong, weak) = (strong.association(), weak.association());
        // Alone, the weak association is clean...
        assert_eq!(cfg.judge(256, 4, [&weak]), SeqVerdict::Clean);
        // ...but the family verdict follows the strong one.
        assert_eq!(cfg.judge(256, 4, [&weak, &strong]), SeqVerdict::Leaky);
    }

    #[test]
    fn radius_shrinks_with_n_and_grows_with_looks() {
        let cfg = SeqConfig::default();
        assert!(cfg.radius(64, 1) < cfg.radius(16, 1));
        assert!(cfg.radius(64, 8) > cfg.radius(64, 1));
        assert_eq!(cfg.radius(0, 1), 1.0);
        assert!(cfg.p_threshold(2) < cfg.p_threshold(1));
    }

    #[test]
    fn verdict_names_round_trip() {
        for v in [SeqVerdict::Leaky, SeqVerdict::Clean, SeqVerdict::Undecided] {
            assert_eq!(SeqVerdict::from_name(v.name()), Some(v));
        }
        assert_eq!(SeqVerdict::from_name("bogus"), None);
        assert!(SeqVerdict::Leaky.is_decided());
        assert!(!SeqVerdict::Undecided.is_decided());
    }
}
