//! Sequential (anytime-valid) association statistics.
//!
//! The batch pipeline re-walks every recorded observation each time it
//! wants an [`Association`]; at `n` observations a verdict check costs
//! `O(n)`. This module supports *peeking*: observations stream into a
//! [`StreamingAssociation`] one at a time (`O(log cells)` each), and a
//! verdict check recomputes the association from the incremental counts
//! in `O(cells log cells)` with [`ContingencyTable::association`], whose
//! χ² sum depends only on the counts: the result is **bit-identical**
//! whatever order the observations arrived in (property-tested in
//! `tests/properties.rs`).
//!
//! On top of the streaming estimates, [`SeqConfig`] defines a stitched
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
use crate::ContingencyTable;

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

/// An incrementally-maintained contingency table with an
/// `O(cells log cells)` association recomputation that is bit-identical
/// to the batch path.
///
/// The table itself is the same [`ContingencyTable`] the batch analyzer
/// uses (per-observation updates are `O(log cells)`); what this type
/// adds is [`StreamingAssociation::current`], which computes the
/// association from the counts — no re-walk of the raw observations — and
/// caches it until the next observation.
#[derive(Clone, Debug, Default)]
pub struct StreamingAssociation {
    table: ContingencyTable<u64, u64>,
    cached: Option<Association>,
}

impl StreamingAssociation {
    /// Creates an empty accumulator.
    pub fn new() -> StreamingAssociation {
        StreamingAssociation::default()
    }

    /// Streams one observation in.
    pub fn observe(&mut self, class: u64, category: u64) {
        self.table.record(class, category);
        self.cached = None;
    }

    /// Merges another accumulator in (shard reduction). Counts are
    /// integers, so the merged table — and therefore the association —
    /// is independent of shard boundaries and merge order.
    pub fn merge(&mut self, other: &StreamingAssociation) {
        for class in other.table.classes().copied().collect::<Vec<_>>() {
            for (cat, n) in other.table.categories_of(&class) {
                self.table.record_n(class, *cat, n);
            }
        }
        self.cached = None;
    }

    /// The underlying table.
    pub fn table(&self) -> &ContingencyTable<u64, u64> {
        &self.table
    }

    /// Total observations streamed in.
    pub fn n(&self) -> u64 {
        self.table.total()
    }

    /// The association over everything observed so far, recomputed from
    /// the incremental counts (and cached until the next observation).
    pub fn current(&mut self) -> Association {
        if let Some(a) = &self.cached {
            return *a;
        }
        let a = self.table.association();
        self.cached = Some(a);
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(a: &Association) -> [u64; 5] {
        [
            a.chi2.to_bits(),
            a.p_value.to_bits(),
            a.cramers_v.to_bits(),
            a.cramers_v_corrected.to_bits(),
            a.dof,
        ]
    }

    #[test]
    fn streaming_matches_batch_bit_for_bit() {
        let obs = [(0u64, 10u64), (1, 11), (0, 10), (1, 10), (0, 12), (1, 11), (0, 10)];
        let mut acc = StreamingAssociation::new();
        let mut table = ContingencyTable::new();
        for (i, &(c, k)) in obs.iter().enumerate() {
            acc.observe(c, k);
            table.record(c, k);
            // Bit-equality must hold at *every* prefix, not just the end
            // — that is what makes peeking free of drift.
            assert_eq!(bits(&acc.current()), bits(&table.association()), "prefix {}", i + 1);
        }
    }

    #[test]
    fn merge_is_shard_independent() {
        let obs: Vec<(u64, u64)> = (0..97).map(|i| (i % 3, (i * 7) % 5)).collect();
        let mut whole = StreamingAssociation::new();
        for &(c, k) in &obs {
            whole.observe(c, k);
        }
        for shards in [1usize, 2, 4] {
            let mut parts = vec![StreamingAssociation::new(); shards];
            for (i, &(c, k)) in obs.iter().enumerate() {
                parts[i % shards].observe(c, k);
            }
            let mut merged = StreamingAssociation::new();
            for p in &parts {
                merged.merge(p);
            }
            assert_eq!(bits(&merged.current()), bits(&whole.current()), "shards={shards}");
            assert_eq!(merged.n(), whole.n());
        }
    }

    #[test]
    fn degenerate_tables_are_undecidable_then_clean() {
        // One category only: V = 0 forever; the sequence closes clean
        // once the radius shrinks below the strong threshold.
        let cfg = SeqConfig::default();
        let mut acc = StreamingAssociation::new();
        let mut verdicts = Vec::new();
        for i in 0..64u64 {
            acc.observe(i % 2, 42);
            verdicts.push(cfg.judge(acc.n(), i / 8 + 1, [&acc.current()]));
        }
        assert_eq!(verdicts[0], SeqVerdict::Undecided, "min_n gate holds");
        assert_eq!(*verdicts.last().unwrap(), SeqVerdict::Clean);
    }

    #[test]
    fn perfect_split_goes_leaky() {
        let cfg = SeqConfig::default();
        let mut acc = StreamingAssociation::new();
        let mut verdict = SeqVerdict::Undecided;
        let mut look = 0;
        for i in 0..64u64 {
            acc.observe(i % 2, 100 + i % 2);
            if i % 8 == 7 {
                look += 1;
                verdict = cfg.judge(acc.n(), look, [&acc.current()]);
                if verdict.is_decided() {
                    break;
                }
            }
        }
        assert_eq!(verdict, SeqVerdict::Leaky);
        assert!(acc.n() < 64, "a perfect split must close early (n={})", acc.n());
    }

    #[test]
    fn one_strong_association_blocks_clean() {
        let cfg = SeqConfig::default();
        let mut strong = StreamingAssociation::new();
        let mut weak = StreamingAssociation::new();
        for i in 0..256u64 {
            strong.observe(i % 2, 100 + i % 2);
            weak.observe(i % 2, 7);
        }
        // Alone, the weak association is clean...
        assert_eq!(cfg.judge(256, 4, [&weak.current()]), SeqVerdict::Clean);
        // ...but the family verdict follows the strong one.
        assert_eq!(cfg.judge(256, 4, [&weak.current(), &strong.current()]), SeqVerdict::Leaky);
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
