//! Index and search configuration (the paper's SLM-Transform settings).

use lbe_spectra::theo::TheoParams;

/// Configuration of the SLM-style index and its shared-peak search.
///
/// Defaults reproduce §V-A.3 of the paper: resolution `r = 0.01`, fragment
/// tolerance `ΔF = 0.05 Da`, precursor tolerance `ΔM = ∞` (open search),
/// shared-peak threshold `shpeak ≥ 4`, 100 most intense query peaks.
#[derive(Debug, Clone, PartialEq)]
pub struct SlmConfig {
    /// Quantization resolution `r` in Daltons per bin.
    pub resolution: f64,
    /// Fragment mass tolerance `ΔF` in Daltons (half-window).
    pub fragment_tolerance: f64,
    /// Precursor mass tolerance `ΔM` in Daltons (half-window);
    /// `f64::INFINITY` = open search.
    pub precursor_tolerance: f64,
    /// Minimum shared peaks for a candidate PSM (`Shpeak`).
    pub shared_peak_threshold: u16,
    /// Largest fragment m/z the bin table covers. Fragments above are
    /// silently dropped (they cannot exist for peptides ≤ 5000 Da at 1+
    /// unless doubly-charged series are off — 5100 leaves headroom).
    pub max_fragment_mz: f64,
    /// Theoretical fragment generation settings.
    pub theo: TheoParams,
    /// Keep at most this many top-scoring PSMs per query.
    pub top_k: usize,
}

impl Default for SlmConfig {
    fn default() -> Self {
        SlmConfig {
            resolution: 0.01,
            fragment_tolerance: 0.05,
            precursor_tolerance: f64::INFINITY,
            shared_peak_threshold: 4,
            max_fragment_mz: 5100.0,
            theo: TheoParams::default(),
            top_k: 10,
        }
    }
}

impl SlmConfig {
    /// Number of quantization bins the index allocates.
    #[inline]
    pub fn num_bins(&self) -> usize {
        (self.max_fragment_mz / self.resolution).ceil() as usize + 1
    }

    /// Quantizes an m/z value to its bin — `mz / resolution` rounded half
    /// away from zero — or `None` if out of range.
    ///
    /// The builder calls this once per ion, so the rounding is spelled
    /// without libm's `round`: truncate, then compare the fraction, which
    /// `x − trunc(x)` yields exactly for any finite `x ≥ 0`.
    #[inline]
    pub fn bin_of(&self, mz: f64) -> Option<u32> {
        if !(0.0..=self.max_fragment_mz).contains(&mz) {
            return None;
        }
        let x = mz / self.resolution;
        let below = x as u32; // saturating, like the `as u32` of a rounded x
        Some(below.saturating_add((x - below as f64 >= 0.5) as u32))
    }

    /// Half-width of the fragment tolerance window, in bins.
    #[inline]
    pub fn tolerance_bins(&self) -> u32 {
        (self.fragment_tolerance / self.resolution).round() as u32
    }

    /// `true` if the precursor window is open (ΔM = ∞).
    #[inline]
    pub fn is_open_search(&self) -> bool {
        self.precursor_tolerance.is_infinite()
    }

    /// `true` if `candidate_mass` is admissible for a query of
    /// `query_mass` under ΔM.
    ///
    /// Deliberately phrased as interval membership in `[query_mass − ΔM,
    /// query_mass + ΔM]` — the *same* floating-point expressions the banded
    /// kernel binary-searches the entry table with — so the banded and
    /// full-scan paths admit bit-identical candidate sets even at window
    /// boundaries (a `|q − c| ≤ ΔM` formulation can disagree with the
    /// interval bounds by one ulp).
    #[inline]
    pub fn precursor_admits(&self, query_mass: f64, candidate_mass: f64) -> bool {
        Self::precursor_admits_with(self.precursor_tolerance, query_mass, candidate_mass)
    }

    /// [`SlmConfig::precursor_admits`] under an explicit ΔM (`tol`) instead
    /// of the built-in one — the per-request override path. Must stay
    /// phrased as the same interval-membership expressions (see above) so a
    /// per-request tolerance admits exactly what an index *built* with that
    /// tolerance would.
    #[inline]
    pub fn precursor_admits_with(tol: f64, query_mass: f64, candidate_mass: f64) -> bool {
        tol.is_infinite()
            || (candidate_mass >= query_mass - tol && candidate_mass <= query_mass + tol)
    }

    /// A closed-search variant (ΔM = `tol` Da) of this configuration.
    pub fn with_precursor_tolerance(mut self, tol: f64) -> Self {
        self.precursor_tolerance = tol;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SlmConfig::default();
        assert_eq!(c.resolution, 0.01);
        assert_eq!(c.fragment_tolerance, 0.05);
        assert!(c.is_open_search());
        assert_eq!(c.shared_peak_threshold, 4);
    }

    #[test]
    fn bin_quantization_rounds() {
        let c = SlmConfig::default();
        assert_eq!(c.bin_of(100.004), Some(10_000));
        assert_eq!(c.bin_of(100.006), Some(10_001));
        assert_eq!(c.bin_of(0.0), Some(0));
    }

    #[test]
    fn bin_quantization_is_bit_equal_to_libm_round() {
        let oracle = |c: &SlmConfig, mz: f64| {
            (0.0..=c.max_fragment_mz)
                .contains(&mz)
                .then(|| (mz / c.resolution).round() as u32)
        };
        let coarse = SlmConfig {
            resolution: 0.3,
            max_fragment_mz: 2000.0,
            ..SlmConfig::default()
        };
        // A resolution so fine the quotient passes u32: both saturate.
        let tiny = SlmConfig {
            resolution: 1e-7,
            ..SlmConfig::default()
        };
        for c in [SlmConfig::default(), coarse, tiny] {
            let bins = c.num_bins().min(600_000) as u32;
            for bin in (0..bins).step_by(997).chain(bins.saturating_sub(3)..bins) {
                // Every half-bin boundary, its neighbours one ulp either
                // side, and the same around the bin centre.
                for at in [bin as f64 + 0.5, bin as f64] {
                    let mz = at * c.resolution;
                    for probe in [mz.next_down(), mz, mz.next_up()] {
                        assert_eq!(
                            c.bin_of(probe),
                            oracle(&c, probe),
                            "{probe:e} / {}",
                            c.resolution
                        );
                    }
                }
            }
            let max = c.max_fragment_mz;
            for mz in [0.0, -0.0, f64::MIN_POSITIVE, max, max.next_down()] {
                assert_eq!(c.bin_of(mz), oracle(&c, mz), "{mz:e}");
                assert!(c.bin_of(mz).is_some());
            }
            for mz in [
                max.next_up(),
                -1e-300,
                -1.0,
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
            ] {
                assert_eq!(c.bin_of(mz), None, "{mz:e}");
            }
        }
    }

    #[test]
    fn out_of_range_mz_has_no_bin() {
        let c = SlmConfig::default();
        assert_eq!(c.bin_of(-1.0), None);
        assert_eq!(c.bin_of(c.max_fragment_mz + 1.0), None);
    }

    #[test]
    fn tolerance_bins_from_daltons() {
        let c = SlmConfig::default();
        assert_eq!(c.tolerance_bins(), 5); // 0.05 / 0.01
    }

    #[test]
    fn num_bins_covers_max() {
        let c = SlmConfig::default();
        assert!(c.bin_of(c.max_fragment_mz).unwrap() < c.num_bins() as u32);
    }

    #[test]
    fn precursor_admission() {
        let open = SlmConfig::default();
        assert!(open.precursor_admits(1000.0, 5000.0));
        let closed = SlmConfig::default().with_precursor_tolerance(0.5);
        assert!(closed.precursor_admits(1000.0, 1000.4));
        assert!(!closed.precursor_admits(1000.0, 1000.6));
        assert!(!closed.is_open_search());
    }

    #[test]
    fn same_mz_within_tolerance_shares_bins() {
        // Two m/z within ΔF of each other must land within tolerance_bins.
        let c = SlmConfig::default();
        let a = c.bin_of(500.000).unwrap();
        let b = c.bin_of(500.049).unwrap();
        assert!(b.abs_diff(a) <= c.tolerance_bins());
    }
}
