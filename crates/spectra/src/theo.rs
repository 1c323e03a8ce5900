//! Theoretical spectrum prediction: b/y fragment-ion series.
//!
//! Collision-induced dissociation predominantly breaks the peptide backbone
//! at amide bonds, producing *b ions* (N-terminal prefixes) and *y ions*
//! (C-terminal suffixes). For a peptide of length `n` there are `n-1` b ions
//! and `n-1` y ions per charge state:
//!
//! ```text
//! b_i = Σ residue_mass[0..i]   (+ mods on those residues) + z·proton, over z
//! y_i = Σ residue_mass[n-i..n] (+ mods)        + water    + z·proton, over z
//! ```
//!
//! SLM-Transform (the index the paper builds on) quantizes these fragment
//! m/z values at resolution `r = 0.01` into integer bins; that quantization
//! lives in `lbe-index` — this module produces exact `f64` fragment m/z.

use lbe_bio::aa::{residue_mass_unchecked, PROTON_MASS, WATER_MASS};
use lbe_bio::mods::{ModForm, ModSpec};

/// Parameters of theoretical fragment generation.
#[derive(Debug, Clone, PartialEq)]
pub struct TheoParams {
    /// Generate b ions.
    pub b_ions: bool,
    /// Generate y ions.
    pub y_ions: bool,
    /// Fragment charge states to emit (paper/SLM default: singly charged).
    pub charges: Vec<u8>,
}

impl Default for TheoParams {
    fn default() -> Self {
        TheoParams {
            b_ions: true,
            y_ions: true,
            charges: vec![1],
        }
    }
}

impl TheoParams {
    /// b/y at charges 1 and 2 — the richer setting used for larger indices.
    pub fn with_doubly_charged() -> Self {
        TheoParams {
            charges: vec![1, 2],
            ..Default::default()
        }
    }
}

/// A theoretical MS/MS spectrum: sorted fragment m/z values plus the
/// (modified) precursor neutral mass.
#[derive(Debug, Clone, PartialEq)]
pub struct TheoSpectrum {
    /// Fragment m/z values, ascending.
    pub fragment_mzs: Vec<f64>,
    /// Neutral precursor mass including modification deltas.
    pub precursor_mass: f64,
}

/// Generates the fragment m/z of `seq` carrying the modform `sites`
/// (`(position, mod index into spec.mods)`, position-sorted, at most one
/// per position — a [`ModForm`]'s `sites`), passing each to `emit`, and
/// returns the neutral precursor mass including modification deltas.
///
/// Fragments come out in generation order — per charge state, per
/// cleavage, b before y — not sorted; nothing is allocated once `prefix`
/// (scratch the caller reuses across spectra) has grown to the longest
/// sequence. This is [`prefix_masses`] then [`emit_fragments`], the one
/// definition of the fragment arithmetic: [`TheoSpectrum::from_sequence`]
/// is this, collected and sorted.
///
/// Panics on an empty sequence, a zero charge state, or non-standard
/// residues — upstream digestion guarantees standard sequences.
pub fn for_each_fragment<F: FnMut(f64)>(
    seq: &[u8],
    sites: &[(u16, u8)],
    spec: &ModSpec,
    params: &TheoParams,
    prefix: &mut Vec<f64>,
    emit: F,
) -> f64 {
    let precursor_mass = prefix_masses(seq, sites, spec, prefix);
    emit_fragments(prefix, params, emit);
    precursor_mass
}

/// The first half of [`for_each_fragment`], for a caller that needs the
/// precursor mass before the fragments: fills `prefix` with the prefix
/// sums of `seq`'s residue masses including the deltas of `sites`
/// (`prefix[i]` = mass of residues `0..i`, `seq.len() + 1` values) and
/// returns the neutral precursor mass.
///
/// Panics on an empty sequence or non-standard residues.
pub fn prefix_masses(
    seq: &[u8],
    sites: &[(u16, u8)],
    spec: &ModSpec,
    prefix: &mut Vec<f64>,
) -> f64 {
    assert!(!seq.is_empty(), "cannot fragment an empty peptide");
    // Sized, then overwritten: no capacity check per residue.
    prefix.resize(seq.len() + 1, 0.0);
    prefix[0] = 0.0;
    let mut acc = 0.0f64;
    let mut sites = sites.iter();
    let mut next_site = sites.next();
    for (i, (&c, slot)) in seq.iter().zip(&mut prefix[1..]).enumerate() {
        let mut mass = residue_mass_unchecked(c);
        if let Some(&(_, mi)) = next_site.filter(|&&(pos, _)| pos as usize == i) {
            mass += spec.mods[mi as usize].mod_type.delta_mass();
            next_site = sites.next();
        }
        acc += mass;
        *slot = acc;
    }
    acc + WATER_MASS
}

/// The second half of [`for_each_fragment`]: passes every fragment m/z of
/// the peptide whose [`prefix_masses`] are `prefix` to `emit`, in
/// generation order.
///
/// Panics on a zero charge state.
pub fn emit_fragments<F: FnMut(f64)>(prefix: &[f64], params: &TheoParams, mut emit: F) {
    for &z in &params.charges {
        assert!(z >= 1, "fragment charge must be >= 1");
        if z == 1 {
            // `1.0 * PROTON_MASS` and `x / 1.0` are exact, so this is the
            // general arm's arithmetic, bit for bit, without its divide.
            neutral_fragments(prefix, params, |neutral| emit(neutral + PROTON_MASS));
        } else {
            let zf = z as f64;
            neutral_fragments(prefix, params, |neutral| {
                emit((neutral + zf * PROTON_MASS) / zf)
            });
        }
    }
}

/// The neutral mass of every b and y fragment, per cleavage, b before y.
#[inline(always)]
fn neutral_fragments(prefix: &[f64], params: &TheoParams, mut emit: impl FnMut(f64)) {
    let n = prefix.len() - 1;
    let total = prefix[n];
    // Cleavage i pairs b_i (residues 0..i: prefix[i], no water) with y_i
    // (the last i residues: total − prefix[n − i] + water).
    let cleavages = prefix[1..n].iter().zip(prefix[1..n].iter().rev());
    for (&b, &rest) in cleavages {
        if params.b_ions {
            emit(b);
        }
        if params.y_ions {
            emit(total - rest + WATER_MASS);
        }
    }
}

impl TheoSpectrum {
    /// Predicts the spectrum of `seq` carrying `modform` (interpreted under
    /// `spec`), with fragment series per `params`.
    ///
    /// Panics on non-standard residues — upstream digestion guarantees
    /// standard sequences.
    pub fn from_sequence(
        seq: &[u8],
        modform: &ModForm,
        spec: &ModSpec,
        params: &TheoParams,
    ) -> Self {
        let series = seq.len().saturating_sub(1)
            * (params.b_ions as usize + params.y_ions as usize)
            * params.charges.len();
        let mut mzs = Vec::with_capacity(series);
        let precursor_mass = for_each_fragment(
            seq,
            &modform.sites,
            spec,
            params,
            &mut Vec::with_capacity(seq.len() + 1),
            |mz| mzs.push(mz),
        );
        mzs.sort_by(|a, b| a.partial_cmp(b).expect("fragment m/z are finite"));
        TheoSpectrum {
            fragment_mzs: mzs,
            precursor_mass,
        }
    }

    /// Number of fragments.
    pub fn fragment_count(&self) -> usize {
        self.fragment_mzs.len()
    }

    /// Heap bytes (footprint accounting).
    pub fn heap_bytes(&self) -> usize {
        self.fragment_mzs.capacity() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbe_bio::aa::peptide_neutral_mass;
    use lbe_bio::mods::{enumerate_modforms, ModType, VariableMod};

    fn unmodified(seq: &[u8]) -> TheoSpectrum {
        TheoSpectrum::from_sequence(
            seq,
            &ModForm::unmodified(),
            &ModSpec::none(),
            &TheoParams::default(),
        )
    }

    #[test]
    fn fragment_count_matches_length() {
        for seq in [&b"PEPTIDEK"[..], b"ACDEFK", b"GG"] {
            let t = unmodified(seq);
            assert_eq!(t.fragment_count(), 2 * (seq.len() - 1));
        }
    }

    #[test]
    fn precursor_matches_peptide_mass() {
        let t = unmodified(b"ELVISLIVESK");
        let expect = peptide_neutral_mass(b"ELVISLIVESK").unwrap();
        assert!((t.precursor_mass - expect).abs() < 1e-9);
    }

    #[test]
    fn b1_ion_is_first_residue_plus_proton() {
        let t = unmodified(b"GK"); // b1 = G + proton; y1 = K + water + proton
        let b1 = 57.021_463_735 + PROTON_MASS;
        let y1 = 128.094_963_050 + WATER_MASS + PROTON_MASS;
        assert!(t.fragment_mzs.iter().any(|m| (m - b1).abs() < 1e-6));
        assert!(t.fragment_mzs.iter().any(|m| (m - y1).abs() < 1e-6));
    }

    #[test]
    fn b_and_y_complementarity() {
        // b_i + y_(n-i) = precursor + 2 protons (singly-charged fragments).
        let seq = b"SAMPLEK";
        let n = seq.len();
        let t = unmodified(seq);
        // regenerate separately to pair them up
        let only_b = TheoSpectrum::from_sequence(
            seq,
            &ModForm::unmodified(),
            &ModSpec::none(),
            &TheoParams {
                y_ions: false,
                ..Default::default()
            },
        );
        let only_y = TheoSpectrum::from_sequence(
            seq,
            &ModForm::unmodified(),
            &ModSpec::none(),
            &TheoParams {
                b_ions: false,
                ..Default::default()
            },
        );
        for i in 1..n {
            let b_i = only_b.fragment_mzs[i - 1]; // ascending = b1..b(n-1)
            let y_ni = only_y.fragment_mzs[n - 1 - i];
            let sum = b_i + y_ni;
            let expect = t.precursor_mass + 2.0 * PROTON_MASS;
            assert!((sum - expect).abs() < 1e-6, "i={i}: {sum} vs {expect}");
        }
    }

    #[test]
    fn fragments_sorted_ascending() {
        let t = unmodified(b"WWAGHK");
        assert!(t.fragment_mzs.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn doubly_charged_doubles_count() {
        let t = TheoSpectrum::from_sequence(
            b"PEPTIDEK",
            &ModForm::unmodified(),
            &ModSpec::none(),
            &TheoParams::with_doubly_charged(),
        );
        assert_eq!(t.fragment_count(), 2 * 2 * 7);
    }

    #[test]
    fn modification_shifts_precursor_and_fragments() {
        let spec = ModSpec {
            mods: vec![VariableMod::new(ModType::Oxidation, b"M")],
            max_mods_per_peptide: 1,
            max_modforms_per_peptide: usize::MAX,
        };
        let forms = enumerate_modforms(b"AMK", &spec);
        assert_eq!(forms.len(), 2);
        let plain = TheoSpectrum::from_sequence(b"AMK", &forms[0], &spec, &TheoParams::default());
        let modded = TheoSpectrum::from_sequence(b"AMK", &forms[1], &spec, &TheoParams::default());
        let d = 15.994_915;
        assert!((modded.precursor_mass - plain.precursor_mass - d).abs() < 1e-9);
        // b1 = A (unshifted: mod is on position 1); y1 = K (unshifted);
        // b2 = AM (shifted); y2 = MK (shifted).
        let shifted = modded
            .fragment_mzs
            .iter()
            .zip(plain.fragment_mzs.iter())
            .filter(|(a, b)| (*a - *b).abs() > 1e-9)
            .count();
        assert_eq!(shifted, 2);
    }

    #[test]
    fn mod_at_terminus_shifts_whole_series() {
        // Mod on position 0 shifts every b ion but no y ion (except none exist
        // covering position 0 until y_n which isn't generated).
        let spec = ModSpec {
            mods: vec![VariableMod::new(ModType::Custom(100.0), b"A")],
            max_mods_per_peptide: 1,
            max_modforms_per_peptide: usize::MAX,
        };
        let forms = enumerate_modforms(b"AGGK", &spec);
        let plain = TheoSpectrum::from_sequence(
            b"AGGK",
            &forms[0],
            &spec,
            &TheoParams {
                y_ions: false,
                ..Default::default()
            },
        );
        let modded = TheoSpectrum::from_sequence(
            b"AGGK",
            &forms[1],
            &spec,
            &TheoParams {
                y_ions: false,
                ..Default::default()
            },
        );
        for (a, b) in modded.fragment_mzs.iter().zip(plain.fragment_mzs.iter()) {
            assert!((a - b - 100.0).abs() < 1e-9);
        }
    }

    /// The arithmetic as it stood before [`for_each_fragment`]: a residue
    /// mass vector with a `delta_at` lookup per residue, then prefix sums.
    fn reference_spectrum(
        seq: &[u8],
        modform: &ModForm,
        spec: &ModSpec,
        params: &TheoParams,
    ) -> TheoSpectrum {
        let n = seq.len();
        let mut prefix = vec![0.0f64];
        for (i, &c) in seq.iter().enumerate() {
            let m = residue_mass_unchecked(c) + modform.delta_at(i as u16, spec);
            prefix.push(prefix[i] + m);
        }
        let total = prefix[n];
        let mut mzs = Vec::new();
        for &z in &params.charges {
            let zf = z as f64;
            for i in 1..n {
                if params.b_ions {
                    mzs.push((prefix[i] + zf * PROTON_MASS) / zf);
                }
                if params.y_ions {
                    mzs.push((total - prefix[n - i] + WATER_MASS + zf * PROTON_MASS) / zf);
                }
            }
        }
        mzs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        TheoSpectrum {
            fragment_mzs: mzs,
            precursor_mass: total + WATER_MASS,
        }
    }

    #[test]
    fn generator_is_bit_equal_to_reference_arithmetic() {
        let spec = ModSpec::paper_default();
        let all = TheoParams::with_doubly_charged();
        let b_only = TheoParams {
            y_ions: false,
            charges: vec![2, 1, 3],
            ..Default::default()
        };
        let mut prefix = Vec::new();
        for seq in [&b"MNKQMCNQK"[..], b"ELVISLIVESK", b"K", b"NK", b"WWCMMQNK"] {
            for form in enumerate_modforms(seq, &spec) {
                for params in [&TheoParams::default(), &all, &b_only] {
                    let want = reference_spectrum(seq, &form, &spec, params);
                    let got = TheoSpectrum::from_sequence(seq, &form, &spec, params);
                    let bits = |t: &TheoSpectrum| -> Vec<u64> {
                        t.fragment_mzs.iter().map(|m| m.to_bits()).collect()
                    };
                    assert_eq!(bits(&got), bits(&want), "{form:?}");
                    assert_eq!(got.precursor_mass.to_bits(), want.precursor_mass.to_bits());
                    // The generator itself: same multiset, scratch reused.
                    let mut raw = Vec::new();
                    let mass =
                        for_each_fragment(seq, &form.sites, &spec, params, &mut prefix, |mz| {
                            raw.push(mz)
                        });
                    raw.sort_by(|a, b| a.partial_cmp(b).unwrap());
                    assert_eq!(raw, want.fragment_mzs);
                    assert_eq!(mass.to_bits(), want.precursor_mass.to_bits());
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn empty_peptide_panics() {
        unmodified(b"");
    }

    #[test]
    fn single_residue_has_no_fragments() {
        let t = unmodified(b"K");
        assert_eq!(t.fragment_count(), 0);
        let expect = peptide_neutral_mass(b"K").unwrap();
        assert!((t.precursor_mass - expect).abs() < 1e-9);
    }
}
