//! Variable post-translational modifications (PTMs) and modform enumeration.
//!
//! The paper indexes, per peptide, every *modform* — each combination of
//! variable modifications over the peptide's modifiable residues, capped at
//! "max modified residues per peptide = 5". Its experiments use deamidation
//! on N/Q, Gly-Gly adducts on K (and C), and oxidation on M; index size is
//! swept by varying these settings (§V-B), which is exactly how our figure
//! harness scales the index.
//!
//! Enumeration is the source of the exponential index growth the paper
//! motivates with: a peptide with `s` candidate sites yields
//! `Σ_{k=0..min(s,max)} C(s,k)` modforms.

use std::fmt;
use std::ops::Range;

/// A kind of modification, with its Unimod monoisotopic delta mass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ModType {
    /// Oxidation (+15.994915), classically on methionine.
    Oxidation,
    /// Deamidation (+0.984016) on asparagine/glutamine.
    Deamidation,
    /// Gly-Gly adduct (+114.042927), the ubiquitylation remnant on lysine.
    GlyGly,
    /// Phosphorylation (+79.966331) on S/T/Y.
    Phospho,
    /// Carbamidomethylation (+57.021464) on cysteine.
    Carbamidomethyl,
    /// Acetylation (+42.010565) on lysine.
    Acetyl,
    /// A user-defined delta mass.
    Custom(f64),
}

impl ModType {
    /// Monoisotopic delta mass in Daltons.
    pub fn delta_mass(self) -> f64 {
        match self {
            ModType::Oxidation => 15.994_915,
            ModType::Deamidation => 0.984_016,
            ModType::GlyGly => 114.042_927,
            ModType::Phospho => 79.966_331,
            ModType::Carbamidomethyl => 57.021_464,
            ModType::Acetyl => 42.010_565,
            ModType::Custom(d) => d,
        }
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            ModType::Oxidation => "Oxidation",
            ModType::Deamidation => "Deamidation",
            ModType::GlyGly => "GlyGly",
            ModType::Phospho => "Phospho",
            ModType::Carbamidomethyl => "Carbamidomethyl",
            ModType::Acetyl => "Acetyl",
            ModType::Custom(_) => "Custom",
        }
    }
}

impl fmt::Display for ModType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModType::Custom(d) => write!(f, "Custom({d:+.6})"),
            other => write!(f, "{}", other.name()),
        }
    }
}

/// One variable modification rule: a [`ModType`] applicable to a set of
/// target residues.
#[derive(Debug, Clone, PartialEq)]
pub struct VariableMod {
    /// The modification chemistry.
    pub mod_type: ModType,
    /// Residues this modification may occur on (uppercase one-letter codes).
    pub targets: Vec<u8>,
}

impl VariableMod {
    /// Convenience constructor.
    pub fn new(mod_type: ModType, targets: &[u8]) -> Self {
        VariableMod {
            mod_type,
            targets: targets.to_vec(),
        }
    }

    /// `true` if this mod can sit on residue `c`.
    #[inline]
    pub fn applies_to(&self, c: u8) -> bool {
        self.targets.contains(&c)
    }
}

/// A full variable-modification specification.
#[derive(Debug, Clone, PartialEq)]
pub struct ModSpec {
    /// The variable modifications considered.
    pub mods: Vec<VariableMod>,
    /// Maximum modified residues per peptide (paper: 5).
    pub max_mods_per_peptide: usize,
    /// Hard cap on modforms enumerated per peptide (combinatorial safety
    /// valve; `usize::MAX` = unlimited). Enumeration order guarantees the
    /// unmodified form and all lighter combinations come first, so a cap
    /// truncates only the heaviest combinations.
    pub max_modforms_per_peptide: usize,
}

impl ModSpec {
    /// No variable modifications — each peptide has exactly one (unmodified)
    /// modform.
    pub fn none() -> Self {
        ModSpec {
            mods: Vec::new(),
            max_mods_per_peptide: 0,
            max_modforms_per_peptide: usize::MAX,
        }
    }

    /// The paper's §V-A setting: deamidation on N/Q, Gly-Gly on K/C,
    /// oxidation on M, max 5 modified residues per peptide.
    pub fn paper_default() -> Self {
        ModSpec {
            mods: vec![
                VariableMod::new(ModType::Deamidation, b"NQ"),
                VariableMod::new(ModType::GlyGly, b"KC"),
                VariableMod::new(ModType::Oxidation, b"M"),
            ],
            max_mods_per_peptide: 5,
            max_modforms_per_peptide: 512,
        }
    }

    /// A reduced setting (oxidation only) — the small end of the paper's
    /// index-size sweep.
    pub fn oxidation_only() -> Self {
        ModSpec {
            mods: vec![VariableMod::new(ModType::Oxidation, b"M")],
            max_mods_per_peptide: 3,
            max_modforms_per_peptide: 64,
        }
    }

    /// All candidate `(position, mod index)` sites of `seq` under this spec,
    /// position-major (which makes enumeration deterministic).
    pub fn candidate_sites(&self, seq: &[u8]) -> Vec<(u16, u8)> {
        let mut sites = Vec::new();
        self.push_candidate_sites(seq, &mut sites);
        sites
    }

    /// Appends [`ModSpec::candidate_sites`] to `sites`.
    fn push_candidate_sites(&self, seq: &[u8], sites: &mut Vec<(u16, u8)>) {
        // Most residues carry no mod: one bit test (of the 256-bit set of
        // every rule's targets) passes them over.
        let mut targets = [0u64; 4];
        for &t in self.mods.iter().flat_map(|m| &m.targets) {
            targets[usize::from(t >> 6)] |= 1 << (t & 63);
        }
        for (pos, &c) in seq.iter().enumerate() {
            if targets[usize::from(c >> 6)] & 1 << (c & 63) == 0 {
                continue;
            }
            for (mi, m) in self.mods.iter().enumerate() {
                if m.applies_to(c) {
                    sites.push((pos as u16, mi as u8));
                }
            }
        }
    }
}

/// One modform: a specific assignment of variable mods to residue positions
/// of a base peptide (empty = the unmodified form).
#[derive(Debug, Clone, PartialEq)]
pub struct ModForm {
    /// `(position, mod index into the spec's `mods`)`, position-sorted, at
    /// most one mod per position.
    pub sites: Vec<(u16, u8)>,
    /// Total delta mass of all sites, in Daltons.
    pub delta_mass: f64,
}

impl ModForm {
    /// The unmodified form.
    pub fn unmodified() -> Self {
        ModForm {
            sites: Vec::new(),
            delta_mass: 0.0,
        }
    }

    /// Number of modified residues.
    pub fn num_mods(&self) -> usize {
        self.sites.len()
    }

    /// `true` for the unmodified form.
    pub fn is_unmodified(&self) -> bool {
        self.sites.is_empty()
    }

    /// Delta mass carried by residue `pos` under `spec` (0 if unmodified).
    pub fn delta_at(&self, pos: u16, spec: &ModSpec) -> f64 {
        match self.sites.binary_search_by_key(&pos, |&(p, _)| p) {
            Ok(i) => spec.mods[self.sites[i].1 as usize].mod_type.delta_mass(),
            Err(_) => 0.0,
        }
    }
}

/// Walks all modforms of `seq` under `spec` without allocating per
/// modform: `visit(sites, delta_mass)` is called once per modform with the
/// fields a [`ModForm`] would hold, `sites` borrowed from `scratch` (a
/// buffer the caller reuses across peptides; its contents are overwritten).
///
/// This is the one definition of the enumeration: unmodified form first,
/// then by increasing number of modifications, each size in lexicographic
/// order of its `(position, mod index)` sites — so a cap keeps the lightest
/// combinations. At most one modification per residue position. The walk
/// stops after the visit that reaches `spec.max_modforms_per_peptide`; the
/// unmodified form and the first modified one are visited before the cap
/// is first looked at, so a cap below 2 still yields two forms when `seq`
/// has a candidate site.
pub fn for_each_modform<F: FnMut(&[(u16, u8)], f64)>(
    seq: &[u8],
    spec: &ModSpec,
    scratch: &mut Vec<(u16, u8)>,
    visit: F,
) {
    walk_modforms(
        seq,
        spec,
        scratch,
        None,
        spec.max_modforms_per_peptide,
        visit,
    );
}

/// Reusable buffers of [`modform_sites`].
#[derive(Debug, Clone, Default)]
pub struct ModformScratch {
    /// The walk's candidate sites and chosen slots, as
    /// [`for_each_modform`]'s scratch.
    sites: Vec<(u16, u8)>,
    /// The sizes of the subtrees the walk counts instead of visiting.
    subtrees: Vec<u64>,
}

/// The sites of modform number `ordinal` of `seq`, in [`for_each_modform`]'s
/// order: exactly `enumerate_modforms(seq, spec)[ordinal].sites`, cap
/// included, or `None` when `seq` has no such modform.
///
/// It is that walk, stopped on the visit of form `ordinal`. Every subtree
/// the walk would finish before that form — a choice of site and all its
/// completions — is counted instead of visited (the number of ways to pick
/// the remaining sites from the positions after it), so the walk descends
/// one path and costs about `size × sites` steps, not `ordinal` visits. It
/// allocates nothing once `scratch` has grown; the slice it returns is
/// borrowed from `scratch`.
pub fn modform_sites<'s>(
    seq: &[u8],
    spec: &ModSpec,
    ordinal: usize,
    scratch: &'s mut ModformScratch,
) -> Option<&'s [(u16, u8)]> {
    if ordinal == 0 {
        return Some(&[]);
    }
    let limit = spec.max_modforms_per_peptide.min(ordinal.saturating_add(1));
    let sites = &mut scratch.sites;
    let subtrees = Some(&mut scratch.subtrees);
    let (visited, last) = walk_modforms(seq, spec, sites, subtrees, limit, |_, _| {});
    // A walk that reached form `ordinal` returned straight from its visit,
    // so that form's sites are still in the chosen slots.
    (visited - 1 == ordinal).then(|| &scratch.sites[last])
}

/// [`for_each_modform`]'s walk, stopped after the visit that reaches
/// `limit` forms (looked at from the second form on). With `subtrees` it
/// counts, without visiting, every subtree that ends before `limit`.
/// Returns the forms walked past (visited or counted) and where in
/// `scratch` the last visited form's sites are, when that visit stopped
/// the walk.
fn walk_modforms<F: FnMut(&[(u16, u8)], f64)>(
    seq: &[u8],
    spec: &ModSpec,
    scratch: &mut Vec<(u16, u8)>,
    subtrees: Option<&mut Vec<u64>>,
    limit: usize,
    mut visit: F,
) -> (usize, Range<usize>) {
    visit(&[], 0.0);
    if spec.mods.is_empty() || spec.max_mods_per_peptide == 0 {
        return (1, 0..0);
    }
    // `scratch` = the candidate sites, then one slot per chosen site.
    scratch.clear();
    spec.push_candidate_sites(seq, scratch);
    let num_sites = scratch.len();
    let max_size = spec.max_mods_per_peptide.min(num_sites);
    scratch.resize(num_sites + max_size, (0, 0));
    let (sites, chosen) = scratch.split_at_mut(num_sites);
    let subtrees = match subtrees {
        Some(table) => {
            subtree_sizes(sites, max_size, table);
            &table[..]
        }
        None => &[],
    };
    let mut visited = 1usize;
    for size in 1..=max_size {
        let before = visited;
        let mut walk = SizeWalk {
            spec,
            sites,
            subtrees,
            stride: max_size,
            size,
            limit,
            visited: &mut visited,
            visit: &mut visit,
        };
        if !walk.extend(chosen, 0, 0, 0.0) {
            return (visited, num_sites..num_sites + size);
        }
        // No combination of this size (positions ran out): none larger.
        if visited == before {
            break;
        }
    }
    (visited, 0..0)
}

/// Fills `table` so that `table[i * stride + r]` is the number of ways to
/// choose `r < stride` more sites, at most one per position, from the
/// positions after site `i`'s: the forms under choosing site `i` with `r`
/// slots left. Counts saturate (a saturated subtree is walked, not
/// counted).
fn subtree_sizes(sites: &[(u16, u8)], stride: usize, table: &mut Vec<u64>) {
    // Row `sites.len()` accumulates the counts over the positions after
    // the one being filled in: e_r of their multiplicities, as in
    // `tally_modforms`.
    let acc = sites.len() * stride;
    table.clear();
    if stride == 0 {
        return;
    }
    table.resize(acc + stride, 0);
    table[acc] = 1;
    let mut end = sites.len();
    while end > 0 {
        let pos = sites[end - 1].0;
        let start = sites[..end]
            .iter()
            .rposition(|&(p, _)| p != pos)
            .map_or(0, |i| i + 1);
        for i in start..end {
            table.copy_within(acc..acc + stride, i * stride);
        }
        let here = (end - start) as u64;
        for r in (1..stride).rev() {
            table[acc + r] = table[acc + r].saturating_add(here.saturating_mul(table[acc + r - 1]));
        }
        end = start;
    }
}

/// One combination size of [`for_each_modform`]'s walk.
struct SizeWalk<'a, F> {
    spec: &'a ModSpec,
    sites: &'a [(u16, u8)],
    /// [`subtree_sizes`]' table with row length `stride`, or empty: then
    /// every form is visited.
    subtrees: &'a [u64],
    stride: usize,
    size: usize,
    /// Forms after which the walk stops.
    limit: usize,
    visited: &'a mut usize,
    visit: &'a mut F,
}

impl<F: FnMut(&[(u16, u8)], f64)> SizeWalk<'_, F> {
    /// Fills `chosen[depth..size]` with every admissible continuation
    /// drawn from `sites[from..]`, visiting each completed combination.
    /// `delta` is the mass of `chosen[..depth]`, summed in site order.
    /// Returns `false` once `limit` forms have been visited.
    fn extend(&mut self, chosen: &mut [(u16, u8)], depth: usize, from: usize, delta: f64) -> bool {
        for si in from..self.sites.len() {
            let (pos, mi) = self.sites[si];
            // One mod per position: sites are position-major, so a clash
            // can only be with the site chosen last.
            if depth > 0 && chosen[depth - 1].0 == pos {
                continue;
            }
            if let Some(&under) = self.subtrees.get(si * self.stride + self.size - depth - 1) {
                // None of this choice's forms reaches the limit: count
                // them and move on.
                if self.visited.saturating_add(under as usize) < self.limit {
                    *self.visited += under as usize;
                    continue;
                }
            }
            chosen[depth] = (pos, mi);
            let delta = delta + self.spec.mods[mi as usize].mod_type.delta_mass();
            if depth + 1 < self.size {
                if !self.extend(chosen, depth + 1, si + 1, delta) {
                    return false;
                }
                continue;
            }
            (self.visit)(&chosen[..self.size], delta);
            *self.visited += 1;
            if *self.visited >= self.limit {
                return false;
            }
        }
        true
    }
}

/// Enumerates all modforms of `seq` under `spec`, in [`for_each_modform`]'s
/// order (unmodified form first, then in increasing number of
/// modifications), deterministic for a given input.
///
/// At most one modification per residue position. Truncated at
/// `spec.max_modforms_per_peptide`.
pub fn enumerate_modforms(seq: &[u8], spec: &ModSpec) -> Vec<ModForm> {
    let mut out = Vec::new();
    for_each_modform(seq, spec, &mut Vec::new(), |sites, delta_mass| {
        out.push(ModForm {
            sites: sites.to_vec(),
            delta_mass,
        })
    });
    out
}

/// Counts the modforms of `seq` without enumerating them: exactly
/// `enumerate_modforms(seq, spec).len()`, cap included.
pub fn count_modforms(seq: &[u8], spec: &ModSpec) -> usize {
    tally_modforms(seq, spec).forms
}

/// What [`for_each_modform`] yields for one sequence, counted without
/// walking it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModformTally {
    /// Modforms visited, cap included: [`count_modforms`].
    pub forms: usize,
    /// Modified sites summed over those modforms: the total length of the
    /// `sites` slices the walk passes.
    pub sites: usize,
}

/// Residue positions whose modform counts [`tally_modforms`] keeps on the
/// stack; a larger `max_mods_per_peptide` (on a long enough sequence)
/// takes one heap allocation.
const STACK_SIZES: usize = 16;

/// Counts [`for_each_modform`]'s modforms of `seq` and their sites.
///
/// With `m_p` mods applicable at position `p`, the forms of `k` modified
/// residues number `e_k(m_1, …, m_n)` (the elementary symmetric
/// polynomial), so one pass over the sequence updating `e_0..=e_max`
/// gives the count of every size. The walk visits sizes in ascending
/// order, so the cap keeps the smallest: the first `forms` of them.
pub fn tally_modforms(seq: &[u8], spec: &ModSpec) -> ModformTally {
    let max_size = spec.max_mods_per_peptide.min(seq.len());
    if spec.mods.is_empty() || max_size == 0 {
        return ModformTally { forms: 1, sites: 0 };
    }
    let mut stack = [0usize; STACK_SIZES];
    let mut heap = Vec::new();
    let by_size = if max_size < STACK_SIZES {
        &mut stack[..=max_size]
    } else {
        heap.resize(max_size + 1, 0);
        &mut heap[..]
    };
    by_size[0] = 1;
    for &c in seq {
        let here = spec.mods.iter().filter(|m| m.applies_to(c)).count();
        if here == 0 {
            continue;
        }
        for k in (1..=max_size).rev() {
            by_size[k] = by_size[k].saturating_add(by_size[k - 1].saturating_mul(here));
        }
    }
    let total = by_size.iter().fold(0usize, |a, &n| a.saturating_add(n));
    // The walk visits two forms before it first looks at the cap.
    let forms = total.min(spec.max_modforms_per_peptide.max(2));
    let (mut left, mut sites) = (forms, 0usize);
    for (size, &n) in by_size.iter().enumerate() {
        let taken = n.min(left);
        sites = sites.saturating_add(taken.saturating_mul(size));
        left -= taken;
    }
    ModformTally { forms, sites }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_mods_yields_unmodified_only() {
        let forms = enumerate_modforms(b"PEPTIDEK", &ModSpec::none());
        assert_eq!(forms.len(), 1);
        assert!(forms[0].is_unmodified());
    }

    #[test]
    fn no_candidate_sites_yields_unmodified_only() {
        let spec = ModSpec::oxidation_only();
        let forms = enumerate_modforms(b"AAGGAAR", &spec); // no M
        assert_eq!(forms.len(), 1);
    }

    #[test]
    fn single_site_yields_two_forms() {
        let spec = ModSpec::oxidation_only();
        let forms = enumerate_modforms(b"AAMGGR", &spec);
        assert_eq!(forms.len(), 2);
        assert!(forms[0].is_unmodified());
        assert_eq!(forms[1].sites, vec![(2, 0)]);
        assert!((forms[1].delta_mass - 15.994_915).abs() < 1e-9);
    }

    #[test]
    fn two_sites_yield_four_forms() {
        let spec = ModSpec::oxidation_only();
        let forms = enumerate_modforms(b"MAMR", &spec);
        // {}, {0}, {2}, {0,2}
        assert_eq!(forms.len(), 4);
        let sizes: Vec<usize> = forms.iter().map(ModForm::num_mods).collect();
        assert_eq!(sizes, vec![0, 1, 1, 2]);
    }

    #[test]
    fn max_mods_bounds_combination_size() {
        let spec = ModSpec {
            mods: vec![VariableMod::new(ModType::Oxidation, b"M")],
            max_mods_per_peptide: 1,
            max_modforms_per_peptide: usize::MAX,
        };
        let forms = enumerate_modforms(b"MMMM", &spec);
        assert_eq!(forms.len(), 5); // {} + 4 singletons
        assert!(forms.iter().all(|f| f.num_mods() <= 1));
    }

    #[test]
    fn cap_truncates_but_keeps_light_forms() {
        let spec = ModSpec {
            mods: vec![VariableMod::new(ModType::Oxidation, b"M")],
            max_mods_per_peptide: 4,
            max_modforms_per_peptide: 3,
        };
        let forms = enumerate_modforms(b"MMMM", &spec);
        assert_eq!(forms.len(), 3);
        assert!(forms[0].is_unmodified());
        assert!(forms.iter().all(|f| f.num_mods() <= 1));
    }

    #[test]
    fn one_mod_per_position() {
        // Two mods both target N: a position must not carry both.
        let spec = ModSpec {
            mods: vec![
                VariableMod::new(ModType::Deamidation, b"N"),
                VariableMod::new(ModType::Custom(10.0), b"N"),
            ],
            max_mods_per_peptide: 2,
            max_modforms_per_peptide: usize::MAX,
        };
        let forms = enumerate_modforms(b"NAN", &spec);
        for f in &forms {
            let mut positions: Vec<u16> = f.sites.iter().map(|&(p, _)| p).collect();
            let n = positions.len();
            positions.dedup();
            assert_eq!(n, positions.len(), "duplicate position in {f:?}");
        }
        // {} + 4 singles + 4 pairs (2 mods × 2 mods across the two Ns)
        assert_eq!(forms.len(), 9);
    }

    #[test]
    fn delta_mass_is_sum_of_sites() {
        let spec = ModSpec::paper_default();
        for f in enumerate_modforms(b"MNKQM", &spec) {
            let expect: f64 = f
                .sites
                .iter()
                .map(|&(_, mi)| spec.mods[mi as usize].mod_type.delta_mass())
                .sum();
            assert!((f.delta_mass - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn delta_at_reports_per_position() {
        let spec = ModSpec::oxidation_only();
        let forms = enumerate_modforms(b"AMA", &spec);
        let modified = &forms[1];
        assert!((modified.delta_at(1, &spec) - 15.994_915).abs() < 1e-9);
        assert_eq!(modified.delta_at(0, &spec), 0.0);
        assert_eq!(modified.delta_at(2, &spec), 0.0);
    }

    #[test]
    fn paper_default_counts() {
        let spec = ModSpec::paper_default();
        assert_eq!(spec.max_mods_per_peptide, 5);
        // K,N,Q,M,C each modifiable once; sequence with 3 sites → 2^3 forms.
        let forms = enumerate_modforms(b"ANKGG", &spec); // sites: N, K
        assert_eq!(forms.len(), 4);
    }

    #[test]
    fn modform_count_grows_with_spec() {
        let seq = b"MNKQMC";
        let none = count_modforms(seq, &ModSpec::none());
        let ox = count_modforms(seq, &ModSpec::oxidation_only());
        let full = count_modforms(seq, &ModSpec::paper_default());
        assert!(none < ox && ox < full, "{none} {ox} {full}");
    }

    #[test]
    fn sites_are_position_sorted() {
        let spec = ModSpec::paper_default();
        for f in enumerate_modforms(b"MNKQMCNQK", &spec) {
            assert!(f.sites.windows(2).all(|w| w[0].0 < w[1].0), "{f:?}");
        }
    }

    /// The enumeration as it was before [`for_each_modform`]: breadth-first
    /// over combination size with an owned site list per frontier entry.
    fn enumerate_breadth_first(seq: &[u8], spec: &ModSpec) -> Vec<ModForm> {
        let mut out = vec![ModForm::unmodified()];
        let sites = spec.candidate_sites(seq);
        // (last site index used, chosen sites, delta mass)
        type FrontierEntry = (Option<usize>, Vec<(u16, u8)>, f64);
        let mut frontier: Vec<FrontierEntry> = vec![(None, Vec::new(), 0.0)];
        for _k in 1..=spec.max_mods_per_peptide {
            let mut next = Vec::new();
            for (last, chosen, delta) in &frontier {
                let start = last.map_or(0, |l| l + 1);
                for (si, &(pos, mi)) in sites.iter().enumerate().skip(start) {
                    if chosen.last().is_some_and(|&(p, _)| p == pos) {
                        continue;
                    }
                    let mut c = chosen.clone();
                    c.push((pos, mi));
                    let d = delta + spec.mods[mi as usize].mod_type.delta_mass();
                    out.push(ModForm {
                        sites: c.clone(),
                        delta_mass: d,
                    });
                    if out.len() >= spec.max_modforms_per_peptide {
                        return out;
                    }
                    next.push((Some(si), c, d));
                }
            }
            if next.is_empty() {
                break;
            }
            frontier = next;
        }
        out
    }

    #[test]
    fn walk_and_count_match_breadth_first_reference() {
        use rand::{Rng, SeedableRng};
        let two_on_one = ModSpec {
            mods: vec![
                VariableMod::new(ModType::Deamidation, b"NQ"),
                VariableMod::new(ModType::Custom(10.0), b"NK"),
            ],
            max_mods_per_peptide: 3,
            max_modforms_per_peptide: usize::MAX,
        };
        let bases = [
            ModSpec::none(),
            ModSpec::oxidation_only(),
            ModSpec::paper_default(),
            two_on_one,
        ];
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(15);
        let mut scratch = Vec::new();
        for case in 0..400 {
            let len = rng.gen_range(1..14usize);
            let seq: Vec<u8> = (0..len)
                .map(|_| b"AMNQKCG"[rng.gen_range(0..7usize)])
                .collect();
            let mut spec = bases[case % bases.len()].clone();
            spec.max_mods_per_peptide = rng.gen_range(0..6usize);
            spec.max_modforms_per_peptide = [0, 1, 2, 7, 128, usize::MAX][rng.gen_range(0..6usize)];
            let want = enumerate_breadth_first(&seq, &spec);
            // Bit-equal, delta masses included; the scratch is reused dirty.
            assert_eq!(enumerate_modforms(&seq, &spec), want, "case {case}");
            let tally = tally_modforms(&seq, &spec);
            assert_eq!(count_modforms(&seq, &spec), want.len(), "case {case}");
            assert_eq!(tally.forms, want.len(), "case {case}");
            let sites: usize = want.iter().map(ModForm::num_mods).sum();
            assert_eq!(tally.sites, sites, "case {case}");
            let mut visits = 0usize;
            for_each_modform(&seq, &spec, &mut scratch, |sites, delta| {
                assert_eq!(sites, &want[visits].sites[..], "case {case}");
                assert_eq!(delta.to_bits(), want[visits].delta_mass.to_bits());
                visits += 1;
            });
            assert_eq!(visits, want.len(), "case {case}");
        }
    }

    /// The stopping walk names every form the full walk yields, the last
    /// one before a cap included, and nothing past the end.
    #[test]
    fn modform_sites_is_the_walks_form_at_every_ordinal() {
        use rand::{Rng, SeedableRng};
        let two_on_one = ModSpec {
            mods: vec![
                VariableMod::new(ModType::Deamidation, b"NQ"),
                VariableMod::new(ModType::Custom(10.0), b"NK"),
            ],
            max_mods_per_peptide: 3,
            max_modforms_per_peptide: usize::MAX,
        };
        let bases = [ModSpec::paper_default(), two_on_one];
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
        let mut scratch = ModformScratch::default();
        let (mut capped, mut longest) = (0, 0);
        for case in 0..300 {
            let len = rng.gen_range(1..16usize);
            let seq: Vec<u8> = (0..len)
                .map(|_| b"AMNQKCG"[rng.gen_range(0..7usize)])
                .collect();
            let mut spec = bases[case % bases.len()].clone();
            spec.max_modforms_per_peptide = [0, 1, 2, 7, 40, 512, usize::MAX][case % 7];
            if case % 3 == 0 {
                spec.max_mods_per_peptide = rng.gen_range(0..7usize);
            }
            let forms = enumerate_modforms(&seq, &spec);
            if forms.len() == spec.max_modforms_per_peptide.max(2) {
                capped += 1;
            }
            longest = longest.max(forms.len());
            for (k, form) in forms.iter().enumerate() {
                let got = modform_sites(&seq, &spec, k, &mut scratch);
                assert_eq!(got, Some(&form.sites[..]), "case {case}, form {k}");
            }
            for past in [forms.len(), forms.len() + 1, usize::MAX] {
                let got = modform_sites(&seq, &spec, past, &mut scratch);
                assert_eq!(got, None, "case {case}, ordinal {past}");
            }
        }
        assert!(capped > 20, "only {capped} cases reached their cap");
        assert!(longest > 100, "longest enumeration {longest}");
    }

    /// Up to 15 modified residues count on the stack, more on the heap:
    /// both sides of the switch agree with the walk, capped and not.
    #[test]
    fn tally_matches_the_walk_on_both_sides_of_the_stack_array() {
        let seq = [b'M'; 17];
        for max_mods in [STACK_SIZES - 1, STACK_SIZES, 17, 40] {
            let spec = |cap| ModSpec {
                mods: vec![VariableMod::new(ModType::Oxidation, b"M")],
                max_mods_per_peptide: max_mods,
                max_modforms_per_peptide: cap,
            };
            // Σ_{k ≤ max} C(17, k) forms carrying Σ k·C(17, k) sites.
            let (mut binom, mut forms, mut sites) = (1usize, 0, 0);
            for k in 0..=max_mods.min(17) {
                forms += binom;
                sites += k * binom;
                binom = binom * (17 - k) / (k + 1);
            }
            let uncapped = tally_modforms(&seq, &spec(usize::MAX));
            assert_eq!(uncapped, ModformTally { forms, sites }, "max {max_mods}");
            let want = enumerate_modforms(&seq, &spec(300));
            let capped = tally_modforms(&seq, &spec(300));
            assert_eq!(capped.forms, want.len(), "max {max_mods}");
            let want_sites: usize = want.iter().map(ModForm::num_mods).sum();
            assert_eq!(capped.sites, want_sites, "max {max_mods}");
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(ModType::Oxidation.to_string(), "Oxidation");
        assert!(ModType::Custom(1.5).to_string().contains("+1.5"));
    }
}
