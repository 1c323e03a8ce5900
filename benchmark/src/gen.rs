//! Seeded input generation. Everything the program under test sees is made
//! here from `--seed`; the program never sees the seed itself. Generator
//! time is excluded from every metric (set-up time starts at the generated
//! inputs), and each workload prints a digest of its inputs so two commits
//! can be shown to have been fed identical bytes.

use lbe_bio::dedup::dedup_peptides;
use lbe_bio::digest::{digest_protein, digest_proteome, DigestParams};
use lbe_bio::fasta::Protein;
use lbe_bio::mods::{count_modforms, ModSpec};
use lbe_bio::peptide::PeptideDb;
use lbe_bio::synthetic::{SyntheticProteome, SyntheticProteomeParams};
use lbe_spectra::spectrum::Spectrum;
use lbe_spectra::synthetic::{SyntheticDataset, SyntheticDatasetParams};
use std::collections::HashSet;

/// Workload sizes. `default` is what `BENCHMARK.json` measures; `smoke`
/// walks the same code paths on tiny corpora (whole suite in seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    pub name: &'static str,
    /// Corpus A: theoretical fragment ions to index (see
    /// [`proteome_for_ions`]).
    pub a_ions: u64,
    /// Corpus B (paged store): ions under the heavy mod spec.
    pub b_ions: u64,
    /// Spectra per `batch_closed` round.
    pub closed_round: usize,
    /// Spectra per `batch_open` round.
    pub open_round: usize,
    /// Distinct raw spectra `serve_mixed` cycles through.
    pub serve_pool: usize,
    /// Length of the query sequence `serve_paged` streams (cycled).
    pub paged_seq: usize,
    /// Chunks the paged store is cut into (¾ by `init`, ¼ by `append`);
    /// half of them are resident.
    pub paged_chunks: usize,
    /// Spectra per `cluster_lbe` job.
    pub cluster_queries: usize,
    /// Ions the cluster job indexes, corpus A's shape at a smaller size
    /// (every job rebuilds its partitions, so this sizes a round).
    pub cluster_ions: u64,
    /// Queries per `Auto ≡ FullScan` check and per `index.query` probe.
    pub check_queries: usize,
    /// Set-up repetitions whose median is `setup_s`.
    pub setup_reps: usize,
}

impl Scale {
    pub const DEFAULT: Scale = Scale {
        name: "default",
        a_ions: 9_000_000,
        b_ions: 2_000_000,
        closed_round: 8_192,
        open_round: 1_024,
        serve_pool: 2_048,
        paged_seq: 1_024,
        paged_chunks: 16,
        cluster_queries: 256,
        cluster_ions: 3_000_000,
        check_queries: 256,
        setup_reps: 5,
    };

    pub const SMOKE: Scale = Scale {
        name: "smoke",
        a_ions: 600_000,
        b_ions: 300_000,
        closed_round: 512,
        open_round: 128,
        serve_pool: 256,
        paged_seq: 48,
        paged_chunks: 8,
        cluster_queries: 32,
        cluster_ions: 300_000,
        check_queries: 32,
        setup_reps: 3,
    };

    pub fn by_name(name: &str) -> Option<Scale> {
        [Scale::DEFAULT, Scale::SMOKE]
            .into_iter()
            .find(|s| s.name == name)
    }
}

/// Corpus A's mod spec: the paper's three variable mods, capped so the
/// ≈ 7 k peptides expand ≈ 25× into ≈ 180 k theoretical spectra — the
/// paper grows its index-size sweep the same way (§V-B).
pub fn modspec_a() -> ModSpec {
    ModSpec {
        max_mods_per_peptide: 4,
        max_modforms_per_peptide: 128,
        ..ModSpec::paper_default()
    }
}

/// Corpus B's heavy mod spec: few peptides, many mod forms, so each of the
/// paged store's chunks is megabytes of postings.
pub fn modspec_b() -> ModSpec {
    ModSpec {
        max_mods_per_peptide: 5,
        max_modforms_per_peptide: 256,
        ..ModSpec::paper_default()
    }
}

/// A family-rich synthetic proteome of `num_proteins` records (same shape
/// as the figure harness's workloads: isoform families are what LBE's
/// similarity groups are made of).
fn proteome(num_proteins: usize, seed: u64) -> Vec<Protein> {
    let params = SyntheticProteomeParams {
        num_proteins,
        family_fraction: 0.72,
        mutation_rate: 0.015,
        ..Default::default()
    };
    SyntheticProteome::generate(params, seed).proteins
}

/// Theoretical fragment ions `seq` contributes to an index under
/// `modspec`: every mod form's b and y series.
pub fn peptide_ions(seq: &[u8], modspec: &ModSpec) -> u64 {
    (count_modforms(seq, modspec) * 2 * (seq.len() - 1)) as u64
}

/// The peptides `protein` adds beyond those in `seen`, and the ions they
/// index.
fn fresh_peptides(
    protein: &Protein,
    modspec: &ModSpec,
    seen: &HashSet<Vec<u8>>,
) -> (u64, HashSet<Vec<u8>>) {
    let mut fresh = HashSet::new();
    let mut ions = 0;
    for p in digest_protein(protein, 0, &DigestParams::default()) {
        if !seen.contains(p.sequence()) && fresh.insert(p.sequence().to_vec()) {
            ions += peptide_ions(p.sequence(), modspec);
        }
    }
    (ions, fresh)
}

/// A synthetic proteome whose deduplicated tryptic digest indexes
/// `target_ions` fragment ions under `modspec`, to within one peptide.
///
/// Why not "N proteins": how many of a proteome's proteins are family
/// copies — and so how many *unique* peptides it yields — swings by ±15 %
/// with the seed, and every throughput here is a function of index size.
/// Sizing by ions makes two seeds two samples of the same workload rather
/// than two workloads. The proteome is cut at the protein that crosses
/// the target, and that protein is shortened to land on it.
pub fn proteome_for_ions(target_ions: u64, modspec: &ModSpec, seed: u64) -> Vec<Protein> {
    // ≈ 75 k ions per protein under corpus A's spec; generously over.
    let mut generate = (target_ions / 20_000).max(8) as usize;
    loop {
        let mut proteins = proteome(generate, seed);
        let mut seen = HashSet::new();
        let mut ions = 0u64;
        for i in 0..proteins.len() {
            let (add, fresh) = fresh_peptides(&proteins[i], modspec, &seen);
            if ions + add < target_ions {
                ions += add;
                seen.extend(fresh);
                continue;
            }
            // Longest prefix of this protein that stays within the target.
            let full = proteins[i].clone();
            let within = |len: usize| {
                let cut = Protein::new(full.header.clone(), &full.sequence[..len]);
                ions + fresh_peptides(&cut, modspec, &seen).0 <= target_ions
            };
            let (mut lo, mut hi) = (0, full.sequence.len());
            while lo < hi {
                let mid = (lo + hi).div_ceil(2);
                if within(mid) {
                    lo = mid;
                } else {
                    hi = mid - 1;
                }
            }
            proteins[i].sequence.truncate(lo);
            proteins.truncate(i + 1);
            return proteins;
        }
        generate *= 2;
    }
}

/// Digest + dedup: the first two steps of the program's set-up. Workloads
/// call this inside their timed set-up; the generator calls it once more,
/// untimed, because query synthesis needs a peptide list to draw from.
pub fn digest_db(proteins: &[Protein]) -> PeptideDb {
    let digested =
        digest_proteome(proteins, &DigestParams::default()).expect("default digest params");
    dedup_peptides(digested).0
}

/// Abundance skew of the query streams: peptides are drawn with Zipf-like
/// weights `1/(rank+1)^skew`, as biological samples are skewed. Mild on
/// purpose: at 0.9 the ten most abundant of ≈ 7 k peptides are a fifth of
/// all queries, so their lengths (on `batch_*`: ±8 % throughput from one
/// seed to the next) or whether they share a chunk (on `serve_paged`:
/// ±12 %) decide the run, which then measures the seed and not the
/// program. At 0.5 they are 3 %.
pub const SKEW: f64 = 0.5;

/// `n` raw (un-preprocessed) query spectra drawn from `db` with
/// abundance-skewed precursor masses.
pub fn raw_queries(
    db: &PeptideDb,
    modspec: &ModSpec,
    n: usize,
    skew: f64,
    seed: u64,
) -> Vec<Spectrum> {
    SyntheticDataset::generate(
        db,
        modspec,
        &SyntheticDatasetParams {
            num_spectra: n,
            abundance_skew: skew,
            ..Default::default()
        },
        seed,
    )
    .spectra
}

/// SplitMix64: the generator's own decisions (tolerance mixes, sampling)
/// come from this, so they depend on nothing but the seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Assigns one of `mix`'s tolerances to each of `n` queries. The mix is
/// dealt in strata of `period` queries, each holding every tolerance in
/// its exact share (`share × period` must be whole) in a seeded order.
/// Stratified because the rare tolerances are the expensive ones: were
/// they merely sampled at 10 %, any few hundred queries could hold a third
/// more or fewer of them, and the run would time the draw, not the
/// program.
pub fn tolerance_mix(mix: &[(f64, f64)], period: usize, n: usize, seed: u64) -> Vec<f64> {
    let stratum: Vec<f64> = mix
        .iter()
        .flat_map(|&(share, tol)| {
            let count = share * period as f64;
            assert!(
                (count - count.round()).abs() < 1e-9,
                "share {share} of a {period}-query stratum is not whole"
            );
            std::iter::repeat_n(tol, count.round() as usize)
        })
        .collect();
    assert_eq!(stratum.len(), period, "shares must sum to 1");
    let mut rng = SplitMix64(seed);
    let mut out = Vec::with_capacity(n + period);
    while out.len() < n {
        let mut dealt = stratum.clone();
        for i in (1..dealt.len()).rev() {
            dealt.swap(i, rng.below(i as u64 + 1) as usize);
        }
        out.extend(dealt);
    }
    out.truncate(n);
    out
}

/// FNV-1a 64 over the generated inputs.
#[derive(Debug, Clone, Copy)]
pub struct InputDigest(u64);

impl Default for InputDigest {
    fn default() -> Self {
        InputDigest(0xcbf2_9ce4_8422_2325)
    }
}

impl InputDigest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn proteins(&mut self, proteins: &[Protein]) {
        self.u64(proteins.len() as u64);
        for p in proteins {
            self.bytes(&p.sequence);
            self.bytes(b"\n");
        }
    }

    pub fn spectra(&mut self, spectra: &[Spectrum]) {
        self.u64(spectra.len() as u64);
        for s in spectra {
            self.u64(s.precursor_mz.to_bits());
            self.u64(u64::from(s.charge));
            self.u64(s.peaks.len() as u64);
            for p in &s.peaks {
                self.u64(p.mz.to_bits());
                self.u64(u64::from(p.intensity.to_bits()));
            }
        }
    }

    pub fn tolerances(&mut self, tols: &[f64]) {
        for t in tols {
            self.u64(t.to_bits());
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let digest = |seed| {
            let proteins = proteome_for_ions(50_000, &modspec_a(), seed);
            let db = digest_db(&proteins);
            let queries = raw_queries(&db, &modspec_a(), 16, SKEW, seed ^ 1);
            let mut d = InputDigest::default();
            d.proteins(&proteins);
            d.spectra(&queries);
            d.hex()
        };
        assert_eq!(digest(7), digest(7));
        assert_ne!(digest(7), digest(8));
    }

    #[test]
    fn corpora_are_sized_by_ions_whatever_the_seed() {
        use lbe_index::{IndexBuilder, SlmConfig};
        for seed in [1, 2, 3] {
            let spec = modspec_a();
            let db = digest_db(&proteome_for_ions(400_000, &spec, seed));
            let ions = IndexBuilder::new(SlmConfig::default(), spec)
                .build(&db)
                .num_ions() as f64;
            // Within one peptide's ions below the target (fragments above
            // the bin table's m/z ceiling are dropped, hence the slack).
            assert!(
                (0.97..=1.0).contains(&(ions / 400_000.0)),
                "seed {seed}: {ions}"
            );
        }
    }

    #[test]
    fn tolerance_mix_has_exact_shares() {
        let mix = [(0.5, 0.01), (0.2, 1.0), (0.2, 500.0), (0.1, f64::INFINITY)];
        let tols = tolerance_mix(&mix, 10, 1000, 3);
        let count = |v: &[f64], t: f64| v.iter().filter(|&&x| x == t).count();
        // Exact shares in every stratum of ten, not only overall.
        for stratum in tols.chunks(10) {
            assert_eq!(
                (
                    count(stratum, 0.01),
                    count(stratum, 1.0),
                    count(stratum, 500.0),
                    count(stratum, f64::INFINITY)
                ),
                (5, 2, 2, 1)
            );
        }
        assert_eq!(tols, tolerance_mix(&mix, 10, 1000, 3));
        assert_ne!(tols, tolerance_mix(&mix, 10, 1000, 4));
        assert_eq!(tolerance_mix(&mix, 10, 7, 3).len(), 7);
    }
}
