//! Property-based tests over the workspace's core invariants (proptest).

use lbe::bio::aa::{neutral_mass_from_mz, peptide_neutral_mass, precursor_mz};
use lbe::bio::digest::{cleavage_sites, digest_protein, DigestParams, Enzyme};
use lbe::bio::fasta::{read_fasta, write_fasta, Protein};
use lbe::bio::mods::{count_modforms, enumerate_modforms, ModSpec, ModType, VariableMod};
use lbe::bio::peptide::{Peptide, PeptideDb};
use lbe::core::distance::{edit_distance, edit_distance_bounded};
use lbe::core::grouping::{group_peptides, Grouping, GroupingCriterion, GroupingParams};
use lbe::core::mapping::MappingTable;
use lbe::core::partition::{partition_groups, PartitionPolicy};
use lbe::index::query::brute_force_shared_peaks;
use lbe::index::{IndexBuilder, Searcher, SlmConfig};
use lbe::spectra::mgf::{read_mgf, write_mgf};
use lbe::spectra::ms2::{read_ms2, write_ms2};
use lbe::spectra::mzml::{read_mzml, write_mzml};
use lbe::spectra::spectrum::{Peak, Spectrum};
use lbe::spectra::theo::{TheoParams, TheoSpectrum};
use proptest::prelude::*;

/// Strategy: a peptide-like uppercase sequence over the 20 standard codes.
fn peptide_seq(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(
        prop::sample::select(b"ACDEFGHIKLMNPQRSTVWY".to_vec()),
        1..=max_len,
    )
}

/// Strategy: arbitrary (possibly non-standard) ASCII letter sequences.
fn letters(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(
        prop::sample::select(b"ABCDEFGHIJKLMNOPQRSTUVWXYZ".to_vec()),
        0..=max_len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------- edit distance: metric axioms + band agreement ----------

    #[test]
    fn edit_distance_identity(a in letters(24)) {
        prop_assert_eq!(edit_distance(&a, &a), 0);
    }

    #[test]
    fn edit_distance_symmetry(a in letters(20), b in letters(20)) {
        prop_assert_eq!(edit_distance(&a, &b), edit_distance(&b, &a));
    }

    #[test]
    fn edit_distance_triangle(a in letters(12), b in letters(12), c in letters(12)) {
        let ab = edit_distance(&a, &b);
        let bc = edit_distance(&b, &c);
        let ac = edit_distance(&a, &c);
        prop_assert!(ac <= ab + bc);
    }

    #[test]
    fn edit_distance_bounded_by_max_len(a in letters(20), b in letters(20)) {
        let d = edit_distance(&a, &b);
        prop_assert!(d <= a.len().max(b.len()));
        prop_assert!(d >= a.len().abs_diff(b.len()));
    }

    #[test]
    fn banded_agrees_with_full(a in letters(20), b in letters(20), k in 0usize..12) {
        let full = edit_distance(&a, &b);
        match edit_distance_bounded(&a, &b, k) {
            Some(d) => prop_assert_eq!(d, full),
            None => prop_assert!(full > k),
        }
    }

    // ---------- mass computation ----------

    #[test]
    fn peptide_mass_positive_and_additive(a in peptide_seq(30), b in peptide_seq(30)) {
        let ma = peptide_neutral_mass(&a).unwrap();
        let mb = peptide_neutral_mass(&b).unwrap();
        let mut ab = a.clone();
        ab.extend_from_slice(&b);
        let mab = peptide_neutral_mass(&ab).unwrap();
        // Concatenation: one fewer water than the sum of both.
        let water = lbe::bio::aa::WATER_MASS;
        prop_assert!((mab - (ma + mb - water)).abs() < 1e-6);
        prop_assert!(ma > 0.0);
    }

    #[test]
    fn mz_round_trip(mass in 100.0f64..5000.0, z in 1u8..5) {
        let mz = precursor_mz(mass, z);
        prop_assert!((neutral_mass_from_mz(mz, z) - mass).abs() < 1e-9);
    }

    // ---------- digestion ----------

    #[test]
    fn digestion_respects_windows(seq in peptide_seq(120)) {
        let params = DigestParams::default();
        let protein = Protein::new("p", &seq);
        for pep in digest_protein(&protein, 0, &params) {
            prop_assert!(pep.len() >= params.min_len && pep.len() <= params.max_len);
            prop_assert!(pep.mass() >= params.min_mass && pep.mass() <= params.max_mass);
        }
    }

    #[test]
    fn zero_missed_cleavage_fragments_tile_protein(seq in peptide_seq(100)) {
        // With no windows and 0 missed cleavages, fragments reassemble the
        // protein exactly.
        let params = DigestParams {
            max_missed_cleavages: 0,
            min_len: 1,
            max_len: 10_000,
            min_mass: 0.0,
            max_mass: f64::INFINITY,
            ..DigestParams::default()
        };
        let protein = Protein::new("p", &seq);
        let peps = digest_protein(&protein, 0, &params);
        let joined: Vec<u8> = peps.iter().flat_map(|p| p.sequence().to_vec()).collect();
        prop_assert_eq!(joined, seq);
    }

    #[test]
    fn cleavage_sites_follow_keil_rule(seq in peptide_seq(80)) {
        let sites = cleavage_sites(&seq, Enzyme::Trypsin);
        for &s in &sites[1..sites.len().saturating_sub(1)] {
            prop_assert!(matches!(seq[s - 1], b'K' | b'R'));
            prop_assert!(seq[s] != b'P');
        }
    }

    #[test]
    fn missed_cleavage_count_spans(seq in peptide_seq(100), mc in 0u8..4) {
        let params = DigestParams {
            max_missed_cleavages: mc,
            min_len: 1,
            max_len: 10_000,
            min_mass: 0.0,
            max_mass: f64::INFINITY,
            ..DigestParams::default()
        };
        let protein = Protein::new("p", &seq);
        for pep in digest_protein(&protein, 0, &params) {
            prop_assert!(pep.missed_cleavages() <= mc);
        }
    }

    // ---------- modforms ----------

    #[test]
    fn modforms_unique_and_bounded(seq in peptide_seq(12)) {
        let spec = ModSpec::paper_default();
        let forms = enumerate_modforms(&seq, &spec);
        prop_assert!(!forms.is_empty());
        prop_assert!(forms[0].is_unmodified());
        prop_assert!(forms.len() <= spec.max_modforms_per_peptide);
        let mut sites: Vec<_> = forms.iter().map(|f| f.sites.clone()).collect();
        let n = sites.len();
        sites.sort();
        sites.dedup();
        prop_assert_eq!(sites.len(), n, "duplicate modforms");
        for f in &forms {
            prop_assert!(f.num_mods() <= spec.max_mods_per_peptide);
        }
    }

    /// The closed-form count is the enumeration's length for every cap —
    /// including caps the walk overshoots (it visits two forms before it
    /// first looks at the cap) — and with two mods competing for a residue.
    #[test]
    fn count_modforms_equals_enumeration_length(
        seq in prop::collection::vec(prop::sample::select(b"AGMNQKCW".to_vec()), 1..=10),
        cap in prop::sample::select(vec![1usize, 2, 7, 128, usize::MAX]),
        max_mods in 0usize..=5,
        spec_ix in 0usize..3,
    ) {
        let two_on_one = ModSpec {
            mods: vec![
                VariableMod::new(ModType::Deamidation, b"NQ"),
                VariableMod::new(ModType::Custom(10.0), b"NK"),
            ],
            ..ModSpec::none()
        };
        let spec = ModSpec {
            max_mods_per_peptide: max_mods,
            max_modforms_per_peptide: cap,
            ..[ModSpec::oxidation_only(), ModSpec::paper_default(), two_on_one][spec_ix].clone()
        };
        prop_assert_eq!(
            count_modforms(&seq, &spec),
            enumerate_modforms(&seq, &spec).len(),
            "{:?} under {:?}", String::from_utf8_lossy(&seq), spec
        );
    }

    // ---------- theoretical spectra ----------

    #[test]
    fn theo_spectrum_fragments_below_precursor(seq in peptide_seq(25)) {
        prop_assume!(seq.len() >= 2);
        let theo = TheoSpectrum::from_sequence(
            &seq,
            &lbe::bio::mods::ModForm::unmodified(),
            &ModSpec::none(),
            &TheoParams::default(),
        );
        prop_assert_eq!(theo.fragment_count(), 2 * (seq.len() - 1));
        let limit = theo.precursor_mass + 2.0 * lbe::bio::aa::PROTON_MASS;
        for &mz in &theo.fragment_mzs {
            prop_assert!(mz > 0.0 && mz < limit);
        }
        prop_assert!(theo.fragment_mzs.windows(2).all(|w| w[0] <= w[1]));
    }

    // ---------- grouping ----------

    #[test]
    fn grouping_is_exact_cover(seqs in prop::collection::vec(peptide_seq(15), 1..40), gsize in 1usize..10) {
        let db = PeptideDb::from_vec(
            seqs.iter().map(|s| Peptide::new(s, 0, 0).unwrap()).collect(),
        );
        let g = group_peptides(&db, &GroupingParams {
            criterion: GroupingCriterion::Absolute { d: 2 },
            gsize,
        });
        prop_assert!(g.validate().is_ok());
        prop_assert!(g.group_sizes.iter().all(|&s| s as usize <= gsize));
        prop_assert_eq!(g.num_peptides(), db.len());
    }

    // ---------- partitioning + mapping ----------

    #[test]
    fn partitions_are_exact_covers(
        n in 0usize..200,
        p in 1usize..20,
        seed in any::<u64>(),
        policy_idx in 0usize..4,
    ) {
        let grouping = Grouping::trivial(n);
        let policy = match policy_idx {
            0 => PartitionPolicy::Chunk,
            1 => PartitionPolicy::Cyclic,
            2 => PartitionPolicy::Random { seed },
            _ => PartitionPolicy::RandomWithinGroups { seed },
        };
        let part = partition_groups(&grouping, p, policy);
        prop_assert!(part.validate(n).is_ok());
        let (min, max) = part.load_spread();
        prop_assert!(max - min <= 1, "{policy}: {min}..{max}");
        // Mapping table round trip.
        let map = MappingTable::from_partition(&part);
        for (m, list) in part.ranks.iter().enumerate() {
            for (local, &global) in list.iter().enumerate() {
                prop_assert_eq!(map.global_of(m, local as u32), global);
            }
        }
    }

    // ---------- quantization/tolerance ----------

    #[test]
    fn nearby_mz_within_tolerance_bins(mz in 50.0f64..4000.0, delta in -0.04f64..0.04) {
        let cfg = SlmConfig::default();
        let a = cfg.bin_of(mz).unwrap();
        let b = cfg.bin_of(mz + delta).unwrap();
        prop_assert!(a.abs_diff(b) <= cfg.tolerance_bins());
    }

    // ---------- file formats ----------

    #[test]
    fn fasta_round_trip(records in prop::collection::vec((r"[a-zA-Z0-9 |_.-]{1,30}", peptide_seq(80)), 0..8)) {
        let proteins: Vec<Protein> = records
            .iter()
            .map(|(h, s)| Protein::new(h.trim(), s))
            .collect();
        let mut buf = Vec::new();
        write_fasta(&mut buf, &proteins).unwrap();
        let back = read_fasta(&buf[..]).unwrap();
        prop_assert_eq!(back, proteins);
    }

    #[test]
    fn ms2_round_trip(
        spectra in prop::collection::vec(
            (1u32..100_000, 100.0f64..2000.0, 1u8..5,
             prop::collection::vec((50.0f64..3000.0, 0.1f32..1e5), 0..40)),
            0..6,
        )
    ) {
        let spectra: Vec<Spectrum> = spectra
            .into_iter()
            .map(|(scan, pmz, z, peaks)| {
                Spectrum::new(scan, pmz, z, peaks.into_iter().map(|(m, i)| Peak::new(m, i)).collect())
            })
            .collect();
        let mut buf = Vec::new();
        write_ms2(&mut buf, &spectra).unwrap();
        let back = read_ms2(&buf[..]).unwrap();
        prop_assert_eq!(back.len(), spectra.len());
        for (a, b) in back.iter().zip(&spectra) {
            prop_assert_eq!(a.scan, b.scan);
            prop_assert_eq!(a.charge, b.charge);
            prop_assert!((a.precursor_mz - b.precursor_mz).abs() < 1e-4);
            prop_assert_eq!(a.peak_count(), b.peak_count());
            for (pa, pb) in a.peaks.iter().zip(&b.peaks) {
                prop_assert!((pa.mz - pb.mz).abs() < 1e-4);
                prop_assert!((pa.intensity - pb.intensity).abs() / pb.intensity.max(1.0) < 0.01);
            }
        }
    }

    #[test]
    fn mzml_round_trip_bit_exact(
        spectra in prop::collection::vec(
            (1u32..100_000, 100.0f64..2000.0, 1u8..5,
             prop::collection::vec((50.0f64..3000.0, 0.1f32..1e5), 0..25)),
            0..5,
        )
    ) {
        let spectra: Vec<Spectrum> = spectra
            .into_iter()
            .map(|(scan, pmz, z, peaks)| {
                Spectrum::new(scan, pmz, z, peaks.into_iter().map(|(m, i)| Peak::new(m, i)).collect())
            })
            .collect();
        let mut buf = Vec::new();
        write_mzml(&mut buf, &spectra).unwrap();
        let back = read_mzml(&buf[..]).unwrap();
        prop_assert_eq!(back.len(), spectra.len());
        for (a, b) in back.iter().zip(&spectra) {
            prop_assert_eq!(a.scan, b.scan);
            prop_assert_eq!(a.charge, b.charge);
            // Binary arrays are bit-exact, unlike the text formats.
            prop_assert_eq!(&a.peaks, &b.peaks);
        }
    }

    #[test]
    fn base64_round_trip(data in prop::collection::vec(any::<u8>(), 0..200)) {
        let encoded = lbe::spectra::base64::encode(&data);
        prop_assert_eq!(lbe::spectra::base64::decode(&encoded).unwrap(), data);
    }

    #[test]
    fn mgf_round_trip(
        spectra in prop::collection::vec(
            (1u32..100_000, 100.0f64..2000.0, 1u8..5,
             prop::collection::vec((50.0f64..3000.0, 0.1f32..1e5), 0..20)),
            0..5,
        )
    ) {
        let spectra: Vec<Spectrum> = spectra
            .into_iter()
            .map(|(scan, pmz, z, peaks)| {
                Spectrum::new(scan, pmz, z, peaks.into_iter().map(|(m, i)| Peak::new(m, i)).collect())
            })
            .collect();
        let mut buf = Vec::new();
        write_mgf(&mut buf, &spectra).unwrap();
        let back = read_mgf(&buf[..]).unwrap();
        prop_assert_eq!(back.len(), spectra.len());
        for (a, b) in back.iter().zip(&spectra) {
            prop_assert_eq!(a.scan, b.scan);
            prop_assert_eq!(a.charge, b.charge);
            prop_assert_eq!(a.peak_count(), b.peak_count());
        }
    }
}

proptest! {
    // Heavier cases: fewer iterations.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn searcher_counts_match_brute_force(
        seqs in prop::collection::vec(peptide_seq(14), 2..10),
        peaks in prop::collection::vec((100.0f64..1500.0, 1.0f32..100.0), 1..40),
        pmz in 200.0f64..1200.0,
    ) {
        let db = PeptideDb::from_vec(
            seqs.iter().map(|s| Peptide::new(s, 0, 0).unwrap()).collect(),
        );
        let cfg = SlmConfig {
            shared_peak_threshold: 1,
            top_k: usize::MAX,
            ..SlmConfig::default()
        };
        let idx = IndexBuilder::new(cfg.clone(), ModSpec::none()).build(&db);
        let q = Spectrum::new(0, pmz, 2, peaks.iter().map(|&(m, i)| Peak::new(m, i)).collect());
        let mut searcher = Searcher::new(&idx);
        let r = searcher.search(&q);
        // The index may hold duplicate sequences (proptest can generate
        // them); compare per entry, aggregating by peptide id only when
        // sequences are unique.
        let mut unique = seqs.clone();
        unique.sort();
        unique.dedup();
        prop_assume!(unique.len() == seqs.len());
        for (pid, pep) in db.iter() {
            let theo = TheoSpectrum::from_sequence(
                pep.sequence(),
                &lbe::bio::mods::ModForm::unmodified(),
                &ModSpec::none(),
                &cfg.theo,
            );
            let expect = brute_force_shared_peaks(&cfg, &q, &theo);
            let got = r.psms.iter().find(|p| p.peptide == pid).map(|p| p.shared_peaks).unwrap_or(0);
            prop_assert_eq!(got, expect, "peptide {}", pid);
        }
    }

    #[test]
    fn index_validates_for_random_databases(
        seqs in prop::collection::vec(peptide_seq(20), 0..30),
        use_mods in any::<bool>(),
    ) {
        let db = PeptideDb::from_vec(
            seqs.iter().map(|s| Peptide::new(s, 0, 0).unwrap()).collect(),
        );
        let spec = if use_mods { ModSpec::paper_default() } else { ModSpec::none() };
        let mut builder = IndexBuilder::new(SlmConfig::default(), spec);
        let idx = builder.build(&db);
        prop_assert!(idx.validate().is_ok());
        prop_assert_eq!(builder.stats().ions, idx.num_ions());
    }
}

// ---------------------------------------------------------------------------
// Sparse bin directory ≡ dense CSR oracle.
//
// The index keeps a sparse directory (occupancy bitmap + offsets of the
// occupied bins). The oracle below *is* a dense CSR, built by hand; the
// current-layout file it is handed to the index through carries a
// directory derived from it by plain loops here — not by the crate's own
// dense-to-sparse conversion — so every lookup the directory answers can
// be checked against plain slicing.
// ---------------------------------------------------------------------------

mod bin_directory_oracle {
    use lbe::index::format::{crc32, section_name, write_container, SectionPlan};
    use lbe::index::io::MAGIC_V2;
    use lbe::index::query::AUTO_FULL_SCAN_COVERAGE;
    use lbe::index::{
        read_index, write_index, QueryOptions, QueryStats, ScanMode, Searcher, SlmConfig, SlmIndex,
        FLAG_MASS_SORTED,
    };
    use lbe::spectra::spectrum::{Peak, Spectrum};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// A hand-built index: dense CSR over `num_bins` unit-width bins.
    struct Dense {
        cfg: SlmConfig,
        /// Ascending precursor masses, one per entry.
        masses: Vec<f32>,
        /// `num_bins + 1` row pointers.
        offsets: Vec<u64>,
        /// Entry ids, ascending within each bin (duplicates allowed).
        postings: Vec<u32>,
    }

    impl Dense {
        fn num_bins(&self) -> usize {
            self.offsets.len() - 1
        }

        fn bin(&self, b: usize) -> &[u32] {
            &self.postings[self.offsets[b] as usize..self.offsets[b + 1] as usize]
        }

        /// The inclusive bin window of `mz`, as the index defines it.
        fn window(&self, mz: f64) -> Option<(usize, usize)> {
            let center = self.cfg.bin_of(mz)? as usize;
            let t = self.cfg.tolerance_bins() as usize;
            Some((
                center.saturating_sub(t),
                (center + t).min(self.num_bins() - 1),
            ))
        }

        fn generate(seed: u64) -> Dense {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let num_bins = [2usize, 64, 65, 128, 129, 200, 1000][rng.gen_range(0..7usize)];
            let tol_bins = [0u32, 1, 5, 70][rng.gen_range(0..4usize)];
            let cfg = SlmConfig {
                resolution: 1.0,
                fragment_tolerance: tol_bins as f64,
                max_fragment_mz: (num_bins - 1) as f64,
                shared_peak_threshold: 1,
                top_k: usize::MAX,
                ..SlmConfig::default()
            };
            assert_eq!(cfg.num_bins(), num_bins);
            // Occupancy shapes, each hit many times over a run: nothing
            // occupied; everything inside one bitmap word; the word edges
            // (0, 63, 64) and the last bin forced on top of a random fill.
            let shape = seed % 4;
            let num_entries = if shape == 0 {
                0
            } else {
                rng.gen_range(1..=20u32)
            };
            let density = [0.02, 0.3, 0.9][rng.gen_range(0..3usize)];
            let occupied = |b: usize, rng: &mut ChaCha8Rng| match shape {
                0 => false,
                1 => (64..128).contains(&b) && rng.gen_bool(0.5),
                _ => [0, 63, 64, num_bins - 1].contains(&b) || rng.gen_bool(density),
            };
            let mut offsets = vec![0u64];
            let mut postings = Vec::new();
            for b in 0..num_bins {
                if occupied(b, &mut rng) {
                    let mut run: Vec<u32> = (0..rng.gen_range(1..=6))
                        .map(|_| rng.gen_range(0..num_entries))
                        .collect();
                    run.sort_unstable();
                    postings.extend(run);
                }
                offsets.push(postings.len() as u64);
            }
            let mut mass = 500.0f32;
            let masses = (0..num_entries)
                .map(|_| {
                    mass += rng.gen_range(0..30) as f32;
                    mass
                })
                .collect();
            Dense {
                cfg,
                masses,
                offsets,
                postings,
            }
        }

        fn config_bytes(&self) -> Vec<u8> {
            let c = &self.cfg;
            let mut b = Vec::new();
            b.extend_from_slice(&c.resolution.to_le_bytes());
            b.extend_from_slice(&c.fragment_tolerance.to_le_bytes());
            b.extend_from_slice(&c.precursor_tolerance.to_le_bytes());
            b.extend_from_slice(&c.shared_peak_threshold.to_le_bytes());
            b.extend_from_slice(&c.max_fragment_mz.to_le_bytes());
            b.extend_from_slice(&[c.theo.b_ions as u8, c.theo.y_ions as u8]);
            b.push(c.theo.charges.len() as u8);
            b.extend_from_slice(&c.theo.charges);
            b.extend_from_slice(&(c.top_k as u64).to_le_bytes());
            b
        }

        fn entry_bytes(&self) -> Vec<u8> {
            let mut b = Vec::new();
            for (id, &mass) in self.masses.iter().enumerate() {
                let fragments = self.postings.iter().filter(|&&e| e as usize == id).count();
                b.extend_from_slice(&(id as u32).to_le_bytes());
                b.extend_from_slice(&0u16.to_le_bytes());
                b.extend_from_slice(&(fragments as u16).to_le_bytes());
                b.extend_from_slice(&mass.to_le_bytes());
            }
            b
        }

        fn posting_bytes(&self) -> Vec<u8> {
            self.postings.iter().flat_map(|p| p.to_le_bytes()).collect()
        }

        /// The `LBESLM2` container of this CSR: its sparse bin directory —
        /// one bitmap bit and one `binptr` offset per occupied bin, then
        /// the posting count — written out by plain loops.
        fn file(&self) -> Vec<u8> {
            let mut binmap = vec![0u64; self.num_bins() / 64 + 1];
            let mut binptr = Vec::new();
            for b in 0..self.num_bins() {
                if !self.bin(b).is_empty() {
                    binmap[b / 64] |= 1 << (b % 64);
                    binptr.push(self.offsets[b] as u32);
                }
            }
            binptr.push(self.postings.len() as u32);
            let payloads = [
                ("config", self.config_bytes()),
                ("flags", FLAG_MASS_SORTED.to_le_bytes().to_vec()),
                ("entries", self.entry_bytes()),
                (
                    "binmap",
                    binmap.iter().flat_map(|w| w.to_le_bytes()).collect(),
                ),
                (
                    "binptr",
                    binptr.iter().flat_map(|o| o.to_le_bytes()).collect(),
                ),
                ("postings", self.posting_bytes()),
            ];
            let plans: Vec<SectionPlan> = payloads
                .iter()
                .map(|(name, p)| SectionPlan {
                    name: section_name(name),
                    len: p.len() as u64,
                    crc: crc32(p),
                })
                .collect();
            let mut f = Vec::new();
            write_container(&mut f, MAGIC_V2, &plans, |i, w| w.write_all(&payloads[i].1)).unwrap();
            f
        }

        /// What the kernel must report for `q` at ΔM = `tol`: work
        /// counters and `(entry, shared peaks)` per candidate, from plain
        /// loops over the dense rows. `band` is the admitted entry range
        /// when the banded path applies.
        fn search(
            &self,
            q: &Spectrum,
            tol: f64,
            band: Option<(u32, u32)>,
        ) -> (QueryStats, Vec<(u32, u16)>) {
            let mut stats = QueryStats {
                peaks: q.peaks.len() as u64,
                ..Default::default()
            };
            let mut shared = vec![0u16; self.masses.len()];
            for peak in &q.peaks {
                let Some((lo, hi)) = self.window(peak.mz) else {
                    continue;
                };
                stats.bins_touched += (hi - lo + 1) as u64;
                for b in lo..=hi {
                    let run = self.bin(b);
                    let Some((blo, bhi)) = band else {
                        stats.postings_scanned += run.len() as u64;
                        run.iter().for_each(|&e| shared[e as usize] += 1);
                        continue;
                    };
                    let (Some(&first), Some(&last)) = (run.first(), run.last()) else {
                        continue;
                    };
                    let admitted = run.iter().filter(|&&e| (blo..bhi).contains(&e));
                    let n = admitted.clone().count();
                    stats.postings_scanned += n as u64;
                    stats.postings_skipped_by_band += (run.len() - n) as u64;
                    if last < blo || first >= bhi {
                        stats.bins_pruned_by_band += 1;
                    }
                    admitted.for_each(|&e| shared[e as usize] += 1);
                }
            }
            let qm = q.precursor_neutral_mass();
            let candidates: Vec<(u32, u16)> = shared
                .iter()
                .enumerate()
                .filter(|&(e, &n)| {
                    n >= self.cfg.shared_peak_threshold
                        && SlmConfig::precursor_admits_with(tol, qm, self.masses[e] as f64)
                })
                .map(|(e, &n)| (e as u32, n))
                .collect();
            stats.candidates = candidates.len() as u64;
            (stats, candidates)
        }
    }

    /// Every directory-answered lookup of `idx` against the dense rows.
    fn check_lookups(d: &Dense, idx: &SlmIndex, rng: &mut ChaCha8Rng) -> Result<(), String> {
        let num_bins = d.num_bins();
        for b in 0..num_bins {
            if idx.bin_postings(b as u32) != d.bin(b) {
                return Err(format!("bin_postings({b})"));
            }
        }
        for beyond in [num_bins as u32, num_bins as u32 + 63, u32::MAX] {
            if !idx.bin_postings(beyond).is_empty() {
                return Err(format!("bin_postings({beyond}) beyond the axis"));
            }
        }
        let n = d.masses.len() as u32;
        let mzs = (0..num_bins).map(|b| b as f64).chain([
            -1.0,
            num_bins as f64 + 0.4,
            0.49,
            num_bins as f64 - 1.49,
        ]);
        for mz in mzs {
            let want: Vec<u32> = match d.window(mz) {
                Some((lo, hi)) => (lo..=hi).flat_map(|b| d.bin(b).iter().copied()).collect(),
                None => Vec::new(),
            };
            let want_bins = d.window(mz).map_or(0, |(lo, hi)| (hi - lo + 1) as u32);
            let mut got = Vec::new();
            let bins = idx.for_postings_near(mz, |e| got.push(e));
            if (bins, &got) != (want_bins, &want) {
                return Err(format!("for_postings_near({mz})"));
            }
            let lo = rng.gen_range(0..=n);
            let hi = rng.gen_range(lo..=n + 1);
            let mut got = Vec::new();
            let (bins, skipped) = idx.for_postings_near_in_entry_band(mz, lo, hi, |e| got.push(e));
            let in_band: Vec<u32> = want
                .iter()
                .copied()
                .filter(|e| (lo..hi).contains(e))
                .collect();
            if (bins, skipped, &got) != (want_bins, (want.len() - in_band.len()) as u64, &in_band) {
                return Err(format!("for_postings_near_in_entry_band({mz}, {lo}, {hi})"));
            }
        }
        Ok(())
    }

    /// `Searcher` over `idx` against the oracle's plain loops: same PSMs,
    /// same work counters, on both scan paths.
    fn check_searches(d: &Dense, idx: &SlmIndex, rng: &mut ChaCha8Rng) -> Result<(), String> {
        let n = d.masses.len() as u32;
        let mut searcher = Searcher::new(idx);
        for _ in 0..6 {
            let peaks = (0..rng.gen_range(0..12))
                .map(|_| Peak::new(rng.gen_range(0..d.num_bins() + 2) as f64 - 1.0, 10.0))
                .collect();
            let mass = match n {
                0 => 700.0,
                _ => d.masses[rng.gen_range(0..n) as usize] as f64,
            };
            let q = Spectrum::new(0, lbe::bio::aa::precursor_mz(mass, 2), 2, peaks);
            let qm = q.precursor_neutral_mass();
            for tol in [f64::INFINITY, 45.0, 0.5] {
                for mode in [ScanMode::Auto, ScanMode::FullScan] {
                    let band = (mode == ScanMode::Auto && tol.is_finite())
                        .then(|| idx.entry_range_for_mass_band(qm - tol, qm + tol))
                        .filter(|&(lo, hi)| {
                            n > 0 && ((hi - lo) as f64 / n as f64) < AUTO_FULL_SCAN_COVERAGE
                        });
                    let (stats, candidates) = d.search(&q, tol, band);
                    let opts = QueryOptions {
                        scan_mode: mode,
                        precursor_tolerance: Some(tol),
                        ..Default::default()
                    };
                    let got = searcher.search_with_opts(&q, &opts);
                    let mut psms: Vec<(u32, u16)> =
                        got.psms.iter().map(|p| (p.entry, p.shared_peaks)).collect();
                    psms.sort_unstable();
                    if got.stats != stats || psms != candidates {
                        return Err(format!(
                            "search at ΔM {tol} {mode:?}: {:?} vs oracle {stats:?}",
                            got.stats
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// One case: a dense CSR drawn from `seed`, written as a current
    /// `LBESLM2` file and loaded as arena views — which the writer must
    /// serialize back to the same bytes, so the hand-built file is one the
    /// writer itself would produce.
    pub fn check_case(seed: u64) -> Result<(), String> {
        let d = Dense::generate(seed);
        let file = d.file();
        let idx = read_index(&file[..]).map_err(|e| format!("load: {e}"))?;
        if !idx.is_arena_backed() {
            return Err("index did not load as arena views".into());
        }
        let mut rewritten = Vec::new();
        write_index(&mut rewritten, &idx).map_err(|e| e.to_string())?;
        if rewritten != file {
            return Err("the writer does not reproduce the hand-built file".into());
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
        check_lookups(&d, &idx, &mut rng)?;
        check_searches(&d, &idx, &mut rng)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bin_directory_agrees_with_dense_csr_oracle(seed in any::<u64>()) {
        if let Err(what) = bin_directory_oracle::check_case(seed) {
            prop_assert!(false, "case seed {:#x}: {}", seed, what);
        }
    }
}

/// The kernel's findings *and its work accounting* on the checked-in
/// corpus, pinned to `tests/data/expected_query_stats.tsv` — generated by
/// the commit before the sparse bin directory (dense row pointers), so a
/// directory walk that visits, prunes, scans or skips differently from the
/// dense walk fails here even when the ranked PSMs still agree. Four
/// tolerances × both scan paths × the 24 corpus spectra. Regenerate (only
/// for an intended accounting change) with `LBE_REGENERATE_GOLDEN=1`.
#[test]
fn searcher_psms_and_stats_match_golden_on_regression_corpus() {
    use lbe::core::ingest::{load_proteome_digested, load_queries};
    use lbe::index::{QueryOptions, ScanMode};
    use std::fmt::Write;

    let data = |name: &str| format!("{}/tests/data/{name}", env!("CARGO_MANIFEST_DIR"));
    let (db, _) = load_proteome_digested(data("corpus.fasta"), &DigestParams::default()).unwrap();
    let (queries, _) = load_queries(data("corpus.mgf"), &Default::default()).unwrap();
    let index = IndexBuilder::new(SlmConfig::default(), ModSpec::paper_default()).build(&db);
    let mut searcher = Searcher::new(&index);
    let mut report = String::from(
        "tolerance\tmode\tscan\tpeaks\tbins_touched\tbins_pruned_by_band\tpostings_scanned\t\
         postings_skipped_by_band\tcandidates\tpsms(peptide:modform:shared:score_bits)\n",
    );
    for tol in [0.01, 1.0, 500.0, f64::INFINITY] {
        for mode in [ScanMode::Auto, ScanMode::FullScan] {
            let opts = QueryOptions {
                scan_mode: mode,
                precursor_tolerance: Some(tol),
                ..Default::default()
            };
            for q in &queries {
                let r = searcher.search_with_opts(q, &opts);
                let s = r.stats;
                let psms: Vec<String> = r
                    .psms
                    .iter()
                    .map(|p| {
                        let bits = p.score.to_bits();
                        format!("{}:{}:{}:{bits:08x}", p.peptide, p.modform, p.shared_peaks)
                    })
                    .collect();
                writeln!(
                    report,
                    "{tol}\t{mode:?}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                    q.scan,
                    s.peaks,
                    s.bins_touched,
                    s.bins_pruned_by_band,
                    s.postings_scanned,
                    s.postings_skipped_by_band,
                    s.candidates,
                    psms.join(","),
                )
                .unwrap();
            }
        }
    }
    let golden = data("expected_query_stats.tsv");
    if std::env::var_os("LBE_REGENERATE_GOLDEN").is_some() {
        std::fs::write(&golden, &report).unwrap();
    }
    let want = std::fs::read_to_string(&golden).unwrap();
    for (n, (got, want)) in report.lines().zip(want.lines()).enumerate() {
        assert_eq!(got, want, "line {}", n + 1);
    }
    assert_eq!(report.lines().count(), want.lines().count());
}
