//! The five workloads. Each generates its inputs from the seed, repeats
//! the program's set-up, checks outputs, then measures.

pub mod batch;
pub mod cluster;
pub mod serve;

use crate::gen;
use crate::harness::{Ctx, Outcome};
use crate::trace::{SpanId, Tracer};
use lbe_bio::fasta::Protein;
use lbe_bio::mods::ModSpec;
use lbe_bio::peptide::PeptideDb;
use lbe_core::grouping::{group_peptides, Grouping, GroupingParams};
use lbe_index::{IndexBuilder, SlmConfig, SlmIndex};
use lbe_spectra::preprocess::{preprocess_spectrum, PreprocessParams};
use lbe_spectra::spectrum::Spectrum;

/// Salt separating the query stream's seed from the proteome's.
const QUERY_SALT: u64 = 0x5eed_0f9e_71e5;

/// Runs the workload called `name`, or `None` for an unknown name.
pub fn run(name: &str, ctx: &Ctx) -> Option<Outcome> {
    Some(match name {
        "batch_closed" => batch::run(ctx, batch::Kind::Closed),
        "batch_open" => batch::run(ctx, batch::Kind::Open),
        "serve_mixed" => serve::run_mixed(ctx),
        "serve_paged" => serve::run_paged(ctx),
        "cluster_lbe" => cluster::run(ctx),
        _ => return None,
    })
}

/// A generated corpus: the proteome the program digests, and the
/// generator's own digest of it that query synthesis draws from.
pub struct Corpus {
    pub proteins: Vec<Protein>,
    pub modspec: ModSpec,
    pub gen_db: PeptideDb,
}

impl Corpus {
    /// A corpus indexing `target_ions` fragment ions under `modspec`.
    pub fn generate(target_ions: u64, modspec: ModSpec, seed: u64) -> Self {
        let proteins = gen::proteome_for_ions(target_ions, &modspec, seed);
        let gen_db = gen::digest_db(&proteins);
        Corpus {
            proteins,
            modspec,
            gen_db,
        }
    }

    /// `n` raw query spectra for this corpus, abundance-skewed by `skew`.
    pub fn raw_queries(&self, n: usize, skew: f64, seed: u64) -> Vec<Spectrum> {
        gen::raw_queries(&self.gen_db, &self.modspec, n, skew, seed ^ QUERY_SALT)
    }
}

/// The standard preprocessing, applied by the generator where a workload
/// feeds the program already-preprocessed spectra (`batch_*`,
/// `cluster_lbe`) — the served workloads send raw spectra instead.
pub fn preprocess_all(raw: &[Spectrum]) -> Vec<Spectrum> {
    let params = PreprocessParams::default();
    raw.iter()
        .map(|s| preprocess_spectrum(s, &params))
        .collect()
}

/// The program's path from proteins to a searchable index — digest, dedup,
/// group, parallel build — each step under its own span.
pub fn build_from_proteins(
    tracer: &Tracer,
    parent: Option<SpanId>,
    proteins: &[Protein],
    modspec: &ModSpec,
    threads: usize,
) -> (PeptideDb, Grouping, SlmIndex) {
    let (db, _) = tracer.span("bio.digest", parent, |_| gen::digest_db(proteins));
    let (grouping, _) = tracer.span("core.grouping", parent, |_| {
        group_peptides(&db, &GroupingParams::default())
    });
    let (index, _) = tracer.span("index.builder.build_parallel", parent, |_| {
        IndexBuilder::new(SlmConfig::default(), modspec.clone()).build_parallel(&db, threads)
    });
    tracer.count("index.builder.ions", index.num_ions() as u64);
    (db, grouping, index)
}
