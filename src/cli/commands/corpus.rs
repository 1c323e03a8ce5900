//! Corpus tools: `synth-proteome`, `digest`, `cluster-db`, `synth-queries`.

use super::*;
use lbe_bio::fasta::{write_fasta_path, Protein};
use lbe_bio::synthetic::{SyntheticProteome, SyntheticProteomeParams};
use lbe_core::grouping::group_peptides;
use lbe_spectra::mgf::write_mgf;
use lbe_spectra::ms2::write_ms2_path;
use lbe_spectra::mzml::write_mzml_path;
use lbe_spectra::synthetic::{SyntheticDataset, SyntheticDatasetParams};

fn write_peptide_fasta(
    path: &str,
    db: &PeptideDb,
    header: impl Fn(u32) -> String,
) -> Result<(), CmdError> {
    let records: Vec<Protein> = db
        .iter()
        .map(|(id, p)| Protein::new(header(id), p.sequence()))
        .collect();
    write_fasta_path(path, &records)?;
    Ok(())
}

pub(super) fn synth_proteome(args: &Args, out: &mut dyn Write) -> Result<(), CmdError> {
    let path = args.require(&OUT)?;
    let params = SyntheticProteomeParams {
        num_proteins: args.value(&PROTEINS)?,
        mean_protein_len: args.value(&MEAN_LEN)?,
        family_fraction: args.value(&FAMILY_FRACTION)?,
        ..Default::default()
    };
    let seed = args.value(&PROTEOME_SEED)?;
    let proteome = SyntheticProteome::generate(params, seed);
    write_fasta_path(path, &proteome.proteins)?;
    writeln!(
        out,
        "wrote {} proteins ({} residues) to {path}",
        proteome.proteins.len(),
        proteome.total_residues()
    )?;
    Ok(())
}

pub(super) fn digest(args: &Args, out: &mut dyn Write) -> Result<(), CmdError> {
    let input = args.require(&IN)?;
    let output = args.require(&OUT)?;
    let params = DigestParams {
        max_missed_cleavages: args.value(&MISSED_CLEAVAGES)?,
        min_len: args.value(&MIN_LEN)?,
        max_len: args.value(&MAX_LEN)?,
        ..Default::default()
    };
    // Stream the proteome: one protein resident at a time, counted as
    // records flow through the digest.
    let mut proteins = 0usize;
    let counted = lbe_bio::fasta::FastaReader::open(input)?.inspect(|r| {
        if r.is_ok() {
            proteins += 1;
        }
    });
    let digested: Vec<lbe_bio::peptide::Peptide> =
        lbe_bio::digest::digest_stream(counted, &params)?.collect::<Result<_, _>>()?;
    let before = digested.len();
    let (db, stats) = lbe_bio::dedup::dedup_peptides(PeptideDb::from_vec(digested));
    write_peptide_fasta(output, &db, |id| format!("pep{:07}", id))?;
    writeln!(
        out,
        "digested {proteins} proteins -> {before} peptides -> {} unique ({:.1}% redundant), wrote {output}",
        db.len(),
        stats.redundancy() * 100.0
    )?;
    Ok(())
}

pub(super) fn cluster_db(args: &Args, out: &mut dyn Write) -> Result<(), CmdError> {
    let input = args.require(&IN)?;
    let output = args.require(&OUT)?;
    let criterion = match args.value::<u8>(&CRITERION)? {
        1 => GroupingCriterion::Absolute { d: args.value(&D)? },
        2 => GroupingCriterion::Normalized {
            d_prime: args.value(&D_PRIME)?,
        },
        other => {
            return Err(Box::new(ArgError(format!(
                "--criterion must be 1 or 2, got {other}"
            ))))
        }
    };
    let params = GroupingParams {
        criterion,
        gsize: args.value(&GSIZE)?,
    };
    let db = load_peptide_db(input)?;
    let grouping = group_peptides(&db, &params);
    // Emit the clustered database: groups concatenated in grouped order
    // (§III-C.2), group id recorded in each header.
    let records: Vec<Protein> = grouping
        .iter_groups()
        .enumerate()
        .flat_map(|(gi, group)| group.iter().map(move |&pid| (gi, pid)))
        .map(|(gi, pid)| {
            Protein::new(
                format!("group{:06}|pep{:07}", gi, pid),
                db.get(pid).sequence(),
            )
        })
        .collect();
    write_fasta_path(output, &records)?;
    writeln!(
        out,
        "grouped {} peptides into {} groups (mean size {:.2}), wrote {output}",
        grouping.num_peptides(),
        grouping.num_groups(),
        grouping.mean_group_size()
    )?;
    Ok(())
}

pub(super) fn synth_queries(args: &Args, out: &mut dyn Write) -> Result<(), CmdError> {
    let db_path = args.require(&DB)?;
    let output = args.require(&OUT)?;
    let db = load_peptide_db(db_path)?;
    let modspec = parse_mods(args)?;
    let params = SyntheticDatasetParams {
        num_spectra: args.value(&N)?,
        abundance_skew: args.value(&SKEW)?,
        ..Default::default()
    };
    let seed = args.value(&SEED)?;
    let dataset = SyntheticDataset::generate(&db, &modspec, &params, seed);
    match args.require(&FORMAT)? {
        "ms2" => write_ms2_path(output, &dataset.spectra)?,
        "mzml" => write_mzml_path(output, &dataset.spectra)?,
        "mgf" => write_mgf(
            std::fs::File::create(output).map_err(lbe_bio::error::BioError::Io)?,
            &dataset.spectra,
        )?,
        other => {
            return Err(Box::new(ArgError(format!(
                "unknown --format {other:?} (ms2|mzml|mgf)"
            ))))
        }
    }
    writeln!(
        out,
        "wrote {} query spectra to {output} (ground truth: scan i <- peptide {{truth[i]}})",
        dataset.len()
    )?;
    Ok(())
}
