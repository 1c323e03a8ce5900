//! `lbe` — the command-line front end.
//!
//! ```text
//! lbe synth-proteome --out prot.fasta --proteins 200
//! lbe digest         --in prot.fasta --out peptides.fasta
//! lbe cluster-db     --in peptides.fasta --out clustered.fasta
//! lbe synth-queries  --db peptides.fasta --out queries.ms2 --n 500
//! lbe index init     --db clustered.fasta --out store --mods paper
//! lbe search         --index store --queries queries.ms2 --out psms.tsv
//! lbe simulate       --db peptides.fasta --queries queries.ms2 --ranks 16 --policy cyclic
//! ```
//!
//! Run `lbe help` for the full reference.

use lbe::cli::{dispatch, Args};

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    if let Err(e) = dispatch(&args, &mut out) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
