//! `lbe index init|append|compact|gc|stats`: the generation store.

use super::*;
use lbe_index::{GenerationStore, SlmConfig};
use std::io::Read;

/// `lbe index init`: creates a generation-store directory (LBECHK3).
pub(super) fn init(args: &Args, out: &mut dyn Write) -> Result<(), CmdError> {
    let db_path = args.require(&DB)?;
    let output = args.require(&OUT_DIR)?;
    let chunk_size = args.value::<usize>(&CHUNK_SIZE)?;
    if chunk_size == 0 {
        return Err(Box::new(ArgError("--chunk-size must be at least 1".into())));
    }
    let db = read_db(args, db_path, out)?;
    let modspec = parse_mods(args)?;
    let (store, o) = GenerationStore::init(output, &db, SlmConfig::default(), modspec, chunk_size)?;
    let stats = store.stats()?;
    writeln!(
        out,
        "initialized generation store {output}: {} peptides in {} chunk(s) \
         (generation {}, {} stored of {} logical bytes)",
        o.total_peptides, o.new_chunks, o.generation, stats.stored_bytes, stats.logical_bytes
    )?;
    Ok(())
}

/// `lbe index append`: digests only the new peptides into delta chunks.
pub(super) fn append(args: &Args, out: &mut dyn Write) -> Result<(), CmdError> {
    let index_dir = args.require(&INDEX)?;
    let db_path = args.require(&DB)?;
    let store = GenerationStore::open(index_dir)?;
    let delta = read_db(args, db_path, out)?;
    let o = store.append(&delta)?;
    writeln!(
        out,
        "appended {} new peptides ({} duplicates skipped) as {} delta chunk(s) \
         in generation {}; store now holds {} peptides",
        o.peptides_added, o.duplicates_skipped, o.new_chunks, o.generation, o.total_peptides
    )?;
    Ok(())
}

/// `lbe index compact`: rewrites the store as one fresh generation,
/// byte-identical in search output to a from-scratch rebuild.
pub(super) fn compact(args: &Args, out: &mut dyn Write) -> Result<(), CmdError> {
    let store = GenerationStore::open(args.require(&INDEX)?)?;
    let o = store.compact()?;
    writeln!(
        out,
        "compacted {} chunk(s) into {} (generation {}, {} blob(s) reused by content hash)",
        o.chunks_before, o.chunks_after, o.generation, o.blobs_reused
    )?;
    Ok(())
}

/// `lbe index gc`: deletes unreferenced blobs and superseded manifests.
pub(super) fn gc(args: &Args, out: &mut dyn Write) -> Result<(), CmdError> {
    let store = GenerationStore::open(args.require(&INDEX)?)?;
    let o = store.gc()?;
    writeln!(
        out,
        "gc: deleted {} blob(s) ({} bytes) and {} old manifest(s), dropped {} tombstone(s)",
        o.blobs_deleted, o.bytes_reclaimed, o.manifests_deleted, o.tombstones_dropped
    )?;
    Ok(())
}

/// `lbe index stats`: per-chunk inventory of a generation store directory.
pub(super) fn stats(args: &Args, out: &mut dyn Write) -> Result<(), CmdError> {
    let index_path = args.require(&INDEX)?;
    if !std::path::Path::new(index_path).is_dir() {
        return Err(not_a_store(index_path));
    }
    let stats = GenerationStore::open(index_path)?.stats()?;
    writeln!(
        out,
        "{:>5}  {:<16}  {:>3}  {:<4}  {:<4}  {:>12}  {:>12}  mass range",
        "chunk", "hash", "gen", "live", "comp", "raw", "stored"
    )?;
    for (i, r) in stats.records.iter().enumerate() {
        writeln!(
            out,
            "{i:>5}  {:016x}  {:>3}  {:<4}  {:<4}  {:>12}  {:>12}  [{}, {}]",
            r.hash,
            r.generation,
            if r.tombstone { "tomb" } else { "live" },
            if r.compressed { "yes" } else { "no" },
            r.raw_len,
            r.stored_len,
            r.lo_mass,
            r.hi_mass
        )?;
    }
    let live = stats.records.iter().filter(|r| !r.tombstone).count();
    writeln!(
        out,
        "{} peptides in {} live chunk(s) (+{} tombstone(s)); \
         {} bytes stored of {} logical (ratio {:.3}); next generation {}",
        stats.num_peptides,
        live,
        stats.records.len() - live,
        stats.stored_bytes,
        stats.logical_bytes,
        stats.stored_bytes as f64 / stats.logical_bytes.max(1) as f64,
        stats.next_generation
    )?;
    Ok(())
}

/// Why `index stats` refuses the file at `path`: a single-index file has
/// no chunks to list, and any other file is what the index reader makes of
/// its magic — an `LBECHK2` chunked container is below the format floor.
fn not_a_store(path: &str) -> CmdError {
    let mut magic = [0u8; 8];
    if let Err(e) = std::fs::File::open(path).and_then(|mut f| f.read_exact(&mut magic)) {
        return e.into();
    }
    let msg = match &magic == lbe_index::io::MAGIC_V2 {
        true => format!(
            "{path} is a single-index LBESLM2 file with no chunks to list; \
             chunk statistics read a generation store directory"
        ),
        false => match lbe_index::read_index(&magic[..]) {
            Err(e) => format!("{path}: {e}"),
            Ok(_) => unreachable!("a magic alone is no index"),
        },
    };
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg).into()
}
