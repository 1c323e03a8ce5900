//! Peak live heap of an index build, read off a counting global allocator.
//!
//! The build keeps nothing per fragment between its passes, so besides
//! the index it returns it holds only per-spectrum and per-bucket tables.
//! This binary holds one `#[test]`, so no other test allocates while it
//! measures.

use lbe_bio::dedup::dedup_peptides;
use lbe_bio::digest::{digest_proteome, DigestParams};
use lbe_bio::mods::{count_modforms, ModSpec};
use lbe_bio::peptide::PeptideDb;
use lbe_bio::synthetic::{SyntheticProteome, SyntheticProteomeParams};
use lbe_index::builder::IndexBuilder;
use lbe_index::config::SlmConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::SeqCst);
}

// SAFETY: every call is forwarded to `System` unchanged; the counters are
// only bookkeeping beside it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            grew(new_size);
            shrank(layout.size());
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A synthetic proteome's deduplicated tryptic digest, its peptides taken
/// in order until they index `ions` b/y ions under `spec`.
fn database(ions: usize, spec: &ModSpec) -> PeptideDb {
    let params = SyntheticProteomeParams {
        num_proteins: 200,
        family_fraction: 0.72,
        mutation_rate: 0.015,
        ..Default::default()
    };
    let proteins = SyntheticProteome::generate(params, 1).proteins;
    let digested = digest_proteome(&proteins, &DigestParams::default()).unwrap();
    let mut indexed = 0;
    let peptides = dedup_peptides(digested)
        .0
        .peptides()
        .iter()
        .take_while(|p| {
            let more = indexed < ions;
            indexed += count_modforms(p.sequence(), spec) * 2 * (p.len() - 1);
            more
        })
        .cloned()
        .collect();
    PeptideDb::from_vec(peptides)
}

/// On a ≥ 1 M-ion database, at 1, 2 and 4 threads, the live heap never
/// rises more than a quarter above the index the build returns. A build
/// that kept one `u32` per fragment until its postings were written
/// would peak at about twice the index.
#[test]
fn build_peak_heap_stays_within_a_quarter_of_the_index() {
    let spec = ModSpec {
        max_mods_per_peptide: 4,
        max_modforms_per_peptide: 128,
        ..ModSpec::paper_default()
    };
    let db = database(1_100_000, &spec);
    for threads in [1, 2, 4] {
        let mut builder = IndexBuilder::new(SlmConfig::default(), spec.clone());
        let before = LIVE.load(Ordering::SeqCst);
        PEAK.store(before, Ordering::SeqCst);
        let index = builder.build_parallel(&db, threads);
        let peak = PEAK.load(Ordering::SeqCst) - before;
        let heap = index.heap_bytes();
        assert!(index.num_ions() >= 1_000_000, "{} ions", index.num_ions());
        let ratio = peak as f64 / heap as f64;
        println!("{threads} threads: peak {peak} B over an index of {heap} B ({ratio:.3}x)");
        assert!(
            ratio <= 1.25,
            "{threads} threads: the build's heap peaked at {ratio:.3}x its index"
        );
    }
}
