//! Updates and disk behaviour (paper §3.6, §4.4): insert new objects into a
//! live index, delete others, and watch the disk-access ledger that backs
//! the paper's cost model — all with buffer caching off, the paper's
//! measurement mode.
//!
//! ```text
//! cargo run --release --example updates_and_disk
//! ```

use hd_index_repro::hd_core::dataset::{generate, DatasetProfile};
use hd_index_repro::hd_index::{HdIndex, HdIndexParams, QueryParams};

fn main() -> std::io::Result<()> {
    let profile = DatasetProfile::GLOVE;
    let (data, queries) = generate(&profile, 15_000, 3, 3);
    let dir = std::env::temp_dir().join("hd_index_updates");
    let params = HdIndexParams::for_profile(&profile);
    let mut index = HdIndex::build(&data, &params, &dir)?;
    let qp = QueryParams::triangular(2048, 512, 5);

    // Cost model in action: per-query disk accesses ≈ τ·(log n + α/Ω + γ').
    println!("-- disk accesses per query (caches off) --");
    for (i, q) in queries.iter().enumerate() {
        let (res, trace) = index.knn_traced(q, &qp)?;
        println!(
            "query {i}: {} physical reads (κ={}, scanned {}), nn d={:.2}",
            trace.physical_reads, trace.kappa, trace.scanned, res[0].dist
        );
    }

    // Insert: a brand-new vector becomes immediately queryable (§3.6 —
    // B+-trees are naturally update-friendly; reference set is kept as-is).
    println!("\n-- inserts --");
    let novel: Vec<f32> = (0..profile.dim)
        .map(|i| ((i % 20) as f32 - 10.0) * 0.9)
        .collect();
    let id = index.insert(&novel)?;
    let hit = index.knn(&novel, &qp)?[0];
    println!(
        "inserted object {id}; self-query returns id {} at distance {}",
        hit.id, hit.dist
    );
    assert_eq!(hit.id, id);

    // Delete: tombstoned, never returned again.
    println!("\n-- deletes --");
    index.delete(id)?;
    let after = index.knn(&novel, &qp)?[0];
    println!(
        "after delete, nearest is id {} at distance {:.3}",
        after.id, after.dist
    );
    assert_ne!(after.id, id);

    // The index survives on disk; file sizes match the paper's accounting.
    println!("\n-- on-disk layout --");
    println!(
        "total {} ({} in RDB-trees, rest in the vector heap)",
        hd_index_repro::hd_core::util::fmt_bytes(index.disk_bytes() as usize),
        hd_index_repro::hd_core::util::fmt_bytes(index.tree_disk_bytes() as usize),
    );
    for entry in std::fs::read_dir(&dir)? {
        let entry = entry?;
        println!(
            "  {:<16} {}",
            entry.file_name().to_string_lossy(),
            hd_index_repro::hd_core::util::fmt_bytes(entry.metadata()?.len() as usize)
        );
    }

    std::fs::remove_dir_all(dir).ok();
    Ok(())
}
