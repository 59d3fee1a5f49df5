//! Entity matching via set-similarity join (the §1 "Set Similarity"
//! application) and containment screening — both through the unified
//! Query/Engine front door.
//!
//! ```sh
//! cargo run --release -p mmjoin --example set_similarity
//! ```
//!
//! Runs every registered similarity engine on a dense document–token
//! dataset, prints the most similar pairs (ordered SSJ), and finishes with
//! a set-containment pass.

use mmjoin::{default_registry, CountSink, Query, VecSink};
use mmjoin_datagen::DatasetKind;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let r = mmjoin_datagen::generate(DatasetKind::Jokes, 0.12, 7);
    println!(
        "document-token table: {} tuples, {} documents",
        r.len(),
        r.active_x_count()
    );

    const C: u32 = 3; // minimum shared tokens
    let registry = default_registry(1);
    let query = Query::similarity(&r, C).build()?;
    for engine in registry.engines_for(&query) {
        let t0 = Instant::now();
        let mut sink = CountSink::new();
        let stats = engine.execute(&query, &mut sink)?;
        println!(
            "{:<12} found {} similar pairs in {:?}",
            engine.name(),
            stats.rows,
            t0.elapsed()
        );
    }

    // Ordered enumeration: the matrix counts give the ranking for free.
    let query = Query::similarity(&r, C).ordered().build()?;
    let mut ranked = VecSink::new();
    registry.execute("MMJoin", &query, &mut ranked)?;
    println!("top 5 most similar document pairs:");
    for (row, overlap) in ranked.rows.iter().zip(&ranked.counts).take(5) {
        println!(
            "  docs {:>4} and {:>4}: {} shared tokens",
            row[0], row[1], overlap
        );
    }

    // Containment screening: which documents are subsumed by another?
    let query = Query::containment(&r).build()?;
    let t0 = Instant::now();
    let mut sink = CountSink::new();
    let stats = registry.execute("MMJoin", &query, &mut sink)?;
    println!(
        "containment pairs (subset ⊆ superset): {} in {:?}",
        stats.rows,
        t0.elapsed()
    );
    Ok(())
}
