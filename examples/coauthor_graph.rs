//! Graph analytics: extract a co-author graph from an author–paper table
//! (the §1 "Graph Analytics" application).
//!
//! ```sh
//! cargo run --release -p mmjoin --example coauthor_graph
//! ```
//!
//! The DBLP-like relation `R(author, paper)` defines the implicit view
//! `V(a1, a2) = R(a1, p), R(a2, p)`. MMJoin materialises the view without
//! ever building the full (duplicate-heavy) join, and the counting variant
//! yields collaboration strengths for free.

use mmjoin_core::{two_path_join_project, two_path_with_counts, JoinConfig};
use mmjoin_datagen::DatasetKind;
use std::time::Instant;

fn main() {
    // A synthetic DBLP-shaped author–paper relation.
    let r = mmjoin_datagen::generate(DatasetKind::Dblp, 0.3, 42);
    println!(
        "author-paper table: {} tuples, {} authors, {} papers",
        r.len(),
        r.active_x_count(),
        r.active_y_count()
    );

    // Materialise the co-author view.
    let cfg = JoinConfig::default();
    let t0 = Instant::now();
    let coauthors = two_path_join_project(&r, &r, &cfg);
    println!(
        "co-author view: {} directed edges in {:?}",
        coauthors.len(),
        t0.elapsed()
    );

    // Collaboration strength = number of joint papers: the SGEMM counts.
    let t0 = Instant::now();
    let weighted = two_path_with_counts(&r, &r, 2, &cfg);
    let strong: Vec<_> = weighted.iter().filter(|&&(a, b, _)| a < b).collect();
    println!(
        "pairs with >= 2 joint papers: {} in {:?}",
        strong.len(),
        t0.elapsed()
    );

    // Simple analytics over the extracted graph: degree distribution.
    let mut degree = vec![0u32; r.x_domain()];
    for &(a, b) in &coauthors {
        if a != b {
            degree[a as usize] += 1;
            let _ = b;
        }
    }
    let max_deg = degree.iter().max().copied().unwrap_or(0);
    let isolated = r.active_x_count() - degree.iter().filter(|&&d| d > 0).count();
    println!("max co-author degree: {max_deg}; authors with no co-authors: {isolated}");
}
