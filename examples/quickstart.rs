//! Quickstart: the unified Query/Engine/Sink front door.
//!
//! ```sh
//! cargo run --release -p mmjoin --example quickstart
//! ```
//!
//! Builds a small social-network relation (Example 1 of the paper), asks
//! for all user pairs sharing at least one friend, and runs the same
//! [`Query`] on every engine the registry knows — MMJoin plus the classic
//! full-join-then-dedup plans — then inspects MMJoin's execution plan.

use mmjoin::{default_registry, CountSink, PairSink, PlanKind, Query, RelationBuilder, VecSink};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A friendship graph with two tight communities (Example 1): users
    // 0..50 all know hubs 0..4; users 50..100 know hubs 5..9.
    let mut builder = RelationBuilder::new();
    for user in 0..100u32 {
        let hubs = if user < 50 { 0..5u32 } else { 5..10u32 };
        for hub in hubs {
            builder.push(user, hub);
        }
        // A couple of personal contacts to keep the graph irregular.
        builder.push(user, 10 + user % 37);
    }
    let friends = builder.build();
    println!(
        "relation: {} tuples, {} users, {} contacts",
        friends.len(),
        friends.active_x_count(),
        friends.active_y_count()
    );

    // "SELECT DISTINCT R1.x, R2.x FROM R R1, R R2 WHERE R1.y = R2.y"
    // as a Query value; every engine in the registry runs the same one.
    let registry = default_registry(1);
    let query = Query::two_path(&friends, &friends).build()?;
    println!("\nengines supporting the 2-path query:");
    let mut reference: Option<u64> = None;
    for engine in registry.engines_for(&query) {
        let mut sink = CountSink::new();
        let t0 = Instant::now();
        let stats = engine.execute(&query, &mut sink)?;
        println!(
            "  {:<26} {:>8} pairs in {:>10?}",
            engine.name(),
            stats.rows,
            t0.elapsed()
        );
        match reference {
            None => reference = Some(stats.rows),
            Some(r) => assert_eq!(r, stats.rows, "engines must agree"),
        }
    }

    // ExecStats expose what the optimizer decided.
    let mut sink = PairSink::new();
    let stats = registry.execute("MMJoin", &query, &mut sink)?;
    if let Some(plan) = stats.plan {
        match plan.kind {
            PlanKind::Wcoj => println!("\nMMJoin plan: WCOJ fallback (join is output-like)"),
            PlanKind::MatrixPartitioned => println!(
                "\nMMJoin plan: matrix-partitioned, Δ1={:?} Δ2={:?}, heavy core {:?}",
                plan.delta1, plan.delta2, plan.heavy_dims
            ),
        }
    }

    // The counting variant reports how many friends each pair shares —
    // same front door, one builder call more.
    let query = Query::two_path(&friends, &friends).min_count(2).build()?;
    let mut sink = VecSink::new();
    registry.execute("MMJoin", &query, &mut sink)?;
    let best = sink
        .rows
        .iter()
        .zip(&sink.counts)
        .filter(|(row, _)| row[0] < row[1])
        .max_by_key(|(_, &c)| c)
        .expect("non-empty");
    println!(
        "most-connected pair: users {} and {} share {} friends",
        best.0[0], best.0[1], best.1
    );
    Ok(())
}
