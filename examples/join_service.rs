//! The service layer in one file: register relations once, fire mixed
//! workloads from several client threads, watch the cache and the
//! engine routing do their jobs.
//!
//! ```sh
//! cargo run --release -p mmjoin --example join_service
//! ```

use mmjoin::{Relation, Request, Service, ServiceError};

fn main() -> Result<(), ServiceError> {
    let service = Service::with_default_registry();

    // Register once: statistics (degree histograms, duplication mass) are
    // profiled here, not per query.
    service.register(
        "follows",
        Relation::from_edges([(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (3, 2)]),
    );
    service.register(
        "tags",
        Relation::from_edges([(0, 0), (0, 1), (1, 0), (1, 2), (2, 1), (2, 2)]),
    );

    // Four query families through one door. The service routes each to
    // MMJoin, which picks the combinatorial or the matrix path from its
    // cost estimate (a sparse similarity / containment join goes to its
    // combinatorial specialist instead).
    let requests = vec![
        Request::two_path("follows", "follows"),
        Request::two_path_counts("follows", "tags", 1),
        Request::star(["follows", "tags", "follows"]),
        Request::similarity("tags", 2),
        Request::containment("tags"),
        Request::two_path("follows", "follows").limit(3), // early-terminated
    ];

    // Hammer the service from 4 client threads; repeats hit the cache.
    // lint:allow(thread-spawn): example client threads stand in for
    // external callers, not workspace compute.
    std::thread::scope(|scope| {
        for client in 0..4 {
            let service = &service;
            let requests = &requests;
            scope.spawn(move || {
                for (i, request) in requests.iter().enumerate() {
                    match service.query(request.clone()) {
                        Ok(r) => println!(
                            "client {client} q{i}: {} rows via {:<12} cached={}{}",
                            r.rows.len(),
                            r.stats.engine,
                            r.cached,
                            if r.truncated { " (limit hit)" } else { "" }
                        ),
                        Err(e) => println!("client {client} q{i}: error {e}"),
                    }
                }
            });
        }
    });

    // A catalog update bumps the relation's epoch: cached results over it
    // become unreachable, so the next query re-executes.
    service
        .update(
            "follows",
            Relation::from_edges([(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (3, 2), (4, 2)]),
        )
        .unwrap();
    let fresh = service.query(Request::two_path("follows", "follows"))?;
    println!(
        "after update: {} rows, cached={} (must be false)",
        fresh.rows.len(),
        fresh.cached
    );

    println!("service metrics: {}", service.metrics());
    Ok(())
}
