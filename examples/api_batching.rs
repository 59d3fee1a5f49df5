//! Boolean set-intersection API with request batching (§3.3, Figure 6).
//!
//! ```sh
//! cargo run --release -p mmjoin --example api_batching
//! ```
//!
//! Simulates an API answering "have authors a and b ever co-authored?"
//! requests arriving at a fixed rate, comparing batch sizes and strategies:
//! larger batches amortise the join work (fewer machines), at the price of
//! queueing delay.

use mmjoin_bsi::{random_workload, simulate_batching, BsiStrategy};
use mmjoin_datagen::DatasetKind;

fn main() {
    let r = mmjoin_datagen::generate(DatasetKind::Image, 0.2, 11);
    println!(
        "serving intersection queries over {} sets ({} tuples)",
        r.active_x_count(),
        r.len()
    );

    let workload = random_workload(&r, &r, 10_000, 5);
    const RATE: f64 = 50_000.0; // queries per second

    println!(
        "{:>6}  {:>14}  {:>14}  {:>11}  {:>11}",
        "batch", "MM delay", "Non-MM delay", "MM machines", "NM machines"
    );
    for batch in [125usize, 250, 500, 1000, 2000] {
        let mm = simulate_batching(&r, &r, &workload, batch, RATE, &BsiStrategy::mm(1));
        let nm = simulate_batching(&r, &r, &workload, batch, RATE, &BsiStrategy::NonMm);
        println!(
            "{:>6}  {:>12.2}ms  {:>12.2}ms  {:>11}  {:>11}",
            batch,
            mm.avg_delay_secs * 1e3,
            nm.avg_delay_secs * 1e3,
            mm.machines_needed,
            nm.machines_needed,
        );
    }
    println!(
        "(positive-rate sanity: {:.1}% of random pairs intersect)",
        simulate_batching(
            &r,
            &r,
            &workload[..1000],
            250,
            RATE,
            &BsiStrategy::PerRequest
        )
        .positive_rate
            * 100.0
    );
}
