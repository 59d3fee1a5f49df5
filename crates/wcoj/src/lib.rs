//! Worst-case optimal join evaluation for the `mmjoin` workspace.
//!
//! Algorithm 1 of the paper delegates its light parts to "any worst-case
//! optimal join algorithm" (line 3). For star queries
//! `Q*_k(x1,…,xk) = R1(x1,y), …, Rk(xk,y)` the worst-case optimal plan is:
//! intersect the `y` columns with a k-way leapfrog ([`leapfrog_intersect`]),
//! then, per surviving `y`, emit the Cartesian product of the inverted lists
//! `L1[y] × … × Lk[y]`. That runs in `O(Σ N_i + |OUT⋈|)` — the
//! `O(|D|^{ρ*})` bound of Proposition 1 specialised to star queries.
//!
//! The crate also evaluates the batched boolean-set-intersection query
//! `Qbatch(x, z) = R(x, y), S(z, y), T(x, z)` of §3.3, whose worst-case
//! optimal plan seeds from the (small) batch relation `T` and verifies each
//! candidate with an adaptive sorted-set intersection.

pub mod engine;
pub mod leapfrog;
pub mod star;
pub mod triangle;

pub use engine::WcojEngine;
pub use leapfrog::{leapfrog_intersect, LeapfrogIter};
pub use star::{
    star_full_join_for_each, star_join_project, star_join_project_flat, two_path_for_each,
    ProjectionAccumulator,
};
pub use triangle::batch_filter_exists;
