//! Relation storage for the `mmjoin` workspace.
//!
//! This crate implements the storage substrate assumed by the paper
//! *Fast Join Project Query Evaluation using Matrix Multiplication*
//! (Deep, Hu, Koutris — SIGMOD 2020):
//!
//! * [`Relation`] — an immutable binary relation `R(x, y)` stored as CSR
//!   adjacency indexes in *both* directions (`x → [y]` and `y → [x]`),
//!   shared by clones and transposes, and nothing else: the tuple list it
//!   was built from is dropped once they are. This is the paper's
//!   requirement (§5, "Indexing relations") that every relation be stored
//!   once per index order with sorted neighbor lists.
//! * [`CsrIndex`] — the compressed-sparse-row index itself.
//! * [`RowWriter`] — a relation written as `x` rows in order, its `y`
//!   degrees counted once the rows are in and its `y` index built on first
//!   read: how a chain step hands its answer to the next step.
//! * [`stats`] — the degree-threshold indexes `sum(xδ)`, `sum(yδ)`,
//!   `cdfx(yδ)` and `count(wδ)` that the cost-based optimizer (Algorithm 3)
//!   queries by binary search.
//! * [`dedup`] — the epoch-stamped dense deduplication scratch buffer of the
//!   partitioned light passes and the counting joins (§6's `dedup` vector,
//!   improved with epoch counters so it never needs an O(N) clear between
//!   groups), and the sort-based alternative.
//! * [`packed`] — a relation's adjacency as bit-packed rows, with its
//!   universal mask (the `y` every set holds), built once per relation value
//!   by the first Boolean heavy core that reads it.
//! * [`delta`] — the mutable data path: batched [`RelationDelta`]
//!   inserts/deletes, normalized against a base relation and applied by one
//!   linear merge producing a fresh indexed [`Relation`].
//!
//! Values are dense `u32` identifiers ([`Value`]); dictionary encoding is the
//! responsibility of loaders/generators (`mmjoin-datagen`).

pub mod csr;
pub mod dedup;
pub mod delta;
pub mod io;
pub mod packed;
pub mod relation;
pub mod stats;
pub mod writer;

pub use csr::CsrIndex;
pub use dedup::DedupBuffer;
pub use delta::{NormalizedDelta, RelationDelta};
pub use packed::{PackedForm, PackedRows};
pub use relation::{Relation, RelationBuilder};
pub use stats::{DegreeHistogram, ThresholdIndexes};
pub use writer::RowWriter;

/// A dictionary-encoded attribute value. All algorithms in this workspace
/// operate over dense `u32` id spaces, exactly like the paper's C++
/// prototype.
pub type Value = u32;

/// A tuple of the binary relation `R(x, y)`.
pub type Edge = (Value, Value);
