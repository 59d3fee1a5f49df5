//! `mmjoin-service` — the long-lived concurrent join service.
//!
//! The engine crates answer one query at a time for a caller that
//! already holds its relations; this crate is the layer that makes the
//! reproduction look like a *system*:
//!
//! * [`Catalog`] — named relations, indexed **once** at registration
//!   (CSR inside [`Relation`](mmjoin_storage::Relation)), with an epoch
//!   bumped on every update.
//! * [`Request`] — an owned query over catalog *names*, canonicalized so
//!   semantically equal requests share one 64-bit fingerprint.
//! * [`Planner`] — engine routing: a per-request pin, else `MMJoin`,
//!   which makes the paper's combinatorial-vs-matrix choice itself
//!   (containment joins alone are still routed here, by Algorithm 3's
//!   line 2, between `MMJoin` and `PRETTI`).
//! * [`ResultCache`] — an LRU keyed by `(fingerprint, relation epochs)`,
//!   so repeats are O(1) and updates can never serve stale rows. A
//!   staged relation delta ([`Service::apply_delta`]) frees the cached
//!   results over its relation, and the next request for one recomputes
//!   it.
//! * [`Service`] — the query path over all of the above, run on the
//!   calling thread (the service owns no request thread and no queue),
//!   reporting per-query [`ExecStats`](mmjoin_api::ExecStats) and
//!   service-level [metrics](MetricsSnapshot) (queries served, cache hit
//!   rate, p50/p99 service time).
//!
//! The `mmjoin-serve` binary wraps a [`Service`] in a line-oriented
//! REPL; the `mmjoin` facade re-exports everything here.
//!
//! ```
//! use mmjoin_service::{Request, Service};
//! use mmjoin_storage::Relation;
//!
//! let service = Service::with_default_registry();
//! service.register("R", Relation::from_edges([(0, 0), (1, 0), (2, 1)]));
//!
//! let response = service.query(Request::two_path("R", "R").limit(3))?;
//! assert!(response.rows.len() <= 3);
//! println!("{} rows via {}", response.rows.len(), response.stats.engine);
//! # Ok::<(), mmjoin_service::ServiceError>(())
//! ```

pub mod cache;
pub mod catalog;
pub mod command;
pub mod error;
pub mod flags;
pub mod metrics;
pub mod planner;
pub mod request;
pub mod roster;
pub mod service;

pub use cache::{CacheEntry, CachedResult, ResultCache};
pub use catalog::{Catalog, CatalogEntry, StagedUpdate};
pub use command::{Command, ParseError};
pub use error::ServiceError;
pub use metrics::{MetricsSnapshot, ServiceMetrics};
pub use planner::{Planner, Selection, SelectionReason};
pub use request::{AtomSpec, QuerySpec, Request};
pub use roster::{default_registry, registry_with_config};
pub use service::{Response, Service, ServiceConfig, UpdateReport};
