//! The relation catalog: named, immutable relations with an epoch per
//! entry, behind one `RwLock` that nothing slow ever holds.
//!
//! Registration pays the indexing cost **once** (the CSR indexes inside
//! [`Relation`]; the statistics a plan needs, the engine reads off them
//! per query) and every update replaces the whole entry under a new
//! epoch. Epochs make cache invalidation safe: the result cache keys on
//! `(fingerprint, epochs of referenced relations)`, so a stale entry is
//! never served, and the service frees the entries over a replaced
//! relation as it replaces it — while an update to relation `A` leaves
//! `B`'s entry epoch, hence `B`'s cache entries, untouched.
//!
//! Readers hold the read lock only to copy `Arc`s and epochs; one guard
//! is a consistent cut over any set of names. Writers do their relation
//! work — normalizing a delta, merging it, rebuilding the CSR indexes,
//! comparing tuples — with no lock held, then take the write lock to
//! install the result *only if the entry's epoch is still the one they
//! read*. If it moved, they go round again on the newer relation: the
//! loser of a same-relation race pays one more apply, and one writer
//! wins every round. A displaced entry is dropped after the guard is
//! released, so freeing a large relation never stalls readers either.

use crate::error::ServiceError;
use mmjoin_storage::{NormalizedDelta, Relation, RelationDelta};
use std::collections::BTreeMap;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// One catalog slot: the relation and the epoch it was installed at.
#[derive(Debug, Clone)]
pub struct CatalogEntry {
    /// The relation itself (shared with in-flight queries).
    pub relation: Arc<Relation>,
    /// Monotonically increasing install epoch (catalog-wide counter).
    pub epoch: u64,
}

/// One applied delta batch: the relation's epoch after it, and the
/// effective delta.
#[derive(Debug, Clone)]
pub struct StagedUpdate {
    /// The epoch after the update (the epoch before it for a no-op batch).
    pub epoch: u64,
    /// The effective delta (empty for no-op batches).
    pub delta: NormalizedDelta,
}

/// Named-relation catalog with epoch bookkeeping; every method takes
/// `&self`.
///
/// Every lock acquisition recovers from poisoning: the guarded map is
/// only ever changed by single inserts and removes, so it is valid
/// across a panic (see the service-level rationale on `Service`).
#[derive(Debug, Default)]
pub struct Catalog {
    state: RwLock<State>,
}

/// What the lock guards. `BTreeMap` keeps `names()` deterministic for
/// the REPL and tests.
#[derive(Debug, Default)]
struct State {
    entries: BTreeMap<String, CatalogEntry>,
    epoch: u64,
}

fn unknown(name: &str) -> ServiceError {
    ServiceError::UnknownRelation(name.to_string())
}

impl Catalog {
    /// Empty catalog at epoch 0.
    pub fn new() -> Self {
        Self::default()
    }

    fn read(&self) -> RwLockReadGuard<'_, State> {
        self.state.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, State> {
        self.state.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers (or replaces) `name`, bumping the catalog epoch. Returns
    /// the entry's new epoch.
    ///
    /// The name is trimmed of surrounding whitespace — request
    /// canonicalization trims names before lookup, so an untrimmed
    /// catalog key would be permanently unreachable.
    pub fn register(&self, name: impl Into<String>, relation: Relation) -> u64 {
        let name = name.into().trim().to_string();
        let relation = Arc::new(relation);
        let mut state = self.write();
        state.epoch += 1;
        let epoch = state.epoch;
        let displaced = state.entries.insert(name, CatalogEntry { relation, epoch });
        drop(state);
        drop(displaced);
        epoch
    }

    /// Replaces an *existing* relation, bumping epochs; unknown names are
    /// an error (use [`Catalog::register`] to create).
    ///
    /// A replacement whose tuples equal the current entry's is a no-op:
    /// the existing epoch is returned unchanged, so an empty staged delta
    /// never cold-starts the result cache.
    pub fn update(&self, name: &str, relation: Relation) -> Result<u64, ServiceError> {
        let name = name.trim();
        let relation = Arc::new(relation);
        loop {
            let current = self.get(name).ok_or_else(|| unknown(name))?;
            let (old, new) = (&current.relation, &relation);
            if old.len() == new.len() && old.tuples().eq(new.tuples()) {
                return Ok(current.epoch);
            }
            if let Some(epoch) = self.install(name, current.epoch, Arc::clone(&relation))? {
                return Ok(epoch);
            }
        }
    }

    /// Applies a staged tuple batch to an existing relation, returning
    /// the post-update epoch and the effective (normalized) delta.
    ///
    /// A batch that normalizes to nothing is a complete no-op — no epoch
    /// bump — which keeps every cached result addressable.
    ///
    /// The install-by-epoch retry is unbounded and not fair: a writer
    /// whose apply takes milliseconds can lose round after round to a
    /// steady stream of small writers on the *same* relation, where the
    /// old write lock served them in turn. No served workload has
    /// concurrent writers of very different sizes on one relation; if one
    /// appears, fall back to applying under the write lock after a few
    /// lost rounds.
    pub fn apply_delta(
        &self,
        name: &str,
        delta: &RelationDelta,
    ) -> Result<StagedUpdate, ServiceError> {
        let name = name.trim();
        loop {
            let current = self.get(name).ok_or_else(|| unknown(name))?;
            let delta = delta.normalize(&current.relation);
            let epoch = if delta.is_empty() {
                current.epoch
            } else {
                let next = Arc::new(current.relation.apply_normalized(&delta));
                match self.install(name, current.epoch, next)? {
                    Some(epoch) => epoch,
                    // Lost the race: go round on the winner's relation.
                    None => continue,
                }
            };
            return Ok(StagedUpdate { epoch, delta });
        }
    }

    /// Installs `relation` as `name`'s entry under a fresh epoch if the
    /// entry is still at `seen`; `Ok(None)` if a concurrent writer moved
    /// it first.
    fn install(
        &self,
        name: &str,
        seen: u64,
        relation: Arc<Relation>,
    ) -> Result<Option<u64>, ServiceError> {
        let mut guard = self.write();
        let state = &mut *guard;
        let entry = state.entries.get_mut(name).ok_or_else(|| unknown(name))?;
        if entry.epoch != seen {
            return Ok(None);
        }
        state.epoch += 1;
        let epoch = state.epoch;
        let displaced = std::mem::replace(entry, CatalogEntry { relation, epoch });
        drop(guard);
        drop(displaced);
        Ok(Some(epoch))
    }

    /// Removes `name`, bumping the catalog epoch if it existed.
    pub fn remove(&self, name: &str) -> bool {
        let mut state = self.write();
        let displaced = state.entries.remove(name);
        if displaced.is_some() {
            state.epoch += 1;
        }
        drop(state);
        displaced.is_some()
    }

    /// `name`'s current entry, if registered.
    pub fn get(&self, name: &str) -> Option<CatalogEntry> {
        self.read().entries.get(name).cloned()
    }

    /// Pins an epoch vector for a query: under one read guard, copies
    /// out the relation handles and epochs in request order, and
    /// releases. The result is a consistent cut — no named relation can
    /// change while the guard is held — and execution proceeds on the
    /// pinned `Arc` handles without any lock.
    pub fn pin(&self, names: &[&str]) -> Result<(Vec<Arc<Relation>>, Vec<u64>), ServiceError> {
        let state = self.read();
        let mut handles = Vec::with_capacity(names.len());
        let mut epochs = Vec::with_capacity(names.len());
        for name in names {
            let entry = state.entries.get(*name).ok_or_else(|| unknown(name))?;
            handles.push(Arc::clone(&entry.relation));
            epochs.push(entry.epoch);
        }
        Ok((handles, epochs))
    }

    /// The current epoch of each of `names`, `None` where unregistered,
    /// read under one guard.
    pub fn epochs_of(&self, names: &[&str]) -> Vec<Option<u64>> {
        let state = self.read();
        let epoch = |name: &&str| state.entries.get(*name).map(|e| e.epoch);
        names.iter().map(epoch).collect()
    }

    /// The catalog-wide epoch: the count of effective
    /// register / update / remove operations.
    pub fn epoch(&self) -> u64 {
        self.read().epoch
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.read().entries.keys().cloned().collect()
    }

    /// Heap bytes the registered relations hold
    /// ([`Relation::heap_bytes`]), summed.
    pub fn heap_bytes(&self) -> usize {
        let state = self.read();
        state
            .entries
            .values()
            .map(|e| e.relation.heap_bytes())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(edges: &[(u32, u32)]) -> Relation {
        Relation::from_edges(edges.iter().copied())
    }

    #[test]
    fn register_installs_and_bumps_epoch() {
        let c = Catalog::new();
        assert_eq!(c.epoch(), 0);
        let e1 = c.register("R", rel(&[(0, 0), (1, 0), (2, 1)]));
        assert_eq!(e1, 1);
        let entry = c.get("R").unwrap();
        assert_eq!(entry.relation.len(), 3);
        assert_eq!(entry.epoch, 1);
    }

    #[test]
    fn update_requires_existing_name() {
        let c = Catalog::new();
        assert!(matches!(
            c.update("nope", rel(&[(0, 0)])),
            Err(ServiceError::UnknownRelation(_))
        ));
        c.register("R", rel(&[(0, 0)]));
        let old_epoch = c.get("R").unwrap().epoch;
        let new_epoch = c.update("R", rel(&[(0, 0), (1, 0)])).unwrap();
        assert!(new_epoch > old_epoch);
        assert_eq!(c.get("R").unwrap().relation.len(), 2);
    }

    #[test]
    fn identical_update_is_a_noop() {
        let c = Catalog::new();
        c.register("R", rel(&[(0, 0), (1, 0)]));
        let epoch = c.get("R").unwrap().epoch;
        let again = c.update("R", rel(&[(0, 0), (1, 0)])).unwrap();
        assert_eq!(again, epoch, "empty staged delta must not bump the epoch");
        assert_eq!(c.epoch(), epoch);
    }

    #[test]
    fn apply_delta_installs_and_reports_context() {
        let c = Catalog::new();
        let before = c.register("R", rel(&[(0, 0), (1, 0)]));
        let mut delta = RelationDelta::new();
        delta.insert(2, 1).delete(1, 0);
        let staged = c.apply_delta("R", &delta).unwrap();
        assert!(staged.epoch > before);
        assert_eq!(staged.delta.inserts, vec![(2, 1)]);
        assert_eq!(staged.delta.deletes, vec![(1, 0)]);
        let entry = c.get("R").unwrap();
        assert_eq!(entry.relation.edges(), &[(0, 0), (2, 1)]);
        assert_eq!(entry.epoch, staged.epoch);
    }

    #[test]
    fn apply_delta_noop_batch_keeps_epoch() {
        let c = Catalog::new();
        c.register("R", rel(&[(0, 0)]));
        let epoch = c.epoch();
        // Insert of a present tuple + delete of an absent one: nets out.
        let mut delta = RelationDelta::new();
        delta.insert(0, 0).delete(9, 9);
        let staged = c.apply_delta("R", &delta).unwrap();
        assert!(staged.delta.is_empty());
        assert_eq!(staged.epoch, epoch);
        assert_eq!(c.epoch(), epoch);
        assert!(matches!(
            c.apply_delta("nope", &RelationDelta::new()),
            Err(ServiceError::UnknownRelation(_))
        ));
    }

    #[test]
    fn remove_bumps_epoch() {
        let c = Catalog::new();
        c.register("R", rel(&[(0, 0)]));
        let e = c.epoch();
        assert!(c.remove("R"));
        assert!(c.epoch() > e);
        assert!(!c.remove("R"));
        assert!(c.names().is_empty());
    }

    #[test]
    fn names_trimmed_to_match_request_canonicalization() {
        let c = Catalog::new();
        c.register(" R \t", rel(&[(0, 0)]));
        assert!(
            c.get("R").is_some(),
            "padded registration must be reachable"
        );
        assert_eq!(c.names(), vec!["R"]);
        assert!(c.update(" R ", rel(&[(0, 0), (1, 0)])).is_ok());
    }

    #[test]
    fn names_sorted() {
        let c = Catalog::new();
        c.register("b", rel(&[(0, 0)]));
        c.register("a", rel(&[(0, 0)]));
        assert_eq!(c.names(), vec!["a", "b"]);
    }

    #[test]
    fn pin_across_names_and_snapshot_of_removed_name() {
        let c = Catalog::new();
        c.register("R", rel(&[(0, 0), (1, 0)]));
        c.register("S", rel(&[(2, 1)]));
        assert_eq!(c.epoch(), 2, "one counter: one epoch per effective write");
        let (handles, epochs) = c.pin(&["R", "S", "R"]).unwrap();
        assert_eq!(handles[1].edges(), &[(2, 1)]);
        assert_eq!(epochs, vec![1, 2, 1], "same entry pins the same epoch");
        assert!(matches!(
            c.pin(&["R", "nope"]),
            Err(ServiceError::UnknownRelation(_))
        ));
        assert!(c.remove("R"));
        assert_eq!(c.epochs_of(&["R", "S"]), vec![None, Some(2)]);
    }
}
