//! The relation catalog: named, immutable relations with an epoch per
//! entry — plus the sharded, lock-striped wrapper the concurrent service
//! reads through.
//!
//! Registration pays the indexing cost **once** (the CSR indexes inside
//! [`Relation`]; the statistics a plan needs, the engine reads off them
//! per query) and every update replaces the whole entry under a new
//! epoch. Epochs make cache invalidation free: the result cache keys on
//! `(fingerprint, epochs of referenced relations)`, so a stale entry is
//! simply never looked up again and ages out of the LRU.
//!
//! [`ShardedCatalog`] stripes the name space over `N` independent
//! [`Catalog`]s, each behind its own `RwLock` with its own epoch
//! counter. A query [pins](ShardedCatalog::pin) an *epoch vector*: it
//! read-locks every shard it touches (ascending shard order, so pinning
//! is deadlock-free), copies out `(relation handle, epoch)` per name,
//! and releases — a consistent cross-shard cut, because any update to a
//! touched relation would need that shard's write lock. Updates publish
//! a new epoch on their own shard only, so an update to relation `A`
//! never stalls readers of relation `B` on another shard, and — since
//! the result cache keys on per-relation epochs — never invalidates
//! `B`'s cache entries either.

use crate::error::ServiceError;
use crate::request::Fnv1a;
use mmjoin_storage::{NormalizedDelta, Relation, RelationDelta};
use std::collections::BTreeMap;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};

/// One catalog slot: the relation and the epoch it was installed at.
#[derive(Debug, Clone)]
pub struct CatalogEntry {
    /// The relation itself (shared with in-flight queries).
    pub relation: Arc<Relation>,
    /// Monotonically increasing install epoch (catalog-wide counter).
    pub epoch: u64,
}

/// The context of one applied delta batch, as the maintenance path needs
/// it: the relation as it was (delta joins are expressed over the old
/// state), both epochs, and the effective delta.
#[derive(Debug, Clone)]
pub struct StagedUpdate {
    /// The relation before the update.
    pub old: Arc<Relation>,
    /// Its epoch before the update.
    pub old_epoch: u64,
    /// The epoch after the update (`== old_epoch` for no-op batches).
    pub new_epoch: u64,
    /// The effective delta (empty for no-op batches).
    pub delta: NormalizedDelta,
}

/// Named-relation catalog with epoch bookkeeping.
///
/// `BTreeMap` keeps `names()` deterministic for the REPL and tests.
#[derive(Debug, Default)]
pub struct Catalog {
    entries: BTreeMap<String, CatalogEntry>,
    epoch: u64,
}

impl Catalog {
    /// Empty catalog at epoch 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) `name`, bumping the catalog epoch. Returns
    /// the entry's new epoch.
    ///
    /// The name is trimmed of surrounding whitespace — request
    /// canonicalization trims names before lookup, so an untrimmed
    /// catalog key would be permanently unreachable.
    pub fn register(&mut self, name: impl Into<String>, relation: Relation) -> u64 {
        let name = name.into().trim().to_string();
        self.epoch += 1;
        let entry = CatalogEntry {
            relation: Arc::new(relation),
            epoch: self.epoch,
        };
        self.entries.insert(name, entry);
        self.epoch
    }

    /// Replaces an *existing* relation, bumping epochs; unknown names are
    /// an error (use [`Catalog::register`] to create).
    ///
    /// A replacement whose tuples equal the current entry's is a no-op:
    /// the existing epoch is returned unchanged, so an empty staged delta
    /// never cold-starts the result cache.
    pub fn update(&mut self, name: &str, relation: Relation) -> Result<u64, ServiceError> {
        let name = name.trim();
        let Some(entry) = self.entries.get(name) else {
            return Err(ServiceError::UnknownRelation(name.to_string()));
        };
        if entry.relation.edges() == relation.edges() {
            return Ok(entry.epoch);
        }
        Ok(self.register(name, relation))
    }

    /// Applies a staged tuple batch to an existing relation, returning
    /// the update context the maintenance path needs: the pre-update
    /// relation and epoch, the post-update epoch, and the effective
    /// (normalized) delta.
    ///
    /// A batch that normalizes to nothing is a complete no-op — no epoch
    /// bump, `new_epoch == old_epoch` — which keeps every cached result
    /// addressable.
    pub fn apply_delta(
        &mut self,
        name: &str,
        delta: &RelationDelta,
    ) -> Result<StagedUpdate, ServiceError> {
        let name = name.trim();
        let Some(entry) = self.entries.get(name) else {
            return Err(ServiceError::UnknownRelation(name.to_string()));
        };
        let old = Arc::clone(&entry.relation);
        let old_epoch = entry.epoch;
        let delta = delta.normalize(&old);
        if delta.is_empty() {
            return Ok(StagedUpdate {
                old,
                old_epoch,
                new_epoch: old_epoch,
                delta,
            });
        }
        let new_epoch = self.register(name, old.apply_normalized(&delta));
        Ok(StagedUpdate {
            old,
            old_epoch,
            new_epoch,
            delta,
        })
    }

    /// Removes `name`, bumping the catalog epoch if it existed.
    pub fn remove(&mut self, name: &str) -> bool {
        let removed = self.entries.remove(name).is_some();
        if removed {
            self.epoch += 1;
        }
        removed
    }

    /// Looks an entry up.
    pub fn get(&self, name: &str) -> Option<&CatalogEntry> {
        self.entries.get(name)
    }

    /// Resolves `name` or errors.
    pub fn resolve(&self, name: &str) -> Result<&CatalogEntry, ServiceError> {
        self.get(name)
            .ok_or_else(|| ServiceError::UnknownRelation(name.to_string()))
    }

    /// The catalog-wide epoch: bumped by every register/update/remove.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.entries.keys().map(String::as_str).collect()
    }

    /// Number of registered relations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A lock-striped catalog: `N` independent [`Catalog`] shards, each with
/// its own `RwLock` and epoch counter, keyed by a stable hash of the
/// (trimmed) relation name.
///
/// Every lock acquisition recovers from poisoning — the shard state is
/// always valid across a panic because [`Catalog`] commits entries
/// atomically (see the service-level rationale on `Inner`).
#[derive(Debug)]
pub struct ShardedCatalog {
    shards: Vec<RwLock<Catalog>>,
}

impl ShardedCatalog {
    /// A catalog striped over `shards` locks (clamped to ≥ 1).
    pub fn new(shards: usize) -> Self {
        Self {
            shards: (0..shards.max(1))
                .map(|_| RwLock::new(Catalog::new()))
                .collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index `name` lives on. Stable across runs (FNV-1a of
    /// the trimmed name), so tests and benches can pick names on
    /// distinct shards deliberately.
    pub fn shard_of(&self, name: &str) -> usize {
        let mut h = Fnv1a::new();
        h.bytes(name.trim().as_bytes());
        (h.finish() % self.shards.len() as u64) as usize
    }

    fn read_shard(&self, name: &str) -> RwLockReadGuard<'_, Catalog> {
        self.shards[self.shard_of(name)]
            .read()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers (or replaces) `name` on its shard. See
    /// [`Catalog::register`].
    pub fn register(&self, name: impl Into<String>, relation: Relation) -> u64 {
        let name = name.into();
        self.shards[self.shard_of(&name)]
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .register(name, relation)
    }

    /// Replaces an existing relation on its shard. See
    /// [`Catalog::update`].
    pub fn update(&self, name: &str, relation: Relation) -> Result<u64, ServiceError> {
        self.shards[self.shard_of(name)]
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .update(name, relation)
    }

    /// Applies a staged tuple batch on the owning shard, holding only
    /// that shard's write lock. See [`Catalog::apply_delta`].
    pub fn apply_delta(
        &self,
        name: &str,
        delta: &RelationDelta,
    ) -> Result<StagedUpdate, ServiceError> {
        self.shards[self.shard_of(name)]
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .apply_delta(name, delta)
    }

    /// Removes `name` from its shard.
    pub fn remove(&self, name: &str) -> bool {
        self.shards[self.shard_of(name)]
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(name)
    }

    /// The catalog-wide epoch: the sum of the per-shard epoch counters.
    /// Monotone under every effective register/update/remove, unchanged
    /// by no-ops — but updates on one shard are invisible to entry
    /// epochs on another.
    pub fn epoch(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.read().unwrap_or_else(PoisonError::into_inner).epoch())
            .sum()
    }

    /// All registered names, merged and sorted across shards.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .names()
                    .into_iter()
                    .map(str::to_string)
                    .collect::<Vec<_>>()
            })
            .collect();
        names.sort();
        names
    }

    /// Total registered relations.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().unwrap_or_else(PoisonError::into_inner).len())
            .sum()
    }

    /// Whether no relation is registered on any shard.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `name`'s current relation, if registered.
    pub fn relation(&self, name: &str) -> Option<Arc<Relation>> {
        self.read_shard(name)
            .get(name)
            .map(|e| Arc::clone(&e.relation))
    }

    /// The current epoch of `name`'s entry, if registered.
    pub fn entry_epoch(&self, name: &str) -> Option<u64> {
        self.read_shard(name).get(name).map(|e| e.epoch)
    }

    /// Pins an epoch vector for a query: read-locks every shard the
    /// names touch **simultaneously** (ascending shard order —
    /// deadlock-free because every pinner uses the same order), copies
    /// out the relation handles and epochs in request order, and
    /// releases. The result is a consistent cross-shard cut: no touched
    /// relation can change while the guards are held, and execution
    /// proceeds on the pinned `Arc` handles without any lock.
    pub fn pin(&self, names: &[&str]) -> Result<(Vec<Arc<Relation>>, Vec<u64>), ServiceError> {
        let guards = self.lock_touched(names);
        let mut handles = Vec::with_capacity(names.len());
        let mut epochs = Vec::with_capacity(names.len());
        for name in names {
            let entry = guards[self.shard_of(name)]
                .as_ref()
                .expect("touched shard is locked")
                .resolve(name)?;
            handles.push(Arc::clone(&entry.relation));
            epochs.push(entry.epoch);
        }
        Ok((handles, epochs))
    }

    /// [`ShardedCatalog::pin`] for maintenance paths that must observe
    /// missing entries instead of erroring: per name, `Some((relation,
    /// epoch))` or `None` if unregistered, read under the same
    /// simultaneous multi-shard cut.
    pub fn snapshot(&self, names: &[&str]) -> Vec<Option<(Arc<Relation>, u64)>> {
        let guards = self.lock_touched(names);
        names
            .iter()
            .map(|name| {
                guards[self.shard_of(name)]
                    .as_ref()
                    .expect("touched shard is locked")
                    .get(name)
                    .map(|e| (Arc::clone(&e.relation), e.epoch))
            })
            .collect()
    }

    /// Read-locks the shards `names` touch in ascending index order,
    /// returning a shard-indexed guard table.
    fn lock_touched(&self, names: &[&str]) -> Vec<Option<RwLockReadGuard<'_, Catalog>>> {
        let mut guards: Vec<Option<RwLockReadGuard<'_, Catalog>>> =
            (0..self.shards.len()).map(|_| None).collect();
        let mut touched: Vec<usize> = names.iter().map(|n| self.shard_of(n)).collect();
        touched.sort_unstable();
        touched.dedup();
        for index in touched {
            guards[index] = Some(
                self.shards[index]
                    .read()
                    .unwrap_or_else(PoisonError::into_inner),
            );
        }
        guards
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
        let mut c = Catalog::new();
        assert_eq!(c.epoch(), 0);
        let e1 = c.register("R", rel(&[(0, 0), (1, 0), (2, 1)]));
        assert_eq!(e1, 1);
        let entry = c.get("R").unwrap();
        assert_eq!(entry.relation.len(), 3);
        assert_eq!(entry.epoch, 1);
    }

    #[test]
    fn update_requires_existing_name() {
        let mut c = Catalog::new();
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
        let mut c = Catalog::new();
        c.register("R", rel(&[(0, 0), (1, 0)]));
        let epoch = c.get("R").unwrap().epoch;
        let again = c.update("R", rel(&[(0, 0), (1, 0)])).unwrap();
        assert_eq!(again, epoch, "empty staged delta must not bump the epoch");
        assert_eq!(c.epoch(), epoch);
    }

    #[test]
    fn apply_delta_installs_and_reports_context() {
        let mut c = Catalog::new();
        c.register("R", rel(&[(0, 0), (1, 0)]));
        let mut delta = RelationDelta::new();
        delta.insert(2, 1).delete(1, 0);
        let staged = c.apply_delta("R", &delta).unwrap();
        assert_eq!(staged.old.edges(), &[(0, 0), (1, 0)]);
        assert!(staged.new_epoch > staged.old_epoch);
        assert_eq!(staged.delta.inserts, vec![(2, 1)]);
        assert_eq!(staged.delta.deletes, vec![(1, 0)]);
        let entry = c.get("R").unwrap();
        assert_eq!(entry.relation.edges(), &[(0, 0), (2, 1)]);
        assert_eq!(entry.epoch, staged.new_epoch);
    }

    #[test]
    fn apply_delta_noop_batch_keeps_epoch() {
        let mut c = Catalog::new();
        c.register("R", rel(&[(0, 0)]));
        let epoch = c.epoch();
        // Insert of a present tuple + delete of an absent one: nets out.
        let mut delta = RelationDelta::new();
        delta.insert(0, 0).delete(9, 9);
        let staged = c.apply_delta("R", &delta).unwrap();
        assert!(staged.delta.is_empty());
        assert_eq!(staged.new_epoch, staged.old_epoch);
        assert_eq!(c.epoch(), epoch);
        assert!(matches!(
            c.apply_delta("nope", &RelationDelta::new()),
            Err(ServiceError::UnknownRelation(_))
        ));
    }

    #[test]
    fn remove_bumps_epoch() {
        let mut c = Catalog::new();
        c.register("R", rel(&[(0, 0)]));
        let e = c.epoch();
        assert!(c.remove("R"));
        assert!(c.epoch() > e);
        assert!(!c.remove("R"));
        assert!(c.is_empty());
    }

    #[test]
    fn names_trimmed_to_match_request_canonicalization() {
        let mut c = Catalog::new();
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
        let mut c = Catalog::new();
        c.register("b", rel(&[(0, 0)]));
        c.register("a", rel(&[(0, 0)]));
        assert_eq!(c.names(), vec!["a", "b"]);
        assert_eq!(c.len(), 2);
    }

    /// Two names guaranteed to land on different shards of `c`.
    fn names_on_distinct_shards(c: &ShardedCatalog) -> (String, String) {
        let a = "r0".to_string();
        let b = (0..100)
            .map(|i| format!("s{i}"))
            .find(|n| c.shard_of(n) != c.shard_of(&a))
            .expect("some name lands on another shard");
        (a, b)
    }

    #[test]
    fn sharded_register_resolve_round_trip() {
        let c = ShardedCatalog::new(8);
        assert_eq!(c.shard_count(), 8);
        assert!(c.is_empty());
        let e1 = c.register("R", rel(&[(0, 0), (1, 0)]));
        let e2 = c.register("S", rel(&[(2, 1)]));
        assert!(e1 >= 1 && e2 >= 1);
        assert_eq!(c.len(), 2);
        assert_eq!(c.names(), vec!["R", "S"]);
        assert_eq!(c.relation("R").unwrap().len(), 2);
        assert_eq!(c.relation("S").unwrap().edges(), &[(2, 1)]);
        let (handles, epochs) = c.pin(&["R", "S", "R"]).unwrap();
        assert_eq!(handles.len(), 3);
        assert_eq!(epochs[0], epochs[2], "same entry pins the same epoch");
        assert!(matches!(
            c.pin(&["R", "nope"]),
            Err(ServiceError::UnknownRelation(_))
        ));
        assert!(c.remove("R"));
        assert!(c.snapshot(&["R", "S"])[0].is_none());
        assert!(c.snapshot(&["S"])[0].is_some());
    }

    #[test]
    fn sharded_update_bumps_only_its_shard() {
        let c = ShardedCatalog::new(8);
        let (a, b) = names_on_distinct_shards(&c);
        c.register(&a, rel(&[(0, 0)]));
        c.register(&b, rel(&[(1, 1)]));
        let b_epoch = c.entry_epoch(&b).unwrap();
        let a_epoch = c.entry_epoch(&a).unwrap();
        for step in 0..4 {
            c.update(&a, rel(&[(0, 0), (step + 1, 0)])).unwrap();
        }
        assert!(c.entry_epoch(&a).unwrap() > a_epoch, "A's epoch advances");
        assert_eq!(
            c.entry_epoch(&b).unwrap(),
            b_epoch,
            "B's epoch must be untouched by updates to A's shard"
        );
    }

    #[test]
    fn sharded_shard_of_is_stable_and_trims() {
        let c = ShardedCatalog::new(5);
        assert_eq!(c.shard_of("R"), c.shard_of(" R \t"));
        let d = ShardedCatalog::new(5);
        assert_eq!(c.shard_of("whatever"), d.shard_of("whatever"));
    }

    #[test]
    fn single_shard_degenerates_to_plain_catalog() {
        let c = ShardedCatalog::new(1);
        c.register("a", rel(&[(0, 0)]));
        c.register("b", rel(&[(1, 0)]));
        assert_eq!(c.shard_of("a"), 0);
        assert_eq!(c.epoch(), 2);
        let (_, epochs) = c.pin(&["a", "b"]).unwrap();
        assert_eq!(epochs, vec![1, 2]);
    }
}
