//! The LRU result cache.
//!
//! Keyed by `(canonical query fingerprint, epochs of the referenced
//! relations)` — see [`crate::Request::fingerprint`] and
//! [`crate::Catalog`]. Because the epoch is part of the key, an update
//! never *serves* a stale result. The service drains the entries over a
//! relation it replaces or removes ([`ResultCache::drain_referencing`]),
//! so a superseded entry does not sit in memory until recency reaches it.
//! Cached rows, counts and stats are shared out as `Arc`s, so a hit is
//! O(1) regardless of result size — a recency stamp and a reference-count
//! bump per array, no heap copied under the lock every warm request takes —
//! and hits are byte-identical to the cold execution that populated them.

use crate::request::Request;
use mmjoin_api::{ExecStats, FlatRows};
use mmjoin_storage::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// A materialised query result as the cache stores it and responses share
/// it: the rows — flat, or a Boolean core's product cells — and a flat
/// array of counts, so holding or dropping one costs the same however many
/// rows it has.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// The rows, in the engine's emission order — what the engine handed
    /// its sink: its flat buffer, or its product's cells.
    pub rows: Arc<FlatRows>,
    /// Per-row witness counts; empty where the query family emits none.
    pub counts: Arc<Vec<u32>>,
    /// The stats of the execution that produced this result.
    pub stats: Arc<ExecStats>,
    /// Whether a row limit cut the stream short.
    pub truncated: bool,
}

impl CacheEntry {
    /// Heap bytes of the result arrays — the rows, flat or product cells
    /// ([`FlatRows::heap_bytes`]), and the counts.
    pub fn bytes(&self) -> usize {
        self.rows.heap_bytes() + self.counts.len() * std::mem::size_of::<u32>()
    }
}

/// The per-row shape of a cache entry. Pinned by the harness: the external
/// benchmark (`benchmark/trajectory`, which a change to the system may not
/// edit) fills a probe cache with this literal; goes with ROADMAP 1(a).
/// Nothing in `crates/` constructs it — [`ResultCache::insert`] takes
/// anything that converts into a [`CacheEntry`]. `support` and `maintained`
/// are the fields of an update path that is gone: `support` can only be
/// `None`, and both are ignored.
#[doc(hidden)]
#[derive(Debug, Clone)]
pub struct CachedResult {
    pub arity: usize,
    pub rows: Arc<Vec<Vec<Value>>>,
    pub counts: Arc<Vec<u32>>,
    pub stats: ExecStats,
    pub truncated: bool,
    pub support: Option<std::convert::Infallible>,
    pub maintained: bool,
}

impl From<CachedResult> for CacheEntry {
    fn from(old: CachedResult) -> Self {
        Self {
            rows: Arc::new(FlatRows::new(old.arity, old.rows.concat())),
            counts: old.counts,
            stats: Arc::new(old.stats),
            truncated: old.truncated,
        }
    }
}

#[derive(Debug)]
struct Slot {
    /// The canonical request (+ relation epochs) this result answers.
    /// Checked on every hit: the 64-bit key is a hash, and a hash
    /// collision must degrade to a miss, never to serving foreign rows.
    request: Request,
    epochs: Vec<u64>,
    value: CacheEntry,
    /// Last-touch tick for LRU ordering.
    stamp: u64,
}

/// Fixed-capacity least-recently-used map from cache key to result.
#[derive(Debug)]
pub struct ResultCache {
    slots: HashMap<u64, Slot>,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    invalidations: u64,
}

impl ResultCache {
    /// A cache holding at most `capacity` results (0 disables caching).
    pub fn new(capacity: usize) -> Self {
        Self {
            slots: HashMap::with_capacity(capacity.min(1024)),
            capacity,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            invalidations: 0,
        }
    }

    /// Looks `key` up, counting a hit and refreshing its recency. The
    /// canonical `request` and `epochs` must match what the slot was filled
    /// with — a key collision between distinct requests is answered as a
    /// miss. A miss is the caller's to count ([`ResultCache::record_miss`]),
    /// once it goes on to compute the answer: a front end that only asks
    /// whether the answer is here hands a miss on to a second lookup, and one
    /// request must not count two.
    pub fn get(&mut self, key: u64, request: &Request, epochs: &[u64]) -> Option<CacheEntry> {
        self.tick += 1;
        let slot = self.slots.get_mut(&key)?;
        if slot.request != *request || slot.epochs != epochs {
            return None;
        }
        slot.stamp = self.tick;
        self.hits += 1;
        Some(slot.value.clone())
    }

    /// Counts one lookup that found nothing and is being computed instead.
    pub fn record_miss(&mut self) {
        self.misses += 1;
    }

    /// Whether `key` would hit, without touching recency or the hit/miss
    /// counters (the `explain` path observes the cache; it must not
    /// perturb it).
    pub fn peek(&self, key: u64, request: &Request, epochs: &[u64]) -> bool {
        matches!(
            self.slots.get(&key),
            Some(slot) if slot.request == *request && slot.epochs == epochs
        )
    }

    /// Inserts `value` under `key`, evicting the least-recently-used
    /// entry if at capacity. Returns the result this displaced — the LRU
    /// victim, or the previous holder of `key` — so that a caller holding
    /// a lock around the cache can release it before freeing megabytes
    /// of rows.
    pub fn insert(
        &mut self,
        key: u64,
        request: Request,
        epochs: Vec<u64>,
        value: impl Into<CacheEntry>,
    ) -> Option<CacheEntry> {
        if self.capacity == 0 {
            return None;
        }
        self.tick += 1;
        let mut displaced = None;
        if !self.slots.contains_key(&key) && self.slots.len() >= self.capacity {
            // O(n) victim scan: capacities are small (hundreds), and this
            // only runs on insert-at-capacity. Swap for a list-based LRU
            // if profiles ever show it.
            if let Some((&victim, _)) = self.slots.iter().min_by_key(|(_, s)| s.stamp) {
                displaced = self.slots.remove(&victim);
                self.evictions += 1;
            }
        }
        let slot = Slot {
            request,
            epochs,
            value: value.into(),
            stamp: self.tick,
        };
        self.slots
            .insert(key, slot)
            .or(displaced)
            .map(|slot| slot.value)
    }

    /// Removes and returns every entry whose request references relation
    /// `name` (already-canonical names match exactly), for the caller to
    /// free once it has released whatever lock guards the cache. Every
    /// drained slot counts as update-driven `invalidations` churn —
    /// distinct from capacity `evictions`.
    pub fn drain_referencing(&mut self, name: &str) -> Vec<CacheEntry> {
        let keys: Vec<u64> = self
            .slots
            .iter()
            .filter(|(_, slot)| slot.request.relation_names().contains(&name))
            .map(|(&key, _)| key)
            .collect();
        self.invalidations += keys.len() as u64;
        keys.into_iter()
            .map(|key| self.slots.remove(&key).expect("key just enumerated").value)
            .collect()
    }

    /// Drops every entry (used when a caller wants a hard reset; epoch
    /// keying makes this unnecessary for correctness). Counted as
    /// invalidations, not evictions.
    pub fn clear(&mut self) {
        self.invalidations += self.slots.len() as u64;
        self.slots.clear();
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Heap bytes of the held entries' result arrays: two lengths per
    /// entry ([`CacheEntry::bytes`]), summed when `stats` asks.
    pub fn bytes(&self) -> usize {
        self.slots.values().map(|slot| slot.value.bytes()).sum()
    }

    /// `(hits, misses, evictions, invalidations)` counters since
    /// construction. `evictions` is capacity pressure (LRU victims);
    /// `invalidations` is update-driven churn (drained or cleared
    /// entries) — the quantity that makes heavy write traffic visible.
    pub fn counters(&self) -> (u64, u64, u64, u64) {
        (self.hits, self.misses, self.evictions, self.invalidations)
    }

    /// Zeroes the hit/miss/eviction/invalidation counters without
    /// touching cached entries (`stats reset`).
    pub fn reset_counters(&mut self) {
        self.hits = 0;
        self.misses = 0;
        self.evictions = 0;
        self.invalidations = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(tag: u32) -> CacheEntry {
        CacheEntry {
            rows: Arc::new(FlatRows::new(2, vec![tag, tag])),
            counts: Arc::default(),
            stats: Arc::new(ExecStats::new("test", 1)),
            truncated: false,
        }
    }

    fn req(tag: u32) -> Request {
        Request::similarity("R", tag.max(1))
    }

    fn put(c: &mut ResultCache, key: u64, tag: u32) {
        c.insert(key, req(tag), vec![1], result(tag));
    }

    /// A lookup the way the query path does one: a miss is counted by
    /// whoever goes on to compute.
    fn probe(c: &mut ResultCache, key: u64, tag: u32) -> Option<CacheEntry> {
        let found = c.get(key, &req(tag), &[1]);
        if found.is_none() {
            c.record_miss();
        }
        found
    }

    #[test]
    fn hit_and_miss_counters() {
        let mut c = ResultCache::new(4);
        assert!(probe(&mut c, 1, 1).is_none());
        put(&mut c, 1, 1);
        let hit = probe(&mut c, 1, 1).unwrap();
        assert_eq!(hit.rows.row(0), [1, 1]);
        assert_eq!(c.counters(), (1, 1, 0, 0));
        // A lookup that only asks: the miss is for whoever computes.
        assert!(c.get(7, &req(7), &[1]).is_none());
        assert_eq!(c.counters(), (1, 1, 0, 0));
    }

    #[test]
    fn colliding_key_with_different_request_is_a_miss() {
        let mut c = ResultCache::new(4);
        put(&mut c, 1, 1);
        assert!(
            probe(&mut c, 1, 2).is_none(),
            "same key, different request: must miss"
        );
        assert!(
            c.get(1, &req(1), &[9]).is_none(),
            "same key + request, different epochs: must miss"
        );
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = ResultCache::new(2);
        put(&mut c, 1, 1);
        put(&mut c, 2, 2);
        probe(&mut c, 1, 1); // 2 is now the LRU
        put(&mut c, 3, 3);
        assert!(probe(&mut c, 2, 2).is_none(), "LRU entry evicted");
        assert!(probe(&mut c, 1, 1).is_some());
        assert!(probe(&mut c, 3, 3).is_some());
        assert_eq!(c.len(), 2);
        assert_eq!(c.counters().2, 1);
    }

    #[test]
    fn insert_hands_back_what_it_displaced() {
        let mut c = ResultCache::new(2);
        assert!(c.insert(1, req(1), vec![1], result(1)).is_none());
        assert!(c.insert(2, req(2), vec![1], result(2)).is_none());
        let victim = c.insert(3, req(3), vec![1], result(3)).expect("LRU victim");
        assert_eq!(victim.rows.row(0), [1, 1]);
        let replaced = c.insert(3, req(3), vec![1], result(9)).expect("old holder");
        assert_eq!(replaced.rows.row(0), [3, 3]);
        assert_eq!(c.counters().2, 1, "replacing a key is not an eviction");
    }

    #[test]
    fn zero_capacity_disables() {
        let mut c = ResultCache::new(0);
        put(&mut c, 1, 1);
        assert!(c.is_empty());
        assert!(probe(&mut c, 1, 1).is_none());
    }

    #[test]
    fn drain_referencing_removes_only_matching_entries() {
        let mut c = ResultCache::new(4);
        c.insert(1, Request::similarity("R", 1), vec![1], result(1));
        c.insert(2, Request::similarity("S", 1), vec![2], result(2));
        let drained = c.drain_referencing("R");
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].rows.row(0), [1, 1], "the drained entry");
        assert_eq!(c.len(), 1);
        assert!(c.get(2, &Request::similarity("S", 1), &[2]).is_some());
        assert!(c.drain_referencing("R").is_empty(), "already drained");
    }

    #[test]
    fn drain_and_clear_count_invalidations() {
        let mut c = ResultCache::new(4);
        c.insert(1, Request::similarity("R", 1), vec![1], result(1));
        c.insert(2, Request::similarity("R", 2), vec![1], result(2));
        c.insert(3, Request::similarity("S", 1), vec![2], result(3));
        assert_eq!(c.drain_referencing("R").len(), 2);
        assert_eq!(c.counters().3, 2, "drained entries are invalidations");
        c.clear();
        assert_eq!(c.counters().3, 3, "clear() counts the dropped entry");
        assert_eq!(c.counters().2, 0, "no LRU eviction happened");
    }

    #[test]
    fn reinsert_same_key_does_not_evict() {
        let mut c = ResultCache::new(2);
        put(&mut c, 1, 1);
        put(&mut c, 2, 2);
        c.insert(1, req(1), vec![1], result(9));
        assert_eq!(c.len(), 2);
        assert_eq!(probe(&mut c, 1, 1).unwrap().rows.row(0), [9, 9]);
        assert!(probe(&mut c, 2, 2).is_some());
    }

    #[test]
    fn bytes_follow_inserts_evictions_and_drains() {
        let entry = |rows: u32, counted: bool| CacheEntry {
            rows: Arc::new(FlatRows::new(2, (0..2 * rows).collect())),
            counts: Arc::new(if counted {
                vec![1; rows as usize]
            } else {
                Vec::new()
            }),
            ..result(0)
        };
        let mut c = ResultCache::new(2);
        c.insert(1, Request::similarity("R", 1), vec![1], entry(10, false));
        assert_eq!(c.bytes(), 80);
        c.insert(2, Request::similarity("S", 1), vec![1], entry(5, true));
        assert_eq!(c.bytes(), 80 + 60);
        c.insert(2, Request::similarity("S", 1), vec![1], entry(1, false));
        assert_eq!(c.bytes(), 80 + 8, "the replaced holder's bytes leave");
        c.insert(3, Request::similarity("S", 2), vec![1], entry(2, false));
        assert_eq!(c.bytes(), 8 + 16, "and so do the LRU victim's");
        assert_eq!(c.drain_referencing("S").len(), 2);
        assert_eq!((c.bytes(), c.len()), (0, 0));
        c.insert(4, req(4), vec![1], entry(3, true));
        c.clear();
        assert_eq!(c.bytes(), 0);
    }
}
