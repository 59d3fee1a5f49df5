//! Epoch-stamped dense deduplication scratch buffer.
//!
//! §6 of the paper deduplicates light-part output with a dense
//! `std::vector<int> dedup(N)` that is `assign(N, 0)`-cleared for every new
//! `x` group. We keep the same O(1) random-access counting but replace the
//! O(N) clear with an epoch counter: bumping the epoch invalidates every slot
//! at once, so a group whose output is tiny pays nothing for the reset.
//!
//! The paper's *alternative* strategy — append all reachable values, then
//! sort and deduplicate — is [`sort_dedup`] (§6: "we choose the best of the
//! two strategies"; `mmjoin_baseline::nonmm` makes that choice per group).

use crate::Value;

/// Dense counting set over the domain `0..n` with O(1) insert/lookup and
/// O(1) clear (epoch bump).
#[derive(Debug, Clone)]
pub struct DedupBuffer {
    /// Epoch at which each slot was last written.
    stamp: Vec<u32>,
    /// Multiplicity of each member in the current epoch.
    count: Vec<u32>,
    /// Current epoch; slots with `stamp != epoch` are absent.
    epoch: u32,
}

impl DedupBuffer {
    /// Creates a buffer over the dense domain `0..n`.
    pub fn new(n: usize) -> Self {
        Self {
            stamp: vec![0; n],
            count: vec![0; n],
            epoch: 1,
        }
    }

    /// Clears the set in O(1) by bumping the epoch. On (rare) epoch wrap the
    /// stamps are hard-reset.
    pub fn clear(&mut self) {
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    /// Inserts `v`, returning `true` iff it was *not* already present
    /// (i.e. this call discovered a fresh distinct value).
    #[inline]
    pub fn insert(&mut self, v: Value) -> bool {
        let i = v as usize;
        if self.stamp[i] == self.epoch {
            self.count[i] += 1;
            false
        } else {
            self.stamp[i] = self.epoch;
            self.count[i] = 1;
            true
        }
    }

    /// True if `v` is present in the current epoch.
    #[inline]
    pub fn contains(&self, v: Value) -> bool {
        self.stamp[v as usize] == self.epoch
    }

    /// Multiplicity of `v` in the current epoch (0 if absent).
    #[inline]
    pub fn multiplicity(&self, v: Value) -> u32 {
        let i = v as usize;
        if self.stamp[i] == self.epoch {
            self.count[i]
        } else {
            0
        }
    }
}

/// Sort-based deduplication (the §6 alternative): sorts `buf` and removes
/// duplicates in place, returning the number of distinct values.
pub fn sort_dedup(buf: &mut Vec<Value>) -> usize {
    buf.sort_unstable();
    buf.dedup();
    buf.len()
}

/// Sort-based dedup that also reports multiplicities `(value, count)`,
/// used by the similarity joins that need intersection sizes.
pub fn sort_dedup_counts(buf: &mut [Value]) -> Vec<(Value, u32)> {
    buf.sort_unstable();
    let mut out: Vec<(Value, u32)> = Vec::new();
    for &v in buf.iter() {
        match out.last_mut() {
            Some((last, c)) if *last == v => *c += 1,
            _ => out.push((v, 1)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_contains() {
        let mut d = DedupBuffer::new(10);
        assert!(d.insert(3));
        assert!(!d.insert(3));
        assert!(d.contains(3));
        assert!(!d.contains(4));
        assert_eq!(d.multiplicity(3), 2);
        assert_eq!(d.multiplicity(4), 0);
    }

    #[test]
    fn clear_is_constant_time_epoch_bump() {
        let mut d = DedupBuffer::new(4);
        d.insert(0);
        d.insert(1);
        d.clear();
        assert!(!d.contains(0));
        assert!(!d.contains(1));
        assert!(d.insert(0));
        assert_eq!(d.multiplicity(0), 1);
    }

    #[test]
    fn epoch_wrap_resets() {
        let mut d = DedupBuffer::new(2);
        d.epoch = u32::MAX - 1;
        d.insert(0);
        d.clear(); // -> MAX
        assert!(!d.contains(0));
        d.insert(1);
        d.clear(); // wrap: hard reset
        assert!(!d.contains(1));
        assert!(d.insert(1));
    }

    #[test]
    fn sort_dedup_basic() {
        let mut v = vec![5, 1, 5, 2, 1, 5];
        assert_eq!(sort_dedup(&mut v), 3);
        assert_eq!(v, vec![1, 2, 5]);
    }

    #[test]
    fn sort_dedup_counts_basic() {
        let mut v = vec![5, 1, 5, 2, 1, 5];
        let c = sort_dedup_counts(&mut v);
        assert_eq!(c, vec![(1, 2), (2, 1), (5, 3)]);
    }

    #[test]
    fn sort_dedup_empty() {
        let mut v: Vec<Value> = vec![];
        assert_eq!(sort_dedup(&mut v), 0);
        assert!(sort_dedup_counts(&mut v).is_empty());
    }
}
