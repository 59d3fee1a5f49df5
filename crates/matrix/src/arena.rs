//! Reusable thread-local scratch buffers for packing slabs.
//!
//! The parallel tile scheduler packs B into a panel-major slab on every
//! product; allocating (and faulting in) that slab per call costs more
//! than the packing itself for mid-sized products. [`with_scratch`]
//! leases a buffer from a small per-thread pool instead: repeat products
//! on the same caller thread — the common shape for both a served
//! connection's reader, which runs its requests itself, and the
//! executor's pool — reuse warm, already-faulted memory with zero
//! synchronization.
//!
//! The pool is deliberately tiny and bounded: at most [`POOL_SLOTS`]
//! buffers per thread, and buffers larger than [`MAX_POOLED_LEN`] floats
//! (64 MiB) are dropped on return rather than pinned for the thread's
//! lifetime. Nested leases (a parallel GEMM inside another product's
//! tile) simply pop distinct buffers.

use std::cell::RefCell;

/// Buffers retained per thread; two covers the deepest practical nesting
/// (a parallel GEMM inside another product's tile).
const POOL_SLOTS: usize = 2;

/// Largest buffer (in `f32` elements) worth pinning to a thread between
/// products: 16 Mi floats = 64 MiB. Bigger slabs are one-shot.
const MAX_POOLED_LEN: usize = 16 * 1024 * 1024;

thread_local! {
    static POOL: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` over a scratch slice of exactly `len` floats, leased from
/// this thread's pool. A reused buffer that is already large enough is
/// handed over as-is up to `len` — callers must treat the contents as
/// *uninitialized-but-valid* floats and fully overwrite whatever region
/// they later read. (The tile scheduler packs every element of the slab
/// before any tile reads it, so this is free there.) Debug builds
/// enforce the contract by NaN-poisoning the lease before `f` runs.
pub fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    let mut buf = POOL
        .with(|pool| pool.borrow_mut().pop())
        .unwrap_or_default();
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    // Runtime contract (debug builds only): the lease hands over
    // uninitialized-but-valid contents, so poison them with NaN. A
    // caller that reads a slot it never wrote propagates NaN into its
    // output and fails the equivalence suites loudly, instead of
    // silently reusing stale floats from a previous product.
    #[cfg(debug_assertions)]
    buf[..len].fill(f32::NAN);
    let out = f(&mut buf[..len]);
    debug_assert!(buf.len() >= len, "lease returned a truncated slab");
    if buf.len() <= MAX_POOLED_LEN {
        POOL.with(|pool| {
            let mut pool = pool.borrow_mut();
            if pool.len() < POOL_SLOTS {
                pool.push(buf);
            }
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_has_requested_length() {
        with_scratch(17, |s| assert_eq!(s.len(), 17));
        // A second, smaller lease sees exactly its own length even though
        // the pooled buffer is larger.
        with_scratch(3, |s| assert_eq!(s.len(), 3));
    }

    #[test]
    fn reuse_keeps_capacity_across_leases() {
        let cap0 = with_scratch(4096, |s| {
            s[0] = 1.0;
            s.len()
        });
        assert_eq!(cap0, 4096);
        // The pooled buffer comes back without reallocating; contents are
        // unspecified, so only the length contract is asserted.
        with_scratch(4096, |s| assert_eq!(s.len(), 4096));
    }

    #[test]
    fn nested_leases_get_distinct_buffers() {
        with_scratch(64, |outer| {
            outer[0] = 7.0;
            with_scratch(64, |inner| {
                inner[0] = 9.0;
            });
            assert_eq!(outer[0], 7.0, "nested lease must not alias the outer one");
        });
    }

    #[test]
    #[cfg(debug_assertions)]
    fn debug_lease_is_nan_poisoned() {
        // Write a recognizable value, then check a fresh lease of the
        // same (pooled) buffer does not leak it.
        with_scratch(32, |s| s.fill(3.25));
        with_scratch(32, |s| {
            assert!(
                s.iter().all(|v| v.is_nan()),
                "reused slab leaked prior contents into a new lease"
            );
        });
    }

    use proptest::prelude::*;

    proptest! {
        /// Interleaved leases across size classes: every lease is exactly
        /// the requested length, regardless of which pooled slab (bigger,
        /// smaller, or fresh) backs it.
        #[test]
        fn interleaved_size_classes_lease_exact_lengths(
            lens in proptest::collection::vec(1usize..5000, 1..40)
        ) {
            for (i, &len) in lens.iter().enumerate() {
                with_scratch(len, |s| {
                    prop_assert_eq!(s.len(), len);
                    // Touch both ends so an undersized slab would trip
                    // the bounds check.
                    s[0] = i as f32;
                    s[len - 1] = i as f32;
                });
            }
        }

        /// A caller that fully overwrites its lease reads back exactly
        /// what it wrote — no aliasing with earlier leases of other size
        /// classes, and (in debug builds) no poison left behind.
        #[test]
        fn reused_slabs_fully_overwritten_read_back_clean(
            lens in proptest::collection::vec(1usize..3000, 2..30)
        ) {
            for (i, &len) in lens.iter().enumerate() {
                let tag = i as f32 + 0.5;
                with_scratch(len, |s| {
                    for (j, slot) in s.iter_mut().enumerate() {
                        *slot = tag + j as f32;
                    }
                    for (j, slot) in s.iter().enumerate() {
                        prop_assert_eq!(*slot, tag + j as f32);
                    }
                });
            }
        }
    }
}
