//! Debug-build lock-order enforcement.
//!
//! The Glider servers hold at most a handful of mutexes, but two of them
//! nest: the metadata server acquires a namespace shard lock and then,
//! while still holding it, the server-registry lock (block allocation,
//! delete, replace). A reversed acquisition anywhere would be a latent
//! deadlock that no unit test reliably provokes. This module makes the
//! hierarchy executable:
//!
//! - every tracked mutex declares a [`LockRank`];
//! - ranks must be acquired in strictly increasing order
//!   ([`LockRank::NamespaceShard`] < [`LockRank::Registry`] <
//!   [`LockRank::BlockMap`] < [`LockRank::BufferPool`]);
//! - under `debug_assertions` a thread-local stack of held ranks is
//!   checked on every acquisition, and a violation panics with both
//!   ranks named. Release builds compile the tracking away entirely —
//!   [`OrderedMutex`] is a zero-cost veneer over `parking_lot::Mutex`.
//!
//! Holding two locks of the *same* rank is also rejected: the metadata
//! plane's invariant is "at most one shard lock at a time" (root
//! listings take shard locks sequentially, never nested).
//!
//! The static half of the same check lives in `xtask` (`cargo xtask
//! check`), which scans for nested acquisitions in source order; this
//! runtime guard catches the compositions static scanning cannot see
//! (locks taken in helpers on behalf of callers).
//!
//! # Examples
//!
//! ```
//! use glider_util::lockorder::{LockRank, OrderedMutex};
//!
//! let shard = OrderedMutex::new(LockRank::NamespaceShard, vec![1]);
//! let reg = OrderedMutex::new(LockRank::Registry, 0u64);
//! let s = shard.lock();
//! let r = reg.lock(); // shard before registry: the declared order
//! drop(r);
//! drop(s);
//! ```

use parking_lot::{Mutex, MutexGuard};

/// The workspace lock hierarchy, outermost first. Locks must be acquired
/// in strictly increasing rank order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockRank {
    /// A metadata namespace shard (`glider-metadata`). Outermost: taken
    /// before the registry, never nested with another shard.
    NamespaceShard = 0,
    /// The storage-server registry / block allocator (`glider-metadata`).
    Registry = 1,
    /// A storage server's block map shard (`glider-storage`). In
    /// practice never held together with metadata locks (different
    /// process in a real deployment), ranked defensively for the
    /// in-process test clusters. Like namespace shards, at most one
    /// block-map shard may be held at a time.
    BlockMap = 2,
    /// A registered buffer pool's freelist (`glider-net`). Innermost:
    /// buffers are recycled from inside data-path critical sections, so
    /// the pool lock may be taken while any other lock is held, and
    /// nothing may be acquired under it.
    BufferPool = 3,
}

impl LockRank {
    /// Stable name used in panic messages and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            LockRank::NamespaceShard => "namespace-shard",
            LockRank::Registry => "registry",
            LockRank::BlockMap => "block-map",
            LockRank::BufferPool => "buffer-pool",
        }
    }
}

impl std::fmt::Display for LockRank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(debug_assertions)]
mod tracker {
    use super::LockRank;
    use std::cell::RefCell;

    thread_local! {
        /// Ranks currently held by this thread, in acquisition order.
        static HELD: RefCell<Vec<LockRank>> = const { RefCell::new(Vec::new()) };
    }

    /// Records an acquisition, panicking on rank inversion. Server
    /// handlers never hold these locks across `.await`, so a task's
    /// critical section stays on one thread and the thread-local view
    /// is complete.
    pub fn acquire(rank: LockRank) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(&top) = held.last() {
                assert!(
                    top < rank,
                    "lock-order violation: acquiring {} while holding {} \
                     (declared order: namespace-shard < registry < block-map \
                     < buffer-pool, strictly increasing)",
                    rank.name(),
                    top.name(),
                );
            }
            held.push(rank);
        });
    }

    /// Records a release. Guards usually drop in LIFO order, but an
    /// explicit early `drop` of an outer guard is legal, so the last
    /// matching entry is removed wherever it sits.
    pub fn release(rank: LockRank) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(pos) = held.iter().rposition(|&r| r == rank) {
                held.remove(pos);
            }
        });
    }

    /// Number of tracked locks currently held by this thread (test
    /// introspection).
    pub fn held_count() -> usize {
        HELD.with(|held| held.borrow().len())
    }
}

/// A `parking_lot::Mutex` that participates in the declared lock
/// hierarchy. In release builds this is exactly a `Mutex`; in debug
/// builds every `lock()` checks the thread's held ranks.
#[derive(Debug)]
pub struct OrderedMutex<T> {
    rank: LockRank,
    inner: Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// Wraps `value` in a mutex at `rank`.
    pub fn new(rank: LockRank, value: T) -> Self {
        OrderedMutex {
            rank,
            inner: Mutex::new(value),
        }
    }

    /// This mutex's position in the hierarchy.
    pub fn rank(&self) -> LockRank {
        self.rank
    }

    /// Acquires the lock, enforcing the hierarchy in debug builds.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if this thread already holds a lock of
    /// the same or higher rank.
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        tracker::acquire(self.rank);
        OrderedMutexGuard {
            rank: self.rank,
            guard: self.inner.lock(),
        }
    }
}

/// Guard returned by [`OrderedMutex::lock`]; releases the rank on drop.
pub struct OrderedMutexGuard<'a, T> {
    rank: LockRank,
    guard: MutexGuard<'a, T>,
}

impl<T> Drop for OrderedMutexGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        tracker::release(self.rank);
        let _ = self.rank; // silence release-build dead field
    }
}

impl<T> std::ops::Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> std::ops::DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for OrderedMutexGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.guard.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each #[test] runs on its own thread, so the thread-local held
    // stack starts empty and panicking tests cannot poison siblings
    // (parking_lot mutexes do not poison either).

    #[test]
    fn in_order_acquisition_is_allowed() {
        let shard = OrderedMutex::new(LockRank::NamespaceShard, 1u32);
        let reg = OrderedMutex::new(LockRank::Registry, 2u32);
        let blocks = OrderedMutex::new(LockRank::BlockMap, 3u32);
        let s = shard.lock();
        let r = reg.lock();
        let b = blocks.lock();
        assert_eq!((*s, *r, *b), (1, 2, 3));
        #[cfg(debug_assertions)]
        assert_eq!(tracker::held_count(), 3);
        drop(b);
        drop(r);
        drop(s);
        #[cfg(debug_assertions)]
        assert_eq!(tracker::held_count(), 0);
    }

    #[test]
    fn sequential_same_rank_reacquisition_is_allowed() {
        // The root-listing pattern: shard locks taken one at a time,
        // each released before the next.
        let shards = [
            OrderedMutex::new(LockRank::NamespaceShard, 0u8),
            OrderedMutex::new(LockRank::NamespaceShard, 1u8),
        ];
        let mut sum = 0u8;
        for shard in &shards {
            sum += *shard.lock();
        }
        assert_eq!(sum, 1);
    }

    #[test]
    fn skipping_a_rank_is_allowed() {
        let shard = OrderedMutex::new(LockRank::NamespaceShard, ());
        let blocks = OrderedMutex::new(LockRank::BlockMap, ());
        let s = shard.lock();
        let b = blocks.lock();
        drop(b);
        drop(s);
        // And an inner rank alone is fine too.
        let r = OrderedMutex::new(LockRank::Registry, ());
        drop(r.lock());
    }

    #[test]
    fn early_drop_of_outer_guard_unwinds_correctly() {
        let shard = OrderedMutex::new(LockRank::NamespaceShard, ());
        let reg = OrderedMutex::new(LockRank::Registry, ());
        let s = shard.lock();
        let r = reg.lock();
        drop(s); // out of LIFO order: legal, releases the shard rank
        drop(r);
        // The stack is clean again: a fresh shard->registry pair works.
        let s = shard.lock();
        let r = reg.lock();
        drop(r);
        drop(s);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn registry_before_shard_panics() {
        let shard = OrderedMutex::new(LockRank::NamespaceShard, ());
        let reg = OrderedMutex::new(LockRank::Registry, ());
        let _r = reg.lock();
        let _s = shard.lock(); // inversion: registry is ranked above shards
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn nested_same_rank_panics() {
        let a = OrderedMutex::new(LockRank::NamespaceShard, ());
        let b = OrderedMutex::new(LockRank::NamespaceShard, ());
        let _a = a.lock();
        let _b = b.lock(); // two shards at once: forbidden
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn block_map_before_registry_panics() {
        let reg = OrderedMutex::new(LockRank::Registry, ());
        let blocks = OrderedMutex::new(LockRank::BlockMap, ());
        let _b = blocks.lock();
        let _r = reg.lock();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn acquiring_under_the_buffer_pool_panics() {
        let pool = OrderedMutex::new(LockRank::BufferPool, ());
        let blocks = OrderedMutex::new(LockRank::BlockMap, ());
        let _p = pool.lock();
        let _b = blocks.lock(); // the pool is innermost: nothing nests under it
    }

    #[test]
    fn buffer_pool_nests_under_everything() {
        let blocks = OrderedMutex::new(LockRank::BlockMap, ());
        let pool = OrderedMutex::new(LockRank::BufferPool, ());
        let b = blocks.lock();
        let p = pool.lock();
        drop(p);
        drop(b);
    }

    #[test]
    fn ranks_are_ordered_and_named() {
        assert!(LockRank::NamespaceShard < LockRank::Registry);
        assert!(LockRank::Registry < LockRank::BlockMap);
        assert!(LockRank::BlockMap < LockRank::BufferPool);
        assert_eq!(LockRank::NamespaceShard.to_string(), "namespace-shard");
        assert_eq!(LockRank::Registry.name(), "registry");
        assert_eq!(LockRank::BlockMap.name(), "block-map");
        assert_eq!(LockRank::BufferPool.name(), "buffer-pool");
        let m = OrderedMutex::new(LockRank::Registry, ());
        assert_eq!(m.rank(), LockRank::Registry);
    }

    #[test]
    fn guards_deref_and_debug() {
        let m = OrderedMutex::new(LockRank::BlockMap, vec![1, 2]);
        let mut g = m.lock();
        g.push(3);
        assert_eq!(format!("{g:?}"), "[1, 2, 3]");
    }
}
