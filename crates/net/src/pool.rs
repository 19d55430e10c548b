//! Registered buffer pool for the data path.
//!
//! RDMA NICs require transfer buffers to be *registered* (pinned and
//! mapped) ahead of time, which makes buffer reuse a first-class concern
//! rather than an optimization. [`BytesPool`] models that discipline for
//! the reproduction: a fixed-size-class freelist of [`BytesMut`] buffers
//! that the WriteBlock/ReadBlock fast path draws from instead of
//! allocating per frame.
//!
//! Lifecycle:
//!
//! 1. [`BytesPool::get`] hands out an empty buffer — from the freelist
//!    when possible (*hit*), freshly allocated otherwise (*miss*);
//! 2. the caller fills it, freezes it to [`Bytes`] and sends it; the
//!    frame layer moves the handle without copying;
//! 3. once every clone of the handle has dropped, [`BytesPool::recycle`]
//!    reclaims the allocation via [`Bytes::try_into_mut`] and returns it
//!    to the freelist.
//!
//! Step 3 is the aliasing guarantee: a buffer re-enters the pool only
//! when it is provably the *sole* handle to its allocation, so a pooled
//! buffer can never alias bytes still visible elsewhere. Reused buffers
//! are returned empty (length zero) but are **not** zeroed — exactly the
//! registered-buffer semantics, and the safe API cannot read past the
//! length anyway.
//!
//! Hit/miss counters feed the sweep's "zero per-frame allocations"
//! assertion and, when a [`MetricsRegistry`] is attached, the Stats RPC.
//! The freelist lock is at [`BufferPool`], the innermost lock level:
//! recycling may happen while any other lock is held, so each of its
//! sites mints its own context, and nothing is acquired under it.

use bytes::{Bytes, BytesMut};
use glider_metrics::{MetricsRegistry, Signal};
use glider_util::lockorder::{BufferPool, Locked, OrderedMutex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A fixed-size-class pool of reusable byte buffers. Cheap to share via
/// `Arc`; all methods take `&self`.
#[derive(Debug)]
pub struct BytesPool {
    buf_size: usize,
    max_free: usize,
    free: OrderedMutex<BufferPool, Vec<BytesMut>>,
    hits: AtomicU64,
    misses: AtomicU64,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl BytesPool {
    /// Creates a pool of `buf_size`-byte buffers keeping at most
    /// `max_free` of them on the freelist (excess returns are dropped,
    /// bounding idle memory to `buf_size * max_free`).
    pub fn new(buf_size: usize, max_free: usize) -> Arc<Self> {
        Self::build(buf_size, max_free, None)
    }

    /// Like [`BytesPool::new`], additionally mirroring hit/miss counts
    /// into `metrics` for the Stats RPC.
    pub fn with_metrics(
        buf_size: usize,
        max_free: usize,
        metrics: Arc<MetricsRegistry>,
    ) -> Arc<Self> {
        Self::build(buf_size, max_free, Some(metrics))
    }

    fn build(buf_size: usize, max_free: usize, metrics: Option<Arc<MetricsRegistry>>) -> Arc<Self> {
        assert!(buf_size > 0, "pool buffer size must be non-zero");
        Arc::new(BytesPool {
            buf_size,
            max_free,
            free: OrderedMutex::new(Vec::with_capacity(max_free)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            metrics,
        })
    }

    /// The size class of this pool's buffers, in bytes.
    pub fn buf_size(&self) -> usize {
        self.buf_size
    }

    /// Takes an empty buffer with at least [`BytesPool::buf_size`] bytes
    /// of capacity — recycled when the freelist has one, freshly
    /// allocated otherwise.
    // glider: hot-path (buffer pool get/put/recycle)
    pub fn get(&self) -> BytesMut {
        let reused = self.free.lock(&mut Locked::unlocked()).0.pop();
        match reused {
            Some(mut buf) => {
                buf.clear();
                self.hits.fetch_add(1, Ordering::Relaxed);
                if let Some(m) = &self.metrics {
                    m.add(Signal::PoolHits, 1);
                }
                buf
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                if let Some(m) = &self.metrics {
                    m.add(Signal::PoolMisses, 1);
                }
                BytesMut::with_capacity(self.buf_size) // glider: alloc-ok (pool miss: the freelist was empty, counted in `misses`)
            }
        }
    }

    /// Returns a buffer to the freelist. Undersized buffers (capacity
    /// below the pool's size class) and returns beyond `max_free` are
    /// dropped instead; the return value says whether the buffer was
    /// actually kept.
    pub fn put(&self, buf: BytesMut) -> bool {
        if buf.capacity() < self.buf_size {
            return false;
        }
        let mut ctx = Locked::unlocked();
        let (mut free, _) = self.free.lock(&mut ctx);
        if free.len() >= self.max_free {
            return false;
        }
        free.push(buf);
        true
    }

    /// Attempts to reclaim a frozen buffer. Succeeds only when `bytes`
    /// is the sole handle to its allocation ([`Bytes::try_into_mut`]) —
    /// the pool never takes back memory something else can still read —
    /// and the allocation fits the pool's size class.
    pub fn recycle(&self, bytes: Bytes) -> bool {
        match bytes.try_into_mut() {
            Ok(buf) => self.put(buf),
            Err(_still_shared) => false,
        }
    }
    // glider: end-hot-path

    /// Buffers currently parked on the freelist.
    pub fn free_len(&self) -> usize {
        self.free.lock(&mut Locked::unlocked()).0.len()
    }

    /// Gets served from the freelist so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Gets that had to allocate so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Fraction of gets served from the freelist, in `[0.0, 1.0]`; 0.0
    /// before any get (so hit-rate assertions cannot pass vacuously).
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits();
        let total = hits + self.misses();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glider_sim::{seeds, Lcg};

    #[test]
    fn get_put_get_reuses_the_allocation() {
        let pool = BytesPool::new(4096, 8);
        let mut buf = pool.get();
        assert_eq!((pool.hits(), pool.misses()), (0, 1));
        assert!(buf.capacity() >= 4096);
        buf.extend_from_slice(b"scratch");
        assert!(pool.put(buf));
        let buf = pool.get();
        assert_eq!((pool.hits(), pool.misses()), (1, 1));
        assert!(buf.is_empty(), "reused buffers come back empty");
        assert!(buf.capacity() >= 4096, "capacity survives the round trip");
    }

    #[test]
    fn recycle_refuses_shared_handles() {
        let pool = BytesPool::new(64, 8);
        let mut buf = pool.get();
        buf.extend_from_slice(b"payload");
        let frozen = buf.freeze();
        let alias = frozen.clone();
        // Two handles alive: reclaiming now would alias `alias`.
        assert!(!pool.recycle(frozen));
        assert_eq!(pool.free_len(), 0);
        assert_eq!(&alias[..], b"payload", "shared handle stays intact");
        // Sole remaining handle: reclaim succeeds.
        assert!(pool.recycle(alias));
        assert_eq!(pool.free_len(), 1);
        assert_eq!(pool.get().len(), 0);
        assert_eq!(pool.hits(), 1);
    }

    #[test]
    fn undersized_and_overflow_returns_are_dropped() {
        let pool = BytesPool::new(1024, 1);
        assert!(!pool.put(BytesMut::with_capacity(16)), "undersized");
        assert!(pool.put(BytesMut::with_capacity(1024)));
        assert!(
            !pool.put(BytesMut::with_capacity(1024)),
            "freelist is full at max_free"
        );
        assert_eq!(pool.free_len(), 1);
    }

    #[test]
    fn hit_rate_is_zero_before_traffic() {
        let pool = BytesPool::new(16, 4);
        assert_eq!(pool.hit_rate(), 0.0);
        drop(pool.get());
        assert_eq!(pool.hit_rate(), 0.0); // one miss
        pool.put(pool.get()); // second miss…
        drop(pool.get()); // …then a hit
        assert!((pool.hit_rate() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn metrics_mirror_counts_hits_and_misses() {
        let metrics = MetricsRegistry::new();
        let pool = BytesPool::with_metrics(64, 4, Arc::clone(&metrics));
        pool.put(pool.get());
        drop(pool.get());
        let snap = metrics.snapshot();
        assert_eq!(snap.current(Signal::PoolHits), 1);
        assert_eq!(snap.current(Signal::PoolMisses), 1);
    }

    /// Outstanding buffers never alias: each holds exactly the pattern
    /// written into it, no matter how gets and puts interleave.
    #[test]
    fn outstanding_buffers_are_independent() {
        for seed in seeds(1..=8) {
            let mut rng = Lcg(seed);
            for case in 0..32 {
                let pool = BytesPool::new(32, 8);
                let mut outstanding: Vec<(u8, BytesMut)> = Vec::new();
                let mut next_tag: u8 = 0;
                for step in 0..rng.range(1, 200) {
                    let at = format!("seed {seed} case {case} step {step}");
                    if rng.below(2) == 0 || outstanding.is_empty() {
                        let mut buf = pool.get();
                        assert!(buf.is_empty(), "{at}: a reused buffer is not empty");
                        buf.extend_from_slice(&[next_tag; 32]);
                        outstanding.push((next_tag, buf));
                        next_tag = next_tag.wrapping_add(1);
                    } else {
                        let (_, buf) = outstanding.swap_remove(outstanding.len() / 2);
                        pool.put(buf);
                    }
                    for (tag, buf) in &outstanding {
                        assert_eq!(&buf[..], &[*tag; 32][..], "{at}: buffer contents clobbered");
                    }
                }
                let gets = pool.hits() + pool.misses();
                assert!(pool.hits() <= gets, "seed {seed} case {case}");
                assert!(pool.free_len() <= 8, "seed {seed} case {case}");
            }
        }
    }

    /// Freeze/recycle round trips reclaim capacity: once the sole handle
    /// is recycled, the next get is a hit and keeps the size class.
    #[test]
    fn recycle_reclaims_capacity() {
        for seed in seeds(1..=8) {
            let mut rng = Lcg(seed);
            for case in 0..32 {
                let (len, rounds) = (rng.range(1, 64) as usize, rng.range(1, 20));
                let at = format!("seed {seed} case {case}: {rounds} rounds of {len} bytes");
                let pool = BytesPool::new(64, 4);
                let mut misses_seen = 0;
                for round in 0..rounds {
                    let mut buf = pool.get();
                    if round == 0 {
                        misses_seen = pool.misses();
                    }
                    buf.extend_from_slice(&vec![0xA5u8; len]);
                    let frozen = buf.freeze();
                    assert!(pool.recycle(frozen), "{at}: the sole handle must recycle");
                }
                // Only the first get may allocate; every later one is a hit.
                assert_eq!(pool.misses(), misses_seen, "{at}");
                assert_eq!(pool.hits(), rounds - 1, "{at}");
                assert!(pool.get().capacity() >= 64, "{at}");
            }
        }
    }
}
