//! Loom model of the `BytesPool` freelist discipline.
//!
//! Run with: `RUSTFLAGS="--cfg loom" cargo test -p glider-net --test
//! loom_pool --release` (requires the `loom` dev-dependency, added by
//! the CI loom job).
//!
//! This models the *algorithm* with loom's primitives rather than
//! driving the production types: the pool is a
//! mutex-protected freelist plus relaxed hit/miss counters, and the
//! properties checked are the ones the production `BytesPool` relies on:
//!
//! - a buffer is owned by exactly one side at a time (no freelist entry
//!   is ever handed to two getters — the aliasing guarantee);
//! - buffers are conserved: everything put is either on the freelist or
//!   was deliberately dropped at the `max_free` bound;
//! - `hits + misses` equals the number of gets, under every interleaving.

#![cfg(loom)]

use loom::sync::atomic::{AtomicU64, Ordering};
use loom::sync::{Arc, Mutex};
use loom::thread;

/// The pool algorithm under test: freelist of tokens + counters.
/// Each "buffer" is a token with a unique identity.
struct ModelPool {
    free: Mutex<Vec<u64>>,
    max_free: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    next_fresh: AtomicU64,
}

impl ModelPool {
    fn new(max_free: usize, prime: Vec<u64>) -> Self {
        ModelPool {
            free: Mutex::new(prime),
            max_free,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            next_fresh: AtomicU64::new(1000),
        }
    }

    fn get(&self) -> u64 {
        let reused = self.free.lock().unwrap().pop();
        match reused {
            Some(token) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                token
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.next_fresh.fetch_add(1, Ordering::Relaxed)
            }
        }
    }

    /// Returns whether the token was kept (freelist below the bound).
    fn put(&self, token: u64) -> bool {
        let mut free = self.free.lock().unwrap();
        if free.len() >= self.max_free {
            return false;
        }
        free.push(token);
        true
    }
}

#[test]
fn concurrent_get_put_never_duplicates_a_buffer() {
    loom::model(|| {
        // Two primed buffers, two threads each doing get -> put.
        let pool = Arc::new(ModelPool::new(4, vec![1, 2]));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let pool = Arc::clone(&pool);
                thread::spawn(move || {
                    let token = pool.get();
                    let kept = pool.put(token);
                    (token, kept)
                })
            })
            .collect();
        let results: Vec<(u64, bool)> = handles.into_iter().map(|h| h.join().unwrap()).collect();

        // No two getters ever observed the same buffer.
        assert_ne!(results[0].0, results[1].0, "freelist handed out an alias");

        // Counter discipline: every get is exactly one hit or miss.
        let gets = 2;
        let hits = pool.hits.load(Ordering::Relaxed);
        let misses = pool.misses.load(Ordering::Relaxed);
        assert_eq!(hits + misses, gets);

        // Conservation: every kept token is on the freelist exactly once.
        let free = pool.free.lock().unwrap();
        for (token, kept) in &results {
            let copies = free.iter().filter(|t| *t == token).count();
            assert_eq!(copies, usize::from(*kept), "token {token} conservation");
        }
    });
}

#[test]
fn the_max_free_bound_holds_under_races() {
    loom::model(|| {
        // Freelist bound of 1 with two concurrent returns: at most one
        // may be kept, whatever the interleaving.
        let pool = Arc::new(ModelPool::new(1, vec![]));
        let handles: Vec<_> = [10u64, 20]
            .into_iter()
            .map(|token| {
                let pool = Arc::clone(&pool);
                thread::spawn(move || pool.put(token))
            })
            .collect();
        let kept: usize = handles
            .into_iter()
            .map(|h| usize::from(h.join().unwrap()))
            .sum();
        assert_eq!(kept, 1, "exactly one return fits a bound of 1");
        assert_eq!(pool.free.lock().unwrap().len(), 1);
    });
}

#[test]
fn a_racing_get_and_put_agree_on_ownership() {
    loom::model(|| {
        // One primed buffer; one thread gets while another puts a new
        // one. The getter receives either the primed buffer or a fresh
        // allocation — never the buffer the putter still owns before its
        // put completes, and never a double-handed freelist entry.
        let pool = Arc::new(ModelPool::new(4, vec![7]));
        let getter = {
            let pool = Arc::clone(&pool);
            thread::spawn(move || pool.get())
        };
        let putter = {
            let pool = Arc::clone(&pool);
            thread::spawn(move || pool.put(42))
        };
        let got = getter.join().unwrap();
        assert!(putter.join().unwrap());
        assert!(
            got == 7 || got >= 1000 || got == 42,
            "got a token from nowhere: {got}"
        );
        let free = pool.free.lock().unwrap();
        // Whatever happened, the got token is no longer on the freelist.
        assert!(
            !free.iter().any(|t| *t == got),
            "token {got} is both owned and free"
        );
    });
}
