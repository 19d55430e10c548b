//! The seeded tests' shared harness: the pieces every property and
//! scratch-directory test of the root workspace needs, written once.
//!
//! - [`Lcg`], the generator whose stream every pinned seed depends on;
//! - [`seeds`], the one reader of `GLIDER_REPLAY_SEED`;
//! - [`TempDir`], a scratch directory removed on drop;
//! - [`Wakes`] and [`TaskWaker`], the waker of a test that polls its own
//!   futures and fails on a lost wake-up.
//!
//! A virtual clock needs no type here: the metadata core takes `now` as
//! an argument, so a test advances its own `Instant`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

/// Minimal LCG (Numerical Recipes constants). Draws are the high 31
/// bits: the low bits of a power-of-two-modulus LCG cycle with short
/// periods. The properties' pinned seeds replay their histories through
/// this exact stream, so it must not change.
pub struct Lcg(pub u64);

impl Lcg {
    /// The next draw, in `0..2^31`.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    /// Uniform-ish value in `lo..hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }

    /// Uniform-ish index in `0..bound` (`bound` > 0): `range(0, bound)`.
    pub fn below(&mut self, bound: usize) -> usize {
        self.range(0, bound as u64) as usize
    }

    /// Uniform-ish fraction in `0.0..1.0`.
    pub fn frac(&mut self) -> f64 {
        self.next() as f64 / (1u64 << 31) as f64
    }

    /// The low byte of a draw.
    pub fn byte(&mut self) -> u8 {
        self.next() as u8
    }
}

/// The seeds a property runs: the one `GLIDER_REPLAY_SEED=<n>` names,
/// or else `default`.
///
/// # Panics
///
/// If `GLIDER_REPLAY_SEED` is set to something other than a `u64`.
pub fn seeds(default: impl IntoIterator<Item = u64>) -> Vec<u64> {
    match std::env::var("GLIDER_REPLAY_SEED") {
        Ok(s) => vec![s.parse().expect("GLIDER_REPLAY_SEED is a u64")],
        Err(_) => default.into_iter().collect(),
    }
}

/// An empty directory under the system temp dir, removed on drop, so a
/// test that fails an assertion still cleans up while it unwinds.
pub struct TempDir(PathBuf);

/// Numbers the directories one test process makes, so two guards with
/// the same prefix never share a directory.
static NEXT: AtomicU64 = AtomicU64::new(0);

impl TempDir {
    /// Creates `<temp>/<prefix>-<pid>-<n>`, empty.
    ///
    /// # Panics
    ///
    /// If the directory cannot be created.
    pub fn new(prefix: &str) -> TempDir {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("{prefix}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create a scratch directory");
        TempDir(dir)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl std::ops::Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The wake count shared by the [`TaskWaker`]s it makes: a poller that
/// reads it before and after polling one task sees whether that poll
/// woke anything.
#[derive(Clone, Default)]
pub struct Wakes(Arc<AtomicUsize>);

impl Wakes {
    /// A new task's waker; a new task starts woken.
    pub fn task(&self) -> TaskWaker {
        let flag = Arc::new(Flag {
            fired: AtomicBool::new(true),
            wakes: self.clone(),
        });
        TaskWaker {
            waker: Waker::from(Arc::clone(&flag)),
            flag,
        }
    }

    /// Wakes of every waker made from this count, so far.
    pub fn count(&self) -> usize {
        self.0.load(Ordering::SeqCst)
    }
}

/// One task's waker: records whether it fired since the task was last
/// polled through [`TaskWaker::poll`], and adds each wake to its
/// [`Wakes`].
pub struct TaskWaker {
    flag: Arc<Flag>,
    waker: Waker,
}

struct Flag {
    fired: AtomicBool,
    wakes: Wakes,
}

impl Wake for Flag {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.fired.store(true, Ordering::SeqCst);
        self.wakes.0.fetch_add(1, Ordering::SeqCst);
    }
}

impl TaskWaker {
    /// Whether the waker fired since the last [`TaskWaker::poll`].
    pub fn fired(&self) -> bool {
        self.flag.fired.load(Ordering::SeqCst)
    }

    /// The waker itself.
    pub fn waker(&self) -> &Waker {
        &self.waker
    }

    /// Clears the record, then runs `poll` with this waker.
    pub fn poll<T>(&self, poll: impl FnOnce(&mut Context<'_>) -> Poll<T>) -> Poll<T> {
        self.flag.fired.store(false, Ordering::SeqCst);
        poll(&mut Context::from_waker(&self.waker))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_stream_is_pinned() {
        let mut rng = Lcg(1);
        let draws: Vec<u64> = (0..4).map(|_| rng.next()).collect();
        assert_eq!(draws, [908834774, 1093944153, 1392341196, 822192870]);
        let mut rng = Lcg(7);
        let mut same = Lcg(7);
        assert_eq!(rng.below(10), same.range(0, 10) as usize);
        assert_eq!(rng.byte(), same.next() as u8);
    }

    #[test]
    fn a_waker_records_its_fire_until_the_next_poll_and_counts_every_wake() {
        let wakes = Wakes::default();
        let (a, b) = (wakes.task(), wakes.task());
        assert!(a.fired(), "a new task starts woken");
        assert!(a.poll(|_| Poll::<()>::Pending).is_pending());
        assert!(!a.fired());
        a.waker().wake_by_ref();
        let owned = b.waker().clone();
        owned.wake();
        assert!(a.fired());
        assert_eq!(wakes.count(), 2);
    }

    #[test]
    fn a_temp_dir_is_removed_on_drop() {
        let dir = TempDir::new("glider-sim-test");
        let path = dir.path().to_path_buf();
        std::fs::write(dir.join("f"), b"x").unwrap();
        drop(dir);
        assert!(!path.exists());
    }
}
