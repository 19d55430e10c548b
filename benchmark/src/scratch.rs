//! The scratch directory every file of a run lives in, and what kind of
//! filesystem it sits on.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

/// `benchmark/out/`, the only place under the repository the benchmark
/// writes to (git-ignored).
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A per-process scratch directory, removed when dropped — on success,
/// on an error return and on a panic's unwind alike.
///
/// It defaults to `benchmark/out/scratch-<pid>-<n>` so a run touches nothing
/// outside its checkout. `GLIDER_BENCH_SCRATCH` names another parent
/// (`/dev/shm` takes the device's flush latency out of the WAL
/// workloads; see the README).
#[derive(Debug)]
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    pub fn create() -> io::Result<Scratch> {
        let parent = std::env::var_os("GLIDER_BENCH_SCRATCH")
            .map(PathBuf::from)
            .unwrap_or_else(out_dir);
        // The counter keeps two guards of one process (parallel tests) apart.
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let root = parent.join(format!("scratch-{}-{n}", std::process::id()));
        fs::create_dir_all(&parent)?;
        remove_leftovers(&parent);
        fs::create_dir_all(&root)?;
        Ok(Scratch { root })
    }

    pub fn path(&self) -> &Path {
        &self.root
    }

    /// A fresh, empty subdirectory.
    pub fn subdir(&self, name: &str) -> io::Result<PathBuf> {
        let dir = self.root.join(name);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

/// A killed run cannot clean up after itself: remove the scratch
/// directories of processes that no longer exist.
fn remove_leftovers(parent: &Path) {
    // Without /proc there is no telling which processes still exist.
    if !Path::new("/proc/self").exists() {
        return;
    }
    let Ok(entries) = fs::read_dir(parent) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let pid = name
            .to_str()
            .and_then(|n| n.strip_prefix("scratch-"))
            .and_then(|n| n.split('-').next())
            .and_then(|pid| pid.parse::<u32>().ok());
        if let Some(pid) = pid {
            if pid != std::process::id() && !Path::new(&format!("/proc/{pid}")).exists() {
                let _ = fs::remove_dir_all(entry.path());
            }
        }
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

/// Total size of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

/// Filesystem type of the mount holding `path`, from `/proc/mounts`
/// (longest mount-point prefix wins); "unknown" where that is not
/// available.
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".to_string();
    };
    let Ok(mounts) = fs::read_to_string("/proc/mounts") else {
        return "unknown".to_string();
    };
    fs_type_from_mounts(&mounts, &path)
}

fn fs_type_from_mounts(mounts: &str, path: &Path) -> String {
    let mut best: Option<(usize, &str)> = None;
    for line in mounts.lines() {
        let mut fields = line.split_whitespace();
        let (Some(_dev), Some(mount_point), Some(fs)) =
            (fields.next(), fields.next(), fields.next())
        else {
            continue;
        };
        if path.starts_with(mount_point) && best.is_none_or(|(len, _)| mount_point.len() >= len) {
            best = Some((mount_point.len(), fs));
        }
    }
    best.map_or("unknown", |(_, fs)| fs).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_is_removed_on_drop_and_on_panic() {
        let scratch = Scratch::create().unwrap();
        let root = scratch.path().to_path_buf();
        fs::write(scratch.subdir("a").unwrap().join("f"), b"12345").unwrap();
        assert_eq!(dir_bytes(&root.join("a")).unwrap(), 5);
        drop(scratch);
        assert!(!root.exists());

        // What a killed process left behind goes when the next one starts.
        let leftover = root.with_file_name("scratch-4000000000-0");
        fs::create_dir_all(leftover.join("commit")).unwrap();
        drop(Scratch::create().unwrap());
        assert!(!leftover.exists());

        let seen = std::sync::Mutex::new(PathBuf::new());
        let result = std::panic::catch_unwind(|| {
            let scratch = Scratch::create().unwrap();
            *seen.lock().unwrap() = scratch.path().to_path_buf();
            panic!("mid-run");
        });
        assert!(result.is_err());
        let root = seen.lock().unwrap().clone();
        assert!(!root.as_os_str().is_empty() && !root.exists());
    }

    #[test]
    fn longest_mount_prefix_names_the_filesystem() {
        let mounts =
            "/dev/vda / ext4 rw 0 0\ntmpfs /dev/shm tmpfs rw 0 0\nproc /proc proc rw 0 0\n";
        assert_eq!(
            fs_type_from_mounts(mounts, Path::new("/dev/shm/x")),
            "tmpfs"
        );
        assert_eq!(fs_type_from_mounts(mounts, Path::new("/root/repo")), "ext4");
        assert_eq!(fs_type_from_mounts("", Path::new("/root")), "unknown");
    }
}
