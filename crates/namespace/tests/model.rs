//! Seeded property: the namespace tree against a flat model, a set of
//! paths. A history of creates (directories under the root, files under
//! them) and recursive deletes of directories must succeed exactly when
//! the model says, and after every step exactly the model's paths
//! resolve.
//!
//! Run one history with `GLIDER_REPLAY_SEED=<n> cargo test -p
//! glider-namespace --test model`; a failure names its seed and step.

use glider_namespace::{Namespace, NodePath};
use glider_proto::types::NodeKind;
use glider_sim::{seeds, Lcg};
use std::collections::BTreeSet;

/// Directory and file names each range over `0..NAMES`.
const NAMES: u64 = 6;

/// Histories per seed, and steps per history.
const HISTORIES: usize = 16;
const STEPS: u64 = 40;

fn parse(path: &str) -> NodePath {
    NodePath::parse(path).unwrap_or_else(|e| panic!("{path}: {e:?}"))
}

/// Every path a history can name: the directories and their files.
fn every_path() -> Vec<String> {
    let mut paths = Vec::new();
    for d in 0..NAMES {
        paths.push(format!("/d{d}"));
        for f in 0..NAMES {
            paths.push(format!("/d{d}/f{f}"));
        }
    }
    paths
}

#[test]
fn namespace_matches_flat_model() {
    let candidates = every_path();
    for seed in seeds(1..=8) {
        let mut rng = Lcg(seed);
        for history in 0..HISTORIES {
            let mut ns = Namespace::new();
            let mut model: BTreeSet<String> = BTreeSet::new();
            for step in 0..rng.range(0, STEPS) {
                let d = rng.range(0, NAMES);
                let at = format!("seed {seed} history {history} step {step}");
                match rng.below(3) {
                    0 => {
                        let path = format!("/d{d}");
                        let ours = ns.create(parse(&path), NodeKind::Directory, None, None);
                        let fresh = !model.contains(&path);
                        assert_eq!(ours.is_ok(), fresh, "{at}: create {path}");
                        model.insert(path);
                    }
                    1 => {
                        let dir = format!("/d{d}");
                        let path = format!("{dir}/f{}", rng.range(0, NAMES));
                        let ours = ns.create(parse(&path), NodeKind::File, None, None);
                        let ok = model.contains(&dir) && !model.contains(&path);
                        assert_eq!(ours.is_ok(), ok, "{at}: create {path}");
                        if ok {
                            model.insert(path);
                        }
                    }
                    _ => {
                        let path = format!("/d{d}");
                        let ours = ns.delete(&parse(&path));
                        assert_eq!(ours.is_ok(), model.contains(&path), "{at}: delete {path}");
                        let child = format!("{path}/");
                        model.retain(|p| *p != path && !p.starts_with(&child));
                    }
                }
                for path in &candidates {
                    assert_eq!(
                        ns.lookup(&parse(path)).is_ok(),
                        model.contains(path),
                        "{at}: lookup {path}"
                    );
                }
                assert_eq!(ns.len(), model.len() + 1, "{at}: nodes besides the root");
            }
        }
    }
}
