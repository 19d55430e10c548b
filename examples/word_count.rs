//! Word count with merger actions — the paper's Fig. 4 / Listing 1.
//!
//! A group of workers counts words in their part of a text and writes
//! partial counts to merger actions (one per reducer). Each action merges
//! the counts as they arrive and stores only the aggregated dictionary.
//! A reduction tree then combines the reducers into a single dictionary
//! by concatenating actions — no extra worker stage and no temporary
//! files (paper §6.3: "this is easy through concatenating actions").
//!
//! Run: `cargo run -p glider-examples --bin word_count`

use bytes::Bytes;
use glider_core::{ActionSpec, Cluster, ClusterConfig, GliderError, GliderResult};
use glider_examples::{banner, human};
use glider_gen::TextGen;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

const WORKERS: usize = 6;
const REDUCERS: usize = 2;
const TEXT_PER_WORKER: usize = 512 * 1024;

fn reducer_of(word: &str) -> usize {
    let mut h = DefaultHasher::new();
    word.hash(&mut h);
    (h.finish() as usize) % REDUCERS
}

/// Numeric key for a word (the merge action speaks integer keys, like the
/// paper's `Map<Integer, Long>`).
fn word_key(word: &str) -> i64 {
    let mut h = DefaultHasher::new();
    word.hash(&mut h);
    (h.finish() & 0x7fff_ffff) as i64
}

#[tokio::main]
async fn main() -> GliderResult<()> {
    let cluster = Cluster::start(ClusterConfig::default()).await?;
    let store = cluster.client().await?;

    banner("deploying merger actions (one per reducer)");
    store.create_dir("/wc").await?;
    for r in 0..REDUCERS {
        store
            .create_action(&format!("/wc/merge-{r}"), ActionSpec::new("merge", true))
            .await?;
        println!("created interleaved merge action /wc/merge-{r}");
    }

    banner("map stage: workers send partial counts straight to the actions");
    let mut tasks = Vec::new();
    for w in 0..WORKERS {
        let store = cluster.client().await?;
        tasks.push(tokio::spawn(async move {
            // Each worker "reads" its text partition and counts locally.
            let text = TextGen::new(w as u64, 0.0).generate_bytes(TEXT_PER_WORKER);
            let mut partial: Vec<std::collections::HashMap<i64, i64>> =
                vec![std::collections::HashMap::new(); REDUCERS];
            for line in String::from_utf8_lossy(&text).lines() {
                for word in line.split_whitespace() {
                    *partial[reducer_of(word)].entry(word_key(word)).or_insert(0) += 1;
                }
            }
            // Ship only the partial counts, splitting by reducer.
            for (r, counts) in partial.into_iter().enumerate() {
                let action = store.lookup_action(&format!("/wc/merge-{r}")).await?;
                let mut out = action.output_stream().await?;
                let mut buf = String::new();
                for (k, v) in counts {
                    buf.push_str(&format!("{k},{v}\n"));
                }
                out.write(Bytes::from(buf)).await?;
                out.close().await?;
            }
            Ok::<(), GliderError>(())
        }));
    }
    for t in tasks {
        t.await.expect("worker panicked")?;
    }
    println!("{WORKERS} workers fed {REDUCERS} merger actions");

    banner("reduction tree: concatenate the reducers into one action");
    let root = store
        .create_action("/wc/merge-root", ActionSpec::new("merge", true))
        .await?;
    for r in 0..REDUCERS {
        let reducer = store.lookup_action(&format!("/wc/merge-{r}")).await?;
        let merged = reducer.read_all().await?;
        root.write_all(Bytes::from(merged)).await?;
    }
    let final_counts = root.read_all().await?;
    let lines = final_counts.iter().filter(|&&b| b == b'\n').count();
    println!("single final dictionary with {lines} distinct words");

    banner("indicators");
    let snap = cluster.metrics().snapshot();
    println!(
        "tier-crossing traffic: {} (partial counts only — the raw text never traveled)",
        human(snap.tier_crossing_bytes())
    );
    println!(
        "storage holds {} (aggregates, not intermediate files)",
        human(snap.storage_current)
    );
    Ok(())
}
