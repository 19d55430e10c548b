//! Seeded property: the block store against a byte model, one zeroed
//! array per block. A history of writes at seeded offsets (some past the
//! block's end) must succeed exactly when they fit, and every read (a
//! seeded range after each write, each whole block at the end) must
//! return the model's bytes, zeroes past what was written included.
//!
//! Run one history with `GLIDER_REPLAY_SEED=<n> cargo test -p
//! glider-blockstore --test model`; a failure names its seed and step.

use bytes::Bytes;
use glider_blockstore::BlockStore;
use glider_proto::types::BlockId;
use glider_sim::{seeds, Lcg};

const BLOCK: u64 = 256;
const BLOCKS: u64 = 4;

/// Histories per seed.
const HISTORIES: usize = 8;

#[test]
fn block_store_matches_model() {
    for seed in seeds(1..=8) {
        let mut rng = Lcg(seed);
        for history in 0..HISTORIES {
            let store = BlockStore::new(BLOCK, BlockId(1), BLOCKS);
            let mut model = vec![vec![0u8; BLOCK as usize]; BLOCKS as usize];
            for step in 0..rng.range(1, 30) {
                let at = format!("seed {seed} history {history} step {step}");
                let blk = rng.range(0, BLOCKS);
                let off = rng.range(0, 200);
                let data: Vec<u8> = (0..rng.range(1, 64)).map(|_| rng.byte()).collect();
                let end = off + data.len() as u64;
                let result = store.write(BlockId(1 + blk), off, Bytes::from(data.clone()));
                let fits = end <= BLOCK;
                assert_eq!(
                    result.is_ok(),
                    fits,
                    "{at}: write [{off}, {end}) to block {blk}"
                );
                if fits {
                    model[blk as usize][off as usize..end as usize].copy_from_slice(&data);
                }

                let blk = rng.range(0, BLOCKS);
                let off = rng.range(0, BLOCK);
                let len = rng.range(0, BLOCK - off + 1);
                let got = store
                    .read(BlockId(1 + blk), off, len)
                    .unwrap_or_else(|e| panic!("{at}: read block {blk}: {e:?}"));
                let want = &model[blk as usize][off as usize..(off + len) as usize];
                assert_eq!(
                    &got[..],
                    want,
                    "{at}: read [{off}, {}) of block {blk}",
                    off + len
                );
            }
            for blk in 0..BLOCKS {
                let got = store
                    .read(BlockId(1 + blk), 0, BLOCK)
                    .unwrap_or_else(|e| panic!("seed {seed} history {history}: {e:?}"));
                assert_eq!(
                    &got[..],
                    &model[blk as usize][..],
                    "seed {seed} history {history}: block {blk}"
                );
            }
        }
    }
}
