//! Seeded lock-order violations: the pool freelist (innermost rank)
//! taken before the block map, and two block-map shards held at once.

fn recycle(&self, id: BlockId) {
    let mut free = self.free.lock();
    let blocks = self.blocks.lock();
    free.push(blocks.take(id));
}

fn swap(&self, a: BlockId, b: BlockId) {
    let left = self.block_shard_for(a).lock();
    let right = self.block_shard_for(b).lock();
    left.swap_with(&right);
}

fn in_order(&self, id: BlockId) {
    let len = self.reg.lock().len();
    let blocks = self.blocks.lock();
    let mut free = self.free.lock();
    free.reserve(len + blocks.len());
}
