//! One half of a cross-file disagreement: this file takes the registry
//! before the block map, which is the declared order.

fn promote(&self) {
    let g = self.reg.lock();
    let b = self.blocks.lock();
    drop(b);
    drop(g);
}
