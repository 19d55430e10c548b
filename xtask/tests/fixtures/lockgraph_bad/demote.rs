//! The other half: block map before registry. Together with promote.rs
//! the nested acquisitions form the cycle Registry -> BlockMap ->
//! Registry; the edge that closes it is the out-of-order one below.

fn demote(&self) {
    let b = self.blocks.lock();
    let g = self.reg.lock();
    drop(g);
    drop(b);
}
