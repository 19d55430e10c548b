//! Seeded-violation hot-path corpus: per-op allocations inside a marked
//! region, an `alloc-ok` with no justification, a stray end marker, and
//! a region that is never closed.

// glider: hot-path (seeded: allocating service loop)
fn ship(&mut self, data: &[u8]) -> GliderResult<()> {
    let copy = data.to_vec();
    let label = format!("chunk of {} bytes", copy.len());
    let mut staged = BytesMut::with_capacity(copy.len());
    let kept = self.last.clone(); // glider: alloc-ok ()
    staged.extend_from_slice(&copy);
    self.send(staged, label, kept)
}
// glider: end-hot-path

// glider: end-hot-path

// glider: hot-path (seeded: opened and never closed)
fn tail(&self) -> u64 {
    self.total
}
