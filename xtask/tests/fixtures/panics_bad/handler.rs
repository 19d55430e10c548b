//! Seeded-violation request handler: one of each panic-capable site the
//! panic-path pass rejects, beside the look-alikes it must let through.

fn handle(&self, req: &Request, args: &[u8]) -> GliderResult<Response> {
    let node = self.nodes.get(&req.id).unwrap();
    let owner = node.owner.as_ref().expect("every node has an owner");
    if args.is_empty() {
        panic!("empty request");
    }
    let first = args[0];
    let fallback = self.nodes.get(&0).unwrap_or(&self.root);
    let note = "a string saying .unwrap() and panic! and args[0]";
    assert!(first < 8, "assertions state invariants and are allowed");
    let [tag, ..] = *args else { return Err(GliderError::invalid(note)) };
    Ok(Response::new(owner, first, fallback, tag))
}

#[cfg(test)]
mod tests {
    fn test_code_may_panic() {
        handle(&req(), &[]).unwrap();
    }
}
