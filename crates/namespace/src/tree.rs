//! The hierarchical node tree.

use crate::path::NodePath;
use glider_proto::types::{
    ActionSpec, BlockExtent, BlockId, BlockLocation, NodeId, NodeInfo, NodeKind, ReplicaExtent,
    StorageClass,
};
use glider_proto::{ErrorCode, GliderError, GliderResult};
use std::collections::{BTreeMap, HashMap};

/// A node in the namespace.
#[derive(Debug, Clone)]
pub struct Node {
    /// Unique node id.
    pub id: NodeId,
    /// Node kind.
    pub kind: NodeKind,
    /// Absolute path.
    pub path: NodePath,
    /// Storage class used when growing this node's block chain.
    pub storage_class: StorageClass,
    /// Block chain with per-block used lengths.
    pub blocks: Vec<BlockExtent>,
    /// Backup replica locations per primary block, for nodes written
    /// under a replication factor above one (DESIGN.md §15). Keyed by
    /// the primary's block id; absent keys mean "unreplicated".
    pub backups: BTreeMap<BlockId, Vec<BlockLocation>>,
    /// Action parameters for `Action` nodes.
    pub action: Option<ActionSpec>,
    parent: Option<NodeId>,
    children: BTreeMap<String, NodeId>,
}

impl Node {
    /// Total data size: the sum of used bytes across the chain.
    pub fn size(&self) -> u64 {
        self.blocks.iter().map(|b| b.len).sum()
    }

    /// Builds the client-visible view of this node.
    pub fn info(&self) -> NodeInfo {
        NodeInfo {
            id: self.id,
            kind: self.kind,
            size: self.size(),
            blocks: self.blocks.clone(),
            action: self.action.clone(),
        }
    }

    /// Child names in lexicographic order.
    pub fn child_names(&self) -> Vec<String> {
        self.children.keys().cloned().collect()
    }

    /// The replica layout of this node's chain: every primary extent
    /// paired with its backup locations (empty for unreplicated blocks).
    /// This is what `NodeReplicas` returns and what `fsck` verifies.
    pub fn replicas(&self) -> Vec<ReplicaExtent> {
        self.blocks
            .iter()
            .map(|b| ReplicaExtent {
                extent: b.clone(),
                backups: self
                    .backups
                    .get(&b.loc.block_id)
                    .cloned()
                    .unwrap_or_default(),
            })
            .collect()
    }
}

/// Result of deleting a subtree: everything the caller must release on
/// storage servers.
#[derive(Debug, Clone)]
pub struct DeleteOutcome {
    /// The removed node itself.
    pub info: NodeInfo,
    /// All data-block extents owned by the removed subtree.
    pub extents: Vec<BlockExtent>,
    /// All action nodes in the removed subtree (their `on_delete` must run
    /// on the owning active servers).
    pub actions: Vec<NodeInfo>,
}

/// The hierarchical namespace of one metadata server (paper §4.1).
///
/// The tree enforces the NodeKernel structural rules: parents must exist
/// and be containers (`Directory`/`Table`), node kinds fix whether a node
/// can hold data blocks or children, `KeyValue` and `Action` nodes own at
/// most one block, and deletes are recursive.
///
/// # Examples
///
/// ```
/// use glider_namespace::{Namespace, NodePath};
/// use glider_proto::types::NodeKind;
///
/// let mut ns = Namespace::new();
/// ns.create(NodePath::parse("/job")?, NodeKind::Directory, None, None)?;
/// let f = ns.create(NodePath::parse("/job/part-0")?, NodeKind::File, None, None)?;
/// assert_eq!(f.kind, NodeKind::File);
/// assert_eq!(ns.lookup(&NodePath::parse("/job")?)?.child_names(), vec!["part-0"]);
/// # Ok::<(), glider_proto::GliderError>(())
/// ```
#[derive(Debug)]
pub struct Namespace {
    /// Ordered: maintenance's census walks it, so its order reaches the
    /// repairs.
    nodes: BTreeMap<NodeId, Node>,
    by_path: HashMap<NodePath, NodeId>,
    next_id: u64,
}

impl Namespace {
    /// Creates a namespace containing only the root directory.
    pub fn new() -> Self {
        Namespace::with_id_base(0)
    }

    /// Creates a namespace whose node ids start at `base + 1` (the root).
    ///
    /// A sharded metadata server gives each shard a distinct base so node
    /// ids are unique across shards and the owning shard can be recovered
    /// from an id alone. `with_id_base(0)` is identical to [`Namespace::new`].
    pub fn with_id_base(base: u64) -> Self {
        let root_id = NodeId(base + 1);
        let root = Node {
            id: root_id,
            kind: NodeKind::Directory,
            path: NodePath::root(),
            storage_class: StorageClass::dram(),
            blocks: Vec::new(),
            backups: BTreeMap::new(),
            action: None,
            parent: None,
            children: BTreeMap::new(),
        };
        let mut nodes = BTreeMap::new();
        nodes.insert(root_id, root);
        let mut by_path = HashMap::new();
        by_path.insert(NodePath::root(), root_id);
        Namespace {
            nodes,
            by_path,
            next_id: base + 2,
        }
    }

    /// Number of nodes including the root.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when only the root exists.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Creates a node at `path` under the next free id.
    ///
    /// The default storage class is `dram` for data nodes and `active` for
    /// actions; actions ignore a caller-supplied class (they always live in
    /// the active class, paper §4.2).
    ///
    /// # Errors
    ///
    /// - [`ErrorCode::AlreadyExists`] if `path` is taken,
    /// - [`ErrorCode::NotFound`] if the parent does not exist,
    /// - [`ErrorCode::WrongNodeKind`] if the parent is not a container,
    /// - [`ErrorCode::InvalidArgument`] if an action spec is missing for an
    ///   `Action` node (or supplied for any other kind), or the path is the
    ///   root.
    pub fn create(
        &mut self,
        path: NodePath,
        kind: NodeKind,
        storage_class: Option<StorageClass>,
        action: Option<ActionSpec>,
    ) -> GliderResult<&Node> {
        self.create_with_id(NodeId(self.next_id), path, kind, storage_class, action)
    }

    /// [`Namespace::create`] under a given id: the one body the live path
    /// and WAL replay share. The id allocator moves past `id`, so an id
    /// recovered from the log is never issued again.
    ///
    /// # Errors
    ///
    /// As [`Namespace::create`], and also [`ErrorCode::InvalidArgument`]
    /// if another node holds `id`.
    pub fn create_with_id(
        &mut self,
        id: NodeId,
        path: NodePath,
        kind: NodeKind,
        storage_class: Option<StorageClass>,
        action: Option<ActionSpec>,
    ) -> GliderResult<&Node> {
        if path.is_root() {
            return Err(GliderError::invalid("cannot create the root"));
        }
        if self.by_path.contains_key(&path) {
            return Err(GliderError::already_exists(format!("node {path}")));
        }
        match (kind, &action) {
            (NodeKind::Action, None) => {
                return Err(GliderError::invalid("action nodes require an action spec"))
            }
            (NodeKind::Action, Some(_)) => {}
            (_, Some(_)) => {
                return Err(GliderError::invalid(
                    "action spec only valid for action nodes",
                ))
            }
            _ => {}
        }
        if let Some(holder) = self.nodes.get(&id) {
            return Err(GliderError::invalid(format!(
                "node id {id} is already held by {}",
                holder.path
            )));
        }
        let parent_path = path.parent().expect("non-root has a parent");
        let parent_id = *self
            .by_path
            .get(&parent_path)
            .ok_or_else(|| GliderError::not_found(format!("parent {parent_path}")))?;
        let parent = self.nodes.get_mut(&parent_id).expect("indexed node");
        if !parent.kind.is_container() {
            return Err(GliderError::new(
                ErrorCode::WrongNodeKind,
                format!(
                    "parent {parent_path} is a {} and cannot hold children",
                    parent.kind
                ),
            ));
        }
        let class = if kind == NodeKind::Action {
            StorageClass::active()
        } else {
            storage_class.unwrap_or_else(StorageClass::dram)
        };
        self.next_id = self.next_id.max(id.0 + 1);
        let name = path.name().expect("non-root has a name").to_string();
        parent.children.insert(name, id);
        let node = Node {
            id,
            kind,
            path: path.clone(),
            storage_class: class,
            blocks: Vec::new(),
            backups: BTreeMap::new(),
            action,
            parent: Some(parent_id),
            children: BTreeMap::new(),
        };
        self.nodes.insert(id, node);
        self.by_path.insert(path, id);
        Ok(self.nodes.get(&id).expect("just inserted"))
    }

    /// Looks up a node by path.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorCode::NotFound`] for unknown paths.
    pub fn lookup(&self, path: &NodePath) -> GliderResult<&Node> {
        let id = self
            .by_path
            .get(path)
            .ok_or_else(|| GliderError::not_found(format!("node {path}")))?;
        Ok(self.nodes.get(id).expect("indexed node"))
    }

    /// Looks up a node by id.
    pub fn get(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(&id)
    }

    /// Mutable lookup by id.
    pub fn get_mut(&mut self, id: NodeId) -> Option<&mut Node> {
        self.nodes.get_mut(&id)
    }

    /// Appends several allocated blocks to a node's chain, atomically:
    /// every validation runs before the first mutation, so a failure
    /// leaves the chain exactly as it was (the caller can then return the
    /// allocated blocks to the registry without unwinding the tree).
    ///
    /// # Errors
    ///
    /// - [`ErrorCode::NotFound`] for unknown nodes,
    /// - [`ErrorCode::WrongNodeKind`] for containers,
    /// - [`ErrorCode::InvalidArgument`] when a `KeyValue`/`Action` node
    ///   would exceed its single block (the whole batch is rejected).
    pub fn add_extents(
        &mut self,
        node_id: NodeId,
        locs: Vec<BlockLocation>,
    ) -> GliderResult<Vec<BlockExtent>> {
        let node = self
            .nodes
            .get_mut(&node_id)
            .ok_or_else(|| GliderError::not_found(format!("node {node_id}")))?;
        if node.kind.is_container() {
            return Err(GliderError::new(
                ErrorCode::WrongNodeKind,
                format!("{} nodes hold no blocks", node.kind),
            ));
        }
        let single = matches!(node.kind, NodeKind::KeyValue | NodeKind::Action);
        if single && node.blocks.len() + locs.len() > 1 {
            return Err(GliderError::invalid(format!(
                "{} nodes are limited to a single block",
                node.kind
            )));
        }
        let mut out = Vec::with_capacity(locs.len());
        for loc in locs {
            let extent = BlockExtent { loc, len: 0 };
            node.blocks.push(extent.clone());
            out.push(extent);
        }
        Ok(out)
    }

    /// Records the used length of one block in a node's chain.
    ///
    /// For `KeyValue` nodes the length may shrink (overwrite semantics);
    /// for other nodes commits are monotonic (append semantics), so a
    /// stale/duplicate commit cannot lose data.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorCode::NotFound`] if the node or block is unknown.
    pub fn commit_block(
        &mut self,
        node_id: NodeId,
        block_id: BlockId,
        len: u64,
    ) -> GliderResult<()> {
        let node = self
            .nodes
            .get_mut(&node_id)
            .ok_or_else(|| GliderError::not_found(format!("node {node_id}")))?;
        let overwrite = node.kind == NodeKind::KeyValue;
        let extent = node
            .blocks
            .iter_mut()
            .find(|b| b.loc.block_id == block_id)
            .ok_or_else(|| GliderError::not_found(format!("block {block_id} in node {node_id}")))?;
        extent.len = if overwrite { len } else { extent.len.max(len) };
        Ok(())
    }

    /// Swaps one block of a node's chain for a freshly allocated one *at
    /// the same chain position*, resetting its used length to zero.
    ///
    /// Chain order is read order, so when a writer abandons a block on a
    /// dead server the replacement must take the dead block's slot —
    /// appending would corrupt the stream. The data of the old block is
    /// gone with its server; the writer replays the lost bytes. The old
    /// block's backups covered those bytes too, so they are dropped and
    /// returned with the new extent, for the caller to free.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorCode::NotFound`] if the node or block is unknown.
    pub fn replace_extent(
        &mut self,
        node_id: NodeId,
        old_block: BlockId,
        new_loc: BlockLocation,
    ) -> GliderResult<(BlockExtent, Vec<BlockLocation>)> {
        let node = self
            .nodes
            .get_mut(&node_id)
            .ok_or_else(|| GliderError::not_found(format!("node {node_id}")))?;
        let extent = node
            .blocks
            .iter_mut()
            .find(|b| b.loc.block_id == old_block)
            .ok_or_else(|| {
                GliderError::not_found(format!("block {old_block} in node {node_id}"))
            })?;
        extent.loc = new_loc;
        extent.len = 0;
        let extent = extent.clone();
        Ok((extent, node.backups.remove(&old_block).unwrap_or_default()))
    }

    /// Records the backup replica set of one primary block, replacing any
    /// set it had. An empty set clears the entry (the block is then
    /// unreplicated).
    ///
    /// # Errors
    ///
    /// Returns [`ErrorCode::NotFound`] if the node or block is unknown.
    pub fn set_backups(
        &mut self,
        node_id: NodeId,
        block_id: BlockId,
        backups: Vec<BlockLocation>,
    ) -> GliderResult<()> {
        let node = self
            .nodes
            .get_mut(&node_id)
            .ok_or_else(|| GliderError::not_found(format!("node {node_id}")))?;
        if !node.blocks.iter().any(|b| b.loc.block_id == block_id) {
            return Err(GliderError::not_found(format!(
                "block {block_id} in node {node_id}"
            )));
        }
        if backups.is_empty() {
            node.backups.remove(&block_id);
        } else {
            node.backups.insert(block_id, backups);
        }
        Ok(())
    }

    /// Promotes a backup replica to primary after the primary's server
    /// died: the extent at `old_block`'s chain position takes `new_loc`
    /// while **keeping its committed length** — the backup holds every
    /// acked byte, so unlike [`Namespace::replace_extent`] no data is
    /// lost and nothing needs replaying. The promoted location is removed
    /// from the backup set, which is re-keyed under the new primary id.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorCode::NotFound`] if the node or `old_block` is
    /// unknown.
    pub fn promote_extent(
        &mut self,
        node_id: NodeId,
        old_block: BlockId,
        new_loc: BlockLocation,
    ) -> GliderResult<BlockExtent> {
        let node = self
            .nodes
            .get_mut(&node_id)
            .ok_or_else(|| GliderError::not_found(format!("node {node_id}")))?;
        let extent = node
            .blocks
            .iter_mut()
            .find(|b| b.loc.block_id == old_block)
            .ok_or_else(|| {
                GliderError::not_found(format!("block {old_block} in node {node_id}"))
            })?;
        extent.loc = new_loc.clone();
        let mut remaining = node.backups.remove(&old_block).unwrap_or_default();
        remaining.retain(|l| l.block_id != new_loc.block_id);
        if !remaining.is_empty() {
            node.backups.insert(new_loc.block_id, remaining);
        }
        Ok(extent.clone())
    }

    /// Makes the id allocator skip past `next_id` (snapshot restore). The
    /// allocator only ever moves forward, so this is safe to call with a
    /// stale value.
    pub fn observe_next_id(&mut self, next_id: u64) {
        self.next_id = self.next_id.max(next_id);
    }

    /// The value the id allocator would hand out next (snapshot capture).
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Moves the id allocator back to `next_id`, read with
    /// [`Namespace::next_id`] before a create that was then deleted
    /// again: the rolled-back node was never logged or acked, so its id
    /// is issued again rather than burnt, and the allocator stays what
    /// the log replays to. Every node created since must be gone.
    pub fn rewind_next_id(&mut self, next_id: u64) {
        debug_assert!(self.nodes.keys().all(|id| id.0 < next_id));
        self.next_id = next_id;
    }

    /// Iterates over every node including the root, in no particular
    /// order. Snapshots, `fsck`, and the dead-server sweep scan with this.
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.values()
    }

    /// Deletes the node at `path` and its whole subtree.
    ///
    /// # Errors
    ///
    /// - [`ErrorCode::InvalidArgument`] for the root,
    /// - [`ErrorCode::NotFound`] for unknown paths.
    pub fn delete(&mut self, path: &NodePath) -> GliderResult<DeleteOutcome> {
        if path.is_root() {
            return Err(GliderError::invalid("cannot delete the root"));
        }
        let id = *self
            .by_path
            .get(path)
            .ok_or_else(|| GliderError::not_found(format!("node {path}")))?;
        // Unlink from the parent.
        let parent_id = self.nodes[&id].parent.expect("non-root has a parent");
        let name = path.name().expect("non-root has a name").to_string();
        self.nodes
            .get_mut(&parent_id)
            .expect("parent exists")
            .children
            .remove(&name);
        // Collect and remove the subtree.
        let mut extents = Vec::new();
        let mut actions = Vec::new();
        let mut stack = vec![id];
        let mut removed_root_info = None;
        while let Some(cur) = stack.pop() {
            let node = self.nodes.remove(&cur).expect("subtree node");
            self.by_path.remove(&node.path);
            stack.extend(node.children.values().copied());
            if node.kind == NodeKind::Action {
                actions.push(node.info());
            } else {
                extents.extend(node.blocks.iter().cloned());
                // Backup replicas are freed exactly like primaries; their
                // used length is irrelevant to freeing, so report zero.
                extents.extend(node.backups.values().flatten().map(|loc| BlockExtent {
                    loc: loc.clone(),
                    len: 0,
                }));
            }
            if cur == id {
                removed_root_info = Some(node.info());
            }
        }
        Ok(DeleteOutcome {
            info: removed_root_info.expect("deleted root visited"),
            extents,
            actions,
        })
    }

    /// Lists child names of the container at `path`.
    ///
    /// # Errors
    ///
    /// - [`ErrorCode::NotFound`] for unknown paths,
    /// - [`ErrorCode::WrongNodeKind`] for non-containers.
    pub fn list_children(&self, path: &NodePath) -> GliderResult<Vec<String>> {
        let node = self.lookup(path)?;
        if !node.kind.is_container() {
            return Err(GliderError::new(
                ErrorCode::WrongNodeKind,
                format!("{} nodes have no children", node.kind),
            ));
        }
        Ok(node.child_names())
    }

    /// Sum of data held by every node (for utilization assertions).
    pub fn total_bytes(&self) -> u64 {
        self.nodes.values().map(|n| n.size()).sum()
    }
}

impl Default for Namespace {
    fn default() -> Self {
        Namespace::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> NodePath {
        NodePath::parse(s).unwrap()
    }

    fn loc(b: u64) -> BlockLocation {
        BlockLocation {
            block_id: BlockId(b),
            server_id: glider_proto::types::ServerId(1),
            addr: "srv".to_string(),
        }
    }

    fn action_spec() -> ActionSpec {
        ActionSpec::new("merge", false)
    }

    #[test]
    fn create_lookup_delete_cycle() {
        let mut ns = Namespace::new();
        assert!(ns.is_empty());
        ns.create(p("/d"), NodeKind::Directory, None, None).unwrap();
        ns.create(p("/d/f"), NodeKind::File, None, None).unwrap();
        assert_eq!(ns.len(), 3);
        assert_eq!(ns.lookup(&p("/d/f")).unwrap().kind, NodeKind::File);
        let out = ns.delete(&p("/d")).unwrap();
        assert_eq!(out.info.kind, NodeKind::Directory);
        assert!(ns.is_empty());
        assert!(ns.lookup(&p("/d/f")).is_err());
    }

    #[test]
    fn create_requires_existing_container_parent() {
        let mut ns = Namespace::new();
        let err = ns
            .create(p("/a/b"), NodeKind::File, None, None)
            .unwrap_err();
        assert_eq!(err.code(), ErrorCode::NotFound);
        ns.create(p("/f"), NodeKind::File, None, None).unwrap();
        let err = ns
            .create(p("/f/x"), NodeKind::File, None, None)
            .unwrap_err();
        assert_eq!(err.code(), ErrorCode::WrongNodeKind);
    }

    #[test]
    fn duplicate_paths_rejected() {
        let mut ns = Namespace::new();
        ns.create(p("/x"), NodeKind::File, None, None).unwrap();
        let err = ns.create(p("/x"), NodeKind::File, None, None).unwrap_err();
        assert_eq!(err.code(), ErrorCode::AlreadyExists);
    }

    #[test]
    fn root_cannot_be_created_or_deleted() {
        let mut ns = Namespace::new();
        assert!(ns.create(p("/"), NodeKind::Directory, None, None).is_err());
        assert!(ns.delete(&p("/")).is_err());
    }

    #[test]
    fn action_spec_rules() {
        let mut ns = Namespace::new();
        let err = ns
            .create(p("/a"), NodeKind::Action, None, None)
            .unwrap_err();
        assert_eq!(err.code(), ErrorCode::InvalidArgument);
        let err = ns
            .create(p("/f"), NodeKind::File, None, Some(action_spec()))
            .unwrap_err();
        assert_eq!(err.code(), ErrorCode::InvalidArgument);
        let node = ns
            .create(
                p("/a"),
                NodeKind::Action,
                Some(StorageClass::dram()),
                Some(action_spec()),
            )
            .unwrap();
        // Actions always land in the active class even if the caller asked
        // for another class.
        assert_eq!(node.storage_class, StorageClass::active());
    }

    #[test]
    fn block_chain_growth_and_commit() {
        let mut ns = Namespace::new();
        let id = ns.create(p("/f"), NodeKind::File, None, None).unwrap().id;
        ns.add_extents(id, vec![loc(1)]).unwrap();
        ns.add_extents(id, vec![loc(2)]).unwrap();
        ns.commit_block(id, BlockId(1), 1024).unwrap();
        ns.commit_block(id, BlockId(2), 10).unwrap();
        let node = ns.get(id).unwrap();
        assert_eq!(node.size(), 1034);
        assert_eq!(node.info().blocks.len(), 2);
        // Commits are monotonic for files.
        ns.commit_block(id, BlockId(2), 5).unwrap();
        assert_eq!(ns.get(id).unwrap().size(), 1034);
    }

    #[test]
    fn keyvalue_commit_can_shrink() {
        let mut ns = Namespace::new();
        let id = ns
            .create(p("/kv"), NodeKind::KeyValue, None, None)
            .unwrap()
            .id;
        ns.add_extents(id, vec![loc(1)]).unwrap();
        ns.commit_block(id, BlockId(1), 100).unwrap();
        ns.commit_block(id, BlockId(1), 10).unwrap();
        assert_eq!(ns.get(id).unwrap().size(), 10);
    }

    #[test]
    fn single_block_nodes_reject_second_extent() {
        let mut ns = Namespace::new();
        let kv = ns
            .create(p("/kv"), NodeKind::KeyValue, None, None)
            .unwrap()
            .id;
        ns.add_extents(kv, vec![loc(1)]).unwrap();
        assert!(ns.add_extents(kv, vec![loc(2)]).is_err());
        let act = ns
            .create(p("/a"), NodeKind::Action, None, Some(action_spec()))
            .unwrap()
            .id;
        ns.add_extents(act, vec![loc(3)]).unwrap();
        assert!(ns.add_extents(act, vec![loc(4)]).is_err());
    }

    #[test]
    fn containers_hold_no_blocks() {
        let mut ns = Namespace::new();
        let d = ns
            .create(p("/d"), NodeKind::Directory, None, None)
            .unwrap()
            .id;
        let err = ns.add_extents(d, vec![loc(1)]).unwrap_err();
        assert_eq!(err.code(), ErrorCode::WrongNodeKind);
    }

    #[test]
    fn commit_unknown_block_is_not_found() {
        let mut ns = Namespace::new();
        let id = ns.create(p("/f"), NodeKind::File, None, None).unwrap().id;
        assert!(ns.commit_block(id, BlockId(9), 1).is_err());
        assert!(ns.commit_block(NodeId(77), BlockId(9), 1).is_err());
    }

    #[test]
    fn recursive_delete_collects_blocks_and_actions() {
        let mut ns = Namespace::new();
        ns.create(p("/d"), NodeKind::Directory, None, None).unwrap();
        let f = ns.create(p("/d/f"), NodeKind::File, None, None).unwrap().id;
        ns.add_extents(f, vec![loc(1)]).unwrap();
        ns.add_extents(f, vec![loc(2)]).unwrap();
        let a = ns
            .create(p("/d/a"), NodeKind::Action, None, Some(action_spec()))
            .unwrap()
            .id;
        ns.add_extents(a, vec![loc(3)]).unwrap();
        ns.create(p("/d/sub"), NodeKind::Table, None, None).unwrap();
        ns.create(p("/d/sub/kv"), NodeKind::KeyValue, None, None)
            .unwrap();
        let out = ns.delete(&p("/d")).unwrap();
        assert_eq!(out.extents.len(), 2);
        assert_eq!(out.actions.len(), 1);
        assert_eq!(out.actions[0].id, a);
        assert!(ns.is_empty());
    }

    #[test]
    fn list_children_sorted_and_validated() {
        let mut ns = Namespace::new();
        ns.create(p("/d"), NodeKind::Directory, None, None).unwrap();
        ns.create(p("/d/b"), NodeKind::File, None, None).unwrap();
        ns.create(p("/d/a"), NodeKind::File, None, None).unwrap();
        assert_eq!(ns.list_children(&p("/d")).unwrap(), vec!["a", "b"]);
        let err = ns.list_children(&p("/d/a")).unwrap_err();
        assert_eq!(err.code(), ErrorCode::WrongNodeKind);
        assert!(ns.list_children(&p("/nope")).is_err());
    }

    #[test]
    fn id_base_offsets_every_node_id() {
        let root_id = |ns: &Namespace| ns.lookup(&NodePath::root()).unwrap().id;
        let mut ns = Namespace::with_id_base(1 << 40);
        assert_eq!(root_id(&ns), NodeId((1 << 40) + 1));
        let f = ns.create(p("/f"), NodeKind::File, None, None).unwrap().id;
        assert_eq!(f, NodeId((1 << 40) + 2));
        // Base 0 matches the plain constructor.
        assert_eq!(
            root_id(&Namespace::new()),
            root_id(&Namespace::with_id_base(0))
        );
    }

    #[test]
    fn add_extents_is_all_or_nothing() {
        let mut ns = Namespace::new();
        let f = ns.create(p("/f"), NodeKind::File, None, None).unwrap().id;
        let got = ns.add_extents(f, vec![loc(1), loc(2), loc(3)]).unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(ns.get(f).unwrap().blocks.len(), 3);
        // A single-block node rejects an oversized batch without touching
        // its (empty) chain.
        let kv = ns
            .create(p("/kv"), NodeKind::KeyValue, None, None)
            .unwrap()
            .id;
        assert!(ns.add_extents(kv, vec![loc(4), loc(5)]).is_err());
        assert!(ns.get(kv).unwrap().blocks.is_empty());
        ns.add_extents(kv, vec![loc(4)]).unwrap();
        // ... and once occupied, any further batch fails whole.
        assert!(ns.add_extents(kv, vec![loc(5)]).is_err());
        assert_eq!(ns.get(kv).unwrap().blocks.len(), 1);
        // Containers reject batches too.
        let d = ns
            .create(p("/d"), NodeKind::Directory, None, None)
            .unwrap()
            .id;
        assert!(ns.add_extents(d, vec![loc(6)]).is_err());
    }

    #[test]
    fn replace_extent_keeps_chain_position() {
        let mut ns = Namespace::new();
        let f = ns.create(p("/f"), NodeKind::File, None, None).unwrap().id;
        ns.add_extents(f, vec![loc(1), loc(2), loc(3)]).unwrap();
        ns.commit_block(f, BlockId(2), 77).unwrap();
        ns.set_backups(f, BlockId(2), vec![loc(8)]).unwrap();
        let (swapped, dropped) = ns.replace_extent(f, BlockId(2), loc(9)).unwrap();
        assert_eq!(swapped.loc.block_id, BlockId(9));
        assert_eq!(swapped.len, 0, "replacement starts empty");
        assert_eq!(dropped, vec![loc(8)], "the old block's backups go with it");
        assert!(ns.get(f).unwrap().backups.is_empty());
        let chain: Vec<BlockId> = ns
            .get(f)
            .unwrap()
            .blocks
            .iter()
            .map(|b| b.loc.block_id)
            .collect();
        assert_eq!(chain, vec![BlockId(1), BlockId(9), BlockId(3)]);
        // Unknown block or node: typed NotFound.
        assert_eq!(
            ns.replace_extent(f, BlockId(2), loc(10))
                .unwrap_err()
                .code(),
            ErrorCode::NotFound
        );
        assert!(ns.replace_extent(NodeId(77), BlockId(1), loc(10)).is_err());
    }

    fn loc_on(b: u64, server: u64) -> BlockLocation {
        BlockLocation {
            block_id: BlockId(b),
            server_id: glider_proto::types::ServerId(server),
            addr: format!("srv-{server}"),
        }
    }

    #[test]
    fn backups_tracked_and_freed_on_delete() {
        let mut ns = Namespace::new();
        let f = ns.create(p("/f"), NodeKind::File, None, None).unwrap().id;
        ns.add_extents(f, vec![loc_on(1, 1)]).unwrap();
        ns.set_backups(f, BlockId(1), vec![loc_on(2, 2)]).unwrap();
        let reps = ns.get(f).unwrap().replicas();
        assert_eq!(reps.len(), 1);
        assert_eq!(reps[0].backups.len(), 1);
        assert_eq!(reps[0].backups[0].block_id, BlockId(2));
        // Unknown block / node: typed NotFound.
        assert_eq!(
            ns.set_backups(f, BlockId(9), vec![]).unwrap_err().code(),
            ErrorCode::NotFound
        );
        assert!(ns.set_backups(NodeId(77), BlockId(1), vec![]).is_err());
        // Deleting the node surfaces the backup for freeing too.
        let out = ns.delete(&p("/f")).unwrap();
        let freed: Vec<BlockId> = out.extents.iter().map(|e| e.loc.block_id).collect();
        assert!(freed.contains(&BlockId(1)));
        assert!(freed.contains(&BlockId(2)));
    }

    #[test]
    fn set_backups_empty_clears_entry() {
        let mut ns = Namespace::new();
        let f = ns.create(p("/f"), NodeKind::File, None, None).unwrap().id;
        ns.add_extents(f, vec![loc_on(1, 1)]).unwrap();
        ns.set_backups(f, BlockId(1), vec![loc_on(2, 2)]).unwrap();
        ns.set_backups(f, BlockId(1), vec![]).unwrap();
        assert!(ns.get(f).unwrap().replicas()[0].backups.is_empty());
    }

    #[test]
    fn promote_extent_keeps_committed_len() {
        let mut ns = Namespace::new();
        let f = ns.create(p("/f"), NodeKind::File, None, None).unwrap().id;
        ns.add_extents(f, vec![loc_on(1, 1), loc_on(2, 1)]).unwrap();
        ns.set_backups(f, BlockId(1), vec![loc_on(8, 2), loc_on(9, 3)])
            .unwrap();
        ns.commit_block(f, BlockId(1), 4096).unwrap();
        // Server 1 dies; the backup on server 2 becomes primary.
        let promoted = ns.promote_extent(f, BlockId(1), loc_on(8, 2)).unwrap();
        assert_eq!(promoted.loc.block_id, BlockId(8));
        assert_eq!(promoted.len, 4096, "promotion preserves acked bytes");
        // The surviving backup is re-keyed under the new primary.
        let reps = ns.get(f).unwrap().replicas();
        assert_eq!(reps[0].extent.loc.block_id, BlockId(8));
        assert_eq!(reps[0].backups, vec![loc_on(9, 3)]);
        // The old primary has left the chain: promoting it again, or a
        // block the chain never held, is NotFound.
        for old in [1, 50] {
            assert_eq!(
                ns.promote_extent(f, BlockId(old), loc_on(51, 2))
                    .unwrap_err()
                    .code(),
                ErrorCode::NotFound
            );
        }
    }

    #[test]
    fn create_with_id_keeps_the_id_and_refuses_a_held_one() {
        let mut ns = Namespace::new();
        let restore = |ns: &mut Namespace, path: &str, id: u64, kind: NodeKind| {
            ns.create_with_id(NodeId(id), p(path), kind, None, None)
                .map(|n| n.id)
                .map_err(|e| e.code())
        };
        assert_eq!(
            restore(&mut ns, "/d", 7, NodeKind::Directory),
            Ok(NodeId(7))
        );
        assert_eq!(restore(&mut ns, "/d/f", 9, NodeKind::File), Ok(NodeId(9)));
        // A taken path is refused and changes nothing.
        assert_eq!(
            restore(&mut ns, "/d/f", 9, NodeKind::File),
            Err(ErrorCode::AlreadyExists)
        );
        assert_eq!(ns.len(), 3);
        assert_eq!(ns.lookup(&p("/d/f")).unwrap().id, NodeId(9));
        // The allocator never reissues a recovered id.
        let g = ns.create(p("/g"), NodeKind::File, None, None).unwrap().id;
        assert_eq!(g, NodeId(10));
        // A missing parent is NotFound; an id another path holds is
        // corruption. A node's id need not exceed its parent's.
        assert_eq!(
            restore(&mut ns, "/x/y", 20, NodeKind::File),
            Err(ErrorCode::NotFound)
        );
        assert_eq!(
            restore(&mut ns, "/h", 9, NodeKind::File),
            Err(ErrorCode::InvalidArgument)
        );
        assert_eq!(restore(&mut ns, "/d/old", 5, NodeKind::File), Ok(NodeId(5)));
        // observe_next_id only moves forward.
        let before = ns.next_id();
        ns.observe_next_id(before - 1);
        assert_eq!(ns.next_id(), before);
        ns.observe_next_id(1000);
        assert_eq!(ns.next_id(), 1000);
    }

    #[test]
    fn nodes_iterator_covers_tree() {
        let mut ns = Namespace::new();
        ns.create(p("/a"), NodeKind::File, None, None).unwrap();
        ns.create(p("/b"), NodeKind::File, None, None).unwrap();
        assert_eq!(ns.nodes().count(), 3);
    }

    #[test]
    fn total_bytes_sums_sizes() {
        let mut ns = Namespace::new();
        let f = ns.create(p("/f"), NodeKind::File, None, None).unwrap().id;
        ns.add_extents(f, vec![loc(1)]).unwrap();
        ns.commit_block(f, BlockId(1), 500).unwrap();
        let g = ns.create(p("/g"), NodeKind::Bag, None, None).unwrap().id;
        ns.add_extents(g, vec![loc(2)]).unwrap();
        ns.commit_block(g, BlockId(2), 11).unwrap();
        assert_eq!(ns.total_bytes(), 511);
    }
}
