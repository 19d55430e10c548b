//! `MetaService::apply`, the metadata server's whole request surface,
//! driven directly: no transport, no runtime. The RPC shell in
//! `glider-metadata` only adds a span, the `RepairNode` copies and a
//! test-only allocation delay around these calls.

use glider_metrics::{MetricsRegistry, Signal};
use glider_namespace::registry::MAX_SERVER_BLOCKS;
use glider_namespace::service::{CopyPlan, MetaService, MetadataOptions};
use glider_proto::message::{RequestBody, ResponseBody};
use glider_proto::types::{
    ActionSpec, BlockExtent, BlockId, NodeId, NodeInfo, NodeKind, ReplicaExtent, ServerId,
    ServerKind, StorageClass,
};
use glider_proto::{ErrorCode, GliderResult};
use glider_sim::{seeds, Lcg, TempDir};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn open(options: MetadataOptions) -> MetaService {
    MetaService::open(Instant::now(), options, MetricsRegistry::new()).unwrap()
}

/// Serves `body` at the current instant. Only a sweep judges a lease,
/// so the instant matters only to the tests that sweep, and those pass
/// their own to `MetaService::apply`.
fn apply(svc: &MetaService, body: RequestBody) -> GliderResult<ResponseBody> {
    svc.apply(Instant::now(), body)
}

fn register(svc: &MetaService, class: StorageClass, addr: &str, cap: u64) -> ServerId {
    let kind = if class == StorageClass::active() {
        ServerKind::Active
    } else {
        ServerKind::Data
    };
    match apply(
        svc,
        RequestBody::RegisterServer {
            kind,
            storage_class: class,
            addr: addr.to_string(),
            capacity_blocks: cap,
        },
    ) {
        Ok(ResponseBody::Registered { server_id, .. }) => server_id,
        other => panic!("unexpected {other:?}"),
    }
}

fn create(svc: &MetaService, path: &str, kind: NodeKind) -> GliderResult<NodeInfo> {
    let action = (kind == NodeKind::Action).then(|| ActionSpec {
        type_name: "merge".to_string(),
        interleaved: true,
        params: String::new(),
    });
    match apply(
        svc,
        RequestBody::CreateNode {
            path: path.to_string(),
            kind,
            storage_class: None,
            action,
        },
    )? {
        ResponseBody::Node(info) => Ok(info),
        other => panic!("unexpected {other:?}"),
    }
}

fn create_file(svc: &MetaService, path: &str) -> NodeInfo {
    create(svc, path, NodeKind::File).unwrap()
}

fn lookup(svc: &MetaService, path: &str) -> GliderResult<NodeInfo> {
    match apply(
        svc,
        RequestBody::LookupNode {
            path: path.to_string(),
        },
    )? {
        ResponseBody::Node(info) => Ok(info),
        other => panic!("unexpected {other:?}"),
    }
}

fn delete(svc: &MetaService, path: &str) {
    let resp = apply(
        svc,
        RequestBody::DeleteNode {
            path: path.to_string(),
        },
    );
    assert!(matches!(resp, Ok(ResponseBody::Deleted { .. })), "{resp:?}");
}

/// `AddBlocks` on an unreplicated service.
fn add_blocks(svc: &MetaService, node_id: NodeId, count: u32) -> GliderResult<Vec<BlockExtent>> {
    match apply(svc, RequestBody::AddBlocks { node_id, count })? {
        ResponseBody::Blocks(extents) => Ok(extents),
        other => panic!("unexpected {other:?}"),
    }
}

/// `AddBlocks` on a service with a replication factor above one.
fn add_replicated(svc: &MetaService, node_id: NodeId, count: u32) -> Vec<ReplicaExtent> {
    match apply(svc, RequestBody::AddBlocks { node_id, count }) {
        Ok(ResponseBody::ReplicatedBlocks(r)) => r,
        other => panic!("factor > 1 must answer ReplicatedBlocks, got {other:?}"),
    }
}

fn commit(svc: &MetaService, node_id: NodeId, commits: Vec<(BlockId, u64)>) -> GliderResult<()> {
    match apply(svc, RequestBody::CommitBlocks { node_id, commits })? {
        ResponseBody::Ok => Ok(()),
        other => panic!("unexpected {other:?}"),
    }
}

fn replicas(svc: &MetaService, node_id: NodeId) -> Vec<ReplicaExtent> {
    match apply(svc, RequestBody::NodeReplicas { node_id }) {
        Ok(ResponseBody::ReplicatedBlocks(r)) => r,
        other => panic!("unexpected {other:?}"),
    }
}

fn code<T: std::fmt::Debug>(result: GliderResult<T>) -> ErrorCode {
    result.unwrap_err().code()
}

#[test]
fn wal_recovery_survives_restart() {
    let dir = TempDir::new("glider-meta-service-recover");
    let wal = || MetadataOptions::default().with_wal(dir.path());
    let f_id = {
        let svc = open(wal());
        register(&svc, StorageClass::dram(), "127.0.0.1:1", 8);
        let f = create_file(&svc, "/f");
        let got = add_blocks(&svc, f.id, 2).unwrap();
        commit(
            &svc,
            f.id,
            vec![(got[0].loc.block_id, 100), (got[1].loc.block_id, 50)],
        )
        .unwrap();
        create_file(&svc, "/gone");
        delete(&svc, "/gone");
        // Simulated kill -9: the service is dropped with no shutdown
        // protocol. Every acked mutation is already fsynced.
        f.id
    };
    let svc = open(wal());
    // The namespace replayed: /f is back with its chain and sizes.
    let after = lookup(&svc, "/f").unwrap();
    assert_eq!(after.size, 150);
    assert_eq!(after.blocks.len(), 2);
    assert_eq!(after.id, f_id);
    // The deleted node stayed deleted.
    assert_eq!(code(lookup(&svc, "/gone")), ErrorCode::NotFound);
    // The allocator reconciled: exactly the 6 unallocated blocks remain —
    // no re-registration needed, no double allocation.
    let g = create_file(&svc, "/g");
    assert_eq!(add_blocks(&svc, g.id, 8).unwrap().len(), 6);
    assert_eq!(code(add_blocks(&svc, g.id, 1)), ErrorCode::OutOfCapacity);
    // Recovered ids are never reissued.
    assert_ne!(g.id, f_id);
}

#[test]
fn replication_allocates_backups_on_distinct_servers() {
    let svc = open(MetadataOptions::default().with_replication(2));
    register(&svc, StorageClass::dram(), "127.0.0.1:7201", 4);
    register(&svc, StorageClass::dram(), "127.0.0.1:7202", 4);
    let f = create_file(&svc, "/f");
    let got = add_replicated(&svc, f.id, 2);
    assert_eq!(got.len(), 2);
    for r in &got {
        assert_eq!(r.backups.len(), 1, "factor 2 = one backup");
        assert_ne!(
            r.backups[0].server_id, r.extent.loc.server_id,
            "backup must land on a distinct server"
        );
    }
    // NodeReplicas reports the same layout.
    assert_eq!(replicas(&svc, f.id), got);
}

#[test]
fn replication_degrades_gracefully_on_one_server() {
    // Factor 2 with a single server: writes proceed unreplicated rather
    // than failing.
    let svc = open(MetadataOptions::default().with_replication(2));
    register(&svc, StorageClass::dram(), "127.0.0.1:1", 4);
    let f = create_file(&svc, "/f");
    let got = add_replicated(&svc, f.id, 1);
    assert_eq!(got.len(), 1);
    assert!(got[0].backups.is_empty(), "no second server to back up on");
}

#[test]
fn backups_follow_the_class_fallback_chain() {
    // One DRAM server, two NVMe servers, DRAM → NVMe, factor 2. DRAM has
    // no second server, and its three blocks run out, so backups (and
    // later primaries) must come from NVMe — each on a server other than
    // its primary's.
    let options = MetadataOptions::default()
        .with_replication(2)
        .with_fallback(StorageClass::dram(), StorageClass::nvme());
    let svc = open(options);
    let dram = register(&svc, StorageClass::dram(), "127.0.0.1:7301", 3);
    register(&svc, StorageClass::nvme(), "127.0.0.1:7302", 16);
    register(&svc, StorageClass::nvme(), "127.0.0.1:7303", 16);
    let one_distinct_backup = |r: &ReplicaExtent| {
        assert_eq!(r.backups.len(), 1, "{r:?}");
        assert_ne!(r.backups[0].server_id, r.extent.loc.server_id, "{r:?}");
    };
    let f = create_file(&svc, "/f");
    let got = add_replicated(&svc, f.id, 5);
    assert_eq!(got.len(), 5);
    // A DRAM primary whose class has no second live server, and a
    // primary that itself fell back to NVMe.
    assert_eq!(got[0].extent.loc.server_id, dram);
    assert_ne!(got[4].extent.loc.server_id, dram);
    got.iter().for_each(one_distinct_backup);

    // Replacing the DRAM block suspects the DRAM server: the replacement
    // and its backup both come from NVMe, on two servers.
    let replaced = match apply(
        &svc,
        RequestBody::ReplaceBlock {
            node_id: f.id,
            block_id: got[0].extent.loc.block_id,
        },
    ) {
        Ok(ResponseBody::ReplicatedBlocks(r)) => r,
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(replaced.len(), 1);
    assert_ne!(replaced[0].extent.loc.server_id, dram);
    replaced.iter().for_each(one_distinct_backup);
    replicas(&svc, f.id).iter().for_each(one_distinct_backup);
}

#[test]
fn exhausted_class_falls_back_to_the_next() {
    let options =
        MetadataOptions::default().with_fallback(StorageClass::dram(), StorageClass::nvme());
    let svc = open(options);
    let dram = register(&svc, StorageClass::dram(), "127.0.0.1:7401", 2);
    let nvme = register(&svc, StorageClass::nvme(), "127.0.0.1:7402", 4);
    let f = create_file(&svc, "/f");
    let servers = |extents: Vec<BlockExtent>| -> Vec<ServerId> {
        extents.iter().map(|e| e.loc.server_id).collect()
    };
    // One batch spills over the DRAM tier into NVMe.
    assert_eq!(
        servers(add_blocks(&svc, f.id, 3).unwrap()),
        [dram, dram, nvme]
    );
    // With DRAM exhausted, the next AddBlocks lands on NVMe.
    assert_eq!(servers(add_blocks(&svc, f.id, 1).unwrap()), [nvme]);
    // Freed DRAM blocks are preferred again.
    delete(&svc, "/f");
    let g = create_file(&svc, "/g");
    assert_eq!(servers(add_blocks(&svc, g.id, 1).unwrap()), [dram]);
}

#[test]
fn unregistered_class_follows_its_fallback_edge() {
    // No DRAM server at all: the class is NotFound without a fallback…
    let svc = open(MetadataOptions::default());
    register(&svc, StorageClass::nvme(), "127.0.0.1:7501", 4);
    let f = create_file(&svc, "/f");
    assert_eq!(code(add_blocks(&svc, f.id, 1)), ErrorCode::NotFound);
    // …and NVMe with one.
    let options =
        MetadataOptions::default().with_fallback(StorageClass::dram(), StorageClass::nvme());
    let svc = open(options);
    let nvme = register(&svc, StorageClass::nvme(), "127.0.0.1:7501", 4);
    let f = create_file(&svc, "/f");
    let got = add_blocks(&svc, f.id, 2).unwrap();
    assert!(got.iter().all(|e| e.loc.server_id == nvme));
}

#[test]
fn fallback_cycle_ends_in_out_of_capacity() {
    // DRAM → NVMe → DRAM with both classes full: the walk is capped and
    // answers OutOfCapacity instead of looping.
    let options = MetadataOptions::default()
        .with_fallback(StorageClass::dram(), StorageClass::nvme())
        .with_fallback(StorageClass::nvme(), StorageClass::dram());
    let svc = open(options);
    register(&svc, StorageClass::dram(), "127.0.0.1:7601", 1);
    register(&svc, StorageClass::nvme(), "127.0.0.1:7602", 1);
    let f = create_file(&svc, "/f");
    assert_eq!(add_blocks(&svc, f.id, 2).unwrap().len(), 2);
    assert_eq!(code(add_blocks(&svc, f.id, 1)), ErrorCode::OutOfCapacity);
}

#[test]
fn add_blocks_count_is_validated_and_capped() {
    let svc = open(MetadataOptions::default());
    register(&svc, StorageClass::dram(), "127.0.0.1:1", 5000);
    let f = create_file(&svc, "/f");
    assert_eq!(code(add_blocks(&svc, f.id, 0)), ErrorCode::InvalidArgument);
    assert_eq!(add_blocks(&svc, f.id, 5000).unwrap().len(), 4096);
    assert_eq!(lookup(&svc, "/f").unwrap().blocks.len(), 4096);
}

#[test]
fn replace_block_moves_extent_to_live_server() {
    let svc = open(MetadataOptions::default());
    // Two DRAM servers at distinct addresses (same-addr registration
    // supersedes, so they must differ).
    let s1 = register(&svc, StorageClass::dram(), "127.0.0.1:7101", 2);
    let s2 = register(&svc, StorageClass::dram(), "127.0.0.1:7102", 2);
    let f = create_file(&svc, "/f");
    let got = add_blocks(&svc, f.id, 2).unwrap();
    assert_eq!(got[0].loc.server_id, s1, "round-robin starts at s1");
    assert_eq!(got[1].loc.server_id, s2);
    commit(
        &svc,
        f.id,
        got.iter().map(|b| (b.loc.block_id, 64)).collect(),
    )
    .unwrap();

    // Replace the first block: the writer reporting s1 unreachable must
    // get a fresh extent at the same chain position, uncommitted, on the
    // other (live) server.
    let old = got[0].loc.clone();
    let replaced = match apply(
        &svc,
        RequestBody::ReplaceBlock {
            node_id: f.id,
            block_id: old.block_id,
        },
    ) {
        Ok(ResponseBody::Block(b)) => b,
        other => panic!("unexpected {other:?}"),
    };
    assert_ne!(replaced.loc.block_id, old.block_id);
    assert_eq!(replaced.loc.server_id, s2, "suspect owner must be skipped");
    assert_eq!(replaced.len, 0);
    let after = lookup(&svc, "/f").unwrap();
    assert_eq!(after.blocks.len(), 2);
    assert_eq!(after.blocks[0].loc.block_id, replaced.loc.block_id);
    assert_eq!(after.blocks[1].loc.block_id, got[1].loc.block_id);
    assert_eq!(after.size, 64, "only the surviving block stays committed");

    // A block that is not part of the node is NotFound, even though the
    // class is now out of live capacity.
    let err = apply(
        &svc,
        RequestBody::ReplaceBlock {
            node_id: f.id,
            block_id: BlockId(u64::MAX),
        },
    );
    assert_eq!(code(err), ErrorCode::NotFound);
}

#[test]
fn action_create_reserves_slot_in_active_class() {
    let svc = open(MetadataOptions::default());
    // No active servers yet: creating an action must fail cleanly and
    // leave the namespace unchanged.
    let err = create(&svc, "/a", NodeKind::Action);
    assert_eq!(code(err), ErrorCode::NotFound); // class not found
    assert_eq!(code(lookup(&svc, "/a")), ErrorCode::NotFound);

    register(&svc, StorageClass::active(), "127.0.0.1:1", 2);
    let info = create(&svc, "/a", NodeKind::Action).unwrap();
    assert_eq!(info.blocks.len(), 1);
    assert_eq!(info.action.as_ref().unwrap().type_name, "merge");
}

#[test]
fn slot_exhaustion_rolls_back_node() {
    let svc = open(MetadataOptions::default());
    register(&svc, StorageClass::active(), "127.0.0.1:1", 1);
    create(&svc, "/a1", NodeKind::Action).unwrap();
    let err = create(&svc, "/a2", NodeKind::Action);
    assert_eq!(code(err), ErrorCode::OutOfCapacity);
    // The failed node must not linger.
    assert_eq!(code(lookup(&svc, "/a2")), ErrorCode::NotFound);
    // Deleting /a1 releases the slot for reuse.
    delete(&svc, "/a1");
    create(&svc, "/a3", NodeKind::Action).unwrap();
}

#[test]
fn file_block_chain() {
    let svc = open(MetadataOptions::default());
    register(&svc, StorageClass::dram(), "127.0.0.1:1", 4);
    let info = create_file(&svc, "/f");
    let b1 = add_blocks(&svc, info.id, 1).unwrap().remove(0);
    commit(&svc, info.id, vec![(b1.loc.block_id, 100)]).unwrap();
    let after = lookup(&svc, "/f").unwrap();
    assert_eq!(after.size, 100);
    assert_eq!(after.blocks.len(), 1);
}

#[test]
fn data_plane_ops_are_rejected() {
    let svc = open(MetadataOptions::default());
    let err = apply(
        &svc,
        RequestBody::ReadBlock {
            block_id: 1.into(),
            offset: 0,
            len: 1,
        },
    );
    assert_eq!(code(err), ErrorCode::Unsupported);
}

#[test]
fn keyvalue_gets_block_at_create() {
    let svc = open(MetadataOptions::default());
    register(&svc, StorageClass::dram(), "127.0.0.1:1", 4);
    let info = create(&svc, "/kv", NodeKind::KeyValue).unwrap();
    assert_eq!(info.blocks.len(), 1);
    // A second block is refused.
    assert_eq!(
        code(add_blocks(&svc, info.id, 1)),
        ErrorCode::InvalidArgument
    );
}

#[test]
fn batched_add_blocks_allocates_up_to_count() {
    let svc = open(MetadataOptions::default());
    register(&svc, StorageClass::dram(), "127.0.0.1:1", 4);
    let info = create_file(&svc, "/f");
    assert_eq!(add_blocks(&svc, info.id, 3).unwrap().len(), 3);
    // Only one block left: an oversized request returns the remainder
    // rather than failing (partial semantics).
    assert_eq!(add_blocks(&svc, info.id, 8).unwrap().len(), 1);
    // Truly exhausted: a clean OutOfCapacity.
    assert_eq!(code(add_blocks(&svc, info.id, 1)), ErrorCode::OutOfCapacity);
    // The committed chain holds all four blocks, in allocation order.
    assert_eq!(lookup(&svc, "/f").unwrap().blocks.len(), 4);
}

#[test]
fn failed_add_blocks_batch_rolls_back_atomically() {
    let svc = open(MetadataOptions::default());
    register(&svc, StorageClass::dram(), "127.0.0.1:1", 4);
    // The KV node takes 1 of the 4 blocks at create.
    let kv = create(&svc, "/kv", NodeKind::KeyValue).unwrap();
    // A batch on a single-block node fails after allocation; the blocks
    // must all return to the registry and the chain must be untouched.
    assert_eq!(code(add_blocks(&svc, kv.id, 2)), ErrorCode::InvalidArgument);
    assert_eq!(lookup(&svc, "/kv").unwrap().blocks.len(), 1);
    // All 3 remaining blocks are still allocatable — nothing leaked.
    let f = create_file(&svc, "/f");
    assert_eq!(add_blocks(&svc, f.id, 3).unwrap().len(), 3);
    assert_eq!(code(add_blocks(&svc, f.id, 1)), ErrorCode::OutOfCapacity);
}

#[test]
fn commit_blocks_batch_validates_before_applying() {
    let svc = open(MetadataOptions::default());
    register(&svc, StorageClass::dram(), "127.0.0.1:1", 4);
    let f = create_file(&svc, "/f");
    let got = add_blocks(&svc, f.id, 2).unwrap();
    commit(
        &svc,
        f.id,
        vec![(got[0].loc.block_id, 100), (got[1].loc.block_id, 50)],
    )
    .unwrap();
    assert_eq!(lookup(&svc, "/f").unwrap().size, 150);
    // A batch containing an unknown block fails whole: the valid commit
    // ahead of it must not be applied.
    let err = commit(
        &svc,
        f.id,
        vec![(got[0].loc.block_id, 4096), (BlockId(u64::MAX), 1)],
    );
    assert_eq!(code(err), ErrorCode::NotFound);
    assert_eq!(
        lookup(&svc, "/f").unwrap().size,
        150,
        "failed batch must not partially apply"
    );
}

#[test]
fn shards_route_ids_and_merge_root_listing() {
    let svc = open(MetadataOptions::default().with_namespace_shards(4));
    register(&svc, StorageClass::dram(), "127.0.0.1:1", 32);
    // Top-level dirs scatter across shards; ids must still route back to
    // the owning shard.
    let mut ids = Vec::new();
    for name in ["alpha", "beta", "gamma", "delta", "epsilon"] {
        create(&svc, &format!("/{name}"), NodeKind::Directory).unwrap();
        ids.push(create_file(&svc, &format!("/{name}/f")).id);
    }
    // Node ids are unique across shards.
    let unique: std::collections::HashSet<_> = ids.iter().collect();
    assert_eq!(unique.len(), ids.len());
    // Id-routed ops reach the right shard.
    for id in &ids {
        assert_eq!(add_blocks(&svc, *id, 1).unwrap().len(), 1);
    }
    // An id from a shard range that does not exist is NotFound, not a
    // panic.
    assert_eq!(
        code(add_blocks(&svc, NodeId(u64::MAX), 1)),
        ErrorCode::NotFound
    );
    // The root listing merges every shard, sorted.
    let names = match apply(
        &svc,
        RequestBody::ListChildren {
            path: "/".to_string(),
        },
    ) {
        Ok(ResponseBody::Children(names)) => names,
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(names, ["alpha", "beta", "delta", "epsilon", "gamma"]);
}

#[test]
fn concurrent_subtrees_conserve_capacity() {
    // Threads create/allocate/delete under distinct top-level dirs through
    // one service. Afterwards the allocator must hold exactly its original
    // capacity: nothing lost, nothing double-freed.
    const THREADS: usize = 8;
    const CAP: u64 = 64;
    let svc = open(MetadataOptions::default());
    register(&svc, StorageClass::dram(), "127.0.0.1:1", CAP);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let svc = &svc;
            scope.spawn(move || {
                for round in 0..3 {
                    let dir = format!("/task-{t}");
                    create(svc, &dir, NodeKind::Directory).unwrap();
                    let f = create_file(svc, &format!("{dir}/f-{round}"));
                    let got = add_blocks(svc, f.id, 4).unwrap();
                    assert!(!got.is_empty());
                    commit(svc, f.id, got.iter().map(|b| (b.loc.block_id, 1)).collect()).unwrap();
                    delete(svc, &dir);
                }
            });
        }
    });
    // Conservation: the full capacity is allocatable again, and not a
    // block more.
    let f = create_file(&svc, "/final");
    let got = add_blocks(&svc, f.id, CAP as u32).unwrap();
    assert_eq!(got.len(), CAP as usize, "allocator lost blocks");
    assert_eq!(
        code(add_blocks(&svc, f.id, 1)),
        ErrorCode::OutOfCapacity,
        "allocator gained phantom blocks"
    );
}

#[test]
fn repair_promotes_and_re_replicates_and_the_log_keeps_it() {
    let dir = TempDir::new("glider-meta-service-repair");
    let lease = Duration::from_millis(50);
    let options = || {
        MetadataOptions::default()
            .with_replication(2)
            .with_lease(lease)
            .with_wal(dir.path())
    };
    let metrics = MetricsRegistry::new();
    let svc = MetaService::open(Instant::now(), options(), Arc::clone(&metrics)).unwrap();
    let s1 = register(&svc, StorageClass::dram(), "127.0.0.1:7701", 4);
    let f = create_file(&svc, "/f");
    let got = add_replicated(&svc, f.id, 2);
    assert!(got.iter().all(|r| r.backups.is_empty()), "one server only");
    commit(&svc, f.id, vec![(got[0].extent.loc.block_id, 10)]).unwrap();
    assert!(svc.maintenance().is_empty(), "nowhere to copy to yet");
    assert_eq!(metrics.snapshot().current(Signal::UnderReplicated), 2);

    // A second server arrives: the census plans a copy of the committed
    // bytes from the first extent's primary (the second has none to
    // copy), and the layout already names the new backups.
    let s2 = register(&svc, StorageClass::dram(), "127.0.0.1:7702", 4);
    let plans = svc.maintenance();
    assert_eq!(plans.len(), 1);
    for ((plan, before), committed) in plans.iter().zip(&got).zip([10]) {
        let CopyPlan {
            src_addr,
            src_block,
            dst,
            len,
        } = plan;
        assert_eq!(src_addr, "127.0.0.1:7701");
        assert_eq!(*src_block, before.extent.loc.block_id);
        assert_eq!(*len, committed);
        assert_eq!(dst.server_id, s2);
        // The shell ran the copy and reports it; an unreported copy is
        // planned again, and its backup cannot be promoted.
        svc.copied(plan);
    }
    assert!(svc.maintenance().is_empty(), "every copy reported");
    assert_eq!(metrics.snapshot().current(Signal::UnderReplicated), 0);
    assert!(replicas(&svc, f.id).iter().all(|r| r.backups.len() == 1));

    // s1 falls silent past two leases while s2 keeps beating: its
    // primaries are promoted from their backups, keeping the committed
    // length, and no third server means no new backups.
    let later = Instant::now() + lease * 3;
    svc.apply(later, RequestBody::Heartbeat { server_id: s2 })
        .unwrap();
    svc.sweep(later);
    assert_eq!(metrics.snapshot().current(Signal::ServersDead), 1);
    let (plans, layout) = svc.repair_node_locked(f.id).unwrap();
    assert!(plans.is_empty());
    assert!(layout.iter().all(|r| r.extent.loc.server_id == s2));
    assert!(layout.iter().all(|r| r.backups.is_empty()));
    assert_eq!(layout[0].extent.len, 10);
    assert_ne!(s1, s2);

    // Every step was logged: a restart recovers the repaired layout, and
    // a snapshot covers it as well as the log did.
    svc.snapshot_now().unwrap();
    drop(svc);
    let svc = open(options());
    assert_eq!(replicas(&svc, f.id), layout);
    let unknown = svc.repair_node_locked(NodeId(u64::MAX));
    assert_eq!(code(unknown), ErrorCode::NotFound);
}

/// The lease walk DESIGN.md §10 promises, on instants the test picks: a
/// server silent past one lease is Suspect, past two Dead, and a
/// heartbeat brings it back.
#[test]
fn a_silent_server_walks_suspect_then_dead_and_a_heartbeat_readmits_it() {
    let lease = Duration::from_secs(10);
    let metrics = MetricsRegistry::new();
    let t0 = Instant::now();
    let options = MetadataOptions::default().with_lease(lease);
    let svc = MetaService::open(t0, options, Arc::clone(&metrics)).unwrap();
    let [silent, beating] = ["127.0.0.1:7601", "127.0.0.1:7602"].map(|addr| {
        let body = RequestBody::RegisterServer {
            kind: ServerKind::Data,
            storage_class: StorageClass::dram(),
            addr: addr.to_string(),
            capacity_blocks: 2,
        };
        match svc.apply(t0, body) {
            Ok(ResponseBody::Registered { server_id, .. }) => server_id,
            other => panic!("unexpected {other:?}"),
        }
    });
    let census = || {
        let snap = metrics.snapshot();
        [
            Signal::ServersLive,
            Signal::ServersSuspect,
            Signal::ServersDead,
        ]
        .map(|s| snap.current(s))
    };
    let beat = |at: Instant, server_id: ServerId| {
        svc.apply(at, RequestBody::Heartbeat { server_id }).unwrap();
    };
    let at = |leases: f64| t0 + lease.mul_f64(leases);

    beat(at(1.0), beating);
    svc.sweep(at(1.0));
    assert_eq!(census(), [2, 0, 0], "silent for exactly one lease");
    beat(at(1.5), beating);
    svc.sweep(at(1.5));
    assert_eq!(census(), [1, 1, 0], "silent for one and a half leases");
    beat(at(2.5), beating);
    svc.sweep(at(2.5));
    assert_eq!(census(), [1, 0, 1], "silent for two and a half leases");

    // The dead server's blocks are refused: only the beating one's two
    // are handed out.
    let f = create_file(&svc, "/f");
    let got = add_blocks(&svc, f.id, 2).unwrap();
    assert!(got.iter().all(|e| e.loc.server_id == beating));
    assert_eq!(code(add_blocks(&svc, f.id, 1)), ErrorCode::OutOfCapacity);

    // A heartbeat re-admits it, and its lease starts over.
    beat(at(3.0), silent);
    assert_eq!(census(), [2, 0, 0]);
    svc.sweep(at(3.5));
    assert_eq!(census(), [2, 0, 0]);
    let got = add_blocks(&svc, f.id, 1).unwrap();
    assert_eq!(got[0].loc.server_id, silent);
}

#[test]
fn a_repaired_backup_counts_once_a_copy_of_the_committed_bytes_is_reported() {
    let svc = open(MetadataOptions::default().with_replication(2));
    register(&svc, StorageClass::dram(), "127.0.0.1:7901", 4);
    register(&svc, StorageClass::dram(), "127.0.0.1:7902", 4);
    let f = create_file(&svc, "/f");
    let got = add_replicated(&svc, f.id, 1);
    let primary = got[0].extent.loc.clone();
    // The backup's server restarts before anything is committed: repair
    // puts a new backup there and plans no copy, with no bytes to copy.
    register(&svc, StorageClass::dram(), &got[0].backups[0].addr, 4);
    assert!(svc.maintenance().is_empty());
    assert_eq!(replicas(&svc, f.id)[0].backups.len(), 1);
    // The writer commits bytes its chain wrote before the restart. The new
    // backup was not in that chain, so they are copied to it, and the copy
    // is planned again until one is reported.
    commit(&svc, f.id, vec![(primary.block_id, 10)]).unwrap();
    let plans = svc.maintenance();
    assert_eq!(plans.iter().map(|p| p.len).collect::<Vec<_>>(), [10]);
    assert_eq!(
        svc.maintenance().len(),
        1,
        "an unreported copy is planned again"
    );
    svc.copied(&plans[0]);
    assert!(svc.maintenance().is_empty());

    // A commit no live replica holds is refused: the primary's server
    // restarts while the only backup is one repair added and no copy of
    // the bytes has reached.
    let got = add_replicated(&svc, f.id, 1);
    let primary = got[0].extent.loc.clone();
    register(&svc, StorageClass::dram(), &got[0].backups[0].addr, 4);
    for plan in svc.maintenance() {
        svc.copied(&plan);
    }
    register(&svc, StorageClass::dram(), &primary.addr, 4);
    let lost = commit(&svc, f.id, vec![(primary.block_id, 10)]);
    assert_eq!(code(lost), ErrorCode::Unavailable);
    assert_eq!(
        replicas(&svc, f.id)[1].extent.len,
        0,
        "refused, so unchanged"
    );
}

#[test]
fn maintenance_promotes_primaries_off_retired_servers() {
    // A storage server that restarts re-registers at its address, which
    // retires its old entry: the blocks it held are gone as surely as a
    // dead server's, so the census must pick them up like those.
    let svc = open(MetadataOptions::default().with_replication(2));
    let a = register(&svc, StorageClass::dram(), "127.0.0.1:7801", 4);
    let b = register(&svc, StorageClass::dram(), "127.0.0.1:7802", 4);
    let f = create_file(&svc, "/f");
    let got = add_replicated(&svc, f.id, 1);
    assert_eq!(got[0].extent.loc.server_id, a);
    assert_eq!(got[0].backups.len(), 1, "backups complete");
    let a2 = register(&svc, StorageClass::dram(), "127.0.0.1:7801", 4);
    register(&svc, StorageClass::dram(), "127.0.0.1:7803", 4);
    svc.maintenance();
    let layout = replicas(&svc, f.id);
    assert_eq!(layout[0].extent.loc.server_id, b, "backup promoted");
    let named: Vec<ServerId> = layout
        .iter()
        .flat_map(|r| std::iter::once(&r.extent.loc).chain(&r.backups))
        .map(|l| l.server_id)
        .collect();
    assert!(!named.contains(&a), "{named:?} names retired server {a:?}");
    assert_ne!(a, a2);
}

#[test]
fn server_capacity_over_the_cap_is_refused_before_anything_changes() {
    let dir = TempDir::new("glider-meta-service-capacity");
    let wal = || MetadataOptions::default().with_wal(dir.path());
    let svc = open(wal());
    for capacity_blocks in [u64::MAX, MAX_SERVER_BLOCKS + 1] {
        let refused = apply(
            &svc,
            RequestBody::RegisterServer {
                kind: ServerKind::Data,
                storage_class: StorageClass::dram(),
                addr: "127.0.0.1:1".to_string(),
                capacity_blocks,
            },
        );
        assert_eq!(code(refused), ErrorCode::InvalidArgument);
    }
    assert!(svc.capture().servers.is_empty());
    drop(svc);
    // Nothing was logged either: the next server still gets the first ids.
    let svc = open(wal());
    assert!(svc.capture().servers.is_empty());
    assert_eq!(
        apply(
            &svc,
            RequestBody::RegisterServer {
                kind: ServerKind::Data,
                storage_class: StorageClass::dram(),
                addr: "127.0.0.1:1".to_string(),
                capacity_blocks: 4,
            }
        ),
        Ok(ResponseBody::Registered {
            server_id: ServerId(1),
            first_block_id: BlockId(1),
        })
    );
}

#[test]
fn oversized_requests_are_refused_before_anything_changes() {
    let dir = TempDir::new("glider-meta-service-bounds");
    let wal = || MetadataOptions::default().with_wal(dir.path());
    let svc = open(wal());
    register(&svc, StorageClass::dram(), "127.0.0.1:1", 4);
    let f = create_file(&svc, "/f");
    let block = add_blocks(&svc, f.id, 1).unwrap()[0].loc.block_id;
    // 1 100 000 commits would log a record of ~17.6 MB, past the WAL's
    // 16 MiB cap: the request is refused before the chain changes.
    let err = commit(&svc, f.id, vec![(block, 7); 1_100_000]);
    assert_eq!(code(err), ErrorCode::InvalidArgument);
    assert_eq!(lookup(&svc, "/f").unwrap().size, 0);
    // Each string bound, one byte over: nothing is registered or created.
    let long = |n: usize| "x".repeat(n);
    let server = |class: StorageClass, addr: String| RequestBody::RegisterServer {
        kind: ServerKind::Data,
        storage_class: class,
        addr,
        capacity_blocks: 4,
    };
    let node = |path: String, class: Option<StorageClass>, action: Option<ActionSpec>| {
        let kind = match action {
            Some(_) => NodeKind::Action,
            None => NodeKind::File,
        };
        RequestBody::CreateNode {
            path,
            kind,
            storage_class: class,
            action,
        }
    };
    let spec = |type_name: String, params: String| ActionSpec {
        type_name,
        interleaved: false,
        params,
    };
    for body in [
        server(StorageClass::dram(), long(257)),
        server(StorageClass(long(257)), "127.0.0.1:2".to_string()),
        node(format!("/{}", long(4096)), None, None),
        node("/g".to_string(), Some(StorageClass(long(257))), None),
        node("/a".to_string(), None, Some(spec(long(257), String::new()))),
        node(
            "/a".to_string(),
            None,
            Some(spec(long(1), long(64 * 1024 + 1))),
        ),
    ] {
        assert_eq!(code(apply(&svc, body)), ErrorCode::InvalidArgument);
    }
    drop(svc);
    let svc = open(wal());
    assert_eq!(lookup(&svc, "/f").unwrap().size, 0);
    let names = apply(
        &svc,
        RequestBody::ListChildren {
            path: "/".to_string(),
        },
    );
    assert!(
        matches!(&names, Ok(ResponseBody::Children(n)) if n == &["f"]),
        "{names:?}"
    );
    assert_eq!(
        register(&svc, StorageClass::dram(), "127.0.0.1:2", 4),
        ServerId(2)
    );
    // At the bound, the commit is applied and logged.
    commit(&svc, f.id, vec![(block, 7); 4096]).unwrap();
    drop(svc);
    assert_eq!(lookup(&open(wal()), "/f").unwrap().size, 7);
}

/// One worker of the cut test: until `stop`, creates, grows, commits and
/// deletes nodes under its own top-level names, and re-registers servers.
/// Failed requests are part of the load; they log nothing.
fn churn(svc: &MetaService, worker: u64, rng: &mut Lcg, stop: &AtomicBool) {
    let mut chains: HashMap<NodeId, Vec<BlockId>> = HashMap::new();
    while !stop.load(Ordering::Acquire) {
        let top = format!("/w{worker}-{}", rng.range(0, 12));
        let pick = |rng: &mut Lcg, mut ids: Vec<NodeId>| {
            ids.sort();
            (!ids.is_empty()).then(|| ids[rng.range(0, ids.len() as u64) as usize])
        };
        match rng.range(0, 10) {
            0 => {
                let addr = format!("127.0.0.1:79{worker}{}", rng.range(0, 3));
                register(svc, StorageClass::dram(), &addr, 16);
            }
            1..=3 => {
                let kind = [NodeKind::Directory, NodeKind::File, NodeKind::KeyValue]
                    [rng.range(0, 3) as usize];
                let path = match rng.range(0, 2) {
                    0 => top,
                    _ => format!("{top}/n{}", rng.range(0, 4)),
                };
                if let Ok(info) = create(svc, &path, kind) {
                    let blocks = info.blocks.iter().map(|b| b.loc.block_id).collect();
                    chains.insert(info.id, blocks);
                }
            }
            4 | 5 => {
                let Some(id) = pick(rng, chains.keys().copied().collect()) else {
                    continue;
                };
                let count = 1 + rng.range(0, 3) as u32;
                if let Ok(extents) = add_blocks(svc, id, count) {
                    let chain = chains.entry(id).or_default();
                    chain.extend(extents.iter().map(|e| e.loc.block_id));
                }
            }
            6..=8 => {
                let Some(id) = pick(rng, chains.keys().copied().collect()) else {
                    continue;
                };
                let chain = &chains[&id];
                if chain.is_empty() {
                    continue;
                }
                let commits = (0..1 + rng.range(0, 3))
                    .map(|_| {
                        let block = chain[rng.range(0, chain.len() as u64) as usize];
                        (block, rng.range(0, 4096))
                    })
                    .collect();
                let _ = commit(svc, id, commits);
            }
            _ => {
                let _ = apply(svc, RequestBody::DeleteNode { path: top });
            }
        }
    }
}

#[test]
fn snapshots_cut_under_load_recover_the_live_state() {
    const WORKERS: u64 = 4;
    /// Snapshots taken, the last of them too, while the workers run.
    const SNAPSHOTS: usize = 32;
    for seed in seeds([1]) {
        let dir = TempDir::new("glider-meta-service-cuts");
        let options = || {
            MetadataOptions::default()
                .with_namespace_shards(4)
                .with_wal(dir.path())
        };
        let svc = open(options());
        register(&svc, StorageClass::dram(), "127.0.0.1:7900", 64);
        let stop = AtomicBool::new(false);
        let start = Barrier::new(WORKERS as usize + 1);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..WORKERS)
                .map(|w| {
                    let (svc, stop, start) = (&svc, &stop, &start);
                    scope.spawn(move || {
                        start.wait();
                        churn(svc, w, &mut Lcg(seed * 31 + w), stop);
                    })
                })
                .collect();
            start.wait();
            let snapped = (0..SNAPSHOTS).try_for_each(|_| svc.snapshot_now());
            stop.store(true, Ordering::Release);
            for worker in workers {
                if let Err(panic) = worker.join() {
                    std::panic::resume_unwind(panic);
                }
            }
            snapped.unwrap();
        });
        let want = svc.capture();
        drop(svc);
        let got = open(options()).capture();
        assert_eq!(got.servers, want.servers, "seed {seed}");
        assert_eq!(got.shards, want.shards, "seed {seed}");
        assert_eq!(got.cuts, want.cuts, "seed {seed}");
    }
}
