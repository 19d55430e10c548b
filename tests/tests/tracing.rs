//! End-to-end tracing: one client operation must yield a connected span
//! tree — client.call → rpc.dispatch → active.handle → action.queue →
//! action.run — all sharing a single trace id.
//!
//! This file holds exactly one test: the flight recorder is
//! process-global, and a second test running concurrently in the same
//! binary would see (and pollute) the ring.

use glider_core::proto::types::ActionSpec;
use glider_core::{Cluster, ClusterConfig};
use glider_trace::{set_recorder, CompletedSpan, FlightRecorder};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

const TREE: [&str; 5] = [
    "client.call",
    "rpc.dispatch",
    "active.handle",
    "action.queue",
    "action.run",
];

/// Groups spans by trace id and returns the first group containing every
/// span name of the expected tree.
fn find_full_trace(spans: &[CompletedSpan]) -> Option<Vec<CompletedSpan>> {
    let mut by_trace: HashMap<u64, Vec<CompletedSpan>> = HashMap::new();
    for s in spans {
        by_trace.entry(s.trace_id).or_default().push(s.clone());
    }
    by_trace.into_values().find(|group| {
        TREE.iter()
            .all(|name| group.iter().any(|s| s.name == *name))
    })
}

#[tokio::test(flavor = "multi_thread", worker_threads = 2)]
async fn one_client_op_produces_a_connected_span_tree() {
    // Installed before the cluster starts, which then shares it
    // (`install_recorder` is get-or-create).
    let rec = Arc::new(FlightRecorder::with_capacity(1 << 20, 1024, 1024));
    set_recorder(Some(Arc::clone(&rec)));

    let cluster = Cluster::start(ClusterConfig::default()).await.unwrap();
    let store = cluster.client().await.unwrap();
    let merge = store
        .create_action("/traced", ActionSpec::new("merge", false))
        .await
        .unwrap();
    merge
        .write_all(bytes::Bytes::from_static(b"5,1\n5,2\n"))
        .await
        .unwrap();

    // Server-side spans (action.run in particular) close asynchronously
    // after the client's call returns; poll briefly for the full tree.
    let mut group = None;
    for _ in 0..100 {
        group = find_full_trace(&rec.snapshot(0, 0).spans);
        if group.is_some() {
            break;
        }
        tokio::time::sleep(Duration::from_millis(20)).await;
    }
    set_recorder(None);
    cluster.shutdown();

    let group = group.unwrap_or_else(|| {
        panic!(
            "no trace contains the full span tree; captured: {:?}",
            rec.snapshot(0, 0)
                .spans
                .iter()
                .map(|s| (s.name, s.trace_id))
                .collect::<Vec<_>>()
        )
    });
    let by_name = |n: &str| group.iter().find(|s| s.name == n).unwrap();

    let root = by_name("client.call");
    assert_eq!(root.parent_span, 0, "client.call is the root");
    assert!(!root.remote);

    let dispatch = by_name("rpc.dispatch");
    assert!(
        dispatch.remote,
        "dispatch continues the trace over the wire"
    );
    assert_eq!(dispatch.parent_span, 0, "its parent lives in the client");

    assert_eq!(by_name("active.handle").parent_span, dispatch.span_id);
    assert_eq!(
        by_name("action.queue").parent_span,
        by_name("active.handle").span_id
    );
    assert_eq!(
        by_name("action.run").parent_span,
        by_name("action.queue").span_id
    );

    // Every span of the tree shares the root's trace id (by construction
    // of the grouping, but assert it explicitly for the reader).
    assert!(group.iter().all(|s| s.trace_id == root.trace_id));
}
