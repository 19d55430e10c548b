//! Spawning action instances.
//!
//! The instance itself — its mailbox, the one admission rule that runs
//! serial and interleaved mode, `on_delete` after the in-flight methods,
//! panic isolation — is [`glider_instance::Instance`], a future with no
//! runtime, and the [`glider_instance::ActionManager`] that creates,
//! feeds and deletes instances is a table with no runtime either. This
//! shell only spawns them: on the [`ActionExecutor`] (the paper's
//! network/action thread split) or on the caller's runtime.

use crate::exec::ActionExecutor;
use glider_instance::{Instance, Spawn};
use std::sync::Arc;

pub use glider_instance::{Enqueued, InstanceHandle, Invocation};

/// The manager's [`Spawn`]: each instance becomes one task on `executor`'s
/// action pool, or on the caller's tokio runtime without one.
pub fn spawner(executor: Option<ActionExecutor>) -> Spawn {
    Arc::new(move |instance: Instance| match &executor {
        Some(pool) => {
            pool.spawn(instance);
        }
        None => {
            tokio::spawn(instance);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use glider_instance::{
        reply, Action, ActionContext, ActionManager, ActionOutputStream, ActionRegistry, BoxFuture,
        MAILBOX_DEPTH,
    };
    use glider_proto::types::{ActionSpec, NodeId, StreamDir};
    use glider_proto::GliderResult;
    use glider_trace::SpanContext;

    #[tokio::test]
    async fn instances_run_on_the_action_pool() {
        struct ThreadProbe;
        impl Action for ThreadProbe {
            fn on_read<'a>(
                &'a self,
                output: &'a mut ActionOutputStream,
                _ctx: &'a ActionContext,
            ) -> BoxFuture<'a, GliderResult<()>> {
                Box::pin(async move {
                    let name = std::thread::current().name().unwrap_or("?").to_string();
                    output.write_all(name.as_bytes()).await
                })
            }
        }
        let spawn = spawner(Some(ActionExecutor::with_workers(2)));
        let ctx = ActionContext::new(NodeId(1), false, None);
        let (instance, handle, mut created) =
            Instance::new(Arc::new(ThreadProbe), ctx, None, MAILBOX_DEPTH);
        spawn(instance);
        created.recv().await.unwrap().unwrap();
        let (output, mut rx) = ActionOutputStream::new(8);
        let (done, mut done_rx) = reply();
        handle
            .enqueue(Invocation::Read { output, done })
            .await
            .unwrap();
        let mut out = Vec::new();
        while let Some(chunk) = rx.recv().await {
            out.extend_from_slice(&chunk);
        }
        done_rx.recv().await.unwrap().unwrap();
        assert_eq!(out, b"glider-action-worker");
    }

    #[tokio::test]
    async fn pool_backed_manager_round_trips() {
        let registry = Arc::new(ActionRegistry::with_builtins());
        let spawn = spawner(Some(ActionExecutor::with_workers(2)));
        let m = ActionManager::new(registry, 2, None, None, spawn);
        m.create_action(NodeId(1), ActionSpec::new("counter", false))
            .await
            .unwrap();
        let sid = m
            .open_stream(SpanContext::NONE, NodeId(1), StreamDir::Write)
            .await
            .unwrap();
        m.push_chunk(sid, 0, Bytes::from_static(b"near-data"))
            .await
            .unwrap();
        m.close_stream(sid).await.unwrap();
        let rid = m
            .open_stream(SpanContext::NONE, NodeId(1), StreamDir::Read)
            .await
            .unwrap();
        let mut out = Vec::new();
        loop {
            let (_, bytes, eof) = m.fetch(rid, 1 << 20).await.unwrap();
            out.extend_from_slice(&bytes);
            if eof {
                break;
            }
        }
        assert_eq!(out, b"9");
        m.delete_action(SpanContext::NONE, NodeId(1)).await.unwrap();
        assert_eq!(m.instance_count(), 0);
    }
}
