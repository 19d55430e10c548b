//! Spawning an action instance.
//!
//! The instance itself — its mailbox, the one admission rule that runs
//! serial and interleaved mode, `on_delete` after the in-flight methods,
//! panic isolation — is [`glider_instance::Instance`], a future with no
//! runtime. This shell only spawns it: on the [`ActionExecutor`] (the
//! paper's network/action thread split) or on the caller's runtime.

use crate::exec::ActionExecutor;
use glider_instance::{Action, ActionContext, Instance, Receiver, MAILBOX_DEPTH};
use glider_metrics::MetricsRegistry;
use glider_proto::GliderResult;
use std::sync::Arc;

pub use glider_instance::{Enqueued, InstanceHandle, Invocation};

/// Spawns the executor task for one action instance.
///
/// Runs `on_create` first; its result arrives on the returned receiver so
/// the caller can fail creation. `metrics` (when provided) receives
/// storage-utilization samples of [`Action::state_size`] after every
/// method execution.
pub fn spawn_instance(
    action: Arc<dyn Action>,
    ctx: ActionContext,
    metrics: Option<Arc<MetricsRegistry>>,
) -> (InstanceHandle, Receiver<GliderResult<()>>) {
    spawn_instance_on(None, action, ctx, metrics)
}

/// [`spawn_instance`] routed onto a worker pool.
///
/// With an [`ActionExecutor`] the instance task runs on the dedicated
/// action pool (the paper's network/action thread split); without one it
/// shares the caller's runtime.
pub fn spawn_instance_on(
    executor: Option<&ActionExecutor>,
    action: Arc<dyn Action>,
    ctx: ActionContext,
    metrics: Option<Arc<MetricsRegistry>>,
) -> (InstanceHandle, Receiver<GliderResult<()>>) {
    let (instance, handle, created) = Instance::new(action, ctx, metrics, MAILBOX_DEPTH);
    match executor {
        Some(pool) => {
            pool.spawn(instance);
        }
        None => {
            tokio::spawn(instance);
        }
    }
    (handle, created)
}

#[cfg(test)]
mod tests {
    use super::*;
    use glider_instance::{reply, ActionOutputStream, BoxFuture};
    use glider_proto::types::NodeId;

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
        let pool = ActionExecutor::with_workers(2);
        let ctx = ActionContext::new(NodeId(1), false, None);
        let (handle, mut created) = spawn_instance_on(Some(&pool), Arc::new(ThreadProbe), ctx, None);
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
}
