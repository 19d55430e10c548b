//! Built-in action library.
//!
//! These are the action definitions the paper's evaluation relies on:
//!
//! - [`NullAction`] (`"null"`) — empty methods, for the Fig. 6 bandwidth
//!   micro-benchmarks (writes are drained, reads emit `size=` zero bytes).
//! - [`CounterAction`] (`"counter"`) — byte counter, a minimal stateful
//!   aggregate used in tests and docs.
//! - [`MergeAction`] (`"merge"`, and `"merge-ckpt"` with a checkpoint) —
//!   the paper's Listing 1: merges `key,value` lines into a dictionary,
//!   serving Fig. 5 and word count.
//! - [`FilterAction`] (`"filter"`) — near-data line filter over a backing
//!   file, the pre-processing proxy of Table 2.
//! - [`SorterAction`] (`"sorter"`) — buffers fixed-width records from many
//!   writers, sorts on demand and writes the result from *inside* the
//!   storage cluster, the reducer replacement of Fig. 7 (§7.3).
//!
//! Merge, filter and sorter run their inner loops in `glider-kernels`,
//! the same code the paper harness and the benchmark measure. None of
//! them needs a runtime: they reach other nodes only through
//! [`crate::StoreAccess`].
//!
//! Workload-specific actions (the genomics Sampler/Manager/Reader of
//! §7.4) live in `glider-analytics` and are registered the same way.

use crate::action::{Action, ActionCell, ActionContext, BoxFuture};
use crate::registry::ActionRegistry;
use crate::stream::{ActionInputStream, ActionOutputStream, LineReader};
use bytes::Bytes;
use glider_kernels::{sort_records_by_key, LineFilter, StreamingAggregator};
use glider_proto::types::ActionSpec;
use glider_proto::{ErrorCode, GliderError, GliderResult};
use std::collections::HashMap;
use std::str::FromStr;
use std::sync::Arc;

/// The `name` param of `spec` parsed, or `default` when it is absent.
fn param<T: FromStr>(spec: &ActionSpec, name: &str, default: T) -> GliderResult<T> {
    match spec.param(name) {
        None => Ok(default),
        Some(value) => value.parse().map_err(|_| {
            GliderError::invalid(format!("{} action: bad {name} param", spec.type_name))
        }),
    }
}

/// The required `name` param of `spec`.
fn required(spec: &ActionSpec, name: &str) -> GliderResult<String> {
    spec.param(name).map(str::to_string).ok_or_else(|| {
        GliderError::invalid(format!("{} action: missing {name} param", spec.type_name))
    })
}

/// Registers every built-in under its canonical name.
pub fn register_builtins(registry: &ActionRegistry) {
    registry.register(
        "null",
        Arc::new(|spec| {
            let read_size = param(spec, "size", 0)?;
            Ok(Arc::new(NullAction { read_size }) as Arc<dyn Action>)
        }),
    );
    registry.register_default::<CounterAction>("counter");
    registry.register_default::<MergeAction>("merge");
    registry.register(
        "filter",
        Arc::new(|spec| {
            let src = required(spec, "src")?;
            let pattern = required(spec, "pattern")?;
            Ok(Arc::new(FilterAction { src, pattern }) as Arc<dyn Action>)
        }),
    );
    registry.register(
        "cache",
        Arc::new(|spec| {
            let capacity = param(spec, "capacity", 1024)?;
            if capacity == 0 {
                return Err(GliderError::invalid("cache action: capacity must be > 0"));
            }
            Ok(Arc::new(CacheAction {
                capacity,
                entries: ActionCell::default(),
            }) as Arc<dyn Action>)
        }),
    );
    registry.register(
        "merge-ckpt",
        Arc::new(|spec| {
            Ok(Arc::new(MergeAction {
                ckpt: Some(required(spec, "ckpt")?),
                result: ActionCell::default(),
            }) as Arc<dyn Action>)
        }),
    );
    registry.register(
        "sorter",
        Arc::new(|spec| {
            let out = spec.param("out").map(str::to_string);
            let record_len = param(spec, "record", 100)?;
            let key_len = param(spec, "key", 10)?;
            if key_len == 0 || record_len == 0 || key_len > record_len {
                return Err(GliderError::invalid(
                    "sorter action: key/record lengths inconsistent",
                ));
            }
            Ok(Arc::new(SorterAction {
                out,
                record_len,
                key_len,
                buffer: ActionCell::default(),
            }) as Arc<dyn Action>)
        }),
    );
}

// ---------------------------------------------------------------------------

/// Empty methods; reads emit a configured number of zero bytes.
#[derive(Debug)]
pub struct NullAction {
    read_size: u64,
}

impl Action for NullAction {
    fn on_read<'a>(
        &'a self,
        output: &'a mut ActionOutputStream,
        _ctx: &'a ActionContext,
    ) -> BoxFuture<'a, GliderResult<()>> {
        Box::pin(async move {
            const CHUNK: u64 = 64 * 1024;
            let zeros = Bytes::from(vec![0u8; CHUNK as usize]);
            let mut remaining = self.read_size;
            while remaining > 0 {
                let n = remaining.min(CHUNK);
                output.write(zeros.slice(..n as usize)).await?;
                remaining -= n;
            }
            Ok(())
        })
    }
}

// ---------------------------------------------------------------------------

/// Counts bytes written; reads return the decimal count.
#[derive(Debug, Default)]
pub struct CounterAction {
    total: ActionCell<u64>,
}

impl Action for CounterAction {
    fn on_write<'a>(
        &'a self,
        input: &'a mut ActionInputStream,
        _ctx: &'a ActionContext,
    ) -> BoxFuture<'a, GliderResult<()>> {
        Box::pin(async move {
            while let Some(chunk) = input.next_chunk().await? {
                self.total.with(|t| *t += chunk.len() as u64);
            }
            Ok(())
        })
    }

    fn on_read<'a>(
        &'a self,
        output: &'a mut ActionOutputStream,
        _ctx: &'a ActionContext,
    ) -> BoxFuture<'a, GliderResult<()>> {
        Box::pin(async move {
            output
                .write_all(self.total.get().to_string().as_bytes())
                .await
        })
    }

    fn state_size(&self) -> u64 {
        8
    }
}

// ---------------------------------------------------------------------------

/// The paper's Listing 1 aggregation: merges `key,count` lines from any
/// number of write streams into one dictionary; reads serialize the
/// dictionary as sorted `key,count` lines.
///
/// Each write stream is aggregated privately by a `StreamingAggregator`
/// and folded into the dictionary when it closes, so a read sees exactly
/// the closed streams. A line counts only if both sides parse as
/// `str::parse::<i64>` parses them (no trimming); other lines are skipped.
///
/// With `ckpt` set (`"merge-ckpt"`, `ckpt=` param) the dictionary is also
/// checkpointed — the fault-tolerance mechanism the paper leaves to action
/// developers (§4.2: "users may develop their actions with such mechanisms
/// as required by their applications in expense of performance"). It is
/// persisted to that ephemeral file after every closed write stream — a
/// consistent point under the single-threaded-like execution model — and
/// restored by `on_create`, so a re-created action (e.g. after an
/// active-server replacement) resumes where the last successful write
/// barrier left it.
#[derive(Debug, Default)]
pub struct MergeAction {
    ckpt: Option<String>,
    result: ActionCell<HashMap<i64, i64>>,
}

impl MergeAction {
    /// Folds one closed stream (or the restored checkpoint) into the
    /// dictionary.
    fn merge(&self, mut agg: StreamingAggregator) {
        agg.finish();
        let merged = agg.into_map();
        self.result.with(|m| {
            for (k, v) in merged {
                let acc = m.entry(k).or_insert(0);
                *acc = acc.wrapping_add(v);
            }
        });
    }

    /// Sorted `key,value` lines: the read result and the checkpoint.
    fn serialize(&self) -> Vec<u8> {
        let mut entries: Vec<(i64, i64)> = self
            .result
            .with(|m| m.iter().map(|(k, v)| (*k, *v)).collect());
        entries.sort_unstable();
        let mut out = Vec::with_capacity(entries.len() * 16);
        for (k, v) in entries {
            out.extend_from_slice(format!("{k},{v}\n").as_bytes());
        }
        out
    }

    async fn persist(&self, ckpt: &str, ctx: &ActionContext) -> GliderResult<()> {
        let store = ctx.store()?;
        let snapshot = self.serialize();
        // Overwrite: drop the previous checkpoint (if any), then write.
        match store.delete(ckpt).await {
            Ok(()) => {}
            Err(e) if e.code() == ErrorCode::NotFound => {}
            Err(e) => return Err(e),
        }
        let mut sink = store.create_file(ckpt).await?;
        sink.write(Bytes::from(snapshot)).await?;
        sink.close().await
    }
}

impl Action for MergeAction {
    fn on_create<'a>(&'a self, ctx: &'a ActionContext) -> BoxFuture<'a, GliderResult<()>> {
        Box::pin(async move {
            let Some(ckpt) = &self.ckpt else {
                return Ok(());
            };
            match ctx.store()?.read_all(ckpt).await {
                Ok(data) => {
                    let mut agg = StreamingAggregator::new();
                    agg.push_chunk(&data);
                    self.merge(agg);
                    Ok(())
                }
                Err(e) if e.code() == ErrorCode::NotFound => Ok(()),
                Err(e) => Err(e),
            }
        })
    }

    fn on_write<'a>(
        &'a self,
        input: &'a mut ActionInputStream,
        ctx: &'a ActionContext,
    ) -> BoxFuture<'a, GliderResult<()>> {
        Box::pin(async move {
            let mut agg = StreamingAggregator::new();
            while let Some(chunk) = input.next_chunk().await? {
                agg.push_chunk(&chunk);
            }
            self.merge(agg);
            match &self.ckpt {
                // Checkpoint at the write barrier: a successful close means
                // this stream's data is both merged AND durable-enough.
                Some(ckpt) => self.persist(ckpt, ctx).await,
                None => Ok(()),
            }
        })
    }

    fn on_read<'a>(
        &'a self,
        output: &'a mut ActionOutputStream,
        _ctx: &'a ActionContext,
    ) -> BoxFuture<'a, GliderResult<()>> {
        Box::pin(async move { output.write_all(&self.serialize()).await })
    }

    fn state_size(&self) -> u64 {
        // 16 bytes of payload per entry plus map overhead estimate.
        self.result.with(|m| (m.len() as u64) * 24)
    }
}

// ---------------------------------------------------------------------------

/// A bounded key-value cache (§3.1 names caching as a natural stateful
/// data-bound task). Writes carry `key=value` lines (insert/overwrite) or
/// `key` lines (lookup requests); a subsequent read returns one `key=value`
/// line per requested key that was found, in request order, then clears
/// the request list. Insertion order eviction bounds the state.
#[derive(Debug)]
pub struct CacheAction {
    capacity: usize,
    entries: ActionCell<CacheState>,
}

#[derive(Debug, Default)]
struct CacheState {
    map: HashMap<String, String>,
    order: std::collections::VecDeque<String>,
    requests: Vec<String>,
}

impl Action for CacheAction {
    fn on_write<'a>(
        &'a self,
        input: &'a mut ActionInputStream,
        _ctx: &'a ActionContext,
    ) -> BoxFuture<'a, GliderResult<()>> {
        Box::pin(async move {
            let mut lines = LineReader::new(input);
            while let Some(line) = lines.next_line().await? {
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                self.entries.with(|state| match line.split_once('=') {
                    Some((key, value)) => {
                        if state
                            .map
                            .insert(key.to_string(), value.to_string())
                            .is_none()
                        {
                            state.order.push_back(key.to_string());
                            while state.order.len() > self.capacity {
                                if let Some(evicted) = state.order.pop_front() {
                                    state.map.remove(&evicted);
                                }
                            }
                        }
                    }
                    None => state.requests.push(line.to_string()),
                });
            }
            Ok(())
        })
    }

    fn on_read<'a>(
        &'a self,
        output: &'a mut ActionOutputStream,
        _ctx: &'a ActionContext,
    ) -> BoxFuture<'a, GliderResult<()>> {
        Box::pin(async move {
            let hits: Vec<(String, Option<String>)> = self.entries.with(|state| {
                let requests = std::mem::take(&mut state.requests);
                requests
                    .into_iter()
                    .map(|k| {
                        let v = state.map.get(&k).cloned();
                        (k, v)
                    })
                    .collect()
            });
            for (key, value) in hits {
                if let Some(value) = value {
                    output
                        .write_all(format!("{key}={value}\n").as_bytes())
                        .await?;
                }
            }
            Ok(())
        })
    }

    fn state_size(&self) -> u64 {
        self.entries.with(|s| {
            s.map
                .iter()
                .map(|(k, v)| (k.len() + v.len() + 16) as u64)
                .sum()
        })
    }
}

// ---------------------------------------------------------------------------

/// Near-data pre-processing proxy (Table 2): reads a backing file from
/// inside the storage cluster and streams only the lines containing
/// `pattern` to the client, through the `LineFilter` kernel the
/// worker-side baseline runs too. An empty pattern keeps every line.
#[derive(Debug)]
pub struct FilterAction {
    src: String,
    pattern: String,
}

impl Action for FilterAction {
    fn on_read<'a>(
        &'a self,
        output: &'a mut ActionOutputStream,
        ctx: &'a ActionContext,
    ) -> BoxFuture<'a, GliderResult<()>> {
        Box::pin(async move {
            let store = ctx.store()?;
            let mut reader = store.open_read(&self.src).await?;
            let mut filter = LineFilter::new(self.pattern.as_bytes());
            let mut kept: Vec<u8> = Vec::new();
            while let Some(chunk) = reader.next_chunk().await? {
                filter.push_chunk(&chunk, &mut kept);
                if !kept.is_empty() {
                    output.write_all(&kept).await?;
                    kept.clear();
                }
            }
            filter.finish(&mut kept);
            if !kept.is_empty() {
                output.write_all(&kept).await?;
            }
            Ok(())
        })
    }
}

// ---------------------------------------------------------------------------

/// Stateful shuffle sink for distributed sorts (§7.3): buffers fixed-width
/// records from any number of writers; on read, sorts by key (stably, with
/// the `sort_records_by_key` radix kernel) and either writes the result to
/// a file from inside the cluster (`out=` param, emitting a one-line
/// report) or streams the sorted records back.
#[derive(Debug)]
pub struct SorterAction {
    out: Option<String>,
    record_len: usize,
    key_len: usize,
    buffer: ActionCell<Vec<u8>>,
}

impl SorterAction {
    fn sort_records(&self, mut data: Vec<u8>) -> Vec<u8> {
        let n = data.len() / self.record_len;
        data.truncate(n * self.record_len); // drop a torn tail defensively
        sort_records_by_key(&data, self.record_len, self.key_len)
    }
}

impl Action for SorterAction {
    fn on_write<'a>(
        &'a self,
        input: &'a mut ActionInputStream,
        _ctx: &'a ActionContext,
    ) -> BoxFuture<'a, GliderResult<()>> {
        Box::pin(async move {
            // Each stream accumulates privately and lands in the shared
            // buffer as one unit: network chunks are not record-aligned,
            // so interleaved writers appending chunk-by-chunk would tear
            // records at chunk boundaries.
            let mut mine: Vec<u8> = Vec::new();
            while let Some(chunk) = input.next_chunk().await? {
                mine.extend_from_slice(&chunk);
            }
            if !mine.is_empty() {
                self.buffer.with(|b| b.extend_from_slice(&mine));
            }
            Ok(())
        })
    }

    fn on_read<'a>(
        &'a self,
        output: &'a mut ActionOutputStream,
        ctx: &'a ActionContext,
    ) -> BoxFuture<'a, GliderResult<()>> {
        Box::pin(async move {
            let data = self.buffer.take();
            let records = data.len() / self.record_len;
            let sorted = self.sort_records(data);
            match &self.out {
                Some(path) => {
                    let store = ctx.store()?;
                    let mut sink = store.create_file(path).await?;
                    for chunk in sorted.chunks(256 * 1024) {
                        sink.write(Bytes::copy_from_slice(chunk)).await?;
                    }
                    sink.close().await?;
                    output
                        .write_all(format!("records={records} out={path}\n").as_bytes())
                        .await
                }
                None => {
                    for chunk in sorted.chunks(256 * 1024) {
                        output.write(Bytes::copy_from_slice(chunk)).await?;
                    }
                    Ok(())
                }
            }
        })
    }

    fn state_size(&self) -> u64 {
        self.buffer.with(|b| b.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{reply, Instance, Invocation};
    use crate::memstore::MemStore;
    use crate::ready;
    use glider_proto::types::NodeId;
    use std::future::Future;
    use std::pin::{pin, Pin};
    use std::task::{Context, Poll, Waker};

    fn ctx() -> ActionContext {
        ActionContext::new(NodeId(1), false, None)
    }

    fn ctx_over(store: &MemStore) -> ActionContext {
        ActionContext::new(NodeId(1), false, Some(Arc::new(store.clone())))
    }

    fn builtin(name: &str, params: &str) -> Arc<dyn Action> {
        let spec = ActionSpec::new(name, false).with_params(params);
        ActionRegistry::with_builtins().instantiate(&spec).unwrap()
    }

    /// Runs `on_read`, then the flush after it, draining the output as
    /// the method fills it.
    fn read_in(action: &dyn Action, ctx: &ActionContext) -> GliderResult<Vec<u8>> {
        let (mut output, mut rx) = ActionOutputStream::new(2);
        let mut out = Vec::new();
        let result = {
            let mut read = pin!(async {
                let result = action.on_read(&mut output, ctx).await;
                result.and(output.flush().await)
            });
            let mut polls = 0;
            loop {
                polls += 1;
                assert!(polls < 10_000, "on_read waits on more than its output");
                let cx = &mut Context::from_waker(Waker::noop());
                if let Poll::Ready(result) = read.as_mut().poll(cx) {
                    break result;
                }
                while let Ok(chunk) = rx.try_recv() {
                    out.extend_from_slice(&chunk);
                }
            }
        };
        drop(output);
        while let Ok(chunk) = rx.try_recv() {
            out.extend_from_slice(&chunk);
        }
        result.map(|()| out)
    }

    fn run_read(action: &dyn Action) -> GliderResult<Vec<u8>> {
        read_in(action, &ctx())
    }

    /// Feeds `data` through `on_write` in 7-byte chunks, then its end.
    fn feed_in(action: &dyn Action, data: &[u8], ctx: &ActionContext) {
        let (mut input, pusher) = ActionInputStream::new(64);
        for (seq, chunk) in (0..).zip(data.chunks(7)) {
            ready(pusher.push(seq, Bytes::copy_from_slice(chunk))).unwrap();
        }
        pusher.finish();
        ready(action.on_write(&mut input, ctx)).unwrap();
    }

    fn feed(action: &dyn Action, data: &[u8]) {
        feed_in(action, data, &ctx());
    }

    fn text(bytes: GliderResult<Vec<u8>>) -> String {
        String::from_utf8(bytes.unwrap()).unwrap()
    }

    #[test]
    fn null_action_emits_requested_zeros() {
        let a = NullAction { read_size: 100_000 };
        let out = run_read(&a).unwrap();
        assert_eq!(out.len(), 100_000);
        assert!(out.iter().all(|&b| b == 0));
        let empty = NullAction { read_size: 0 };
        assert!(run_read(&empty).unwrap().is_empty());
    }

    #[test]
    fn counter_counts() {
        let a = CounterAction::default();
        feed(&a, b"12345");
        feed(&a, b"678");
        assert_eq!(run_read(&a).unwrap(), b"8");
        assert_eq!(a.state_size(), 8);
    }

    #[test]
    fn merge_aggregates_and_sorts() {
        let a = MergeAction::default();
        feed(&a, b"5,100\n1,2\n5,-50\nnot-a-pair\n7,oops\n 5, 3\n"); // strict k,v parsing: no trim
        feed(&a, b"1,8\n");
        assert_eq!(text(run_read(&a)), "1,10\n5,50\n");
        assert!(a.state_size() >= 2 * 24);
    }

    /// `str::parse` + `HashMap`: the fold `MergeAction` must equal.
    fn fold(streams: &[&[u8]]) -> String {
        let mut map: HashMap<i64, i64> = HashMap::new();
        for stream in streams {
            for line in String::from_utf8_lossy(stream).split('\n') {
                let Some((k, v)) = line.split_once(',') else {
                    continue;
                };
                if let (Ok(k), Ok(v)) = (k.parse::<i64>(), v.parse::<i64>()) {
                    let acc = map.entry(k).or_insert(0);
                    *acc = acc.wrapping_add(v);
                }
            }
        }
        let mut entries: Vec<_> = map.into_iter().collect();
        entries.sort_unstable();
        entries.iter().map(|(k, v)| format!("{k},{v}\n")).collect()
    }

    #[test]
    fn merge_takes_the_strict_parse_fallback_like_str_parse() {
        let streams: [&[u8]; 3] = [
            b"+7,1\n7,+2\n1234567890123456789,1\n9223372036854775807,3\n",
            b"12345678901234567890,9\n3, 4\n 3,4\n,5\n6,\n8,-\n-0,1\n",
            b"9,1\r\n10,2\n11,-9223372036854775808\n11,-1\n12,5", // no final newline
        ];
        let a = MergeAction::default();
        for stream in streams {
            feed(&a, stream);
        }
        let out = text(run_read(&a));
        assert_eq!(out, fold(&streams));
        assert!(out.contains("7,3\n"), "{out}");
        assert!(out.contains("12,5\n"), "the unterminated last line counts");
        assert!(!out.contains("\n3,"), "a space fails str::parse: {out}");
    }

    #[test]
    fn merge_ckpt_restores_a_recreated_instance() {
        let store = MemStore::new(4);
        let ctx = ctx_over(&store);
        let first = builtin("merge-ckpt", "ckpt=/ckpt");
        ready(first.on_create(&ctx)).unwrap();
        feed_in(first.as_ref(), b"1,5\n2,7\n", &ctx);
        feed_in(first.as_ref(), b"1,1\n", &ctx);
        assert_eq!(&store.get("/ckpt").unwrap()[..], b"1,6\n2,7\n");
        drop(first);
        // The server replaced: a new instance resumes from the checkpoint.
        let second = builtin("merge-ckpt", "ckpt=/ckpt");
        ready(second.on_create(&ctx)).unwrap();
        feed_in(second.as_ref(), b"2,1\n", &ctx);
        assert_eq!(text(read_in(second.as_ref(), &ctx)), "1,6\n2,8\n");
        assert_eq!(&store.get("/ckpt").unwrap()[..], b"1,6\n2,8\n");
        // With no checkpoint yet, a create starts empty.
        let fresh = builtin("merge-ckpt", "ckpt=/none");
        ready(fresh.on_create(&ctx)).unwrap();
        assert!(read_in(fresh.as_ref(), &ctx).unwrap().is_empty());
    }

    #[test]
    fn sorter_sorts_records_in_stream_mode() {
        let a = builtin("sorter", "record=4;key=2");
        // Records: "zzAA", "aaBB", "mmCC" (key = first 2 bytes).
        feed(a.as_ref(), b"zzAAaaBBmmCC");
        assert_eq!(run_read(a.as_ref()).unwrap(), b"aaBBmmCCzzAA");
        // Buffer was taken; a second read yields nothing.
        assert!(run_read(a.as_ref()).unwrap().is_empty());
    }

    #[test]
    fn sorter_drops_torn_tail() {
        let a = builtin("sorter", "record=4;key=2");
        feed(a.as_ref(), b"zzAAaaBBxx"); // trailing 2 bytes torn
        assert_eq!(run_read(a.as_ref()).unwrap(), b"aaBBzzAA");
    }

    #[test]
    fn sorter_without_store_fails_in_file_mode() {
        let a = builtin("sorter", "out=/r;record=4;key=2");
        feed(a.as_ref(), b"zzAA");
        assert!(run_read(a.as_ref()).is_err());
    }

    #[test]
    fn sorter_in_out_mode_writes_the_file_and_reports() {
        let store = MemStore::new(16);
        let ctx = ctx_over(&store);
        let a = builtin("sorter", "out=/sorted;record=4;key=2");
        feed_in(a.as_ref(), b"zzAAaaBB", &ctx);
        feed_in(a.as_ref(), b"aaAAmmCC", &ctx);
        let report = text(read_in(a.as_ref(), &ctx));
        assert_eq!(report, "records=4 out=/sorted\n");
        // Stable: the first writer's `aa` record stays ahead.
        assert_eq!(&store.get("/sorted").unwrap()[..], b"aaBBaaAAmmCCzzAA");
    }

    #[test]
    fn cache_inserts_looks_up_and_evicts() {
        let a = builtin("cache", "capacity=2");
        feed(a.as_ref(), b"alpha=1\nbeta=2\n");
        // Lookups: hit, hit.
        feed(a.as_ref(), b"alpha\nbeta\nmissing\n");
        assert_eq!(text(run_read(a.as_ref())), "alpha=1\nbeta=2\n");
        // Requests are consumed by the read.
        assert!(run_read(a.as_ref()).unwrap().is_empty());
        // Capacity 2: inserting gamma evicts the oldest (alpha).
        feed(a.as_ref(), b"gamma=3\nalpha\ngamma\n");
        assert_eq!(text(run_read(a.as_ref())), "gamma=3\n");
        assert!(a.state_size() > 0);
    }

    #[test]
    fn cache_overwrite_does_not_duplicate_order() {
        let a = builtin("cache", "capacity=2");
        feed(a.as_ref(), b"k=1\nk=2\nother=9\nk\nother\n");
        assert_eq!(text(run_read(a.as_ref())), "k=2\nother=9\n");
    }

    fn filter_over(store: &MemStore, pattern: &str) -> GliderResult<String> {
        let a = builtin("filter", &format!("src=/src;pattern={pattern}"));
        read_in(a.as_ref(), &ctx_over(store)).map(|out| String::from_utf8(out).unwrap())
    }

    #[test]
    fn filter_with_an_empty_pattern_keeps_every_line() {
        let store = MemStore::new(5);
        store.put("/src", Bytes::from_static(b"one\n\ntwo three\nfour"));
        assert_eq!(filter_over(&store, "").unwrap(), "one\n\ntwo three\nfour\n");
    }

    #[test]
    fn filter_finds_a_pattern_cut_across_store_chunks() {
        let lines = "a MATCH\nnothing\nxxMAT\nCHy MATCH\nMATC\nH\nlast MATCH";
        for chunk in 1..=12 {
            let store = MemStore::new(chunk);
            store.put("/src", Bytes::from(lines.to_string()));
            let want: String = lines
                .split('\n')
                .filter(|l| l.contains("MATCH"))
                .map(|l| format!("{l}\n"))
                .collect();
            assert_eq!(filter_over(&store, "MATCH").unwrap(), want, "chunk {chunk}");
        }
    }

    #[test]
    fn filter_reports_an_open_read_error() {
        let store = MemStore::new(8);
        let err = filter_over(&store, "x").unwrap_err();
        assert_eq!(err.code(), ErrorCode::NotFound);
        // Through an instance, a store stream's own `Closed` reaches the
        // attached reader as an error, not as a clean end of data.
        store.fail("/src", ErrorCode::Closed);
        let action = builtin("filter", "src=/src;pattern=x");
        let (mut instance, handle, _created) = Instance::new(action, ctx_over(&store), None, 4);
        let (output, mut rx) = ActionOutputStream::new(4);
        let (done, mut done_rx) = reply();
        ready(handle.enqueue(Invocation::Read { output, done })).unwrap();
        let cx = &mut Context::from_waker(Waker::noop());
        assert!(Pin::new(&mut instance).poll(cx).is_pending());
        let err = done_rx.try_recv().unwrap().unwrap_err();
        assert_eq!(err.code(), ErrorCode::Closed);
        assert!(rx.try_recv().is_err(), "no data, then the end");
    }

    #[test]
    fn factory_validation() {
        let reg = ActionRegistry::with_builtins();
        let refused = |name: &str, params: &str| match reg
            .instantiate(&ActionSpec::new(name, false).with_params(params))
        {
            Err(e) => e.message().to_string(),
            Ok(_) => panic!("{name} {params:?} was accepted"),
        };
        assert_eq!(refused("filter", ""), "filter action: missing src param");
        assert!(reg
            .instantiate(&ActionSpec::new("filter", false).with_params("src=/f;pattern=x"))
            .is_ok());
        assert_eq!(refused("null", "size=nope"), "null action: bad size param");
        assert_eq!(
            refused("cache", "capacity=-1"),
            "cache action: bad capacity param"
        );
        assert_eq!(
            refused("cache", "capacity=0"),
            "cache action: capacity must be > 0"
        );
        assert_eq!(
            refused("merge-ckpt", ""),
            "merge-ckpt action: missing ckpt param"
        );
        assert_eq!(refused("sorter", "key=x"), "sorter action: bad key param");
        assert_eq!(
            refused("sorter", "record=4;key=9"),
            "sorter action: key/record lengths inconsistent"
        );
    }
}
