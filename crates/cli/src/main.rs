//! The `glider` binary: executes parsed [`glider_cli::Command`]s.

use bytes::Bytes;
use glider_cli::{parse_with_opts, ClientOpts, Command, USAGE};
use glider_core::{ActionSpec, ClientConfig, Cluster, ClusterConfig, GliderResult, StoreClient};
use std::io::{Read, Write};
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    // Honor GLIDER_TRACE before any spans are created.
    glider_core::trace::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg_refs: Vec<&str> = args.iter().map(String::as_str).collect();
    let (command, opts) = match parse_with_opts(&arg_refs) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let rt = tokio::runtime::Builder::new_multi_thread()
        .enable_all()
        .build()
        .expect("tokio runtime");
    match rt.block_on(run(command, opts)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

async fn client(meta: &str, opts: &ClientOpts) -> GliderResult<StoreClient> {
    let mut config = ClientConfig::new(meta);
    if let Some(blocks) = opts.prefetch_blocks {
        config = config.with_prefetch_blocks(blocks);
    }
    if let Some(batch) = opts.commit_batch {
        config = config.with_commit_batch(batch);
    }
    if let Some(ms) = opts.cache_ttl_ms {
        let ttl = (ms > 0).then(|| Duration::from_millis(ms));
        config = config.with_lookup_cache_ttl(ttl);
    }
    StoreClient::connect(config).await
}

async fn run(command: Command, opts: ClientOpts) -> GliderResult<()> {
    match command {
        Command::Help => {
            println!("{USAGE}");
            Ok(())
        }
        Command::Serve {
            data,
            active,
            slots,
            block_size,
            meta_shards,
            wal,
            replication,
        } => {
            let mut config = ClusterConfig::default()
                .with_data(data, 1024)
                .with_active(active, slots)
                .with_block_size(block_size);
            if meta_shards > 0 {
                config = config.with_metadata_shards(meta_shards);
            }
            if let Some(dir) = &wal {
                config = config.with_wal(dir);
            }
            if replication > 1 {
                config = config.with_replication(replication);
            }
            let cluster = Cluster::start(config).await?;
            println!("glider cluster up");
            println!("  metadata: {}", cluster.metadata_addr());
            println!(
                "  data servers: {}, active servers: {}, block size: {block_size}",
                data, active
            );
            if let Some(dir) = &wal {
                println!("  wal: {dir} (namespace survives restarts)");
            }
            if replication > 1 {
                println!("  replication factor: {replication}");
            }
            println!("press Ctrl-C to stop");
            tokio::signal::ctrl_c().await.ok();
            cluster.shutdown();
            Ok(())
        }
        Command::Ls { meta, path } => {
            let store = client(&meta, &opts).await?;
            for name in store.list(&path).await? {
                println!("{name}");
            }
            Ok(())
        }
        Command::Stat { meta, path } => {
            let store = client(&meta, &opts).await?;
            let info = store.lookup(&path).await?;
            println!("path:   {path}");
            println!("kind:   {}", info.kind);
            println!("size:   {}", info.size);
            println!("blocks: {}", info.blocks.len());
            if let Some(action) = &info.action {
                println!(
                    "action: {} (interleaved: {}, params: {:?})",
                    action.type_name, action.interleaved, action.params
                );
            }
            Ok(())
        }
        Command::Mkdir { meta, path } => {
            let store = client(&meta, &opts).await?;
            store.create_dir_all(&path).await
        }
        Command::Put { meta, path } => {
            let store = client(&meta, &opts).await?;
            let file = store.create_file(&path).await?;
            let mut writer = file.output_stream().await?;
            let mut stdin = std::io::stdin().lock();
            let mut buf = vec![0u8; 256 * 1024];
            loop {
                let n = stdin.read(&mut buf)?;
                if n == 0 {
                    break;
                }
                writer.write(Bytes::copy_from_slice(&buf[..n])).await?;
            }
            let total = writer.close().await?;
            eprintln!("wrote {total} bytes to {path}");
            Ok(())
        }
        Command::Get { meta, path } => {
            let store = client(&meta, &opts).await?;
            let file = store.lookup_file(&path).await?;
            let mut reader = file.input_stream().await?;
            let mut stdout = std::io::stdout().lock();
            while let Some(chunk) = reader.next_chunk().await? {
                stdout.write_all(&chunk)?;
            }
            stdout.flush()?;
            Ok(())
        }
        Command::Rm { meta, path } => {
            let store = client(&meta, &opts).await?;
            store.delete(&path).await
        }
        Command::MkAction {
            meta,
            path,
            type_name,
            params,
            interleaved,
        } => {
            let store = client(&meta, &opts).await?;
            let spec = ActionSpec::new(type_name, interleaved).with_params(params);
            store.create_action(&path, spec).await?;
            eprintln!("created action at {path}");
            Ok(())
        }
        Command::WriteAction { meta, path } => {
            let store = client(&meta, &opts).await?;
            let action = store.lookup_action(&path).await?;
            let mut writer = action.output_stream().await?;
            let mut stdin = std::io::stdin().lock();
            let mut buf = vec![0u8; 256 * 1024];
            loop {
                let n = stdin.read(&mut buf)?;
                if n == 0 {
                    break;
                }
                writer.write(Bytes::copy_from_slice(&buf[..n])).await?;
            }
            let total = writer.close().await?;
            eprintln!("streamed {total} bytes into {path}");
            Ok(())
        }
        Command::ReadAction { meta, path } => {
            let store = client(&meta, &opts).await?;
            let action = store.lookup_action(&path).await?;
            let mut reader = action.input_stream().await?;
            let mut stdout = std::io::stdout().lock();
            while let Some(chunk) = reader.next_chunk().await? {
                stdout.write_all(&chunk)?;
            }
            stdout.flush()?;
            reader.close().await
        }
        Command::Stats {
            meta,
            json,
            watch,
            prom,
        } => {
            let store = client(&meta, &opts).await?;
            if watch {
                // Poll the per-op time series until interrupted. The
                // servers sample on their own ticker; polling every
                // second keeps at most one new point per refresh.
                loop {
                    let payloads = store.series().await?;
                    print!("{}", glider_core::net::render_series(&payloads));
                    println!("---");
                    tokio::select! {
                        _ = tokio::signal::ctrl_c() => return Ok(()),
                        _ = tokio::time::sleep(Duration::from_secs(1)) => {}
                    }
                }
            }
            let payload = store.stats().await?;
            if prom {
                let series = store.series().await?;
                print!("{}", glider_core::net::render_stats_prom(&payload, &series));
            } else if json {
                println!("{}", glider_core::net::render_stats_json(&payload));
            } else {
                print!("{}", glider_core::net::render_stats_table(&payload));
            }
            Ok(())
        }
        Command::Trace { meta, trace_id } => {
            let store = client(&meta, &opts).await?;
            let dump = store.trace(trace_id).await?;
            println!("trace 0x{trace_id:016x}");
            print!("{}", glider_core::net::render_trace_tree(&dump));
            Ok(())
        }
        Command::Fsck {
            meta,
            path,
            factor,
            repair,
        } => fsck(&client(&meta, &opts).await?, &path, factor, repair).await,
    }
}

/// Read chunks per checksum pass: bounds each `ReadBlock` so fsck over
/// MiB-sized extents never asks a server for one giant response.
const FSCK_CHUNK: u64 = 256 * 1024;

#[derive(Default)]
struct FsckReport {
    nodes: u64,
    extents: u64,
    replicas: u64,
    problems: u64,
    repaired: u64,
}

/// Streams `[0, len)` of one block replica through the WAL's CRC32.
async fn checksum_block(
    store: &StoreClient,
    addr: &str,
    block_id: glider_core::proto::types::BlockId,
    len: u64,
) -> GliderResult<u32> {
    let mut crc = glider_wal::Crc32::new();
    let mut off = 0u64;
    while off < len {
        let n = (len - off).min(FSCK_CHUNK);
        let bytes = store.read_block(addr, block_id, off, n).await?;
        if bytes.is_empty() {
            // Shorter than the committed length — caught by the caller's
            // byte accounting below.
            break;
        }
        crc.update(&bytes);
        off += bytes.len() as u64;
    }
    if off < len {
        return Err(glider_core::GliderError::new(
            glider_core::ErrorCode::Io,
            format!("replica on {addr} holds {off} of {len} committed bytes"),
        ));
    }
    Ok(crc.finish())
}

/// Verifies one node: every committed extent's replica count (when
/// `--factor` is given) and every replica's checksum against the
/// primary's. Returns whether the node is damaged.
async fn fsck_node(
    store: &StoreClient,
    path: &str,
    factor: Option<u32>,
    report: &mut FsckReport,
) -> GliderResult<bool> {
    let layout = store.node_replicas(path).await?;
    let mut damaged = false;
    for re in &layout {
        if re.extent.len == 0 {
            continue; // unused prefetched extent, nothing to verify
        }
        report.extents += 1;
        let copies = 1 + re.backups.len() as u32;
        if let Some(want) = factor {
            if copies < want {
                println!(
                    "{path}: block {} has {copies} of {want} copies",
                    re.extent.loc.block_id
                );
                report.problems += 1;
                damaged = true;
            }
        }
        let primary = match checksum_block(
            store,
            &re.extent.loc.addr,
            re.extent.loc.block_id,
            re.extent.len,
        )
        .await
        {
            Ok(crc) => {
                report.replicas += 1;
                crc
            }
            Err(e) => {
                println!(
                    "{path}: primary block {} on {} unreadable: {e}",
                    re.extent.loc.block_id, re.extent.loc.addr
                );
                report.problems += 1;
                damaged = true;
                continue; // no reference checksum to compare backups against
            }
        };
        for backup in &re.backups {
            match checksum_block(store, &backup.addr, backup.block_id, re.extent.len).await {
                Ok(crc) if crc == primary => report.replicas += 1,
                Ok(crc) => {
                    println!(
                        "{path}: replica block {} on {} checksum {crc:#010x} != primary {primary:#010x}",
                        backup.block_id, backup.addr
                    );
                    report.problems += 1;
                    damaged = true;
                }
                Err(e) => {
                    println!(
                        "{path}: replica block {} on {} unreadable: {e}",
                        backup.block_id, backup.addr
                    );
                    report.problems += 1;
                    damaged = true;
                }
            }
        }
    }
    Ok(damaged)
}

/// Walks the namespace under `root` and verifies every data node's
/// replicas; `--repair` asks the metadata server to heal damaged nodes.
async fn fsck(
    store: &StoreClient,
    root: &str,
    factor: Option<u32>,
    repair: bool,
) -> GliderResult<()> {
    use glider_core::proto::types::NodeKind;
    let mut report = FsckReport::default();
    // Iterative walk (no async recursion): containers push children.
    let mut stack = vec![root.trim_end_matches('/').to_string()];
    while let Some(path) = stack.pop() {
        // The namespace root is a container but not a node; only
        // non-root paths have metadata to look up.
        let kind = if path.is_empty() {
            NodeKind::Directory
        } else {
            store.lookup(&path).await?.kind
        };
        match kind {
            NodeKind::Directory | NodeKind::Table => {
                for child in store
                    .list(if path.is_empty() { "/" } else { &path })
                    .await?
                {
                    stack.push(format!("{path}/{child}"));
                }
            }
            NodeKind::File | NodeKind::Bag | NodeKind::KeyValue => {
                report.nodes += 1;
                let shown = if path.is_empty() { "/" } else { path.as_str() };
                if fsck_node(store, shown, factor, &mut report).await? && repair {
                    store.repair_node(shown).await?;
                    report.repaired += 1;
                    println!("{shown}: repaired");
                }
            }
            // Action slots hold live objects, not replicated extents.
            NodeKind::Action => {}
        }
    }
    println!(
        "fsck: {} nodes, {} extents, {} replicas verified, {} problems{}",
        report.nodes,
        report.extents,
        report.replicas,
        report.problems,
        if repair {
            format!(", {} nodes repaired", report.repaired)
        } else {
            String::new()
        }
    );
    if report.problems > 0 && report.repaired == 0 {
        return Err(glider_core::GliderError::new(
            glider_core::ErrorCode::Io,
            format!(
                "fsck found {} problems (rerun with --repair)",
                report.problems
            ),
        ));
    }
    Ok(())
}
