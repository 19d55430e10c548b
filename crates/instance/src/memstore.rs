//! An in-memory [`StoreAccess`]: a map of paths to bytes.
//!
//! Built-in actions reach other nodes only through [`StoreAccess`], so
//! with this store they run with no cluster: tests feed files in, run the
//! action, and read back what it wrote. Reads come back in chunks of a
//! chosen size, so a line or a pattern can be cut across chunks, and a
//! path can be set to fail every operation with a chosen code.

use crate::action::{BoxFuture, ByteSink, ByteStream, StoreAccess};
use bytes::{Bytes, BytesMut};
use glider_proto::{ErrorCode, GliderError, GliderResult};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

#[derive(Debug, Default)]
struct Files {
    files: BTreeMap<String, Bytes>,
    failing: BTreeMap<String, ErrorCode>,
}

/// A store of whole files in memory; cheap to clone, clones share files.
#[derive(Debug, Clone)]
pub struct MemStore {
    files: Arc<Mutex<Files>>,
    chunk: usize,
}

impl MemStore {
    /// An empty store whose readers return chunks of `chunk` bytes (at
    /// least one).
    pub fn new(chunk: usize) -> Self {
        MemStore {
            files: Arc::default(),
            chunk: chunk.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Files> {
        self.files.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Writes (or replaces) the file at `path`.
    pub fn put(&self, path: &str, data: impl Into<Bytes>) {
        self.lock().files.insert(path.to_string(), data.into());
    }

    /// The file at `path`, if there is one.
    pub fn get(&self, path: &str) -> Option<Bytes> {
        self.lock().files.get(path).cloned()
    }

    /// Makes every later operation on `path` fail with `code`.
    pub fn fail(&self, path: &str, code: ErrorCode) {
        self.lock().failing.insert(path.to_string(), code);
    }

    /// The file at `path`, or the error an operation on it fails with.
    fn file(&self, path: &str) -> GliderResult<Bytes> {
        let files = self.lock();
        if let Some(code) = files.failing.get(path) {
            return Err(GliderError::new(*code, format!("{path}: injected")));
        }
        files
            .files
            .get(path)
            .cloned()
            .ok_or_else(|| GliderError::not_found(path.to_string()))
    }

    fn reader(&self, data: Bytes) -> Box<dyn ByteStream> {
        let mut chunks = VecDeque::new();
        let mut rest = data;
        while !rest.is_empty() {
            chunks.push_back(rest.split_to(self.chunk.min(rest.len())));
        }
        Box::new(Chunks(chunks))
    }
}

struct Chunks(VecDeque<Bytes>);

impl ByteStream for Chunks {
    fn next_chunk(&mut self) -> BoxFuture<'_, GliderResult<Option<Bytes>>> {
        let chunk = self.0.pop_front();
        Box::pin(async move { Ok(chunk) })
    }
}

/// Collects a new file; it appears at `close`.
struct Sink {
    store: MemStore,
    path: String,
    data: BytesMut,
}

impl ByteSink for Sink {
    fn write(&mut self, data: Bytes) -> BoxFuture<'_, GliderResult<()>> {
        self.data.extend_from_slice(&data);
        Box::pin(async { Ok(()) })
    }

    fn close(&mut self) -> BoxFuture<'_, GliderResult<()>> {
        let data = self.data.split().freeze();
        self.store.put(&self.path, data);
        Box::pin(async { Ok(()) })
    }
}

fn unsupported<T>(what: &str) -> BoxFuture<'static, GliderResult<T>> {
    let err = GliderError::new(ErrorCode::Unsupported, format!("{what} on a MemStore"));
    Box::pin(async move { Err(err) })
}

impl StoreAccess for MemStore {
    fn create_file<'a>(&'a self, path: &'a str) -> BoxFuture<'a, GliderResult<Box<dyn ByteSink>>> {
        let sink = match self.file(path) {
            Ok(_) => Err(GliderError::already_exists(path.to_string())),
            Err(e) if e.code() == ErrorCode::NotFound => Ok(Box::new(Sink {
                store: self.clone(),
                path: path.to_string(),
                data: BytesMut::new(),
            }) as Box<dyn ByteSink>),
            Err(e) => Err(e),
        };
        Box::pin(async move { sink })
    }

    fn open_read<'a>(&'a self, path: &'a str) -> BoxFuture<'a, GliderResult<Box<dyn ByteStream>>> {
        let reader = self.file(path).map(|data| self.reader(data));
        Box::pin(async move { reader })
    }

    fn open_read_range<'a>(
        &'a self,
        path: &'a str,
        offset: u64,
        len: u64,
    ) -> BoxFuture<'a, GliderResult<Box<dyn ByteStream>>> {
        let reader = self.file(path).map(|data| {
            let start = usize::try_from(offset)
                .unwrap_or(usize::MAX)
                .min(data.len());
            let end = start.saturating_add(usize::try_from(len).unwrap_or(usize::MAX));
            self.reader(data.slice(start..end.min(data.len())))
        });
        Box::pin(async move { reader })
    }

    fn read_all<'a>(&'a self, path: &'a str) -> BoxFuture<'a, GliderResult<Bytes>> {
        let data = self.file(path);
        Box::pin(async move { data })
    }

    fn delete<'a>(&'a self, path: &'a str) -> BoxFuture<'a, GliderResult<()>> {
        let deleted = self.file(path).map(|_| {
            self.lock().files.remove(path);
        });
        Box::pin(async move { deleted })
    }

    fn list<'a>(&'a self, path: &'a str) -> BoxFuture<'a, GliderResult<Vec<String>>> {
        let prefix = format!("{}/", path.trim_end_matches('/'));
        let names = self
            .lock()
            .files
            .keys()
            .filter_map(|p| p.strip_prefix(&prefix))
            .filter(|rest| !rest.contains('/'))
            .map(str::to_string)
            .collect();
        Box::pin(async move { Ok(names) })
    }

    fn open_action_write<'a>(
        &'a self,
        _path: &'a str,
    ) -> BoxFuture<'a, GliderResult<Box<dyn ByteSink>>> {
        unsupported("action streams")
    }

    fn open_action_read<'a>(
        &'a self,
        _path: &'a str,
    ) -> BoxFuture<'a, GliderResult<Box<dyn ByteStream>>> {
        unsupported("action streams")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ready;

    #[test]
    fn files_come_back_in_chunks_and_failures_are_injected() {
        let store = MemStore::new(3);
        store.put("/d/a", Bytes::from_static(b"abcdefg"));
        let mut reader = ready(store.open_read("/d/a")).unwrap();
        let mut chunks = Vec::new();
        while let Some(chunk) = ready(reader.next_chunk()).unwrap() {
            chunks.push(chunk.to_vec());
        }
        assert_eq!(chunks, [&b"abc"[..], b"def", b"g"]);
        let mut sink = ready(store.create_file("/d/b")).unwrap();
        ready(sink.write(Bytes::from_static(b"x"))).unwrap();
        assert!(store.get("/d/b").is_none(), "a file appears at close");
        ready(sink.close()).unwrap();
        assert_eq!(ready(store.list("/d")).unwrap(), ["a", "b"]);
        assert_eq!(&ready(store.read_all("/d/b")).unwrap()[..], b"x");
        let mut range = ready(store.open_read_range("/d/a", 5, 10)).unwrap();
        assert_eq!(&ready(range.next_chunk()).unwrap().unwrap()[..], b"fg");
        ready(store.delete("/d/b")).unwrap();
        let code = |r: GliderResult<Bytes>| r.unwrap_err().code();
        assert_eq!(code(ready(store.read_all("/d/b"))), ErrorCode::NotFound);
        store.fail("/d/a", ErrorCode::Closed);
        assert_eq!(code(ready(store.read_all("/d/a"))), ErrorCode::Closed);
    }
}
