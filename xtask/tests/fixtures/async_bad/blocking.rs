//! Seeded-violation async code: blocking file and socket I/O on the
//! executor thread, and a std mutex guard live across an await.

use std::sync::Mutex;

async fn load(path: &Path, state: &Mutex<State>) -> GliderResult<Vec<u8>> {
    let bytes = std::fs::read(path)?;
    let mut guard = state.lock().expect("poisoned");
    guard.loaded += 1;
    notify().await;
    Ok(bytes)
}

fn spawn_listener(addr: SocketAddr) {
    tokio::spawn(async move {
        let listener = std::net::TcpListener::bind(addr);
        serve(listener).await;
    });
}

fn sync_io_is_fine(path: &Path) -> std::io::Result<Vec<u8>> {
    std::fs::read(path)
}
