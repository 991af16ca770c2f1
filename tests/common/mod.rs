//! Shared helpers for the socket tests: a private rendezvous session
//! per test, and np ranks faked as np threads, each with its own
//! `TcpTransport`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use pdc_net::{NetConfig, TcpTransport};

static SESSION_SALT: AtomicUsize = AtomicUsize::new(0);

/// A scratch dir + session id unique to one test.
fn scratch(name: &str) -> (PathBuf, u64) {
    let salt = SESSION_SALT.fetch_add(1, Ordering::Relaxed);
    let pid = std::process::id();
    let dir = std::env::temp_dir().join(format!("pdc-net-ws-{name}-{pid}-{salt}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let session = ((pid as u64) << 24) | (0x50 << 16) | salt as u64;
    (dir, session)
}

/// Run `body(rank, transport)` for every rank on its own thread, each
/// with a fresh transport joined to the same session.
pub fn with_mesh<T: Send + 'static>(
    name: &str,
    np: usize,
    tune: impl Fn(&mut NetConfig) + Sync,
    body: impl Fn(usize, Arc<TcpTransport>) -> T + Sync,
) -> Vec<T> {
    let (dir, session) = scratch(name);
    let rendezvous = dir.join("rendezvous.addr");
    let results: Vec<T> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..np)
            .map(|rank| {
                let rendezvous = rendezvous.clone();
                let tune = &tune;
                let body = &body;
                scope.spawn(move || {
                    let mut cfg = NetConfig::new(rank, np, session, rendezvous);
                    tune(&mut cfg);
                    let transport = TcpTransport::connect(cfg).expect("join");
                    body(rank, transport)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let _ = std::fs::remove_dir_all(&dir);
    results
}
