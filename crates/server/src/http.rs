//! A minimal HTTP/1.0 exposition endpoint for scrapers.
//!
//! Serves exactly three routes — `GET /metrics` (Prometheus text 0.0.4),
//! `GET /metrics.json` (the JSON rendering) and `GET /healthz` (liveness) —
//! on a dedicated listener so scrape traffic never competes with SKTP
//! worker threads.  Requests are handled serially on the listener thread:
//! a scrape every few seconds from one or two collectors is the design
//! load, and serial handling keeps the code free of pool plumbing.
//!
//! This is deliberately *not* a general HTTP server: no keep-alive, no
//! chunked encoding, no request bodies.  Anything that is not a `GET` for
//! a known route gets a 404/405 and the connection closes.

use crate::metrics::ServerMetrics;
use sketchtree_core::concurrent::SharedSketchTree;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Longest request head we will buffer; enough for any scraper's
/// `GET /metrics HTTP/1.x` plus headers we ignore.
const MAX_REQUEST_HEAD: usize = 4096;

/// A running metrics endpoint; stops (and joins its thread) on
/// [`MetricsHttp::stop`] or drop.
#[derive(Debug)]
pub(crate) struct MetricsHttp {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsHttp {
    /// Binds `addr` and starts serving scrapes in a background thread.
    pub(crate) fn start(
        addr: SocketAddr,
        metrics: Arc<ServerMetrics>,
        shared: SharedSketchTree,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let actual = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = shutdown.clone();
        let handle = std::thread::Builder::new()
            .name("sktp-metrics-http".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if flag.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    // A stalled scraper must not wedge the endpoint.
                    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
                    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
                    let _ = serve_one(stream, &metrics, &shared);
                }
            })?;
        Ok(Self { addr: actual, shutdown, handle: Some(handle) })
    }

    /// The bound address (resolved port when `addr` asked for port 0).
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the listener thread and joins it.
    pub(crate) fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for MetricsHttp {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Reads one request head and writes one response.
fn serve_one(
    mut stream: TcpStream,
    metrics: &ServerMetrics,
    shared: &SharedSketchTree,
) -> io::Result<()> {
    let mut head = Vec::with_capacity(512);
    let mut buf = [0u8; 512];
    // Read until the blank line ending the head, connection close, or cap.
    loop {
        let n = io::Read::read(&mut stream, &mut buf)?;
        if n == 0 {
            break;
        }
        // Only the boundary region can contain a terminator that involves
        // the new bytes: the last 3 previously-buffered bytes plus what was
        // just read.  Rescanning the whole head after every read would be
        // O(n²) against a slow-trickling scraper.
        let scan_from = head.len().saturating_sub(3);
        head.extend_from_slice(buf.get(..n).unwrap_or_default());
        let tail = head.get(scan_from..).unwrap_or_default();
        if tail.windows(4).any(|w| w == b"\r\n\r\n") || tail.windows(2).any(|w| w == b"\n\n") {
            break;
        }
        if head.len() >= MAX_REQUEST_HEAD {
            break;
        }
    }
    let text = String::from_utf8_lossy(&head);
    let mut parts = text.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    if method != "GET" {
        return respond(&mut stream, "405 Method Not Allowed", "text/plain", "method not allowed\n");
    }
    // Strip any query string; scrapers sometimes append one.
    let route = path.split('?').next().unwrap_or(path);
    match route {
        "/metrics" => {
            metrics.refresh_health(shared);
            respond(
                &mut stream,
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                &metrics.render(false),
            )
        }
        "/metrics.json" => {
            metrics.refresh_health(shared);
            respond(&mut stream, "200 OK", "application/json", &metrics.render(true))
        }
        "/healthz" => {
            let trees = shared.trees_processed();
            let body = format!("{{\"status\":\"ok\",\"trees_processed\":{trees}}}\n");
            respond(&mut stream, "200 OK", "application/json", &body)
        }
        _ => respond(&mut stream, "404 Not Found", "text/plain", "not found\n"),
    }
}

/// Writes a complete HTTP/1.0 response and closes (no keep-alive).
fn respond(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    let head = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketchtree_core::{SketchTree, SketchTreeConfig};
    use std::io::Read;

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes()).expect("send");
        let mut out = String::new();
        s.read_to_string(&mut out).expect("read");
        out
    }

    #[test]
    fn serves_metrics_and_healthz() {
        let metrics = ServerMetrics::new();
        let shared = SharedSketchTree::new(SketchTree::new(SketchTreeConfig::default()));
        let a = shared.with_labels(|l| l.intern("A"));
        shared.ingest_batch(&[sketchtree_tree::Tree::node(a, vec![sketchtree_tree::Tree::leaf(a)])]);
        let mut http = MetricsHttp::start(
            "127.0.0.1:0".parse().expect("addr"),
            metrics.clone(),
            shared.clone(),
        )
        .expect("bind");
        let addr = http.addr();

        let resp = get(addr, "/metrics");
        assert!(resp.starts_with("HTTP/1.0 200"), "{resp}");
        assert!(resp.contains("sketchtree_trees_processed 1"), "{resp}");

        let resp = get(addr, "/metrics.json");
        assert!(resp.contains("application/json"));

        let resp = get(addr, "/healthz");
        assert!(resp.contains("\"status\":\"ok\""));
        assert!(resp.contains("\"trees_processed\":1"));

        let resp = get(addr, "/nope");
        assert!(resp.starts_with("HTTP/1.0 404"));

        // POST is refused.
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(b"POST /metrics HTTP/1.0\r\n\r\n").expect("send");
        let mut out = String::new();
        s.read_to_string(&mut out).expect("read");
        assert!(out.starts_with("HTTP/1.0 405"));

        // A head trickled one byte per write still terminates correctly:
        // the boundary-region scan must see a "\r\n\r\n" that straddles
        // reads (the terminator never arrives inside a single read here).
        let mut s = TcpStream::connect(addr).expect("connect");
        for b in b"GET /healthz HTTP/1.0\r\nX-Pad: 1\r\n\r\n" {
            s.write_all(std::slice::from_ref(b)).expect("send byte");
            s.flush().expect("flush");
        }
        let mut out = String::new();
        s.read_to_string(&mut out).expect("read");
        assert!(out.contains("\"status\":\"ok\""), "{out}");

        http.stop();
    }
}
