//! Hand-rolled, std-only HTTP endpoint for live node metrics.
//!
//! [`MetricsServer`] binds a `TcpListener`, serves `GET` requests on a
//! background thread, and answers each from a caller-supplied handler
//! mapping a request path to a body. It exists so every cluster node
//! can expose `/metrics` and `/healthz` without pulling a web framework
//! into the workspace (only `rand` and `proptest` are external, and both
//! are vendored stand-ins; real work is std-only) — and it is
//! deliberately minimal:
//! HTTP/1.1, `Connection: close`, one request per connection, no
//! keep-alive, no TLS. `curl`, load balancer probes and the chaos
//! harness's in-run probe are the target clients, not browsers.
//!
//! The serving thread blocks in `accept`; [`MetricsServer::stop`] (also
//! run on drop) sets a flag and dials the listener once to unblock it,
//! so shutdown is prompt without non-blocking accept loops or timeouts.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// What the handler returns for a served path.
pub struct Response {
    /// HTTP status code (200, 404, ...).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

impl Response {
    /// A `200 OK` JSON response.
    pub fn json(body: String) -> Response {
        Response {
            status: 200,
            content_type: "application/json",
            body,
        }
    }

    /// A `200 OK` plain-text response.
    pub fn text(body: impl Into<String>) -> Response {
        Response {
            status: 200,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
        }
    }

    /// The `404 Not Found` response served for unhandled paths.
    pub fn not_found() -> Response {
        Response {
            status: 404,
            content_type: "text/plain; charset=utf-8",
            body: "not found\n".to_string(),
        }
    }
}

/// A tiny background HTTP server (see module docs).
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Bind `bind_addr` (e.g. `"127.0.0.1:0"` for an ephemeral port)
    /// and serve `handler(path)` on a background thread. Returning
    /// `None` from the handler yields a 404.
    pub fn serve(
        bind_addr: &str,
        handler: impl Fn(&str) -> Option<Response> + Send + 'static,
    ) -> io::Result<MetricsServer> {
        let listener = TcpListener::bind(bind_addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("cpx-metrics-http".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop_flag.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    // Serve inline: requests are single tiny GETs and the
                    // handler is cheap, so one connection at a time is fine.
                    let _ = serve_one(stream, &handler);
                }
            })?;
        Ok(MetricsServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the serving thread and wait for it to exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept call with one throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(500));
        let _ = handle.join();
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Read one request from `stream`, answer it, close.
fn serve_one(
    mut stream: TcpStream,
    handler: &(impl Fn(&str) -> Option<Response> + Send + 'static),
) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(2000)))?;
    stream.set_write_timeout(Some(Duration::from_millis(2000)))?;
    let path = match read_request_path(&mut stream)? {
        Some(p) => p,
        None => return Ok(()), // the shutdown poke, or garbage
    };
    let resp = handler(&path).unwrap_or_else(Response::not_found);
    let reason = match resp.status {
        200 => "OK",
        404 => "Not Found",
        _ => "Status",
    };
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        resp.status,
        reason,
        resp.content_type,
        resp.body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(resp.body.as_bytes())?;
    stream.flush()
}

/// Parse the path out of the request line (`GET /metrics HTTP/1.1`).
/// Reads until the header terminator or 8 KiB, whichever comes first.
fn read_request_path(stream: &mut TcpStream) -> io::Result<Option<String>> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        let n = match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                break
            }
            Err(e) => return Err(e),
        };
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 8192 {
            break;
        }
    }
    let text = String::from_utf8_lossy(&buf);
    let line = text.lines().next().unwrap_or("");
    let mut parts = line.split_whitespace();
    match (parts.next(), parts.next()) {
        (Some("GET"), Some(path)) => Ok(Some(path.to_string())),
        _ => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal client: one GET, full response text back.
    fn get(addr: SocketAddr, path: &str) -> String {
        let mut s = TcpStream::connect(addr).expect("connect");
        write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).expect("read");
        out
    }

    #[test]
    fn serves_handler_responses_and_404s() {
        let server = MetricsServer::serve("127.0.0.1:0", |path| match path {
            "/healthz" => Some(Response::text("ok\n")),
            "/metrics" => Some(Response::json("{\"live_peers\":3}".to_string())),
            _ => None,
        })
        .expect("bind");
        let addr = server.local_addr();

        let health = get(addr, "/healthz");
        assert!(health.starts_with("HTTP/1.1 200 OK\r\n"), "{health}");
        assert!(health.ends_with("ok\n"), "{health}");

        let metrics = get(addr, "/metrics");
        assert!(
            metrics.contains("Content-Type: application/json"),
            "{metrics}"
        );
        assert!(metrics.ends_with("{\"live_peers\":3}"), "{metrics}");

        let missing = get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

        server.stop();
    }

    #[test]
    fn stop_terminates_promptly_and_twice_is_safe() {
        let server = MetricsServer::serve("127.0.0.1:0", |_| Some(Response::text("x"))).unwrap();
        let addr = server.local_addr();
        drop(server); // drop path
                      // The port is released: a rebind eventually succeeds.
        let rebound = MetricsServer::serve(&addr.to_string(), |_| None);
        if let Ok(s) = rebound {
            s.stop();
        }
    }

    #[test]
    fn garbage_requests_do_not_kill_the_server() {
        let server =
            MetricsServer::serve("127.0.0.1:0", |_| Some(Response::text("alive"))).unwrap();
        let addr = server.local_addr();
        {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"\x00\x01\x02 not http at all\r\n\r\n")
                .unwrap();
        }
        // A real request still gets served afterwards.
        let ok = get(addr, "/");
        assert!(ok.ends_with("alive"), "{ok}");
        server.stop();
    }
}
