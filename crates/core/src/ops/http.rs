//! The dependency-free HTTP/1.0 listener behind the ops surface.
//!
//! One `std::net::TcpListener` plus one worker thread is all a scrape
//! endpoint needs: connections are handled sequentially (a Prometheus
//! server opens one connection per scrape), every response closes the
//! connection, and graceful shutdown wakes the blocking `accept` with
//! a self-connect so the worker can observe the stop flag and exit.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use super::OpsShared;

/// Per-connection socket timeout: an idle or stalled client cannot
/// wedge the single worker for longer than this.
const IO_TIMEOUT: Duration = Duration::from_secs(2);
/// Upper bound on accepted request-head bytes.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Handle to the running ops listener. Dropping it shuts the worker
/// down and joins the thread.
pub(crate) struct OpsServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl OpsServer {
    /// Bind `addr` (e.g. `127.0.0.1:9464`, port 0 for ephemeral) and
    /// start serving `shared` on a worker thread.
    pub fn bind(addr: SocketAddr, shared: Arc<OpsShared>) -> std::io::Result<OpsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stop = Arc::clone(&shutdown);
        let handle = std::thread::Builder::new()
            .name("kalis-ops".into())
            .spawn(move || serve(&listener, &shared, &stop))?;
        Ok(OpsServer {
            addr,
            shutdown,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0 to the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for OpsServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        // Wake the blocking accept so the worker sees the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn serve(listener: &TcpListener, shared: &Arc<OpsShared>, shutdown: &AtomicBool) {
    for conn in listener.incoming() {
        if shutdown.load(Ordering::Acquire) {
            break;
        }
        let Ok(mut stream) = conn else { continue };
        let _ = handle_connection(&mut stream, shared);
    }
}

fn handle_connection(stream: &mut TcpStream, shared: &OpsShared) -> std::io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let Some(head) = read_head(stream)? else {
        return write_response(
            stream,
            400,
            "Bad Request",
            "text/plain; charset=utf-8",
            "malformed request\n",
        );
    };
    let mut parts = head.split_whitespace();
    let method = parts.next().unwrap_or_default();
    // Strip any query string: the endpoints take no parameters.
    let path = parts
        .next()
        .unwrap_or_default()
        .split('?')
        .next()
        .unwrap_or_default();
    if method != "GET" {
        shared.count_request("other");
        return write_response(
            stream,
            405,
            "Method Not Allowed",
            "text/plain; charset=utf-8",
            "only GET is supported\n",
        );
    }
    match path {
        "/metrics" => {
            shared.count_request("metrics");
            let body = shared.render_metrics();
            write_response(
                stream,
                200,
                "OK",
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
            )
        }
        "/healthz" => {
            shared.count_request("healthz");
            write_response(stream, 200, "OK", "text/plain; charset=utf-8", "ok\n")
        }
        "/readyz" => {
            shared.count_request("readyz");
            let (ready, body) = shared.readiness_body();
            if ready {
                write_response(stream, 200, "OK", "application/json", &body)
            } else {
                write_response(
                    stream,
                    503,
                    "Service Unavailable",
                    "application/json",
                    &body,
                )
            }
        }
        "/status" => {
            shared.count_request("status");
            let body = shared.status_body();
            write_response(stream, 200, "OK", "application/json", &body)
        }
        "/debug/diag" => {
            shared.count_request("diag");
            let body = shared.diag_index_body();
            write_response(stream, 200, "OK", "application/json", &body)
        }
        _ if path.starts_with("/debug/diag/") => {
            shared.count_request("diag");
            let id = &path["/debug/diag/".len()..];
            match shared.diag_bundle_body(id) {
                Some(body) => write_response(stream, 200, "OK", "application/json", &body),
                None => write_response(
                    stream,
                    404,
                    "Not Found",
                    "application/json",
                    "{\"error\":\"no such bundle\"}\n",
                ),
            }
        }
        _ => {
            shared.count_request("other");
            write_response(
                stream,
                404,
                "Not Found",
                "application/json",
                "{\"error\":\"not found\"}\n",
            )
        }
    }
}

/// Read the request head (first line + headers) up to the blank line.
/// Returns the request line, or `None` when the head is oversized or
/// not terminated.
fn read_head(stream: &mut TcpStream) -> std::io::Result<Option<String>> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        let n = match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                break
            }
            Err(e) => return Err(e),
        };
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.windows(2).any(|w| w == b"\n\n") {
            let head = String::from_utf8_lossy(&buf);
            return Ok(head.lines().next().map(str::to_string));
        }
        if buf.len() > MAX_REQUEST_BYTES {
            return Ok(None);
        }
    }
    Ok(None)
}

fn write_response(
    stream: &mut TcpStream,
    code: u16,
    reason: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.0 {code} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}
