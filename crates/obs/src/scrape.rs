//! A minimal scrape endpoint: `GET /metrics`, `GET /slo`, `GET /health`
//! over hand-rolled HTTP/1.1.
//!
//! The workspace deliberately has no web framework (its serde is a no-op
//! shim); a Prometheus scrape needs almost none of HTTP anyway — one
//! request line, a blank line, one response with `Content-Length` and
//! `Connection: close`. [`ScrapeServer`] binds a `std::net::TcpListener`,
//! serves each request on the accept thread (scrapes are rare — one every
//! few seconds — so a connection pool would be dead weight), and shuts
//! down cooperatively through a nonblocking accept loop.
//!
//! Routes:
//!
//! * `GET /metrics` — Prometheus text exposition (version 0.0.4), from
//!   the metrics source (e.g. [`BusHandle::prometheus`]).
//! * `GET /slo` — SLO snapshot as JSON lines, from the SLO source.
//! * `GET /health` — `ok`, for liveness probes.
//! * anything else — `404`.
//!
//! Sources are `Fn() -> String` closures, so the endpoint can serve a
//! [`BusHandle`], a plain `Mutex<MetricsRegistry>`, or a test stub alike.
//!
//! [`BusHandle::prometheus`]: crate::bus::BusHandle::prometheus
//! [`BusHandle`]: crate::bus::BusHandle

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A snapshot provider for one route.
pub type Source = Arc<dyn Fn() -> String + Send + Sync>;

/// The running scrape endpoint. Dropping it (or calling
/// [`ScrapeServer::stop`]) shuts the accept loop down and joins it.
#[derive(Debug)]
pub struct ScrapeServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

/// Poll interval of the nonblocking accept loop.
const ACCEPT_IDLE: Duration = Duration::from_millis(5);
/// Per-connection deadline, one absolute budget for reading the whole
/// request head and writing the response: a client that stalls or
/// trickles bytes gets cut off rather than wedging the accept thread.
const REQUEST_DEADLINE: Duration = Duration::from_millis(500);
/// Longest request head we accept (method + path + headers).
const MAX_REQUEST: usize = 8 * 1024;

impl ScrapeServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` to let the OS pick a port) and
    /// start serving `metrics` on `/metrics` and `slo` on `/slo`.
    pub fn start(addr: &str, metrics: Source, slo: Source) -> std::io::Result<ScrapeServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("scrape-endpoint".into())
            .spawn(move || {
                while !thread_stop.load(Ordering::Acquire) {
                    match listener.accept() {
                        Ok((stream, _)) => serve_one(stream, &metrics, &slo),
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(ACCEPT_IDLE);
                        }
                        Err(_) => std::thread::sleep(ACCEPT_IDLE),
                    }
                }
            })?;
        Ok(ScrapeServer {
            addr: local,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (read the OS-assigned port from here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The endpoint's base URL.
    pub fn url(&self) -> String {
        format!("http://{}", self.addr)
    }

    /// Stop accepting and join the serving thread. Idempotent.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ScrapeServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Read the request head, route it, write one response. Any I/O failure
/// just drops the connection — the scraper retries next interval.
fn serve_one(mut stream: TcpStream, metrics: &Source, slo: &Source) {
    let deadline = Instant::now() + REQUEST_DEADLINE;
    let path = match read_request_path(&mut stream, deadline) {
        Some(p) => p,
        None => return,
    };
    let (status, content_type, body) = match path.as_str() {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            metrics(),
        ),
        "/slo" => ("200 OK", "application/jsonl; charset=utf-8", slo()),
        "/health" => ("200 OK", "text/plain; charset=utf-8", "ok\n".into()),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found\n".into(),
        ),
    };
    let Some(left) = remaining(deadline) else {
        return;
    };
    let _ = stream.set_write_timeout(Some(left));
    let _ = write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.flush();
}

/// Time left before `deadline`, or `None` once it has passed.
fn remaining(deadline: Instant) -> Option<Duration> {
    deadline
        .checked_duration_since(Instant::now())
        .filter(|d| !d.is_zero())
}

/// Read until the blank line ending the request head and return the
/// request-target of a GET, or `None` for anything malformed or not
/// complete by `deadline`. Each read waits at most the time left, so the
/// deadline bounds the whole head, not each byte.
fn read_request_path(stream: &mut TcpStream, deadline: Instant) -> Option<String> {
    let mut head = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        stream.set_read_timeout(Some(remaining(deadline)?)).ok()?;
        let n = stream.read(&mut chunk).ok()?;
        if n == 0 {
            return None;
        }
        head.extend_from_slice(&chunk[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > MAX_REQUEST {
            break;
        }
    }
    let text = std::str::from_utf8(&head).ok()?;
    let request_line = text.lines().next()?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next()?;
    let target = parts.next()?;
    if method != "GET" {
        return None;
    }
    // Strip any query string: `/metrics?format=text` still routes.
    Some(target.split('?').next().unwrap_or(target).to_string())
}

/// A blocking single-request HTTP GET against the endpoint — what the
/// gate binaries and tests use to scrape without an HTTP client
/// dependency. Returns `(status_code, body)`.
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no header break"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line"))?;
    Ok((status, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_server() -> ScrapeServer {
        ScrapeServer::start(
            "127.0.0.1:0",
            Arc::new(|| "# TYPE up gauge\nup 1\n".to_string()),
            Arc::new(|| "{\"metric\":\"slo_completions_total\",\"value\":3}\n".to_string()),
        )
        .expect("bind scrape server")
    }

    #[test]
    fn routes_answer_with_expected_bodies() {
        let server = test_server();
        let (code, body) = http_get(server.addr(), "/metrics").unwrap();
        assert_eq!(code, 200);
        assert!(body.contains("up 1"), "{body}");
        let (code, body) = http_get(server.addr(), "/slo").unwrap();
        assert_eq!(code, 200);
        assert!(body.contains("slo_completions_total"), "{body}");
        let (code, body) = http_get(server.addr(), "/health").unwrap();
        assert_eq!(code, 200);
        assert_eq!(body, "ok\n");
        let (code, _) = http_get(server.addr(), "/nope").unwrap();
        assert_eq!(code, 404);
    }

    #[test]
    fn query_strings_are_stripped_and_stop_is_idempotent() {
        let mut server = test_server();
        let (code, _) = http_get(server.addr(), "/metrics?format=text").unwrap();
        assert_eq!(code, 200);
        server.stop();
        server.stop(); // second stop is a no-op, and Drop after this is too
    }

    /// Connect and send a request head one byte every 100 ms — slow enough
    /// to never finish inside the deadline — until `quit` is set, then hand
    /// back the still-open client socket.
    fn trickle(addr: SocketAddr, quit: Arc<AtomicBool>) -> JoinHandle<TcpStream> {
        std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            for b in b"GET /metrics HTTP/1.1\r\nHost: x\r\n".iter().cycle() {
                if quit.load(Ordering::Acquire) || s.write_all(&[*b]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(100));
            }
            s
        })
    }

    #[test]
    fn a_trickling_client_cannot_hold_the_endpoint() {
        let mut server = test_server();
        let quit = Arc::new(AtomicBool::new(false));
        let first = trickle(server.addr(), Arc::clone(&quit));
        std::thread::sleep(Duration::from_millis(50)); // accepted first
        let asked = Instant::now();
        let (code, body) = http_get(server.addr(), "/health").expect("health answered");
        assert_eq!((code, body.as_str()), (200, "ok\n"));
        assert!(
            asked.elapsed() < Duration::from_secs(2),
            "{:?}",
            asked.elapsed()
        );

        // Stop while a trickler is mid-request on the accept thread.
        let second = trickle(server.addr(), Arc::clone(&quit));
        std::thread::sleep(Duration::from_millis(50));
        let stopping = Instant::now();
        server.stop();
        assert!(
            stopping.elapsed() < REQUEST_DEADLINE + Duration::from_millis(500),
            "stop took {:?}",
            stopping.elapsed()
        );
        quit.store(true, Ordering::Release);
        drop((first.join().unwrap(), second.join().unwrap()));
    }
}
