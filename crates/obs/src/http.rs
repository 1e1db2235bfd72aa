//! A minimal Prometheus scrape endpoint over std's `TcpListener`.
//!
//! [`MetricsServer::serve`] binds an address and answers `GET /metrics`
//! (and `GET /`) with the recorder's [text exposition
//! format](crate::Recorder::prometheus) — enough for `curl` or an actual
//! Prometheus scraper pointed at a running `haccs-coordd`. One accept
//! thread, one connection at a time, connection-close semantics: scrape
//! traffic is rare and tiny, so the simplest correct server wins over a
//! pooled one. The listener runs nonblocking with a short poll so
//! [`MetricsServer::stop`] (and `Drop`) can end the thread without a
//! self-connect trick.

use crate::Recorder;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long one request may take to arrive before the connection is
/// abandoned. Scrapes are one small GET; anything slower is a stuck peer.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(2);

/// Poll interval of the nonblocking accept loop.
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// Request-head bytes read before a head with no blank line yet is
/// refused as too large.
const MAX_HEAD: usize = 8 * 1024;

/// A background HTTP server exposing a [`Recorder`]'s metrics registry.
///
/// The handle owns the accept thread: dropping it stops the server and
/// joins the thread.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// serving `recorder`'s metrics. The recorder handle is cloned, so
    /// the caller keeps incrementing the same registry the endpoint
    /// renders.
    pub fn serve(recorder: Recorder, addr: impl ToSocketAddrs) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let thread =
            std::thread::Builder::new().name("haccs-metrics-http".into()).spawn(move || {
                while !stop_flag.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            // a broken scraper must not kill the endpoint
                            let _ = handle_connection(stream, &recorder);
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            std::thread::sleep(ACCEPT_POLL);
                        }
                        Err(_) => break,
                    }
                }
            })?;
        Ok(MetricsServer { addr, stop, thread: Some(thread) })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the thread. Idempotent.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The endpoint's answer to a request head.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reply {
    /// `200 OK` with the recorder's Prometheus text.
    Metrics,
    /// A fixed status line and body.
    Fixed(&'static str, &'static str),
}

const TOO_LARGE: Reply = Reply::Fixed("400 Bad Request", "request head too large\n");
const NOT_GET: Reply = Reply::Fixed("405 Method Not Allowed", "only GET is served\n");
const NOT_FOUND: Reply = Reply::Fixed("404 Not Found", "try /metrics\n");

/// Parses and routes the request head read so far: `None` while it has no
/// blank line yet and is at most [`MAX_HEAD`] bytes, so more must be
/// read. `GET /metrics` and `GET /` get the Prometheus text; any other
/// path is a 404; any other method a 405.
fn route(head: &[u8]) -> Option<Reply> {
    if !head.windows(4).any(|w| w == b"\r\n\r\n") {
        return (head.len() > MAX_HEAD).then_some(TOO_LARGE);
    }
    let request_line = head.split(|&b| b == b'\r').next().unwrap_or_default();
    let request_line = String::from_utf8_lossy(request_line);
    let mut parts = request_line.split_whitespace();
    Some(match (parts.next().unwrap_or(""), parts.next().unwrap_or("")) {
        ("GET", "/metrics" | "/") => Reply::Metrics,
        ("GET", _) => NOT_FOUND,
        _ => NOT_GET,
    })
}

/// Reads one request head, answers as [`route`] decides, closes.
fn handle_connection(mut stream: TcpStream, recorder: &Recorder) -> io::Result<()> {
    stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
    stream.set_write_timeout(Some(REQUEST_TIMEOUT))?;

    let mut head = Vec::with_capacity(256);
    let mut buf = [0u8; 256];
    let reply = loop {
        if let Some(reply) = route(&head) {
            break reply;
        }
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Ok(()); // peer hung up mid-request
        }
        head.extend_from_slice(&buf[..n]);
    };
    match reply {
        Reply::Metrics => respond(&mut stream, "200 OK", &recorder.prometheus()),
        Reply::Fixed(status, body) => respond(&mut stream, status, body),
    }
}

fn respond(stream: &mut TcpStream, status: &str, body: &str) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut s = TcpStream::connect(addr).expect("connect");
        write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).expect("read response");
        out
    }

    #[test]
    fn serves_prometheus_text() {
        let obs = Recorder::enabled();
        obs.inc("demo_rounds_total", 3);
        let server = MetricsServer::serve(obs.clone(), "127.0.0.1:0").expect("bind");
        let resp = get(server.addr(), "/metrics");
        assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "bad status: {resp}");
        assert!(resp.contains("text/plain; version=0.0.4"), "bad content type: {resp}");
        assert!(resp.contains("demo_rounds_total 3"), "missing counter: {resp}");

        // the registry is live: later increments show up on the next scrape
        obs.inc("demo_rounds_total", 2);
        assert!(get(server.addr(), "/").contains("demo_rounds_total 5"));
    }

    #[test]
    fn unknown_path_is_404_and_post_is_405() {
        let server = MetricsServer::serve(Recorder::enabled(), "127.0.0.1:0").expect("bind");
        assert!(get(server.addr(), "/nope").starts_with("HTTP/1.1 404"));
        let mut s = TcpStream::connect(server.addr()).unwrap();
        write!(s, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 405"));
    }

    #[test]
    fn route_answers_any_generated_head_without_panicking() {
        // a splitmix64 stream drives the generator: no dev-dependency
        let mut state = 0x5EED_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = state;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        };
        // tokens hold no whitespace, so the expected route is theirs
        let methods: [&[u8]; 7] = [b"GET", b"get", b"POST", b"GETT", b"\xFFGET", b"G\0T", b""];
        let paths: [&[u8]; 8] =
            [b"/metrics", b"/", b"", b"/metrics?x=1", b"//", b"/nope", b"/\xC3", b"\xFE\xFF"];
        for _ in 0..4000 {
            let (method, path) = (methods[next() as usize % 7], paths[next() as usize % 8]);
            let mut head = [method, b" ", path, b" HTTP/1.1\r\n"].concat();
            // header lines of arbitrary bytes, never empty and with CR and
            // LF removed, so they cannot end the head early
            for _ in 0..next() % 4 {
                let len = next() as usize % 64;
                head.extend_from_slice(b"X-");
                head.extend((0..len).map(|_| next() as u8).filter(|b| !b"\r\n".contains(b)));
                head.extend_from_slice(b"\r\n");
            }
            let blank_line = next() % 4 != 0;
            if blank_line {
                head.extend_from_slice(b"\r\n");
            }
            // sometimes push the head past the size limit
            if next() % 8 == 0 {
                head.extend(std::iter::repeat_n(b'x', MAX_HEAD));
            }
            let reply = route(&head);
            let expected = if !blank_line {
                (head.len() > MAX_HEAD).then_some(TOO_LARGE)
            } else if method != b"GET" {
                Some(NOT_GET)
            } else if path == b"/metrics" || path == b"/" {
                Some(Reply::Metrics)
            } else {
                // an empty path makes the version the path
                Some(NOT_FOUND)
            };
            assert_eq!(reply, expected, "head {:?}", String::from_utf8_lossy(&head));
        }
        // a head of nothing but noise: invalid UTF-8, no CRLF
        let noise: Vec<u8> = (0..3 * MAX_HEAD).map(|_| next() as u8 | 0x80).collect();
        for len in (0..noise.len()).step_by(97) {
            let expected = (len > MAX_HEAD).then_some(TOO_LARGE);
            assert_eq!(route(&noise[..len]), expected);
        }
    }

    #[test]
    fn stop_joins_and_port_closes() {
        let mut server = MetricsServer::serve(Recorder::enabled(), "127.0.0.1:0").expect("bind");
        let addr = server.addr();
        server.stop();
        server.stop(); // idempotent
                       // after stop, new connections are refused or go unanswered
        match TcpStream::connect(addr) {
            Err(_) => {}
            Ok(mut s) => {
                let _ = write!(s, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
                let _ = s.set_read_timeout(Some(Duration::from_millis(200)));
                let mut out = String::new();
                let _ = s.read_to_string(&mut out);
                assert!(out.is_empty(), "stopped server still answered: {out}");
            }
        }
    }
}
