//! The workspace's one HTTP/1.1 implementation (`std`-only) and the live
//! telemetry listener built on it.
//!
//! ## Plumbing
//!
//! Server side: [`Conn`] wraps an accepted `TcpStream` with a carry-over
//! read buffer (pipelined bytes past one head belong to the next request),
//! reads bounded requests under a total deadline (8 KiB heads, 64 KiB
//! bodies, tail-overlap terminator scans), writes keep-alive aware
//! responses, and owns the read-error → status mapping ([`Conn::reject`]),
//! so every accept loop answers unframeable bytes identically. Client side:
//! [`read_response`] parses one status + `Content-Length` delimited body,
//! for tests. It lives here because `imcat-obs` is the lowest crate that
//! opens a socket; `imcat-net` re-exports this module as `imcat_net::http`
//! and builds the data plane on it.
//!
//! ## Telemetry listener
//!
//! One accept thread, sequential request handling, every response closes
//! the connection, so a scrape can never amplify load on the serving
//! process. It keeps its own thread and port rather than being routes on
//! the data-plane server: it must stay scrapeable while that server sheds
//! `503`s. Routes:
//!
//! * `GET /metrics` — Prometheus text exposition ([`crate::expo`])
//! * `GET /snapshot` — full registry snapshot as JSON
//! * `GET /trace/<id>` — one stored request trace ([`crate::trace`])
//! * `GET /traces` — recent traces plus store statistics
//! * `GET /healthz` — liveness probe
//!
//! Started by [`crate::init_from_env`] when `IMCAT_OBS_ADDR` is set (e.g.
//! `127.0.0.1:9464`); binding port 0 picks an ephemeral port, which tests
//! use to avoid collisions.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::{expo, trace, Json};

/// Maximum request/response head size. Anything larger is malformed.
pub const MAX_HEAD: usize = 8 * 1024;
/// Maximum request body size (`POST /ingest` batches). Anything larger is
/// rejected before buffering.
pub const MAX_BODY: usize = 64 * 1024;
/// Per-read/write socket timeout; total deadlines cap it further.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Plain-text content type.
pub const TEXT: &str = "text/plain; charset=utf-8";
/// JSON content type.
pub const JSON: &str = "application/json; charset=utf-8";

/// One parsed request: head plus a `Content-Length` delimited body
/// (bounded by [`MAX_BODY`]; empty for the GET routes).
#[derive(Debug)]
pub struct Request {
    /// Request method (`GET`, `POST`, ...).
    pub method: String,
    /// Raw request target, query string included.
    pub target: String,
    /// Whether the connection persists after the response.
    pub keep_alive: bool,
    /// Request body bytes (empty when the request carried none).
    pub body: Vec<u8>,
}

impl Request {
    /// The target's path with any query string or fragment stripped.
    pub fn path(&self) -> &str {
        self.target.split(['?', '#']).next().unwrap_or(&self.target)
    }

    /// The raw value of query parameter `key`, if present. No percent
    /// decoding: the serving API's parameters are numeric.
    pub fn query(&self, key: &str) -> Option<&str> {
        let (_, query) = self.target.split_once('?')?;
        query
            .split('#')
            .next()
            .unwrap_or(query)
            .split('&')
            .filter_map(|pair| pair.split_once('='))
            .find(|(name, _)| *name == key)
            .map(|(_, value)| value)
    }
}

/// A server-side connection: socket plus carry-over buffer, so pipelined
/// bytes read past one request head are not lost to the next.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Bytes of `buf` already known to not contain the head terminator
    /// (minus a 3-byte overlap) — keeps slow-client scans linear.
    scanned: usize,
}

fn find_head_end(buf: &[u8], from: usize) -> Option<usize> {
    buf[from..].windows(4).position(|w| w == b"\r\n\r\n").map(|p| from + p + 4)
}

impl Conn {
    /// Wraps an accepted stream.
    pub fn new(stream: TcpStream) -> Self {
        let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
        // Request/response exchanges are single small packets; leaving Nagle
        // on costs a delayed-ACK round (~40ms) per keep-alive exchange.
        let _ = stream.set_nodelay(true);
        Self { stream, buf: Vec::with_capacity(512), scanned: 0 }
    }

    /// Reads one request (head + `Content-Length` body), enforcing
    /// `deadline` across every read.
    ///
    /// Returns `Ok(None)` at the idle end of a keep-alive connection: the
    /// peer closed between requests, or the deadline lapsed with not one
    /// byte of a next request buffered. A timeout *inside* a request
    /// surfaces as [`io::ErrorKind::TimedOut`]; an oversized or malformed
    /// head as [`io::ErrorKind::InvalidData`]; a well-formed head
    /// announcing a body past [`MAX_BODY`] as
    /// [`io::ErrorKind::InvalidInput`] — [`Conn::reject`] answers all three.
    pub fn read_request(&mut self, deadline: Instant) -> io::Result<Option<Request>> {
        loop {
            let from = self.scanned.saturating_sub(3).min(self.buf.len());
            if let Some(end) = find_head_end(&self.buf, from) {
                let head: Vec<u8> = self.buf.drain(..end).collect();
                self.scanned = 0;
                let (mut request, content_len) = parse_head(&head)?;
                if content_len > MAX_BODY {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        "request body too large",
                    ));
                }
                // Pipelined body bytes may already sit in the carry-over
                // buffer; read the remainder under the same deadline.
                while self.buf.len() < content_len {
                    if self.fill_buf(deadline)? == 0 {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "connection closed mid-body",
                        ));
                    }
                }
                request.body = self.buf.drain(..content_len).collect();
                return Ok(Some(request));
            }
            self.scanned = self.buf.len();
            if self.buf.len() >= MAX_HEAD {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "request head too large"));
            }
            match self.fill_buf(deadline) {
                Ok(0) if self.buf.is_empty() => return Ok(None),
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-request",
                    ))
                }
                Ok(_) => {}
                // Waiting is not a slow request: nothing was asked, so
                // nothing is answered or counted.
                Err(e) if e.kind() == io::ErrorKind::TimedOut && self.buf.is_empty() => {
                    return Ok(None)
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// One deadline-bounded socket read appended to the carry-over buffer.
    /// Returns the byte count (0 = peer closed); mid-request EOF handling is
    /// the caller's.
    fn fill_buf(&mut self, deadline: Instant) -> io::Result<usize> {
        let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "request deadline exceeded"));
        };
        self.stream.set_read_timeout(Some(remaining.min(IO_TIMEOUT)))?;
        let mut chunk = [0u8; 1024];
        match self.stream.read(&mut chunk) {
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(n)
            }
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                Err(io::Error::new(io::ErrorKind::TimedOut, "read timed out"))
            }
            Err(e) => Err(e),
        }
    }

    /// Writes one response. `keep_alive: false` advertises
    /// `Connection: close`; the caller is expected to drop the connection.
    pub fn respond(
        &mut self,
        status: &str,
        content_type: &str,
        body: &str,
        keep_alive: bool,
    ) -> io::Result<()> {
        write_response(&mut self.stream, status, content_type, body, keep_alive)
    }

    /// Answers a failed [`Conn::read_request`] — `408` for a request that
    /// outlived its deadline, `400` for one that cannot be framed, `413` for
    /// a body past [`MAX_BODY`] — always with `Connection: close`: where the
    /// next request would start on this stream is unknowable. Returns the
    /// status code sent so the caller can count it, or `None` when no one is
    /// left to answer (reset, EOF mid-request).
    pub fn reject(&mut self, error: &io::Error) -> Option<u16> {
        let (code, status) = match error.kind() {
            io::ErrorKind::TimedOut => (408, "408 Request Timeout"),
            io::ErrorKind::InvalidData => (400, "400 Bad Request"),
            io::ErrorKind::InvalidInput => (413, "413 Payload Too Large"),
            _ => return None,
        };
        let _ = match code {
            408 => self.respond(status, TEXT, "timed out\n", false),
            _ => self.respond(status, JSON, &error_body(&error.to_string()), false),
        };
        Some(code)
    }
}

/// The `{"error": message}` body every JSON error response carries.
pub fn error_body(message: &str) -> String {
    Json::obj(vec![("error", Json::Str(message.into()))]).render()
}

fn parse_head(head: &[u8]) -> io::Result<(Request, usize)> {
    let text = String::from_utf8_lossy(head);
    let mut lines = text.lines();
    let mut parts = lines.next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let target = parts.next().unwrap_or("").to_string();
    let version = parts.next().unwrap_or("HTTP/1.1");
    if method.is_empty() || target.is_empty() {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "malformed request line"));
    }
    // HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close; an explicit
    // Connection header overrides either way.
    let mut keep_alive = version != "HTTP/1.0";
    let mut content_len = 0usize;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else { continue };
        let name = name.trim();
        if name.eq_ignore_ascii_case("connection") {
            let value = value.trim();
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        } else if name.eq_ignore_ascii_case("content-length") {
            content_len = value
                .trim()
                .parse()
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad content-length"))?;
        }
    }
    Ok((Request { method, target, keep_alive, body: Vec::new() }, content_len))
}

/// Writes one response onto a raw stream (used by [`Conn::respond`] and by
/// the acceptor's fast-shed path, which never builds a `Conn`).
pub fn write_response(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    // One coalesced write: a head-then-body pair of small writes interacts
    // with Nagle + delayed ACK into ~40ms stalls on keep-alive connections.
    let mut response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
        body.len()
    );
    response.push_str(body);
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// Client side: reads one `Content-Length` delimited response from
/// `stream`, carrying leftover bytes across calls in `buf` (keep-alive).
/// Returns the status code and body.
pub fn read_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> io::Result<(u16, String)> {
    let mut chunk = [0u8; 2048];
    let end = loop {
        // Responses are small (one head + one JSON body), so the rescan from
        // 0 stays cheap; the buffer is drained after every response.
        if let Some(end) = find_head_end(buf, 0) {
            break end;
        }
        if buf.len() >= MAX_HEAD {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "response head too large"));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed mid-response"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..end]).to_string();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed status line"))?;
    let len: usize = head
        .lines()
        .find_map(|line| {
            let (name, value) = line.split_once(':')?;
            name.eq_ignore_ascii_case("content-length").then(|| value.trim().parse().ok())?
        })
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "missing content-length"))?;
    while buf.len() < end + len {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed mid-body"));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    let body = String::from_utf8_lossy(&buf[end..end + len]).to_string();
    buf.drain(..end + len);
    Ok((status, body))
}

static BOUND: OnceLock<SocketAddr> = OnceLock::new();

/// The address the listener is bound to, once [`start`] has succeeded.
pub fn bound_addr() -> Option<SocketAddr> {
    BOUND.get().copied()
}

/// Binds `addr` and starts the detached accept loop. Idempotent: a second
/// call returns the address of the already-running listener.
pub fn start(addr: &str) -> io::Result<SocketAddr> {
    if let Some(bound) = BOUND.get() {
        return Ok(*bound);
    }
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let bound = *BOUND.get_or_init(|| local);
    if bound != local {
        // Lost a start race; this listener is redundant.
        return Ok(bound);
    }
    std::thread::Builder::new()
        .name("imcat-obs-http".into())
        .spawn(move || {
            for stream in listener.incoming().flatten() {
                handle(Conn::new(stream));
            }
        })
        .map(|_| local)
}

/// One request per connection under one total deadline: handling is
/// single-threaded, so without it a slowloris client trickling a byte per
/// read timeout would hold `/healthz` hostage indefinitely.
fn handle(mut conn: Conn) {
    match conn.read_request(Instant::now() + IO_TIMEOUT) {
        Ok(Some(request)) => {
            let (status, content_type, body) = route(&request.method, &request.target);
            let _ = conn.respond(status, content_type, &body, false);
        }
        Ok(None) => {}
        Err(e) => {
            conn.reject(&e);
        }
    }
}

fn route(method: &str, target: &str) -> (&'static str, &'static str, String) {
    // The Prometheus exposition content type, on every text route.
    const TEXT: &str = "text/plain; version=0.0.4; charset=utf-8";
    if method != "GET" {
        return ("405 Method Not Allowed", TEXT, "method not allowed\n".into());
    }
    // Scrapers routinely append cache-busting or timestamp parameters
    // (`GET /metrics?ts=1`); routing matches on the path alone.
    let path = target.split(['?', '#']).next().unwrap_or(target);
    match path {
        "/metrics" => ("200 OK", TEXT, expo::render_prometheus(&crate::snapshot())),
        "/snapshot" => ("200 OK", JSON, expo::render_snapshot_json(&crate::snapshot()).render()),
        "/healthz" => ("200 OK", TEXT, "ok\n".into()),
        "/traces" => {
            let (stored, total, slow) = trace::stats();
            let doc = Json::obj(vec![
                ("stored", Json::Num(stored as f64)),
                ("total", Json::Num(total as f64)),
                ("slow", Json::Num(slow as f64)),
                ("recent", Json::Arr(trace::recent(32).iter().map(|t| t.to_json()).collect())),
            ]);
            ("200 OK", JSON, doc.render())
        }
        _ => match path.strip_prefix("/trace/").and_then(|id| id.parse::<u64>().ok()) {
            Some(id) => match trace::get(id) {
                Some(t) => ("200 OK", JSON, t.to_json().render()),
                None => ("404 Not Found", TEXT, format!("trace {id} not stored\n")),
            },
            None => ("404 Not Found", TEXT, "not found\n".into()),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_path_and_query_parsing() {
        let req = Request {
            method: "GET".into(),
            target: "/recommend?user=7&k=20#frag".into(),
            keep_alive: true,
            body: Vec::new(),
        };
        assert_eq!(req.path(), "/recommend");
        assert_eq!(req.query("user"), Some("7"));
        assert_eq!(req.query("k"), Some("20"));
        assert_eq!(req.query("missing"), None);
        let bare = Request {
            method: "GET".into(),
            target: "/healthz".into(),
            keep_alive: true,
            body: Vec::new(),
        };
        assert_eq!(bare.path(), "/healthz");
        assert_eq!(bare.query("user"), None);
    }

    #[test]
    fn head_parsing_versions_and_connection_header() {
        let (req, _) = parse_head(b"GET /x HTTP/1.1\r\nHost: a\r\n\r\n").unwrap();
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
        let (req, _) = parse_head(b"GET /x HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!req.keep_alive);
        let (req, _) = parse_head(b"GET /x HTTP/1.0\r\n\r\n").unwrap();
        assert!(!req.keep_alive, "HTTP/1.0 defaults to close");
        let (req, _) = parse_head(b"GET /x HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n").unwrap();
        assert!(req.keep_alive);
        assert!(parse_head(b"\r\n\r\n").is_err());
    }

    #[test]
    fn head_parsing_reads_content_length() {
        let (req, len) =
            parse_head(b"POST /ingest HTTP/1.1\r\nContent-Length: 11\r\n\r\n").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(len, 11);
        assert!(parse_head(b"POST /x HTTP/1.1\r\nContent-Length: junk\r\n\r\n").is_err());
    }

    #[test]
    fn route_ignores_query_strings_and_fragments() {
        // Scrapers append params; every route must resolve with them.
        assert_eq!(route("GET", "/healthz").0, "200 OK");
        assert_eq!(route("GET", "/healthz?probe=1").0, "200 OK");
        assert_eq!(route("GET", "/metrics?ts=1699999999&format=text").0, "200 OK");
        assert_eq!(route("GET", "/snapshot?").0, "200 OK");
        assert_eq!(route("GET", "/traces?limit=5#frag").0, "200 OK");
        // The query is stripped before (not after) prefix matching.
        assert_eq!(route("GET", "/trace/notanumber?x=1").0, "404 Not Found");
        assert_eq!(route("GET", "/nope?x=1").0, "404 Not Found");
    }

    #[test]
    fn route_rejects_non_get() {
        assert_eq!(route("POST", "/metrics").0, "405 Method Not Allowed");
    }
}
