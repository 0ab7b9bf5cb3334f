//! The benchmark's own HTTP/1.1 client: one keep-alive connection, one
//! request in flight, bodies delimited by `Content-Length`.
//!
//! It exists so that the load on the wire workloads is not generated by
//! `imcat_net::loadgen`, which is code of the program a later change may
//! alter. Buffers are reused across requests, so the client's own cost in
//! `cpu_us_per_op` stays small and constant.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Responses larger than this are malformed for this server.
const MAX_RESPONSE: usize = 1 << 20;

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

pub struct Client<S> {
    stream: S,
    /// Bytes received and not yet consumed; the last response sits at the
    /// front until the next request is sent.
    buf: Vec<u8>,
    /// End of the last response inside `buf`.
    consumed: usize,
    body: std::ops::Range<usize>,
    request: Vec<u8>,
}

impl Client<TcpStream> {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A hung server must fail the run, not hang it.
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        Ok(Self::new(stream))
    }
}

impl<S: Read + Write> Client<S> {
    pub fn new(stream: S) -> Self {
        Self {
            stream,
            buf: Vec::with_capacity(4096),
            consumed: 0,
            body: 0..0,
            request: Vec::with_capacity(128),
        }
    }

    /// Sends `GET target` and reads the whole response; returns its status.
    /// The body stays readable through [`Client::body`] until the next call.
    pub fn get(&mut self, target: &str) -> io::Result<u16> {
        self.request.clear();
        self.request.extend_from_slice(b"GET ");
        self.request.extend_from_slice(target.as_bytes());
        self.request.extend_from_slice(b" HTTP/1.1\r\nHost: perf\r\n\r\n");
        self.stream.write_all(&self.request)?;

        // Bytes past the previous response belong to this one; until it has
        // arrived whole there is no body to read.
        self.buf.drain(..self.consumed);
        self.consumed = 0;
        self.body = 0..0;
        let mut scanned = 0usize;
        let head_end = loop {
            let from = scanned.saturating_sub(3);
            if let Some(p) = self.buf[from..].windows(4).position(|w| w == b"\r\n\r\n") {
                break from + p + 4;
            }
            scanned = self.buf.len();
            self.fill()?;
        };
        let (status, len) = parse_head(&self.buf[..head_end])?;
        if len > MAX_RESPONSE {
            return Err(invalid("response body too large"));
        }
        while self.buf.len() < head_end + len {
            self.fill()?;
        }
        self.body = head_end..head_end + len;
        self.consumed = head_end + len;
        Ok(status)
    }

    /// Body of the last response; empty after a `get` that failed.
    pub fn body(&self) -> &[u8] {
        &self.buf[self.body.clone()]
    }

    /// Head and body size of the last response.
    pub fn response_bytes(&self) -> usize {
        self.consumed
    }

    fn fill(&mut self) -> io::Result<()> {
        if self.buf.len() > MAX_RESPONSE {
            return Err(invalid("response too large"));
        }
        let mut chunk = [0u8; 4096];
        match self.stream.read(&mut chunk)? {
            0 => Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed mid-response")),
            n => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
        }
    }
}

/// Status code and `Content-Length` of a response head.
fn parse_head(head: &[u8]) -> io::Result<(u16, usize)> {
    let text = std::str::from_utf8(head).map_err(|_| invalid("response head is not UTF-8"))?;
    let mut lines = text.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid("malformed status line"))?;
    let len = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(name, _)| name.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok())
        .ok_or_else(|| invalid("missing content-length"))?;
    Ok((status, len))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stream that hands out its script in pieces of the given sizes and
    /// records what was written to it.
    struct Scripted {
        data: Vec<u8>,
        pos: usize,
        pieces: Vec<usize>,
        written: Vec<u8>,
    }

    impl Read for Scripted {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let left = self.data.len() - self.pos;
            let piece = if self.pieces.is_empty() { left } else { self.pieces.remove(0) };
            let n = piece.min(left).min(out.len());
            out[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    impl Write for Scripted {
        fn write(&mut self, data: &[u8]) -> io::Result<usize> {
            self.written.extend_from_slice(data);
            Ok(data.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn response(status: &str, body: &str) -> String {
        format!("HTTP/1.1 {status}\r\nContent-Type: text/plain\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}", body.len())
    }

    #[test]
    fn reads_a_response_split_inside_the_terminator_and_the_body() {
        let data = response("200 OK", "{\"items\":[1,2,3]}").into_bytes();
        let cut = data.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 2;
        let stream = Scripted { data, pos: 0, pieces: vec![5, cut - 5, 3, 4], written: Vec::new() };
        let mut client = Client::new(stream);
        assert_eq!(client.get("/recommend?user=1&k=3").unwrap(), 200);
        assert_eq!(client.body(), b"{\"items\":[1,2,3]}");
        assert_eq!(
            client.stream.written,
            b"GET /recommend?user=1&k=3 HTTP/1.1\r\nHost: perf\r\n\r\n".to_vec()
        );
    }

    #[test]
    fn leftover_bytes_of_one_read_start_the_next_response() {
        // Both responses arrive in a single read, as on a keep-alive
        // connection whose peer answered ahead.
        let data = format!("{}{}", response("200 OK", "first"), response("503 Busy", "second!"));
        let stream = Scripted { data: data.into_bytes(), pos: 0, pieces: vec![], written: vec![] };
        let mut client = Client::new(stream);
        assert_eq!(client.get("/a").unwrap(), 200);
        assert_eq!(client.body(), b"first");
        assert_eq!(client.get("/b").unwrap(), 503);
        assert_eq!(client.body(), b"second!");
        assert_eq!(client.response_bytes(), response("503 Busy", "second!").len());
    }

    #[test]
    fn a_failed_request_leaves_no_body_of_the_one_before() {
        // One whole response, then the peer closes in the middle of the next.
        let data = format!("{}HTTP/1.1 200 OK\r\nContent-Le", response("200 OK", "first"));
        let stream = Scripted { data: data.into_bytes(), pos: 0, pieces: vec![], written: vec![] };
        let mut client = Client::new(stream);
        assert_eq!(client.get("/a").unwrap(), 200);
        assert_eq!(client.body(), b"first");
        assert_eq!(client.get("/b").unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
        assert_eq!(client.body(), b"");
    }

    #[test]
    fn a_closed_or_malformed_stream_is_an_error() {
        let cut = Scripted {
            data: b"HTTP/1.1 200 OK\r\nContent-Le".to_vec(),
            pos: 0,
            pieces: vec![],
            written: vec![],
        };
        assert_eq!(Client::new(cut).get("/").unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
        let no_len = Scripted {
            data: b"HTTP/1.1 200 OK\r\n\r\n".to_vec(),
            pos: 0,
            pieces: vec![],
            written: vec![],
        };
        assert_eq!(Client::new(no_len).get("/").unwrap_err().kind(), io::ErrorKind::InvalidData);
    }
}
