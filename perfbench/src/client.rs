//! A minimal HTTP/1.1 keep-alive client for the load generator.
//!
//! One [`Conn`] is one persistent loopback connection; requests on it are
//! strictly sequential (no pipelining). Response framing lives in
//! [`ResponseReader`], which is fed whatever bytes a `read` returned and
//! yields a response only once it is complete, so split reads at any byte
//! boundary frame identically.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    pub status: u16,
    /// Header names lower-cased.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Response {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    pub fn body_text(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

/// Incremental response framer: Content-Length bodies, and statuses that
/// never carry a body (1xx, 204, 304) whatever their headers say.
#[derive(Debug, Default)]
pub struct ResponseReader {
    buf: Vec<u8>,
}

impl ResponseReader {
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete response, if the buffered bytes hold one.
    pub fn try_next(&mut self) -> Result<Option<Response>, String> {
        let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| "response head is not UTF-8".to_string())?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or("");
        let mut parts = status_line.splitn(3, ' ');
        let version = parts.next().unwrap_or("");
        if !version.starts_with("HTTP/1.") {
            return Err(format!("bad status line {status_line:?}"));
        }
        let status: u16 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line {status_line:?}"))?;
        let mut headers = Vec::new();
        let mut content_length = None;
        for line in lines {
            let (k, v) = line
                .split_once(':')
                .ok_or_else(|| format!("bad header line {line:?}"))?;
            let (k, v) = (k.trim().to_ascii_lowercase(), v.trim().to_string());
            if k == "content-length" {
                content_length = Some(
                    v.parse::<usize>()
                        .map_err(|_| format!("bad content-length {v:?}"))?,
                );
            }
            if k == "transfer-encoding" {
                return Err("chunked responses are not expected from this server".into());
            }
            headers.push((k, v));
        }
        let bodiless = status / 100 == 1 || status == 204 || status == 304;
        let body_len = if bodiless {
            0
        } else {
            content_length.ok_or("response without content-length")?
        };
        let total = head_end + 4 + body_len;
        if self.buf.len() < total {
            return Ok(None);
        }
        let body = self.buf[head_end + 4..total].to_vec();
        self.buf.drain(..total);
        Ok(Some(Response {
            status,
            headers,
            body,
        }))
    }
}

/// Serialize one request. Authenticated requests carry the tenant header
/// and an `Authorization: Bearer` session token.
pub fn encode_request(
    method: &str,
    path: &str,
    auth: Option<(&str, &str)>,
    body: &[u8],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(160 + body.len());
    out.extend_from_slice(format!("{method} {path} HTTP/1.1\r\nHost: bench\r\n").as_bytes());
    if let Some((tenant, token)) = auth {
        out.extend_from_slice(
            format!("x-tenant: {tenant}\r\nAuthorization: Bearer {token}\r\n").as_bytes(),
        );
    }
    out.extend_from_slice(format!("Content-Length: {}\r\n\r\n", body.len()).as_bytes());
    out.extend_from_slice(body);
    out
}

/// A persistent connection.
pub struct Conn {
    stream: TcpStream,
    reader: ResponseReader,
    chunk: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(90)))?;
        Ok(Conn {
            stream,
            reader: ResponseReader::default(),
            chunk: vec![0; 64 * 1024],
        })
    }

    /// Send one serialized request.
    pub fn send(&mut self, request: &[u8]) -> Result<(), String> {
        self.stream
            .write_all(request)
            .map_err(|e| format!("send: {e}"))
    }

    /// Block until the next response has arrived in full.
    pub fn recv(&mut self) -> Result<Response, String> {
        loop {
            if let Some(r) = self.reader.try_next()? {
                return Ok(r);
            }
            let n = self
                .stream
                .read(&mut self.chunk)
                .map_err(|e| format!("recv: {e}"))?;
            if n == 0 {
                return Err("connection closed mid-response".into());
            }
            self.reader.feed(&self.chunk[..n]);
        }
    }

    /// Send and wait for the reply.
    pub fn call(&mut self, request: &[u8]) -> Result<Response, String> {
        self.send(request)?;
        self.recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TWO: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
Content-Length: 11\r\nConnection: keep-alive\r\n\r\n{\"ok\":true}\
HTTP/1.1 204 No Content\r\nX-Watch-Cursor: 7\r\nContent-Length: 0\r\n\r\n";

    fn frame_in_chunks(bytes: &[u8], chunk: usize) -> Vec<Response> {
        let mut r = ResponseReader::default();
        let mut out = Vec::new();
        for piece in bytes.chunks(chunk) {
            r.feed(piece);
            while let Some(resp) = r.try_next().unwrap() {
                out.push(resp);
            }
        }
        out
    }

    #[test]
    fn split_reads_frame_identically_at_every_chunk_size() {
        let whole = frame_in_chunks(TWO, TWO.len());
        assert_eq!(whole.len(), 2);
        assert_eq!(whole[0].status, 200);
        assert_eq!(whole[0].body_text(), "{\"ok\":true}");
        assert_eq!(whole[1].status, 204);
        assert_eq!(whole[1].header("x-watch-cursor"), Some("7"));
        assert!(whole[1].body.is_empty());
        for chunk in 1..TWO.len() {
            assert_eq!(frame_in_chunks(TWO, chunk), whole, "chunk size {chunk}");
        }
    }

    #[test]
    fn incomplete_body_waits_for_more_bytes() {
        let mut r = ResponseReader::default();
        r.feed(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nab");
        assert_eq!(r.try_next().unwrap(), None);
        r.feed(b"cde");
        assert_eq!(r.try_next().unwrap().unwrap().body, b"abcde");
        assert_eq!(r.try_next().unwrap(), None);
    }

    #[test]
    fn a_204_without_content_length_has_no_body() {
        let mut r = ResponseReader::default();
        r.feed(b"HTTP/1.1 204 No Content\r\nX-Watch-Cursor: 3\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi");
        let first = r.try_next().unwrap().unwrap();
        assert_eq!((first.status, first.body.len()), (204, 0));
        assert_eq!(r.try_next().unwrap().unwrap().body, b"hi");
    }

    #[test]
    fn malformed_responses_are_errors() {
        let mut r = ResponseReader::default();
        r.feed(b"SMTP 220 hello\r\n\r\n");
        assert!(r.try_next().is_err());
        let mut r = ResponseReader::default();
        r.feed(b"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n");
        assert!(r.try_next().is_err());
    }

    #[test]
    fn request_encoding_carries_bearer_auth() {
        let req = encode_request("POST", "/api/v1/sql", Some(("t1", "tok")), b"SELECT 1");
        let text = String::from_utf8(req).unwrap();
        assert!(text.starts_with("POST /api/v1/sql HTTP/1.1\r\n"));
        assert!(text.contains("x-tenant: t1\r\nAuthorization: Bearer tok\r\n"));
        assert!(text.ends_with("Content-Length: 8\r\n\r\nSELECT 1"));
    }
}
