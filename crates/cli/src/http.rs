//! Minimal HTTP/1.1 plumbing shared by `fastbfs serve` (server side) and
//! `fastbfs loadgen` (client side).
//!
//! Deliberately tiny: plain `std::net` sockets, one request per
//! connection, `Connection: close` on every response, no async runtime,
//! no keep-alive, no chunked encoding. The query server's unit of work is
//! a BFS traversal — connection setup is noise next to it — and the load
//! generator *wants* fresh connections so a stalled request never blocks
//! the next scheduled arrival.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Request head size cap (status line + headers).
const MAX_HEAD: usize = 16 * 1024;
/// Request body size cap (batched-query POST bodies).
const MAX_BODY: usize = 1024 * 1024;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    /// Path with the query string stripped.
    pub path: String,
    /// Query parameters in order of appearance, raw (no percent-decoding:
    /// every parameter this server defines is numeric).
    pub params: Vec<(String, String)>,
    /// Headers in order of appearance, names lowercased, values trimmed
    /// (header names are case-insensitive per RFC 9110).
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Request {
    /// First value of query parameter `key`.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// First value of header `name` (matched case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum RequestError {
    /// Transport-level failure (reset, timeout, empty read): nothing to
    /// respond to — the caller just drops the connection.
    Io,
    /// The bytes arrived but are not a well-formed request: the caller
    /// should answer 400 with this message.
    Bad(&'static str),
}

/// Reads and parses one request from the stream.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, RequestError> {
    let mut buf = [0u8; 4096];
    let mut data: Vec<u8> = Vec::new();
    let head_end = loop {
        if let Some(pos) = find_head_end(&data) {
            break pos;
        }
        if data.len() > MAX_HEAD {
            return Err(RequestError::Bad("request head too large"));
        }
        let n = stream.read(&mut buf).map_err(|_| RequestError::Io)?;
        if n == 0 {
            if data.is_empty() {
                return Err(RequestError::Io);
            }
            return Err(RequestError::Bad("truncated request head"));
        }
        data.extend_from_slice(&buf[..n]);
    };
    let head = std::str::from_utf8(&data[..head_end])
        .map_err(|_| RequestError::Bad("request head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or(RequestError::Bad("empty request"))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or(RequestError::Bad("missing method"))?
        .to_string();
    let target = parts.next().ok_or(RequestError::Bad("missing path"))?;
    if parts.next().is_none() {
        return Err(RequestError::Bad("missing HTTP version"));
    }

    let mut content_length = 0usize;
    let mut headers = Vec::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| RequestError::Bad("bad Content-Length"))?;
            }
            headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    if content_length > MAX_BODY {
        return Err(RequestError::Bad("request body too large"));
    }

    let mut body = data[head_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut buf).map_err(|_| RequestError::Io)?;
        if n == 0 {
            return Err(RequestError::Bad("truncated request body"));
        }
        body.extend_from_slice(&buf[..n]);
    }
    body.truncate(content_length);

    let (path, params) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), parse_query(q)),
        None => (target.to_string(), Vec::new()),
    };
    Ok(Request {
        method,
        path,
        params,
        headers,
        body,
    })
}

fn find_head_end(data: &[u8]) -> Option<usize> {
    data.windows(4).position(|w| w == b"\r\n\r\n")
}

fn parse_query(q: &str) -> Vec<(String, String)> {
    q.split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (kv.to_string(), String::new()),
        })
        .collect()
}

/// Writes one complete response and flushes. Errors are swallowed: the
/// peer hanging up mid-response is its problem, not the server's.
pub fn write_response(stream: &mut TcpStream, status: u16, ctype: &str, body: &[u8]) {
    write_response_with_headers(stream, status, ctype, &[], body);
}

/// [`write_response`] with extra response headers (e.g. `Retry-After` on
/// shed responses). Header names and values must already be valid header
/// text; this layer does no escaping.
pub fn write_response_with_headers(
    stream: &mut TcpStream,
    status: u16,
    ctype: &str,
    extra: &[(&str, &str)],
    body: &[u8],
) {
    let extra: String = extra.iter().map(|(k, v)| format!("{k}: {v}\r\n")).collect();
    let _ = write!(
        stream,
        "HTTP/1.1 {status} {}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\n{extra}Connection: close\r\n\r\n",
        reason(status),
        body.len()
    );
    let _ = stream.write_all(body);
    let _ = stream.flush();
}

/// The reason phrase of every status the server answers with.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        422 => "Unprocessable Entity",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "",
    }
}

/// A client-side response.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    /// Response headers in order of appearance, names lowercased. Only
    /// the tests read headers today (`Retry-After` assertions); the
    /// production clients key off status and body.
    #[cfg_attr(not(test), allow(dead_code))]
    pub headers: Vec<(String, String)>,
    pub body: String,
}

impl Response {
    pub fn ok(&self) -> bool {
        self.status == 200
    }

    /// First value of response header `name` (case-insensitive).
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Strips the scheme and any trailing slash from a base URL, leaving
/// `host:port` for `TcpStream::connect`.
pub fn host_of(url: &str) -> Result<String, String> {
    let rest = url.strip_prefix("http://").unwrap_or(url);
    if rest.starts_with("https://") || url.starts_with("https://") {
        return Err("https is not supported; use http://host:port".into());
    }
    let host = rest.trim_end_matches('/');
    if host.is_empty() {
        return Err(format!("no host in URL {url:?}"));
    }
    Ok(host.to_string())
}

/// One GET over a fresh connection; reads to EOF (`Connection: close`).
pub fn get(host: &str, path: &str, timeout: Duration) -> Result<Response, String> {
    request(host, "GET", path, &[], None, timeout)
}

/// [`get`] with extra request headers: `loadgen` stamps its `Trace-Id`
/// on every request, and the serve tests send per-request `Deadline-Ms`
/// budgets this way.
pub fn get_with_headers(
    host: &str,
    path: &str,
    headers: &[(&str, &str)],
    timeout: Duration,
) -> Result<Response, String> {
    request(host, "GET", path, headers, None, timeout)
}

/// One POST with a JSON body over a fresh connection. The production
/// path only GETs (loadgen); the batched-POST client is exercised by the
/// serve tests.
#[cfg_attr(not(test), allow(dead_code))]
pub fn post_json(
    host: &str,
    path: &str,
    body: &str,
    timeout: Duration,
) -> Result<Response, String> {
    request(host, "POST", path, &[], Some(body), timeout)
}

fn request(
    host: &str,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: Option<&str>,
    timeout: Duration,
) -> Result<Response, String> {
    let mut stream = TcpStream::connect(host).map_err(|e| format!("connect {host}: {e}"))?;
    stream.set_read_timeout(Some(timeout)).ok();
    stream.set_write_timeout(Some(timeout)).ok();
    let body = body.unwrap_or("");
    let extra: String = headers
        .iter()
        .map(|(k, v)| format!("{k}: {v}\r\n"))
        .collect();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {host}\r\nContent-Length: {}\r\n{extra}Connection: close\r\n\r\n{body}",
        body.len()
    )
    .map_err(|e| format!("send {path}: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("read {path}: {e}"))?;
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed response to {path}"))?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .map(|(h, b)| (h.to_string(), b.to_string()))
        .unwrap_or((raw.clone(), String::new()));
    let headers = head
        .split("\r\n")
        .skip(1)
        .filter_map(|line| line.split_once(':'))
        .map(|(k, v)| (k.to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    Ok(Response {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn parses_query_strings_and_bodies() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let req = read_request(&mut s).unwrap();
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/query");
            assert_eq!(req.param("src"), Some("17"));
            assert_eq!(req.param("dst"), Some("4"));
            assert_eq!(req.param("missing"), None);
            // Header names match case-insensitively; values are trimmed.
            assert_eq!(req.header("content-length"), Some("17"));
            assert_eq!(req.header("HOST"), req.header("host"));
            assert!(req.header("host").is_some());
            assert_eq!(req.header("deadline-ms"), None);
            assert_eq!(req.body, b"{\"sources\":[1,2]}");
            write_response(&mut s, 200, "application/json", b"{\"ok\":true}");
        });
        let resp = post_json(
            &addr.to_string(),
            "/query?src=17&dst=4",
            "{\"sources\":[1,2]}",
            Duration::from_secs(2),
        )
        .unwrap();
        server.join().unwrap();
        assert!(resp.ok());
        assert_eq!(resp.body, "{\"ok\":true}");
    }

    #[test]
    fn client_extra_headers_reach_the_server() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let req = read_request(&mut s).unwrap();
            assert_eq!(req.header("deadline-ms"), Some("25"));
            write_response(&mut s, 200, "application/json", b"{}");
        });
        let resp = get_with_headers(
            &addr.to_string(),
            "/query?src=1",
            &[("Deadline-Ms", "25")],
            Duration::from_secs(2),
        )
        .unwrap();
        server.join().unwrap();
        assert!(resp.ok());
    }

    #[test]
    fn extra_response_headers_round_trip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let _ = read_request(&mut s);
            write_response_with_headers(
                &mut s,
                503,
                "application/json",
                &[("Retry-After", "3")],
                b"{\"error\":\"shed\"}",
            );
        });
        let resp = get(&addr.to_string(), "/query", Duration::from_secs(2)).unwrap();
        server.join().unwrap();
        assert_eq!(resp.status, 503);
        assert_eq!(resp.header("retry-after"), Some("3"));
        assert_eq!(resp.header("RETRY-AFTER"), Some("3"));
        assert_eq!(resp.header("content-type"), Some("application/json"));
        assert_eq!(resp.header("absent"), None);
        assert_eq!(resp.body, "{\"error\":\"shed\"}");
    }

    #[test]
    fn host_of_strips_scheme_and_slash() {
        assert_eq!(host_of("http://127.0.0.1:9464/").unwrap(), "127.0.0.1:9464");
        assert_eq!(host_of("localhost:80").unwrap(), "localhost:80");
        assert!(host_of("https://x").is_err());
        assert!(host_of("http://").is_err());
    }
}
