//! A minimal HTTP/1.1 gateway over a CCF node (paper §3.1, §7).
//!
//! The production CCF exposes its endpoints as an HTTP REST API (1.1 and
//! 2) over TLS terminating inside the enclave, with a custom response
//! header carrying the transaction ID. This module reproduces that
//! surface over plain TCP so the examples and tests can exercise the
//! service with ordinary HTTP tooling:
//!
//! * request line + headers + `Content-Length` body parsing (bounded,
//!   bounds-checked — the bytes come from untrusted clients);
//! * caller identity from the `x-ccf-user` / `x-ccf-member` headers
//!   (standing in for the TLS client certificate that the real CCF maps
//!   to a user identity — see DESIGN.md's substitution table);
//! * responses carry `x-ccf-tx-id: <view>.<seqno>` exactly like the
//!   paper's custom header (§7).

use crate::app::{Caller, Request, Response};
use crate::node::CcfNode;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const MAX_HEADERS: usize = 64;
const MAX_LINE: u64 = 8 * 1024;
const MAX_BODY: usize = 1 << 20; // 1 MiB

/// A running HTTP gateway bound to one node.
pub struct HttpGateway {
    /// The local address the gateway is listening on.
    pub addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl HttpGateway {
    /// Starts serving `node` on `127.0.0.1:<port>` (port 0 = ephemeral).
    pub fn serve(node: Arc<CcfNode>, port: u16) -> std::io::Result<HttpGateway> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let handle = std::thread::spawn(move || {
            while !stop2.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let node = node.clone();
                        std::thread::spawn(move || {
                            let _ = handle_connection(stream, &node);
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(std::time::Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
            }
        });
        Ok(HttpGateway { addr, stop, handle: Some(handle) })
    }

    /// Stops accepting connections.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for HttpGateway {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
    }
}

/// Handles one keep-alive connection.
fn handle_connection(stream: TcpStream, node: &CcfNode) -> std::io::Result<()> {
    stream.set_read_timeout(Some(std::time::Duration::from_secs(5)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut stream = stream;
    loop {
        let request = match parse_request(&mut reader) {
            Ok(Some(r)) => r,
            Ok(None) => return Ok(()), // client closed
            Err(msg) => {
                write_response(
                    &mut stream,
                    &Response::error(400, &msg),
                    false,
                )?;
                return Ok(());
            }
        };
        let keep_alive = request.keep_alive;
        let response = node.handle_request(&request.inner);
        write_response(&mut stream, &response, keep_alive)?;
        if !keep_alive {
            return Ok(());
        }
    }
}

struct ParsedRequest {
    inner: Request,
    keep_alive: bool,
}

/// Reads one line of at most `MAX_LINE` bytes; `Ok(None)` if it runs
/// past the cap (a client that never sends `\n` must not grow the buffer
/// without bound).
fn read_line_capped(reader: &mut BufReader<TcpStream>) -> std::io::Result<Option<String>> {
    let mut line = String::new();
    let n = reader.by_ref().take(MAX_LINE).read_line(&mut line)?;
    Ok((n as u64 != MAX_LINE || line.ends_with('\n')).then_some(line))
}

/// Parses one HTTP/1.1 request; `Ok(None)` on clean EOF.
fn parse_request(reader: &mut BufReader<TcpStream>) -> Result<Option<ParsedRequest>, String> {
    let line = match read_line_capped(reader) {
        Ok(Some(line)) if !line.is_empty() => line,
        Ok(Some(_)) | Err(_) => return Ok(None),
        Ok(None) => return Err("request line too long".to_string()),
    };
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or("malformed request line")?.to_string();
    let path = parts.next().ok_or("malformed request line")?.to_string();
    let version = parts.next().unwrap_or("HTTP/1.1");
    if !version.starts_with("HTTP/1.") {
        return Err("unsupported HTTP version".to_string());
    }
    let mut content_length = 0usize;
    let mut caller = Caller::Anonymous;
    let mut keep_alive = true;
    let mut headers = 0;
    loop {
        let header = read_line_capped(reader)
            .map_err(|e| e.to_string())?
            .ok_or("header line too long")?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Err("too many headers".to_string());
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(format!("malformed header {header:?}"));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => {
                content_length =
                    value.parse().map_err(|_| "bad content-length".to_string())?;
                if content_length > MAX_BODY {
                    return Err("body too large".to_string());
                }
            }
            // Stand-in for the TLS client certificate identity.
            "x-ccf-user" => caller = Caller::User(value.to_string()),
            "x-ccf-member" => caller = Caller::Member(value.to_string()),
            "connection" => keep_alive = !value.eq_ignore_ascii_case("close"),
            _ => {}
        }
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        reader.read_exact(&mut body).map_err(|e| e.to_string())?;
    }
    Ok(Some(ParsedRequest {
        inner: Request { method, path, caller, body },
        keep_alive,
    }))
}

fn write_response(
    stream: &mut TcpStream,
    response: &Response,
    keep_alive: bool,
) -> std::io::Result<()> {
    let reason = match response.status {
        200 => "OK",
        307 => "Temporary Redirect",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        409 => "Conflict",
        503 => "Service Unavailable",
        _ => "Status",
    };
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-length: {}\r\n",
        response.status,
        reason,
        response.body.len()
    );
    if let Some(txid) = response.txid {
        // The paper's custom transaction-ID response header (§7).
        head.push_str(&format!("x-ccf-tx-id: {txid}\r\n"));
    }
    if response.status == 307 {
        head.push_str(&format!(
            "location: {}\r\n",
            String::from_utf8_lossy(&response.body)
        ));
    }
    if !keep_alive {
        head.push_str("connection: close\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(&response.body)?;
    stream.flush()
}

/// Status, headers, and body of a raw HTTP response.
pub type RawHttpResponse = (u16, Vec<(String, String)>, Vec<u8>);

/// A tiny HTTP client for tests and examples (method, path, headers,
/// body) → (status, headers, body).
pub fn http_request(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> std::io::Result<RawHttpResponse> {
    let mut stream = TcpStream::connect(addr)?;
    let mut req = format!("{method} {path} HTTP/1.1\r\nhost: ccf\r\ncontent-length: {}\r\nconnection: close\r\n", body.len());
    for (k, v) in headers {
        req.push_str(&format!("{k}: {v}\r\n"));
    }
    req.push_str("\r\n");
    stream.write_all(req.as_bytes())?;
    stream.write_all(body)?;
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line"))?;
    let mut headers_out = Vec::new();
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((k, v)) = line.split_once(':') {
            let k = k.trim().to_ascii_lowercase();
            let v = v.trim().to_string();
            if k == "content-length" {
                content_length = v.parse().unwrap_or(0);
            }
            headers_out.push((k, v));
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok((status, headers_out, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{AppResult, Application, EndpointDef};
    use crate::service::{ServiceCluster, ServiceOpts};

    fn app() -> Application {
        Application::new("http app v1")
            .endpoint(EndpointDef::write("POST", "/log", |ctx| {
                let (id, msg) = ctx.body_kv()?;
                ctx.put_private("msgs", id.as_bytes(), msg.as_bytes());
                AppResult::ok(b"stored".to_vec())
            }))
            .endpoint(EndpointDef::read("GET", "/log", |ctx| {
                let id = ctx.query("id")?;
                match ctx.get_private("msgs", id.as_bytes()) {
                    Some(v) => AppResult::ok(v),
                    None => AppResult::not_found("missing"),
                }
            }))
    }

    /// Serves the primary of an open one-node service. A one-node write
    /// answers 200 without the cluster being stepped, so nothing steps it.
    fn serve_single_node() -> HttpGateway {
        let mut service = ServiceCluster::start(
            ServiceOpts { nodes: 1, members: 1, seed: 4242, ..ServiceOpts::default() },
            std::sync::Arc::new(app()),
        );
        service.open_service();
        let primary = service.primary().unwrap();
        HttpGateway::serve(service.nodes[&primary].clone(), 0).unwrap()
    }

    #[test]
    fn http_write_read_roundtrip_with_txid_header() {
        let gw = serve_single_node();
        let (status, headers, body) = http_request(
            gw.addr,
            "POST",
            "/log",
            &[("x-ccf-user", "user0")],
            b"42=over http",
        )
        .unwrap();
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
        assert_eq!(body, b"stored");
        // The paper's custom transaction-ID header.
        let txid = headers
            .iter()
            .find(|(k, _)| k == "x-ccf-tx-id")
            .map(|(_, v)| v.clone())
            .expect("x-ccf-tx-id header");
        assert!(txid.contains('.'), "txid format view.seqno: {txid}");

        let (status, _, body) =
            http_request(gw.addr, "GET", "/log?id=42", &[("x-ccf-user", "user0")], b"").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"over http");
        gw.stop();
    }

    #[test]
    fn http_auth_and_errors() {
        let gw = serve_single_node();
        // No identity header → anonymous → 403 on a UserCert endpoint.
        let (status, _, _) = http_request(gw.addr, "GET", "/log?id=1", &[], b"").unwrap();
        assert_eq!(status, 403);
        // Unknown user.
        let (status, _, _) =
            http_request(gw.addr, "GET", "/log?id=1", &[("x-ccf-user", "mallory")], b"").unwrap();
        assert_eq!(status, 403);
        // Unknown route.
        let (status, _, _) =
            http_request(gw.addr, "GET", "/nope", &[("x-ccf-user", "user0")], b"").unwrap();
        assert_eq!(status, 404);
        // Built-in endpoint works over HTTP too.
        let (status, _, body) =
            http_request(gw.addr, "GET", "/node/network", &[("x-ccf-user", "user0")], b"")
                .unwrap();
        assert_eq!(status, 200);
        assert!(String::from_utf8_lossy(&body).contains("commit"));
        gw.stop();
    }

    #[test]
    fn http_rejects_malformed_requests() {
        let gw = serve_single_node();
        // Raw garbage gets a 400 (and the server must not crash).
        let mut s = TcpStream::connect(gw.addr).unwrap();
        s.write_all(b"NOT-HTTP\r\n\r\n").unwrap();
        let mut buf = String::new();
        let _ = BufReader::new(s).read_line(&mut buf);
        assert!(buf.starts_with("HTTP/1.1 400"), "{buf}");
        // Oversized content-length is refused.
        let mut s = TcpStream::connect(gw.addr).unwrap();
        s.write_all(b"POST /log HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n").unwrap();
        let mut buf = String::new();
        let _ = BufReader::new(s).read_line(&mut buf);
        assert!(buf.starts_with("HTTP/1.1 400"), "{buf}");
        // A line that never ends is cut at the cap, not buffered forever.
        let mut s = TcpStream::connect(gw.addr).unwrap();
        s.write_all(&[b'a'; MAX_LINE as usize]).unwrap();
        let mut buf = String::new();
        let _ = BufReader::new(s).read_line(&mut buf);
        assert!(buf.starts_with("HTTP/1.1 400"), "{buf}");
        // Past MAX_HEADERS the request is refused; the extra header must
        // not be parsed as a second request on the same connection.
        let mut s = TcpStream::connect(gw.addr).unwrap();
        let mut req = b"GET /log?id=1 HTTP/1.1\r\n".to_vec();
        for _ in 0..=MAX_HEADERS {
            req.extend_from_slice(b"x-h: v\r\n");
        }
        req.extend_from_slice(b"\r\n");
        s.write_all(&req).unwrap();
        let mut all = String::new();
        let _ = BufReader::new(s).read_to_string(&mut all);
        assert!(all.starts_with("HTTP/1.1 400"), "{all}");
        assert_eq!(all.matches("HTTP/1.1 ").count(), 1, "{all}");
        gw.stop();
    }
}
