//! HTTP/1.1 as a byte codec over a CCF node (paper §3.1, §7).
//!
//! The production CCF exposes its endpoints as an HTTP REST API (1.1 and
//! 2) over TLS terminating inside the enclave, with a custom response
//! header carrying the transaction ID. The enclave parses HTTP itself:
//! the untrusted host only moves bytes between client sockets and the
//! node. This module is the enclave's half. [`serve`] takes the bytes a
//! client sent and returns the bytes to send back; it owns no socket and
//! no thread.
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

const MAX_HEADERS: usize = 64;
const MAX_LINE: usize = 8 * 1024;
const MAX_BODY: usize = 1 << 20; // 1 MiB

/// Answers every complete request in `input`, in order, as one keep-alive
/// connection would: it stops after a 400 (the connection closes) or
/// after a request with `connection: close`. An incomplete request at the
/// end gets no response.
pub fn serve(node: &CcfNode, input: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut rest = input;
    loop {
        match parse_request(rest) {
            Ok(Some((request, keep_alive, consumed))) => {
                rest = &rest[consumed..];
                out.extend(encode_response(&node.handle_request(&request), keep_alive));
                if !keep_alive {
                    return out;
                }
            }
            Ok(None) => return out,
            Err(msg) => {
                out.extend(encode_response(&Response::error(400, &msg), false));
                return out;
            }
        }
    }
}

/// The line starting at `*pos`, without its `\n`; advances `*pos` past
/// it. `Ok(None)` if its `\n` has not arrived yet. A line whose first
/// `MAX_LINE` bytes hold no `\n` is an error: a client that never sends
/// one must not grow the buffer without bound.
fn next_line<'a>(input: &'a [u8], pos: &mut usize) -> Result<Option<&'a str>, String> {
    let rest = &input[*pos..];
    let Some(end) = rest.iter().take(MAX_LINE).position(|&b| b == b'\n') else {
        return if rest.len() >= MAX_LINE { Err("line too long".to_string()) } else { Ok(None) };
    };
    *pos += end + 1;
    let line = std::str::from_utf8(&rest[..end]).map_err(|_| "line is not UTF-8".to_string())?;
    Ok(Some(line))
}

/// Parses the HTTP/1.1 request at the start of `input`: the request,
/// whether the connection stays open after it, and how many bytes it
/// took. `Ok(None)` if `input` does not yet hold a complete request.
pub fn parse_request(input: &[u8]) -> Result<Option<(Request, bool, usize)>, String> {
    let mut pos = 0;
    let Some(line) = next_line(input, &mut pos)? else { return Ok(None) };
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
        let Some(header) = next_line(input, &mut pos)? else { return Ok(None) };
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
    let end = pos + content_length;
    let Some(body) = input.get(pos..end) else { return Ok(None) };
    let request = Request { method, path, caller, body: body.to_vec() };
    Ok(Some((request, keep_alive, end)))
}

/// Encodes `response`; without `keep_alive` it tells the client that the
/// connection closes.
pub fn encode_response(response: &Response, keep_alive: bool) -> Vec<u8> {
    let reason = match response.status {
        200 => "OK",
        307 => "Temporary Redirect",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
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
    let mut out = head.into_bytes();
    out.extend_from_slice(&response.body);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{AppResult, Application, EndpointDef};
    use crate::service::{ServiceCluster, ServiceOpts};
    use proptest::prelude::*;
    use std::sync::Arc;

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

    /// The primary of an open one-node service. A one-node write answers
    /// 200 without the cluster being stepped, so nothing steps it.
    fn single_node() -> Arc<CcfNode> {
        let mut service = ServiceCluster::start(
            ServiceOpts { nodes: 1, members: 1, seed: 4242, ..ServiceOpts::default() },
            Arc::new(app()),
        );
        service.open_service();
        let primary = service.primary().unwrap();
        service.nodes[&primary].clone()
    }

    /// The bytes of one request; `close` adds `connection: close`.
    fn request(
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
        close: bool,
    ) -> Vec<u8> {
        let mut req = format!("{method} {path} HTTP/1.1\r\ncontent-length: {}\r\n", body.len());
        if close {
            req.push_str("connection: close\r\n");
        }
        for (k, v) in headers {
            req.push_str(&format!("{k}: {v}\r\n"));
        }
        req.push_str("\r\n");
        let mut out = req.into_bytes();
        out.extend_from_slice(body);
        out
    }

    type Parsed = (u16, Vec<(String, String)>, Vec<u8>);

    /// Splits `serve`'s output into (status, lowercased headers, body).
    fn responses(mut bytes: &[u8]) -> Vec<Parsed> {
        let mut out = Vec::new();
        while !bytes.is_empty() {
            let head_end = bytes.windows(4).position(|w| w == b"\r\n\r\n").expect("head ends");
            let head = std::str::from_utf8(&bytes[..head_end]).unwrap();
            let mut lines = head.split("\r\n");
            let status = lines.next().unwrap().split_whitespace().nth(1).unwrap().parse().unwrap();
            let headers: Vec<(String, String)> = lines
                .map(|l| {
                    let (k, v) = l.split_once(':').unwrap();
                    (k.trim().to_ascii_lowercase(), v.trim().to_string())
                })
                .collect();
            let len = headers.iter().find(|(k, _)| k == "content-length").unwrap();
            let len: usize = len.1.parse().unwrap();
            let body_start = head_end + 4;
            out.push((status, headers, bytes[body_start..body_start + len].to_vec()));
            bytes = &bytes[body_start + len..];
        }
        out
    }

    /// Serves one `connection: close` request and returns its response.
    fn call(
        node: &CcfNode,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> Parsed {
        let mut out = responses(&serve(node, &request(method, path, headers, body, true)));
        assert_eq!(out.len(), 1);
        out.remove(0)
    }

    #[test]
    fn http_write_read_roundtrip_with_txid_header() {
        let node = single_node();
        let (status, headers, body) =
            call(&node, "POST", "/log", &[("x-ccf-user", "user0")], b"42=over http");
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
        assert_eq!(body, b"stored");
        // The paper's custom transaction-ID header.
        let txid = headers
            .iter()
            .find(|(k, _)| k == "x-ccf-tx-id")
            .map(|(_, v)| v.clone())
            .expect("x-ccf-tx-id header");
        assert!(txid.contains('.'), "txid format view.seqno: {txid}");

        let (status, _, body) = call(&node, "GET", "/log?id=42", &[("x-ccf-user", "user0")], b"");
        assert_eq!(status, 200);
        assert_eq!(body, b"over http");
    }

    #[test]
    fn http_auth_and_errors() {
        let node = single_node();
        // No identity header → anonymous → 403 on a UserCert endpoint.
        let (status, _, _) = call(&node, "GET", "/log?id=1", &[], b"");
        assert_eq!(status, 403);
        // Unknown user.
        let (status, _, _) = call(&node, "GET", "/log?id=1", &[("x-ccf-user", "mallory")], b"");
        assert_eq!(status, 403);
        // Unknown route.
        let (status, _, _) = call(&node, "GET", "/nope", &[("x-ccf-user", "user0")], b"");
        assert_eq!(status, 404);
        // Built-in endpoint works over HTTP too.
        let (status, _, body) =
            call(&node, "GET", "/node/network", &[("x-ccf-user", "user0")], b"");
        assert_eq!(status, 200);
        assert!(String::from_utf8_lossy(&body).contains("commit"));
    }

    #[test]
    fn http_rejects_malformed_requests() {
        let node = single_node();
        let answer = |input: &[u8]| String::from_utf8_lossy(&serve(&node, input)).into_owned();
        // Raw garbage gets a 400 (and the node must not crash).
        let out = answer(b"NOT-HTTP\r\n\r\n");
        assert!(out.starts_with("HTTP/1.1 400"), "{out}");
        // Oversized content-length is refused.
        let out = answer(b"POST /log HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n");
        assert!(out.starts_with("HTTP/1.1 400"), "{out}");
        // A line that never ends is cut at the cap, not buffered forever.
        let out = answer(&[b'a'; MAX_LINE]);
        assert!(out.starts_with("HTTP/1.1 400"), "{out}");
        // Past MAX_HEADERS the request is refused; the extra header must
        // not be parsed as a second request on the same connection.
        let mut req = b"GET /log?id=1 HTTP/1.1\r\n".to_vec();
        for _ in 0..=MAX_HEADERS {
            req.extend_from_slice(b"x-h: v\r\n");
        }
        req.extend_from_slice(b"\r\n");
        let out = answer(&req);
        assert!(out.starts_with("HTTP/1.1 400"), "{out}");
        assert_eq!(out.matches("HTTP/1.1 ").count(), 1, "{out}");
    }

    #[test]
    fn http_pipelined_keep_alive_requests_are_answered_in_order() {
        let node = single_node();
        let user = [("x-ccf-user", "user0")];
        let mut input = request("POST", "/log", &user, b"7=pipelined", false);
        input.extend(request("GET", "/log?id=7", &user, b"", false));
        // A third request, cut short, waits for the rest of its bytes.
        input.extend_from_slice(b"GET /log?id=7 HTTP/1.1\r\n");
        let out = responses(&serve(&node, &input));
        assert_eq!(out.len(), 2);
        assert_eq!((out[0].0, out[0].2.as_slice()), (200, &b"stored"[..]));
        assert_eq!((out[1].0, out[1].2.as_slice()), (200, &b"pipelined"[..]));
        assert!(out.iter().all(|(_, h, _)| !h.iter().any(|(k, _)| k == "connection")));
    }

    #[test]
    fn every_strict_prefix_of_a_request_needs_more_bytes() {
        let req = request("POST", "/log", &[("x-ccf-user", "user0")], b"42=over http", false);
        for len in 0..req.len() {
            assert!(matches!(parse_request(&req[..len]), Ok(None)), "prefix of {len} bytes");
        }
        let (parsed, keep_alive, consumed) = parse_request(&req).unwrap().unwrap();
        assert_eq!((parsed.method.as_str(), parsed.path.as_str()), ("POST", "/log"));
        assert_eq!(parsed.caller, Caller::User("user0".to_string()));
        assert_eq!(parsed.body, b"42=over http");
        assert!(keep_alive);
        assert_eq!(consumed, req.len());
    }

    /// Pieces that make the arbitrary inputs below look like HTTP often
    /// enough to reach every branch of the parser.
    fn piece() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            Just(b"GET /log?id=1 HTTP/1.1\r\n".to_vec()),
            Just(b"POST /log HTTP/1.0\n".to_vec()),
            Just(b"content-length: 5\r\n".to_vec()),
            Just(b"content-length: 99999999\r\n".to_vec()),
            Just(b"connection: close\r\n".to_vec()),
            Just(b"x-ccf-user: u\r\n".to_vec()),
            Just(b"\r\n".to_vec()),
            proptest::collection::vec(any::<u8>(), 0..24),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The parser sees untrusted bytes: it never panics, and a request
        /// it returns never claims more bytes than it was given.
        #[test]
        fn parse_request_never_panics_or_overreads(
            pieces in proptest::collection::vec(piece(), 0..12),
        ) {
            let input = pieces.concat();
            if let Ok(Some((_, _, consumed))) = parse_request(&input) {
                prop_assert!(consumed > 0 && consumed <= input.len());
            }
        }
    }
}
