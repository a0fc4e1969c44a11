//! The application model (paper §2, §3.1).
//!
//! Application logic is a set of *endpoints*: named operations users
//! invoke, each declaring its HTTP-ish method and path, its
//! authentication policy, and whether it is read-only (read-only
//! endpoints take the fast path of §3.4 and are served by any node).
//! Handlers execute transactionally over the key-value store; CCF does
//! the rest — replication, the ledger, receipts, governance.
//!
//! Two kinds of applications exist, mirroring the paper's C++-vs-JS split:
//! native Rust handlers ([`Application`]) and CScript applications
//! installed (and live-updatable) via governance, which [`ScriptApp`]
//! compiles into an [`Application`] whose handlers run the interpreter.
//! Either way a node routes and runs requests through [`EndpointDef`]s.

use ccf_kv::{MapName, Transaction};
use ccf_ledger::TxId;
use std::collections::HashMap;
use std::sync::Arc;

/// Who is making a request, after authentication (§3.1: CCF authenticates
/// per the endpoint's policy *before* the handler runs; the handler then
/// implements authorization over these claims).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Caller {
    /// No credential presented.
    Anonymous,
    /// An authenticated user (cert in `users.certs`).
    User(String),
    /// An authenticated consortium member.
    Member(String),
}

impl Caller {
    /// The user id, if a user.
    pub fn user_id(&self) -> Option<&str> {
        match self {
            Caller::User(id) => Some(id),
            _ => None,
        }
    }
}

/// The authentication policy an endpoint declares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AuthPolicy {
    /// Anyone may call.
    NoAuth,
    /// Caller must be an authenticated user.
    UserCert,
    /// Caller must be a consortium member.
    MemberCert,
}

/// A request to the service. `path` may carry a query string
/// (`/log?id=42`).
#[derive(Clone, Debug)]
pub struct Request {
    /// HTTP-ish method (GET/POST/PUT/DELETE).
    pub method: String,
    /// Path plus optional query string.
    pub path: String,
    /// The authenticated caller.
    pub caller: Caller,
    /// Request body.
    pub body: Vec<u8>,
}

impl Request {
    /// Builds a request.
    pub fn new(method: &str, path: &str, caller: Caller, body: &[u8]) -> Request {
        Request {
            method: method.to_string(),
            path: path.to_string(),
            caller,
            body: body.to_vec(),
        }
    }
}

/// A response. `txid` carries the transaction ID for writes — the paper's
/// custom response header (§7) — and the last-applied ID for reads (§3.4).
#[derive(Clone, Debug)]
pub struct Response {
    /// HTTP-ish status code.
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
    /// The transaction ID (write: the new transaction; read: last applied).
    pub txid: Option<TxId>,
}

impl Response {
    /// A 200 response.
    pub fn ok(body: Vec<u8>) -> Response {
        Response { status: 200, body, txid: None }
    }

    /// An error response.
    pub fn error(status: u16, msg: &str) -> Response {
        Response { status, body: msg.as_bytes().to_vec(), txid: None }
    }

    /// Body as UTF-8 (lossy), for tests and examples.
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).to_string()
    }
}

/// Errors handlers can return; mapped onto status codes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AppError {
    /// Status code to surface.
    pub status: u16,
    /// Human-readable message.
    pub message: String,
}

impl AppError {
    /// A 400.
    pub fn bad_request(msg: impl Into<String>) -> AppError {
        AppError { status: 400, message: msg.into() }
    }

    /// A 403.
    pub fn forbidden(msg: impl Into<String>) -> AppError {
        AppError { status: 403, message: msg.into() }
    }

    /// A 404.
    pub fn not_found(msg: impl Into<String>) -> AppError {
        AppError { status: 404, message: msg.into() }
    }
}

impl std::fmt::Display for AppError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.status, self.message)
    }
}

impl std::error::Error for AppError {}

/// Handler return type.
pub type HandlerResult = Result<Vec<u8>, AppError>;

/// Helpers for constructing handler results.
pub struct AppResult;

impl AppResult {
    /// Success with a body.
    pub fn ok(body: Vec<u8>) -> HandlerResult {
        Ok(body)
    }

    /// 404.
    pub fn not_found(msg: &str) -> HandlerResult {
        Err(AppError::not_found(msg))
    }

    /// 400.
    pub fn bad_request(msg: &str) -> HandlerResult {
        Err(AppError::bad_request(msg))
    }

    /// 403.
    pub fn forbidden(msg: &str) -> HandlerResult {
        Err(AppError::forbidden(msg))
    }
}

/// The execution context a handler receives: the open transaction, the
/// caller, the body, and claim attachment (§3.5). `'s` is the store state
/// the transaction borrows, which outlives the context.
pub struct EndpointContext<'a, 's> {
    /// The open kv transaction.
    pub tx: &'a mut Transaction<'s>,
    /// The authenticated caller.
    pub caller: &'a Caller,
    /// The request body.
    pub body: &'a [u8],
    /// Parsed query parameters, borrowed from the request path.
    pub params: &'a HashMap<&'a str, &'a str>,
    /// Claims the handler attaches to the transaction's receipt (§3.5).
    pub claims: Option<Vec<u8>>,
}

impl EndpointContext<'_, '_> {
    /// Query parameter by name.
    pub fn query(&self, key: &str) -> Result<String, AppError> {
        self.params
            .get(key)
            .map(|v| v.to_string())
            .ok_or_else(|| AppError::bad_request(format!("missing query parameter {key}")))
    }

    /// Parses a `key=value` body (the logging example's shape).
    pub fn body_kv(&self) -> Result<(String, String), AppError> {
        let text = std::str::from_utf8(self.body)
            .map_err(|_| AppError::bad_request("body must be UTF-8"))?;
        let (k, v) = text
            .split_once('=')
            .ok_or_else(|| AppError::bad_request("body must be key=value"))?;
        Ok((k.to_string(), v.to_string()))
    }

    /// Body parsed as JSON.
    pub fn body_json(&self) -> Result<ccf_script::Value, AppError> {
        let text = std::str::from_utf8(self.body)
            .map_err(|_| AppError::bad_request("body must be UTF-8"))?;
        ccf_script::parse_json(text).map_err(AppError::bad_request)
    }

    /// Reads from a private application map.
    pub fn get_private(&mut self, map: &str, key: &[u8]) -> Option<Vec<u8>> {
        self.tx.read(map, key).map(<[u8]>::to_vec)
    }

    /// Writes to a private application map.
    pub fn put_private(&mut self, map: &str, key: &[u8], value: &[u8]) {
        self.tx.put(&MapName::new(map), key, value)
    }

    /// Reads from a public application map.
    pub fn get_public(&mut self, map: &str, key: &[u8]) -> Option<Vec<u8>> {
        self.tx.read(&format!("public:{map}"), key).map(<[u8]>::to_vec)
    }

    /// Writes to a public application map.
    pub fn put_public(&mut self, map: &str, key: &[u8], value: &[u8]) {
        self.tx.put(&MapName::new(format!("public:{map}")), key, value)
    }

    /// Removes from a private application map.
    pub fn remove_private(&mut self, map: &str, key: &[u8]) {
        self.tx.remove(&MapName::new(map), key)
    }

    /// Attaches claims to the transaction; their digest lands in the
    /// ledger entry and thus in offline-verifiable receipts (§3.5).
    pub fn attach_claims(&mut self, claims: &[u8]) {
        self.claims = Some(claims.to_vec());
    }
}

type Handler = Arc<dyn Fn(&mut EndpointContext<'_, '_>) -> HandlerResult + Send + Sync>;

/// One endpoint definition.
#[derive(Clone)]
pub struct EndpointDef {
    /// Method (GET/POST/…).
    pub method: String,
    /// Path (no query string).
    pub path: String,
    /// Authentication policy checked by CCF before the handler runs.
    pub auth: AuthPolicy,
    /// Read-only endpoints take the §3.4 fast path.
    pub read_only: bool,
    handler: Handler,
}

impl EndpointDef {
    /// A read-only endpoint (fast path, any node, default `UserCert`).
    pub fn read(
        method: &str,
        path: &str,
        handler: impl Fn(&mut EndpointContext<'_, '_>) -> HandlerResult + Send + Sync + 'static,
    ) -> EndpointDef {
        EndpointDef {
            method: method.to_string(),
            path: path.to_string(),
            auth: AuthPolicy::UserCert,
            read_only: true,
            handler: Arc::new(handler),
        }
    }

    /// A read-write endpoint (executed on the primary, default `UserCert`).
    pub fn write(
        method: &str,
        path: &str,
        handler: impl Fn(&mut EndpointContext<'_, '_>) -> HandlerResult + Send + Sync + 'static,
    ) -> EndpointDef {
        EndpointDef {
            method: method.to_string(),
            path: path.to_string(),
            auth: AuthPolicy::UserCert,
            read_only: false,
            handler: Arc::new(handler),
        }
    }

    /// Overrides the authentication policy.
    pub fn with_auth(mut self, auth: AuthPolicy) -> EndpointDef {
        self.auth = auth;
        self
    }

    /// Invokes the handler.
    pub fn invoke(&self, ctx: &mut EndpointContext<'_, '_>) -> HandlerResult {
        (self.handler)(ctx)
    }
}

/// A native application: a code identity plus its endpoints.
#[derive(Clone)]
pub struct Application {
    /// Human-readable code version; its measurement is the code id that
    /// governance allow-lists (Table 4's `add_node_code`).
    pub code_version: String,
    endpoints: Vec<EndpointDef>,
}

impl Application {
    /// An empty application with a code version string.
    pub fn new(code_version: &str) -> Application {
        Application { code_version: code_version.to_string(), endpoints: Vec::new() }
    }

    /// Adds an endpoint (builder style).
    pub fn endpoint(mut self, def: EndpointDef) -> Application {
        self.endpoints.push(def);
        self
    }

    /// Looks up the endpoint for (method, path-without-query).
    pub fn route(&self, method: &str, path: &str) -> Option<&EndpointDef> {
        self.endpoints
            .iter()
            .find(|e| e.method == method && e.path == path)
    }

    /// All endpoints.
    pub fn endpoints(&self) -> &[EndpointDef] {
        &self.endpoints
    }
}

/// Splits `/p?a=1&b=2` into the path and parsed parameters, both
/// borrowed from `path_and_query`.
pub fn split_query(path_and_query: &str) -> (&str, HashMap<&str, &str>) {
    match path_and_query.split_once('?') {
        None => (path_and_query, HashMap::new()),
        Some((path, query)) => {
            (path, query.split('&').filter_map(|pair| pair.split_once('=')).collect())
        }
    }
}

// ----------------------------------------------------------------------
// Script applications (the paper's JavaScript apps)
// ----------------------------------------------------------------------

/// CScript applications: source installed in `public:ccf.gov.modules`
/// (via `set_js_app` proposals — live code updates, §5). A script
/// declares its endpoints in `function endpoints()`, returning
/// `[{method, path, func, read_only}, ...]`; each becomes an ordinary
/// [`EndpointDef`] (policy `UserCert`) whose handler calls
/// `func(caller, body, params)` in the interpreter.
pub struct ScriptApp;

/// Interpreter fuel for one request's script call.
const REQUEST_FUEL: u64 = 10_000_000;

impl ScriptApp {
    /// Compiles a script application into an [`Application`] of its
    /// endpoints.
    pub fn compile(source: &str) -> Result<Application, String> {
        let program = Arc::new(ccf_script::compile(source).map_err(|e| e.to_string())?);
        let mut interp = ccf_script::Interpreter::new(&program, 100_000);
        let table = interp
            .call("endpoints", vec![], &mut ccf_script::NoHost)
            .map_err(|e| format!("endpoints(): {e}"))?;
        let mut app = Application::new("script app");
        let list = table.as_arr().ok_or("endpoints() must return an array")?;
        for item in list {
            let method = item.get("method").and_then(|v| v.as_str()).ok_or("route needs method")?;
            let path = item.get("path").and_then(|v| v.as_str()).ok_or("route needs path")?;
            let func = item.get("func").and_then(|v| v.as_str()).ok_or("route needs func")?;
            if program.function(func).is_none() {
                return Err(format!("route {method} {path} references missing function {func}"));
            }
            let (program, func) = (program.clone(), func.to_string());
            let handler = move |ctx: &mut EndpointContext<'_, '_>| run_script(&program, &func, ctx);
            app = app.endpoint(if item.get("read_only").is_some_and(|v| v.truthy()) {
                EndpointDef::read(method, path, handler)
            } else {
                EndpointDef::write(method, path, handler)
            });
        }
        Ok(app)
    }
}

/// Runs script function `func` over the request. It returns either a
/// `{status, body}` object or a plain value (status 200).
fn run_script(
    program: &ccf_script::ast::Program,
    func: &str,
    ctx: &mut EndpointContext<'_, '_>,
) -> HandlerResult {
    let caller = match ctx.caller {
        Caller::Anonymous => ccf_script::Value::Null,
        Caller::User(id) => ccf_script::Value::str(id.clone()),
        Caller::Member(id) => ccf_script::Value::str(id.clone()),
    };
    let body = ccf_script::Value::str(String::from_utf8_lossy(ctx.body).to_string());
    let params = ccf_script::Value::obj(
        ctx.params
            .iter()
            .map(|(k, v)| (k.to_string(), ccf_script::Value::str(v.to_string()))),
    );
    let mut host = TxScriptHost { tx: &mut *ctx.tx };
    let mut interp = ccf_script::Interpreter::new(program, REQUEST_FUEL);
    let v = interp
        .call(func, vec![caller, body, params], &mut host)
        .map_err(|e| AppError::bad_request(format!("script error: {e}")))?;
    let bytes = |v: &ccf_script::Value| match v {
        ccf_script::Value::Str(s) => s.clone().into_bytes(),
        other => ccf_script::to_json(other).into_bytes(),
    };
    let Some(status) = v.get("status").and_then(|s| s.as_num()) else {
        return Ok(bytes(&v));
    };
    let body = v.get("body").map(bytes).unwrap_or_default();
    if (200..300).contains(&(status as u16)) {
        Ok(body)
    } else {
        Err(AppError { status: status as u16, message: String::from_utf8_lossy(&body).to_string() })
    }
}

/// [`ccf_script::Host`] over an open transaction: script kv access is
/// string-typed and blocked from reserved maps.
struct TxScriptHost<'a, 's> {
    tx: &'a mut Transaction<'s>,
}

impl ccf_script::Host for TxScriptHost<'_, '_> {
    fn kv_get(&mut self, map: &str, key: &str) -> Result<Option<String>, String> {
        Ok(self.tx.read(map, key.as_bytes()).map(|v| String::from_utf8_lossy(v).into_owned()))
    }

    fn kv_put(&mut self, map: &str, key: &str, value: &str) -> Result<(), String> {
        let name = MapName::new(map);
        if name.is_reserved() {
            return Err(format!("application scripts may not write {map}"));
        }
        self.tx.put(&name, key.as_bytes(), value.as_bytes());
        Ok(())
    }

    fn kv_remove(&mut self, map: &str, key: &str) -> Result<(), String> {
        let name = MapName::new(map);
        if name.is_reserved() {
            return Err(format!("application scripts may not write {map}"));
        }
        self.tx.remove(&name, key.as_bytes());
        Ok(())
    }

    fn kv_keys(&mut self, map: &str) -> Result<Vec<String>, String> {
        let name = MapName::new(map);
        let mut out = Vec::new();
        self.tx.for_each(&name, |k, _| {
            out.push(String::from_utf8_lossy(k).to_string());
        });
        Ok(out)
    }
}

/// The paper's evaluation app, in script form (§7: "a simple logging
/// application, where messages with corresponding identifiers are posted,
/// and later retrieved with read-only transactions").
pub fn logging_script_app() -> &'static str {
    r#"
    function endpoints() {
        return [
            { method: "POST", path: "/log", func: "write_message", read_only: false },
            { method: "GET", path: "/log", func: "read_message", read_only: true }
        ];
    }
    function write_message(caller, body, params) {
        let i = 0;
        let key = "";
        while (i < len(body)) {
            if (body[i] == "=") { break; }
            key = key + body[i];
            i = i + 1;
        }
        let msg = "";
        i = i + 1;
        while (i < len(body)) {
            msg = msg + body[i];
            i = i + 1;
        }
        kv_put("msgs", key, msg);
        return { status: 200, body: "stored" };
    }
    function read_message(caller, body, params) {
        let v = kv_get("msgs", params.id);
        if (v == null) { return { status: 404, body: "no such message" }; }
        return { status: 200, body: v };
    }
    "#
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccf_kv::Store;

    #[test]
    fn routing_and_query_parsing() {
        let app = Application::new("t v1")
            .endpoint(EndpointDef::write("POST", "/log", |_| Ok(vec![])))
            .endpoint(EndpointDef::read("GET", "/log", |_| Ok(vec![])));
        assert!(app.route("POST", "/log").is_some());
        assert!(app.route("GET", "/log").unwrap().read_only);
        assert!(app.route("DELETE", "/log").is_none());
        let (path, params) = split_query("/log?id=42&x=y");
        assert_eq!(path, "/log");
        assert_eq!(params["id"], "42");
        assert_eq!(params["x"], "y");
        let (path, params) = split_query("/log");
        assert_eq!(path, "/log");
        assert!(params.is_empty());
    }

    #[test]
    fn handler_executes_over_transaction() {
        let store = Store::new();
        let mut tx = store.begin();
        let mut ctx = EndpointContext {
            tx: &mut tx,
            caller: &Caller::User("alice".into()),
            body: b"42=hello",
            params: &HashMap::new(),
            claims: None,
        };
        let def = EndpointDef::write("POST", "/log", |ctx| {
            let (k, v) = ctx.body_kv()?;
            ctx.put_private("msgs", k.as_bytes(), v.as_bytes());
            Ok(b"ok".to_vec())
        });
        assert_eq!(def.invoke(&mut ctx).unwrap(), b"ok");
        assert_eq!(tx.get(&MapName::new("msgs"), b"42"), Some(b"hello".to_vec()));
    }

    #[test]
    fn script_app_logging_roundtrip() {
        let app = ScriptApp::compile(logging_script_app()).unwrap();
        let (write, read) = (app.route("POST", "/log").unwrap(), app.route("GET", "/log").unwrap());
        assert!(!write.read_only && read.read_only);
        assert!(write.auth == AuthPolicy::UserCert && read.auth == AuthPolicy::UserCert);

        let store = Store::new();
        let mut tx = store.begin();
        let mut ctx = EndpointContext {
            tx: &mut tx,
            caller: &Caller::User("alice".into()),
            body: b"7=the message",
            params: &HashMap::new(),
            claims: None,
        };
        write.invoke(&mut ctx).unwrap();
        let params = HashMap::from([("id", "7")]);
        let mut ctx = EndpointContext {
            tx: &mut tx,
            caller: &Caller::User("alice".into()),
            body: b"",
            params: &params,
            claims: None,
        };
        assert_eq!(read.invoke(&mut ctx).unwrap(), b"the message");
        // Missing message → 404.
        let params = HashMap::from([("id", "999")]);
        let mut ctx = EndpointContext {
            tx: &mut tx,
            caller: &Caller::User("alice".into()),
            body: b"",
            params: &params,
            claims: None,
        };
        let err = read.invoke(&mut ctx).unwrap_err();
        assert_eq!(err.status, 404);
    }

    #[test]
    fn script_app_cannot_touch_reserved_maps() {
        let src = r#"
        function endpoints() {
            return [{ method: "POST", path: "/evil", func: "evil", read_only: false }];
        }
        function evil(caller, body, params) {
            kv_put("public:ccf.gov.members.certs", "me", "haha");
            return { status: 200, body: "done" };
        }
        "#;
        let app = ScriptApp::compile(src).unwrap();
        let store = Store::new();
        let mut tx = store.begin();
        let mut ctx = EndpointContext {
            tx: &mut tx,
            caller: &Caller::User("mallory".into()),
            body: b"",
            params: &HashMap::new(),
            claims: None,
        };
        assert!(app.route("POST", "/evil").unwrap().invoke(&mut ctx).is_err());
        assert_eq!(
            tx.get(&MapName::new("public:ccf.gov.members.certs"), b"me"),
            None
        );
    }

    #[test]
    fn script_app_compile_errors() {
        assert!(ScriptApp::compile("function nope() {}").is_err());
        assert!(ScriptApp::compile(
            r#"function endpoints() { return [{ method: "GET", path: "/x", func: "missing" }]; }"#
        )
        .is_err());
    }
}
