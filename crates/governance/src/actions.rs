//! Built-in governance actions (paper Table 4 and Listing 1).
//!
//! Each action validates its arguments, then applies writes to the
//! governance maps through the open kv transaction. The node layer watches
//! the resulting write set: changes to `nodes.info` statuses make the
//! containing transaction a *reconfiguration transaction* at the consensus
//! layer (§4.4).

use crate::proposal::ActionInvocation;
use crate::{MemberId, NodeStatus, ServiceStatus};
use ccf_kv::{builtin, MapName, Transaction};
use ccf_script::{parse_json, to_json, Value};

/// Errors from validating or applying an action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ActionError {
    /// The action name is not defined in the constitution.
    UnknownAction(String),
    /// Arguments failed validation.
    BadArgs(String),
    /// The action could not be applied to the current state.
    Apply(String),
}

impl std::fmt::Display for ActionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ActionError::UnknownAction(n) => write!(f, "unknown governance action {n}"),
            ActionError::BadArgs(m) => write!(f, "invalid action arguments: {m}"),
            ActionError::Apply(m) => write!(f, "action application failed: {m}"),
        }
    }
}

impl std::error::Error for ActionError {}

fn str_arg<'v>(args: &'v Value, key: &str) -> Result<&'v str, ActionError> {
    args.get(key)
        .and_then(|v| v.as_str())
        .ok_or_else(|| ActionError::BadArgs(format!("missing string arg {key}")))
}

fn num_arg(args: &Value, key: &str) -> Result<f64, ActionError> {
    args.get(key)
        .and_then(|v| v.as_num())
        .ok_or_else(|| ActionError::BadArgs(format!("missing numeric arg {key}")))
}

fn map(name: &str) -> MapName {
    MapName::new(name)
}

/// Node metadata stored in `public:ccf.gov.nodes.info`.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeInfo {
    /// Figure 6 status.
    pub status: NodeStatus,
    /// The node's identity public key (hex).
    pub cert: String,
    /// The node's attested code id (hex).
    pub code_id: String,
    /// The node's X25519 encryption public key (hex) — used to seal
    /// rotated ledger secrets to trusted nodes.
    pub enc_key: String,
}

impl NodeInfo {
    /// JSON encoding.
    pub fn to_json(&self) -> String {
        to_json(&Value::obj([
            ("status".to_string(), Value::str(self.status.as_str())),
            ("cert".to_string(), Value::str(self.cert.clone())),
            ("code_id".to_string(), Value::str(self.code_id.clone())),
            ("enc_key".to_string(), Value::str(self.enc_key.clone())),
        ]))
    }

    /// Parses the JSON encoding.
    pub fn from_json(text: &str) -> Option<NodeInfo> {
        let doc = parse_json(text).ok()?;
        Some(NodeInfo {
            status: NodeStatus::parse(doc.get("status")?.as_str()?)?,
            cert: doc.get("cert")?.as_str()?.to_string(),
            code_id: doc.get("code_id")?.as_str()?.to_string(),
            enc_key: doc.get("enc_key").and_then(|v| v.as_str()).unwrap_or("").to_string(),
        })
    }
}

/// Reads a node's info from the transaction.
pub fn get_node_info(tx: &Transaction, node_id: &str) -> Option<NodeInfo> {
    let bytes = tx.read(builtin::NODES_INFO, node_id.as_bytes())?;
    NodeInfo::from_json(std::str::from_utf8(bytes).ok()?)
}

/// Writes a node's info.
pub fn put_node_info(tx: &mut Transaction, node_id: &str, info: &NodeInfo) {
    tx.put(&map(builtin::NODES_INFO), node_id.as_bytes(), info.to_json().as_bytes());
}

/// The set of node ids whose status is TRUSTED or RETIRING, as seen by
/// this transaction — i.e. the consensus configuration implied by the
/// current `nodes.info` (retiring nodes have left; see engine callers).
pub fn trusted_nodes(tx: &Transaction) -> std::collections::BTreeSet<String> {
    let mut out = std::collections::BTreeSet::new();
    tx.for_each(&map(builtin::NODES_INFO), |k, v| {
        if let (Ok(id), Ok(text)) = (std::str::from_utf8(k), std::str::from_utf8(v)) {
            if let Some(info) = NodeInfo::from_json(text) {
                if info.status == NodeStatus::Trusted {
                    out.insert(id.to_string());
                }
            }
        }
    });
    out
}

/// Validates an action's arguments without applying (the constitution's
/// first pass, mirroring Listing 1's checkType calls).
pub fn validate(action: &ActionInvocation) -> Result<(), ActionError> {
    match action.name.as_str() {
        "set_user" | "remove_user" => {
            str_arg(&action.args, "user_id")?;
            if action.name.as_str() == "set_user" {
                str_arg(&action.args, "cert")?;
            }
            Ok(())
        }
        "set_member" => {
            str_arg(&action.args, "cert")?;
            str_arg(&action.args, "encryption_pub_key")?;
            Ok(())
        }
        "remove_member" => {
            str_arg(&action.args, "member_id")?;
            Ok(())
        }
        "set_js_app" => {
            str_arg(&action.args, "app")?;
            Ok(())
        }
        "add_node_code" | "remove_node_code" => {
            let code_id = str_arg(&action.args, "code_id")?;
            if code_id.len() != 64 || ccf_crypto::hex::from_hex(code_id).is_err() {
                return Err(ActionError::BadArgs("code_id must be 32 bytes of hex".into()));
            }
            Ok(())
        }
        "transition_node_to_trusted" | "remove_node" => {
            str_arg(&action.args, "node_id")?;
            Ok(())
        }
        "set_constitution" => {
            let src = str_arg(&action.args, "constitution")?;
            // Must at least compile.
            ccf_script::compile(src)
                .map(|_| ())
                .map_err(|e| ActionError::BadArgs(format!("constitution does not compile: {e}")))
        }
        "transition_service_to_open" => Ok(()),
        "set_recovery_threshold" => {
            let k = num_arg(&action.args, "recovery_threshold")?;
            if k < 1.0 || k.fract() != 0.0 {
                return Err(ActionError::BadArgs("recovery_threshold must be a positive integer".into()));
            }
            Ok(())
        }
        "trigger_ledger_rekey" => Ok(()),
        other => Err(ActionError::UnknownAction(other.to_string())),
    }
}

/// Applies an accepted action to the kv store. `proposal_id` is available
/// for actions that invalidate competing proposals (Listing 1).
pub fn apply(
    action: &ActionInvocation,
    tx: &mut Transaction,
    proposal_id: &str,
) -> Result<(), ActionError> {
    validate(action)?;
    match action.name.as_str() {
        "set_user" => {
            let user = str_arg(&action.args, "user_id")?;
            let cert = str_arg(&action.args, "cert")?;
            tx.put(&map(builtin::USERS_CERTS), user.as_bytes(), cert.as_bytes());
        }
        "remove_user" => {
            let user = str_arg(&action.args, "user_id")?;
            tx.remove(&map(builtin::USERS_CERTS), user.as_bytes());
        }
        "set_member" => {
            let cert = str_arg(&action.args, "cert")?;
            let enc = str_arg(&action.args, "encryption_pub_key")?;
            let key = ccf_crypto::hex::from_hex_array::<32>(cert)
                .map_err(|_| ActionError::BadArgs("cert must be 32 bytes of hex".into()))?;
            let member: MemberId = crate::member_id(&ccf_crypto::VerifyingKey(key));
            tx.put(&map(builtin::MEMBERS_CERTS), member.as_bytes(), cert.as_bytes());
            tx.put(&map(builtin::MEMBERS_ENC_KEYS), member.as_bytes(), enc.as_bytes());
        }
        "remove_member" => {
            let member = str_arg(&action.args, "member_id")?;
            tx.remove(&map(builtin::MEMBERS_CERTS), member.as_bytes());
            tx.remove(&map(builtin::MEMBERS_ENC_KEYS), member.as_bytes());
        }
        "set_js_app" => {
            let app = str_arg(&action.args, "app")?;
            ccf_script::compile(app)
                .map_err(|e| ActionError::BadArgs(format!("app does not compile: {e}")))?;
            tx.put(&map(builtin::MODULES), b"app", app.as_bytes());
        }
        "add_node_code" => {
            let code_id = str_arg(&action.args, "code_id")?;
            tx.put(&map(builtin::NODES_CODE_IDS), code_id.as_bytes(), b"AllowedToJoin");
            invalidate_other_open_proposals(tx, proposal_id);
        }
        "remove_node_code" => {
            let code_id = str_arg(&action.args, "code_id")?;
            tx.remove(&map(builtin::NODES_CODE_IDS), code_id.as_bytes());
        }
        "transition_node_to_trusted" => {
            let node_id = str_arg(&action.args, "node_id")?;
            let mut info = get_node_info(tx, node_id)
                .ok_or_else(|| ActionError::Apply(format!("node {node_id} not known")))?;
            if info.status != NodeStatus::Pending && info.status != NodeStatus::Trusted {
                return Err(ActionError::Apply(format!(
                    "node {node_id} is {:?}, cannot trust",
                    info.status
                )));
            }
            info.status = NodeStatus::Trusted;
            put_node_info(tx, node_id, &info);
        }
        "remove_node" => {
            let node_id = str_arg(&action.args, "node_id")?;
            let mut info = get_node_info(tx, node_id)
                .ok_or_else(|| ActionError::Apply(format!("node {node_id} not known")))?;
            // §4.5: the first reconfiguration transaction moves the node to
            // RETIRING; the engine emits the RETIRED follow-up once the
            // retirement has committed.
            info.status = NodeStatus::Retiring;
            put_node_info(tx, node_id, &info);
        }
        "set_constitution" => {
            let src = str_arg(&action.args, "constitution")?;
            tx.put(&map(builtin::CONSTITUTION), b"constitution", src.as_bytes());
        }
        "transition_service_to_open" => {
            let current = tx
                .get(&map(builtin::SERVICE_INFO), b"status")
                .and_then(|v| String::from_utf8(v).ok())
                .and_then(|s| ServiceStatus::parse(&s));
            match current {
                Some(ServiceStatus::Opening) | Some(ServiceStatus::Recovering) | None => {
                    tx.put(
                        &map(builtin::SERVICE_INFO),
                        b"status",
                        ServiceStatus::Open.as_str().as_bytes(),
                    );
                }
                Some(ServiceStatus::Open) => {} // idempotent
            }
        }
        "set_recovery_threshold" => {
            let k = num_arg(&action.args, "recovery_threshold")? as u64;
            tx.put(
                &map(builtin::RECOVERY_THRESHOLD),
                b"k",
                k.to_string().as_bytes(),
            );
        }
        "trigger_ledger_rekey" => {
            // The node layer watches this marker and rotates the ledger
            // secret at the next sequence number (ledger::secrets::rekey).
            tx.put(&map(builtin::LEDGER_SECRET), b"rekey_requested", proposal_id.as_bytes());
        }
        other => return Err(ActionError::UnknownAction(other.to_string())),
    }
    Ok(())
}

/// Listing 1's `invalidateOtherOpenProposals`: code updates drop every
/// other open proposal, since they may have been reviewed against the
/// superseded code.
fn invalidate_other_open_proposals(tx: &mut Transaction, keep: &str) {
    let infos: Vec<(Vec<u8>, Vec<u8>)> = {
        let mut v = Vec::new();
        tx.for_each(&map(builtin::PROPOSALS_INFO), |k, val| {
            v.push((k.to_vec(), val.to_vec()));
        });
        v
    };
    for (k, val) in infos {
        if k == keep.as_bytes() {
            continue;
        }
        if let Ok(text) = std::str::from_utf8(&val) {
            if let Ok(mut info) = crate::proposal::ProposalInfo::from_json(text) {
                if info.state == crate::proposal::ProposalState::Open {
                    info.state = crate::proposal::ProposalState::Dropped;
                    tx.put(&map(builtin::PROPOSALS_INFO), &k, info.to_json().as_bytes());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccf_kv::Store;

    fn args(pairs: &[(&str, Value)]) -> Value {
        Value::obj(pairs.iter().map(|(k, v)| (k.to_string(), v.clone())))
    }

    #[test]
    fn validate_checks_arguments() {
        assert!(validate(&ActionInvocation {
            name: "set_user".into(),
            args: args(&[("user_id", Value::str("alice")), ("cert", Value::str("aa"))]),
        })
        .is_ok());
        assert!(validate(&ActionInvocation { name: "set_user".into(), args: Value::Null }).is_err());
        assert!(validate(&ActionInvocation { name: "frobnicate".into(), args: Value::Null })
            .is_err());
        // Bad code id length.
        assert!(validate(&ActionInvocation {
            name: "add_node_code".into(),
            args: args(&[("code_id", Value::str("abcd"))]),
        })
        .is_err());
        // Constitution must compile.
        assert!(validate(&ActionInvocation {
            name: "set_constitution".into(),
            args: args(&[("constitution", Value::str("function resolve( {"))]),
        })
        .is_err());
    }

    #[test]
    fn apply_set_and_remove_user() {
        let store = Store::new();
        let mut tx = store.begin();
        apply(
            &ActionInvocation {
                name: "set_user".into(),
                args: args(&[("user_id", Value::str("alice")), ("cert", Value::str("aabb"))]),
            },
            &mut tx,
            "p0",
        )
        .unwrap();
        assert_eq!(
            tx.get(&map(builtin::USERS_CERTS), b"alice"),
            Some(b"aabb".to_vec())
        );
        apply(
            &ActionInvocation {
                name: "remove_user".into(),
                args: args(&[("user_id", Value::str("alice"))]),
            },
            &mut tx,
            "p0",
        )
        .unwrap();
        assert_eq!(tx.get(&map(builtin::USERS_CERTS), b"alice"), None);
    }

    #[test]
    fn node_trust_lifecycle() {
        let store = Store::new();
        let mut tx = store.begin();
        // Unknown node cannot be trusted.
        let trust = ActionInvocation {
            name: "transition_node_to_trusted".into(),
            args: args(&[("node_id", Value::str("n3"))]),
        };
        assert!(apply(&trust, &mut tx, "p").is_err());
        // Register it as pending (the join protocol does this).
        put_node_info(
            &mut tx,
            "n3",
            &NodeInfo {
                status: NodeStatus::Pending,
                cert: "cc".into(),
                code_id: "dd".into(),
                enc_key: "ee".into(),
            },
        );
        apply(&trust, &mut tx, "p").unwrap();
        assert_eq!(get_node_info(&tx, "n3").unwrap().status, NodeStatus::Trusted);
        assert!(trusted_nodes(&tx).contains("n3"));
        // Removal: Trusted → Retiring.
        apply(
            &ActionInvocation {
                name: "remove_node".into(),
                args: args(&[("node_id", Value::str("n3"))]),
            },
            &mut tx,
            "p",
        )
        .unwrap();
        assert_eq!(get_node_info(&tx, "n3").unwrap().status, NodeStatus::Retiring);
        assert!(!trusted_nodes(&tx).contains("n3"));
    }

    #[test]
    fn add_node_code_invalidates_open_proposals() {
        let store = Store::new();
        let mut tx = store.begin();
        // Two open proposals on the books.
        let open = crate::proposal::ProposalInfo::open("m0".into());
        tx.put(&map(builtin::PROPOSALS_INFO), b"other", open.to_json().as_bytes());
        tx.put(&map(builtin::PROPOSALS_INFO), b"self", open.to_json().as_bytes());
        let code_id = "ab".repeat(32);
        apply(
            &ActionInvocation {
                name: "add_node_code".into(),
                args: args(&[("code_id", Value::str(code_id.clone()))]),
            },
            &mut tx,
            "self",
        )
        .unwrap();
        assert_eq!(
            tx.get(&map(builtin::NODES_CODE_IDS), code_id.as_bytes()),
            Some(b"AllowedToJoin".to_vec())
        );
        let other = crate::proposal::ProposalInfo::from_json(
            std::str::from_utf8(&tx.get(&map(builtin::PROPOSALS_INFO), b"other").unwrap())
                .unwrap(),
        )
        .unwrap();
        assert_eq!(other.state, crate::proposal::ProposalState::Dropped);
        // The applying proposal itself is untouched.
        let own = crate::proposal::ProposalInfo::from_json(
            std::str::from_utf8(&tx.get(&map(builtin::PROPOSALS_INFO), b"self").unwrap()).unwrap(),
        )
        .unwrap();
        assert_eq!(own.state, crate::proposal::ProposalState::Open);
    }

    #[test]
    fn service_open_transition() {
        let store = Store::new();
        let mut tx = store.begin();
        tx.put(&map(builtin::SERVICE_INFO), b"status", b"Opening");
        apply(
            &ActionInvocation { name: "transition_service_to_open".into(), args: Value::Null },
            &mut tx,
            "p",
        )
        .unwrap();
        assert_eq!(tx.get(&map(builtin::SERVICE_INFO), b"status"), Some(b"Open".to_vec()));
    }

    #[test]
    fn recovery_threshold() {
        let store = Store::new();
        let mut tx = store.begin();
        apply(
            &ActionInvocation {
                name: "set_recovery_threshold".into(),
                args: args(&[("recovery_threshold", Value::Num(2.0))]),
            },
            &mut tx,
            "p",
        )
        .unwrap();
        assert_eq!(tx.get(&map(builtin::RECOVERY_THRESHOLD), b"k"), Some(b"2".to_vec()));
        assert!(validate(&ActionInvocation {
            name: "set_recovery_threshold".into(),
            args: args(&[("recovery_threshold", Value::Num(0.0))]),
        })
        .is_err());
    }
}
