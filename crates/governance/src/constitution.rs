//! The constitution: the contract adjudicating governance (paper §5.1).
//!
//! The constitution defines `resolve` (when is a proposal accepted?) and
//! `validate` (which proposals may open?). CCF ships a default
//! constitution accepting on a strict majority; services can install
//! custom ones — different voting power, veto members, per-action rules —
//! and can change the constitution itself by proposal.
//!
//! [`ScriptConstitution`] is the one implementation: the voting policy
//! (`resolve`) is a CScript program stored in
//! `public:ccf.gov.constitution`, reproducing the paper's
//! programmable-governance model; action validation and application
//! remain the audited native implementation in [`crate::actions`]. A node
//! starts on [`ScriptConstitution::default_script`] until genesis installs
//! the service's own.

use crate::actions::{self, ActionError};
use crate::proposal::{Proposal, ProposalState};
use crate::MemberId;
use ccf_script::Value;
use std::collections::BTreeMap;

/// A constitution whose `resolve` (and optionally `validate`) comes from a
/// CScript program.
///
/// The script must define:
/// ```text
/// function resolve(proposal, proposer_id, votes, member_count) {
///     // votes: [{member_id: "...", vote: true}, ...]
///     return "Accepted"; // or "Rejected" or "Open"
/// }
/// ```
/// and may define `function validate(proposal)` returning an error string
/// or null.
pub struct ScriptConstitution {
    source: String,
    program: ccf_script::ast::Program,
}

impl ScriptConstitution {
    /// Compiles a constitution script.
    pub fn new(source: &str) -> Result<ScriptConstitution, String> {
        let program = ccf_script::compile(source).map_err(|e| e.to_string())?;
        if program.function("resolve").is_none() {
            return Err("constitution must define resolve(proposal, proposer_id, votes, member_count)".into());
        }
        Ok(ScriptConstitution { source: source.to_string(), program })
    }

    /// The source text (as stored in `public:ccf.gov.constitution`).
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The default constitution: a proposal is accepted once a strict
    /// majority of active members vote for it, and rejected once a strict
    /// majority vote against.
    pub fn default_script() -> &'static str {
        r#"
        function resolve(proposal, proposer_id, votes, member_count) {
            let yes = 0;
            let no = 0;
            for (v of votes) {
                if (v.vote) { yes = yes + 1; } else { no = no + 1; }
            }
            let majority = floor(member_count / 2) + 1;
            if (yes >= majority) { return "Accepted"; }
            if (no >= majority) { return "Rejected"; }
            return "Open";
        }
        "#
    }

    /// A constitution giving one member (by id) unilateral power over
    /// node membership actions, majority otherwise — the paper's example
    /// of an operator-member (§5.1).
    pub fn operator_script(operator_id: &str) -> String {
        format!(
            r#"
        function is_node_op(proposal) {{
            for (a of proposal.actions) {{
                if (a.name != "transition_node_to_trusted" && a.name != "remove_node") {{
                    return false;
                }}
            }}
            return true;
        }}
        function resolve(proposal, proposer_id, votes, member_count) {{
            if (is_node_op(proposal) && proposer_id == "{operator_id}") {{
                return "Accepted";
            }}
            let yes = 0;
            let no = 0;
            for (v of votes) {{
                if (v.vote) {{ yes = yes + 1; }} else {{ no = no + 1; }}
            }}
            let majority = floor(member_count / 2) + 1;
            if (yes >= majority) {{ return "Accepted"; }}
            if (no >= majority) {{ return "Rejected"; }}
            return "Open";
        }}
        "#
        )
    }

    /// Validates a proposal's actions before it is opened: native
    /// argument validation always applies, plus the script's own
    /// `validate`, if defined.
    pub fn validate(&self, proposal: &Proposal) -> Result<(), ActionError> {
        if proposal.actions.is_empty() {
            return Err(ActionError::BadArgs("proposal has no actions".into()));
        }
        for action in &proposal.actions {
            actions::validate(action)?;
        }
        if self.program.function("validate").is_some() {
            let mut interp = ccf_script::Interpreter::new(&self.program, 1_000_000);
            let out = interp
                .call("validate", vec![proposal.to_value()], &mut ccf_script::NoHost)
                .map_err(|e| ActionError::BadArgs(format!("constitution validate: {e}")))?;
            if let Some(err) = out.as_str() {
                return Err(ActionError::BadArgs(err.to_string()));
            }
        }
        Ok(())
    }

    /// Decides the proposal's state given the evaluated votes and the
    /// number of active consortium members.
    pub fn resolve(
        &self,
        proposal: &Proposal,
        proposer: &MemberId,
        votes: &BTreeMap<MemberId, bool>,
        active_members: usize,
    ) -> ProposalState {
        let votes_value = Value::arr(
            votes
                .iter()
                .map(|(m, v)| {
                    Value::obj([
                        ("member_id".to_string(), Value::str(m.clone())),
                        ("vote".to_string(), Value::Bool(*v)),
                    ])
                })
                .collect(),
        );
        let mut interp = ccf_script::Interpreter::new(&self.program, 1_000_000);
        let out = interp.call(
            "resolve",
            vec![
                proposal.to_value(),
                Value::str(proposer.clone()),
                votes_value,
                Value::Num(active_members as f64),
            ],
            &mut ccf_script::NoHost,
        );
        match out.as_ref().ok().and_then(|v| v.as_str()) {
            Some("Accepted") => ProposalState::Accepted,
            Some("Rejected") => ProposalState::Rejected,
            // A broken constitution must not accept anything.
            _ => ProposalState::Open,
        }
    }
}

impl Default for ScriptConstitution {
    /// The compiled [`ScriptConstitution::default_script`].
    fn default() -> ScriptConstitution {
        ScriptConstitution::new(ScriptConstitution::default_script())
            .expect("the default constitution compiles")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccf_script::Value;

    fn votes(pairs: &[(&str, bool)]) -> BTreeMap<MemberId, bool> {
        pairs.iter().map(|(m, v)| (m.to_string(), *v)).collect()
    }

    fn sample() -> Proposal {
        Proposal::single("set_user", Value::obj([
            ("user_id".to_string(), Value::str("alice")),
            ("cert".to_string(), Value::str("aa")),
        ]))
    }

    #[test]
    fn default_constitution_majority() {
        let c = ScriptConstitution::default();
        let p = sample();
        let m0 = "m0".to_string();
        assert_eq!(c.resolve(&p, &m0, &votes(&[]), 3), ProposalState::Open);
        assert_eq!(c.resolve(&p, &m0, &votes(&[("m0", true)]), 3), ProposalState::Open);
        assert_eq!(
            c.resolve(&p, &m0, &votes(&[("m0", true), ("m1", true)]), 3),
            ProposalState::Accepted
        );
        assert_eq!(
            c.resolve(&p, &m0, &votes(&[("m0", false), ("m1", false)]), 3),
            ProposalState::Rejected
        );
        // One-member consortium: its own vote accepts instantly.
        assert_eq!(c.resolve(&p, &m0, &votes(&[("m0", true)]), 1), ProposalState::Accepted);
    }

    #[test]
    fn script_constitution_matches_default() {
        // The strict-majority rule, written natively as the oracle.
        fn majority(v: &BTreeMap<MemberId, bool>, n: usize) -> ProposalState {
            let yes = v.values().filter(|v| **v).count();
            let no = v.len() - yes;
            if yes > n / 2 {
                ProposalState::Accepted
            } else if no > n / 2 {
                ProposalState::Rejected
            } else {
                ProposalState::Open
            }
        }
        let script = ScriptConstitution::default();
        let p = sample();
        let m0 = "m0".to_string();
        for n in 1..=5usize {
            for yes in 0..=n {
                for no in 0..=(n - yes) {
                    let mut v = BTreeMap::new();
                    for i in 0..yes {
                        v.insert(format!("y{i}"), true);
                    }
                    for i in 0..no {
                        v.insert(format!("n{i}"), false);
                    }
                    assert_eq!(
                        script.resolve(&p, &m0, &v, n),
                        majority(&v, n),
                        "n={n} yes={yes} no={no}"
                    );
                }
            }
        }
    }

    #[test]
    fn operator_constitution_gives_unilateral_node_power() {
        let src = ScriptConstitution::operator_script("op-member");
        let c = ScriptConstitution::new(&src).unwrap();
        let node_op = Proposal::single(
            "transition_node_to_trusted",
            Value::obj([("node_id".to_string(), Value::str("n3"))]),
        );
        // Operator alone: instantly accepted, zero ballots.
        assert_eq!(
            c.resolve(&node_op, &"op-member".to_string(), &votes(&[]), 5),
            ProposalState::Accepted
        );
        // Anyone else still needs a majority.
        assert_eq!(
            c.resolve(&node_op, &"m1".to_string(), &votes(&[]), 5),
            ProposalState::Open
        );
        // Non-node actions from the operator need a majority too.
        assert_eq!(
            c.resolve(&sample(), &"op-member".to_string(), &votes(&[]), 5),
            ProposalState::Open
        );
    }

    #[test]
    fn constitution_requires_resolve() {
        assert!(ScriptConstitution::new("function apply(p) { }").is_err());
        assert!(ScriptConstitution::new("not even valid").is_err());
    }

    #[test]
    fn broken_resolve_never_accepts() {
        let c = ScriptConstitution::new(
            "function resolve(p, q, v, n) { return undefined_variable; }",
        )
        .unwrap();
        assert_eq!(
            c.resolve(&sample(), &"m0".to_string(), &votes(&[("m0", true)]), 1),
            ProposalState::Open
        );
    }

    #[test]
    fn validate_rejects_empty_and_unknown() {
        let c = ScriptConstitution::default();
        assert!(c.validate(&Proposal::new(vec![])).is_err());
        assert!(c.validate(&Proposal::single("frobnicate", Value::Null)).is_err());
        assert!(c.validate(&sample()).is_ok());
    }
}
