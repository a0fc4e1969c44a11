//! Workload definitions and seeded input generation.
//!
//! Every request the service receives (path and body), including the
//! set-up prefill, is generated here from the workload seed before any
//! timing starts. Messages are 20 characters, as in the paper's logging
//! app, and each carries a random per-write tag so reads can be checked
//! against the values actually written.

use ccf_core::app::{AppResult, Application, Caller, EndpointDef, Request};
use ccf_crypto::chacha::ChaChaRng;
use std::collections::BTreeMap;

/// Keys the logging app writes and reads (as in the repository's
/// throughput benches).
const KEY_SPACE: u64 = ccf_bench::KEY_SPACE;

/// The paper's logging app (§7): 20-character messages posted under an
/// id into a private map, or into a public map (`/log/public`), and read
/// back from the private map with read-only transactions.
pub fn logging_app() -> Application {
    Application::new("perfbench logging v1")
        .endpoint(EndpointDef::write("POST", "/log", |ctx| {
            let (id, msg) = ctx.body_kv()?;
            ctx.put_private("msgs", id.as_bytes(), msg.as_bytes());
            AppResult::ok(Vec::new())
        }))
        .endpoint(EndpointDef::read("GET", "/log", |ctx| {
            let id = ctx.query("id")?;
            match ctx.get_private("msgs", id.as_bytes()) {
                Some(v) => AppResult::ok(v),
                None => AppResult::not_found("missing"),
            }
        }))
        .endpoint(EndpointDef::write("POST", "/log/public", |ctx| {
            let (id, msg) = ctx.body_kv()?;
            ctx.put_public("msgs", id.as_bytes(), msg.as_bytes());
            AppResult::ok(Vec::new())
        }))
}

/// One workload: cluster shape, signature policy, and offered load.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// CCF nodes in the service.
    pub nodes: usize,
    /// Writes go to the public map (no GCM) instead of the private one.
    pub public: bool,
    /// `(interval, interval_ms)` set on every node after opening, or the
    /// `bench_opts` default (10 writes or 10 ms).
    pub sig_policy: Option<(u64, u64)>,
    /// Keys written during set-up so reads always hit.
    pub prefill: u64,
    /// Writes per virtual ms, as `(count, per_ms)`.
    pub write_rate: (u64, u64),
    /// Reads per virtual ms, as `(count, per_ms)`, sent to every node in
    /// turn (the §3.4 read fast path).
    pub read_rate: (u64, u64),
    /// Virtual ms of open-loop load in one epoch.
    pub epoch_ms: u64,
}

/// The benchmark's workloads.
pub fn specs() -> Vec<Spec> {
    vec![
        Spec {
            name: "write-private-n3",
            nodes: 3,
            public: false,
            sig_policy: None,
            prefill: 0,
            write_rate: (10, 1),
            read_rate: (0, 1),
            epoch_ms: 200,
        },
        Spec {
            name: "write-public-n1-sig1",
            nodes: 1,
            public: true,
            sig_policy: Some((1, 10)),
            prefill: 0,
            write_rate: (10, 1),
            read_rate: (0, 1),
            epoch_ms: 500,
        },
        Spec {
            name: "read-heavy-n3",
            nodes: 3,
            public: false,
            sig_policy: None,
            prefill: KEY_SPACE,
            write_rate: (1, 10),
            read_rate: (50, 1),
            epoch_ms: 2_000,
        },
    ]
}

/// One generated request.
pub enum Op {
    /// A `POST` on the primary, due at `due_ns` virtual ns into the epoch.
    Write { req: Request, due_ns: u64 },
    /// A `GET` of `key` on node index `node`, issued at position `at` of
    /// the issue order.
    Read {
        req: Request,
        node: usize,
        key: u64,
        at: usize,
    },
}

/// The generated inputs of one epoch.
pub struct Inputs {
    /// Writes issued during set-up.
    pub prefill: Vec<Request>,
    /// `schedule[t]` holds the ops issued at virtual ms `t` of the epoch:
    /// those due in `(t - 1, t]`, in due order.
    pub schedule: Vec<Vec<Op>>,
    /// Every value written to each key, with the position (in issue
    /// order, prefill first) of the write. A read at position `p` may
    /// return any value written to its key before `p`.
    pub written: BTreeMap<u64, Vec<(usize, String)>>,
    /// Writes in the schedule.
    pub writes: u64,
    /// Reads in the schedule.
    pub reads: u64,
}

impl Inputs {
    /// True when `value` was written to `key` before issue position `at`.
    pub fn read_is_valid(&self, key: u64, at: usize, value: &[u8]) -> bool {
        self.written
            .get(&key)
            .is_some_and(|vs| vs.iter().any(|(pos, v)| *pos < at && v.as_bytes() == value))
    }
}

/// A 20-character message carrying a random per-write tag.
fn message(prefix: &str, rng: &mut ChaChaRng) -> String {
    format!("{prefix}.{:016x}", rng.next_u64())
}

/// Generates one epoch's inputs for `spec` from `seed`.
///
/// Arrivals are open-loop: each op is due at a uniformly random virtual
/// ns of the epoch (independent users; the op count per epoch is fixed by
/// the rate), and is issued at the first whole virtual ms at or after it.
pub fn generate(spec: &Spec, seed: u64) -> Inputs {
    let mut rng = ChaChaRng::seed_from_u64(seed).fork(spec.name.as_bytes());
    let path = if spec.public { "/log/public" } else { "/log" };
    let user = || Caller::User("user0".to_string());
    let mut written: BTreeMap<u64, Vec<(usize, String)>> = BTreeMap::new();
    let mut pos = 0usize;
    let mut written_keys = Vec::new();

    let mut write = |key: u64, rng: &mut ChaChaRng, pos: &mut usize| {
        let value = message(
            if *pos < spec.prefill as usize {
                "pre"
            } else {
                "msg"
            },
            rng,
        );
        let req = Request::new("POST", path, user(), format!("{key}={value}").as_bytes());
        written.entry(key).or_default().push((*pos, value));
        *pos += 1;
        req
    };
    let mut prefill = Vec::new();
    for key in 0..spec.prefill {
        prefill.push(write(key, &mut rng, &mut pos));
        written_keys.push(key);
    }

    let epoch_ns = spec.epoch_ms * 1_000_000;
    let count = |(n, per_ms): (u64, u64)| n * spec.epoch_ms / per_ms;
    let mut arrivals: Vec<(u64, bool)> = Vec::new();
    arrivals.extend((0..count(spec.write_rate)).map(|_| (rng.gen_range(epoch_ns), true)));
    arrivals.extend((0..count(spec.read_rate)).map(|_| (rng.gen_range(epoch_ns), false)));
    arrivals.sort_unstable();

    let mut schedule: Vec<Vec<Op>> = (0..=spec.epoch_ms).map(|_| Vec::new()).collect();
    let (mut writes, mut reads) = (0, 0);
    let mut next_node = 0usize;
    for (due_ns, is_write) in arrivals {
        let slot = &mut schedule[due_ns.div_ceil(1_000_000) as usize];
        if is_write {
            let key = rng.gen_range(KEY_SPACE);
            slot.push(Op::Write {
                req: write(key, &mut rng, &mut pos),
                due_ns,
            });
            written_keys.push(key);
            writes += 1;
        } else if !written_keys.is_empty() {
            let key = written_keys[rng.gen_range(written_keys.len() as u64) as usize];
            let node = next_node % spec.nodes;
            next_node += 1;
            let req = Request::new("GET", &format!("/log?id={key}"), user(), b"");
            slot.push(Op::Read {
                req,
                node,
                key,
                at: pos,
            });
            pos += 1;
            reads += 1;
        }
    }
    Inputs {
        prefill,
        schedule,
        written,
        writes,
        reads,
    }
}
