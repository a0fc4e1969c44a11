#!/usr/bin/env bash
# Tier-1 gate: everything that must stay green on every PR.
#   build (release) + full test suite + benches compile + lint-clean
# Usage: scripts/tier1.sh  (from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier1: cargo build --release"
cargo build --release

echo "== tier1: one lock per node, no threads, no parking_lot"
# A node keeps all of its state behind one std Mutex (perfbench shares
# nodes as Arc<CcfNode>, so the node stays Send + Sync), and a request
# holds it from begin to proposal: no other transaction runs between a
# transaction's reads and its proposal, which is why a write set is
# proposed with no validation. That holds only while no crate a
# transaction runs in starts a thread or holds another lock or an
# atomic, so none may.
if grep -n parking_lot Cargo.toml crates/*/Cargo.toml shims/*/Cargo.toml perfbench/Cargo.toml; then
    echo "a manifest names parking_lot"; exit 1
fi
tx_crates=(crates/{core,kv,ledger,governance,script,consensus,tee,sim}/src)
if grep -rn "thread::spawn\|thread::scope\|RwLock\|Atomic[A-Z]\|sync::atomic" "${tx_crates[@]}"; then
    echo "a crate a transaction runs in spawns a thread or holds an RwLock or atomic"; exit 1
fi
other_mutexes=$(grep -rn Mutex "${tx_crates[@]}" \
    | grep -v -e '^crates/core/src/node.rs:[0-9]*:    inner: std::sync::Mutex<NodeInner>,$' \
              -e '^crates/core/src/node.rs:[0-9]*:            inner: std::sync::Mutex::new(NodeInner {$' || true)
if [ -n "$other_mutexes" ]; then
    echo "$other_mutexes"; echo "a Mutex besides the node's one lock"; exit 1
fi

echo "== tier1: one lock in ccf-obs, atomics only in its metric handles"
# A registry keeps all of its state behind one std Mutex, so a record's
# sequence number and its ring slot are assigned under one hold. Counter,
# Gauge and Histogram handles are atomic cells that the hot path bumps
# without that lock; nothing else in the crate is atomic.
if grep -rn "thread::\|RwLock" crates/obs/src; then
    echo "ccf-obs spawns a thread or holds an RwLock"; exit 1
fi
obs_extra=$(grep -rn "Mutex\|Atomic\|sync::atomic" crates/obs/src \
    | grep -v -e '^crates/obs/src/lib.rs:[0-9]*:pub struct Registry(Arc<std::sync::Mutex<State>>);$' \
              -e '^crates/obs/src/lib.rs:[0-9]*:        Registry(Arc::new(std::sync::Mutex::new(State {$' \
              -e "^crates/obs/src/lib.rs:[0-9]*:    fn state(&self) -> std::sync::MutexGuard<'_, State> {\$" \
              -e '^crates/obs/src/lib.rs:[0-9]*:use std::sync::atomic::{AtomicU64, Ordering};$' \
              -e '^crates/obs/src/lib.rs:[0-9]*:pub struct Counter(Arc<AtomicU64>);$' \
              -e '^crates/obs/src/lib.rs:[0-9]*:pub struct Gauge(Arc<AtomicU64>);$' \
              -e '^crates/obs/src/lib.rs:[0-9]*:    buckets: Vec<AtomicU64>,$' \
              -e '^crates/obs/src/lib.rs:[0-9]*:    sum: AtomicU64,$' \
              -e '^crates/obs/src/lib.rs:[0-9]*:        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();$' \
              -e '^crates/obs/src/lib.rs:[0-9]*:        Histogram(Arc::new(HistogramInner { bounds, buckets, sum: AtomicU64::new(0) }))$' \
    || true)
if [ -n "$obs_extra" ]; then
    echo "$obs_extra"; echo "a Mutex besides the registry's one, or an atomic outside the metric handles"; exit 1
fi

echo "== tier1: no wall clock in node code"
# A node's behaviour is a function of its seed and virtual time; wall
# time is measured only from outside, by the benches (Table 5's SGX
# model included), so no node crate reads a clock or spins.
if grep -rn "std::time\|Instant\|SystemTime\|spin_loop" crates/{core,kv,ledger,governance,script,consensus,tee,sim,obs}/src; then
    echo "a node crate reads the wall clock or spins"; exit 1
fi

echo "== tier1: frozen reference crypto is test and bench code, not shipped code"
# The oracles live in the dev-only ccf-crypto-ref crate: no node may link
# it, and ccf-crypto keeps no in-crate reference module.
core_tree=$(cargo tree --offline --locked -e normal -p ccf-core)
if grep -q ccf-crypto-ref <<<"$core_tree"; then
    echo "ccf-core links ccf-crypto-ref"; exit 1
fi
if grep -rn "mod reference" crates/crypto/src; then
    echo "ccf-crypto ships a reference module"; exit 1
fi

echo "== tier1: cargo test"
cargo test -q

echo "== tier1: cargo bench --no-run"
cargo bench --no-run -q

echo "== tier1: repo benchmark builds (perfbench, path deps on the crates)"
# Cargo prunes perfbench/Cargo.lock on every perfbench build; put the
# committed file back on exit, so a tier-1 run leaves the benchmark as
# it found it.
perfbench_lock=$(mktemp)
cp perfbench/Cargo.lock "$perfbench_lock"
trap 'cp "$perfbench_lock" perfbench/Cargo.lock; rm -f "$perfbench_lock"' EXIT
cargo build --release --offline -q --manifest-path perfbench/Cargo.toml

echo "== tier1: repo benchmark runs (each workload, 0.2 s, ~7 s in all)"
# A short run of every workload must still finish correct with no failed
# operation; the timings it prints are not compared.
for workload in write-private-n3 write-public-n1-sig1 read-heavy-n3; do
    last=$(cargo run -q --release --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 0.2 --trace 0 | tail -n 1)
    if ! grep -q '"correct": true' <<<"$last" || ! grep -q '"failed": 0,' <<<"$last"; then
        echo "perfbench $workload: $last"; exit 1
    fi
done

echo "== tier1: repo benchmark traced runs (each workload, --trace 1, 0.2 s)"
# A traced run times every node call; its epochs must still fail no
# operation and replay the untraced epochs of the same seed exactly. The
# closure share is wall clock and sits near its 10 % limit, so it is
# printed, not gated.
for workload in write-private-n3 write-public-n1-sig1 read-heavy-n3; do
    out=$(cargo run -q --release --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 0.2 --trace 1 2>&1)
    last=$(tail -n 1 <<<"$out")
    echo "$workload $(grep 'closure:' <<<"$out" || echo 'closure: missing')"
    if ! grep -q '"failed": 0,' <<<"$last" || ! grep -q 'same-seed epochs identical: true' <<<"$out"; then
        echo "perfbench $workload --trace 1: $last"; exit 1
    fi
done

echo "== tier1: replica hardening regressions (release)"
# Two of the fixed bugs were debug_assert!s that compiled away under
# --release; the regression tests must exercise the release path.
cargo test -q --release -p ccf-consensus --test replica_hardening

echo "== tier1: examples (release)"
# Each example asserts what it demonstrates; logging_audit is the only
# end-to-end check of the offline auditor (the signature chain verifies,
# a one-byte tamper is detected).
for example in quickstart banking logging_audit governance_tour disaster_recovery; do
    cargo run -q --release -p ccf-core --example "$example" > /dev/null
done

echo "== tier1: bounded chaos sweep (release, fixed seeds)"
chaos_out=$(cargo run -q --release -p ccf-bench --bin chaos -- --seeds 25)
echo "$chaos_out"
# The sweep is deterministic in its seeds, so its counts pin every
# schedule: a driver change that moves one fails here. The wall-time
# field is not compared.
for pin in '^\[consensus\] .* 1101 protocol records checked$' \
           '^\[service\] .* 349 protocol records checked$' \
           ': 1117 commits, 900 faults, 0 failures$'; do
    grep -qE "$pin" <<<"$chaos_out" || { echo "chaos sweep moved: no line matches /$pin/"; exit 1; }
done

echo "== tier1: wide chaos sweep (release, 300 fixed seeds, ~13 s)"
# The service harness retires nodes and rekeys the ledger under faults;
# twelve times the seeds cover many more of those interleavings, so these
# counts guard the primary's post-commit duty gate as well as the schedule.
chaos_out=$(cargo run -q --release -p ccf-bench --bin chaos -- --seeds 300)
echo "$chaos_out"
for pin in '^\[consensus\] .* 12115 protocol records checked$' \
           '^\[service\] .* 3125 protocol records checked$' \
           ': 12015 commits, 10800 faults, 0 failures$'; do
    grep -qE "$pin" <<<"$chaos_out" || { echo "wide chaos sweep moved: no line matches /$pin/"; exit 1; }
done
# The sweep's metrics snapshot is committed as well: every registry series
# of all 300 seeds must reproduce byte for byte.
git diff --exit-code -- OBS_chaos.json
# The snapshot is of a seed that wrote: it must cover a sealed private
# write and traced stages, or the byte-for-byte check above guards little.
for key in '"crypto.gcm_sealed_bytes"' '"trace_spans_total"'; do
    grep -qE "$key: [1-9]" OBS_chaos.json || { echo "OBS_chaos.json: $key is zero or missing"; exit 1; }
done

echo "== tier1: symmetric fast-path smoke (fast == reference, emits JSON)"
cargo run -q --release -p ccf-bench --bin bench_symmetric -- --smoke

echo "== tier1: Ed25519 fast-path smoke (invert == pow(p - 2), mul_base == seed)"
cargo run -q --release -p ccf-bench --bin bench_crypto -- --smoke
# Smoke runs time with a handful of samples and must not rewrite the
# committed full-run numbers.
git diff --exit-code -- BENCH_symmetric.json BENCH_crypto.json

echo "== tier1: paper figure shapes (Fig. 7, Fig. 8, Table 5 on the sim service)"
cargo run -q --release -p ccf-bench --bin bench_figures -- --smoke

echo "== tier1: trace determinism (two same-seed bench_latency runs, byte-identical)"
cargo run -q --release -p ccf-bench --bin bench_latency -- --smoke > /dev/null
cp OBS_latency.json OBS_latency.first.json
cargo run -q --release -p ccf-bench --bin bench_latency -- --smoke > /dev/null
cmp OBS_latency.json OBS_latency.first.json
rm -f OBS_latency.first.json
# The committed file is the reference virtual-time schedule: a change that
# moves the schedule must regenerate and commit it.
git diff --exit-code -- OBS_latency.json

echo "== tier1: per-stage latency reference (full bench_latency run, ~0.1 s)"
# BENCH_latency.json is the deterministic virtual-time reference; the
# full run rewrites it, and it must reproduce byte for byte.
cargo run -q --release -p ccf-bench --bin bench_latency > /dev/null
git diff --exit-code -- BENCH_latency.json

echo "== tier1: clippy -D warnings (whole workspace: libs, tests, examples, benches)"
cargo clippy -q --workspace --all-targets -- -D warnings

echo "== tier1: clippy -D warnings (repo benchmark, its own workspace)"
# perfbench calls the crates' app API; a change to that API must leave it
# compiling and lint-clean without edits.
cargo clippy -q --offline --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings

echo "== tier1: rustdoc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== tier1: non-test lines per crate (information only, no gate)"
scripts/loc.sh

echo "== tier1: OK"
