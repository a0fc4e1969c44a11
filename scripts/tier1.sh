#!/usr/bin/env bash
# Tier-1 gate: everything that must stay green on every PR.
#   build (release) + full test suite + benches compile + lint-clean
# Usage: scripts/tier1.sh  (from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier1: cargo build --release"
cargo build --release

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
cargo build --release --offline -q --manifest-path perfbench/Cargo.toml

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
for pin in '^\[consensus\] .* 1099 protocol records checked$' \
           '^\[service\] .* 339 protocol records checked$' \
           ': 1114 commits, 900 faults, 0 failures$'; do
    grep -qE "$pin" <<<"$chaos_out" || { echo "chaos sweep moved: no line matches /$pin/"; exit 1; }
done

echo "== tier1: wide chaos sweep (release, 300 fixed seeds, ~13 s)"
# The service harness retires nodes and rekeys the ledger under faults;
# twelve times the seeds cover many more of those interleavings, so these
# counts guard the primary's post-commit duty gate as well as the schedule.
chaos_out=$(cargo run -q --release -p ccf-bench --bin chaos -- --seeds 300)
echo "$chaos_out"
for pin in '^\[consensus\] .* 12171 protocol records checked$' \
           '^\[service\] .* 3094 protocol records checked$' \
           ': 12014 commits, 10800 faults, 0 failures$'; do
    grep -qE "$pin" <<<"$chaos_out" || { echo "wide chaos sweep moved: no line matches /$pin/"; exit 1; }
done
# The sweep's metrics snapshot is committed as well: every registry series
# of all 300 seeds must reproduce byte for byte.
git diff --exit-code -- OBS_chaos.json

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

echo "== tier1: clippy -D warnings (whole workspace: libs, tests, examples, benches)"
cargo clippy -q --workspace --all-targets -- -D warnings

echo "== tier1: rustdoc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== tier1: OK"
