#!/usr/bin/env bash
# Full local gate: formatting, lints, the whole test suite.
# Everything runs offline — external deps resolve to the stand-ins under
# shims/ (see README "Building offline").
#
# `scripts/check.sh --workload` runs only the workload smoke gate (the
# tiny multi-tenant incast sanity check); the default runs everything.
set -euo pipefail
cd "$(dirname "$0")/.."

workload_gate() {
    echo "== workload smoke (2-tenant incast delivery gate)"
    cargo run --release -q -p san-bench --bin tenants -- --smoke
    echo "== chaos incast campaign (workload-ledger oracle gate)"
    cargo run --release -q -p san-chaos -- run crates/chaos/campaigns/incast.json --trials 3 --jobs 2
}

if [[ "${1:-}" == "--workload" ]]; then
    workload_gate
    echo "Workload gate passed."
    exit 0
fi

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test"
cargo test --workspace -q

echo "== benchmark crate (perf/ compiles against the workspace APIs; its tests pass)"
cargo test -q --offline --manifest-path perf/Cargo.toml

echo "== san-mc smoke (exhaustive 2-node model check + leak-knob canary)"
# tiny2/wrap2 must verify exhaustively (with liveness); leak2 must FAIL
# with a conservation counterexample — if the checker stops finding the
# re-introduced PR 2 leak, this gate trips.
cargo run --release -q -p san-mc -- check --smoke

echo "== san-mc benchmark configs (2-node failure model, two-way traffic, 3-node incast)"
cargo run --release -q -p san-mc -- check remap2 bidir2 incast3

echo "== engine smoke (events/sec floor + pinned fat_tree:4 outcome: events, sim time, deliveries)"
cargo run --release -q -p san-bench --bin engine -- --smoke

echo "== scale_map smoke (atlas + planner-hint remap gate)"
cargo run --release -q -p san-bench --bin scale_map -- --smoke

echo "== topo smoke (planner-strategy selection + torus floor + cold-start gate)"
cargo run --release -q -p san-bench --bin topo -- --smoke

echo "== reconfig smoke (three-policy live-reconfiguration gate)"
cargo run --release -q -p san-bench --bin reconfig -- --smoke

echo "== chaos smoke campaign (invariant gate)"
cargo run --release -q -p san-chaos -- run crates/chaos/campaigns/smoke.json --trials 8 --jobs 2

echo "== chaos recovery campaign (end-to-end recovery gate)"
cargo run --release -q -p san-chaos -- run crates/chaos/campaigns/recovery.json --trials 4 --jobs 2

echo "== negative control (unprotected baseline MUST fail)"
# The oracle gate is only trustworthy if it can still prove a loss: the
# intentionally unprotected campaign has to violate completeness. A pass
# here means the invariant checker has gone blind.
if cargo run --release -q -p san-chaos -- run crates/chaos/campaigns/unprotected.json --trials 2 --jobs 2 --no-shrink > /dev/null 2>&1; then
    echo "ERROR: unprotected baseline campaign passed — the oracle is not detecting losses" >&2
    exit 1
fi
echo "unprotected baseline failed as expected (oracle alive)"

echo "== chaos reconfig campaign (live re-cable under traffic gate)"
cargo run --release -q -p san-chaos -- run crates/chaos/campaigns/reconfig.json --trials 4 --jobs 2

echo "== negative control (undrained removal MUST lose traffic)"
# The drain protocol is only proven useful if skipping it demonstrably
# hurts: an unannounced switch de-rack with the reliability firmware off
# must leave messages undelivered. Requiring the missing_delivery
# violation (not just a nonzero exit) pins the loss to the removal.
undrained_out=$(cargo run --release -q -p san-chaos -- run crates/chaos/campaigns/reconfig_undrained.json --trials 2 --jobs 2 --no-shrink 2>&1) && {
    echo "ERROR: undrained-removal campaign passed — planned removal is indistinguishable from a drained one" >&2
    exit 1
}
if ! grep -q "missing_delivery" <<< "$undrained_out"; then
    echo "ERROR: undrained-removal campaign failed without a missing_delivery violation" >&2
    echo "$undrained_out" >&2
    exit 1
fi
echo "undrained removal lost traffic as expected (drain protocol is load-bearing)"

workload_gate

echo "All checks passed."
