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

echo "== no hand-built JSON in crates/ (san_telemetry::json writes every JSON file)"
if grep -rn --include=*.rs '{{\\"' crates; then
    echo "ERROR: the lines above format JSON by hand; build a san_telemetry::json::Json instead" >&2
    exit 1
fi

echo "== one simulation, one thread (only san_sim::fanout shares state across threads)"
if grep -rnE 'Arc<|Arc::|Mutex|RwLock|Atomic[A-Z]' crates/*/src | grep -v '^crates/sim/src/fanout\.rs:'; then
    echo "ERROR: the lines above share state across threads; a simulation runs on one thread, and independent simulations fan out through san_sim::fanout::map_indexed" >&2
    exit 1
fi

echo "== no unused dependency edges ([dependencies] are imported by src/, [dev-dependencies] by the package)"
# An edge counts as used when some file names the crate as `ident::` or
# `use ident`; the lines printed are the manifest lines to delete or move.
unused=0
for manifest in Cargo.toml crates/*/Cargo.toml; do
    dir=$(dirname "$manifest")
    section= lineno=0
    while IFS= read -r line; do
        lineno=$((lineno + 1))
        if [[ $line == '['* ]]; then section=$line; continue; fi
        [[ $line =~ ^([A-Za-z0-9_-]+)[[:space:]]*= ]] || continue
        case "$section" in
            '[dependencies]') dirs=("$dir/src") ;;
            '[dev-dependencies]') dirs=("$dir/src" "$dir/tests" "$dir/examples" "$dir/benches") ;;
            *) continue ;;
        esac
        ident=${BASH_REMATCH[1]//-/_}
        if ! grep -rqsE --include='*.rs' "\\b${ident}::|use ${ident}\\b" "${dirs[@]}"; then
            echo "$manifest:$lineno: $line (nothing under ${dirs[*]} imports $ident)"
            unused=1
        fi
    done < "$manifest"
done
if [ "$unused" -ne 0 ]; then
    echo "ERROR: the manifest lines above name a crate nothing imports; delete them, or move a test-only dependency to [dev-dependencies]" >&2
    exit 1
fi

echo "== cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (rustdoc warnings are errors: a doc link to a deleted or private item fails here)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== cargo test"
cargo test --workspace -q

echo "== benchmark crate (perf/ compiles against the workspace APIs; its tests pass)"
cargo test -q --offline --manifest-path perf/Cargo.toml

echo "== benchmark digests (every workload reaches its pinned seed-1 sim_digest, outputs correct)"
# The digest hashes each workload's simulated outcomes, so a change that
# alters any simulated event moves it. One pass of all five workloads.
perf_out=$(cargo run --release -q --offline --manifest-path perf/Cargo.toml -- run) || {
    echo "ERROR: the benchmark run failed" >&2
    exit 1
}
for pin in perm1024=0xd6a52acd6b1b5396 tenants_lossy=0x6ab4fa771100737d \
    chaos_faults=0x494492a9ed7fd020 mc_verify=0x89e3761271a82414 \
    fig6_sweep=0x92a18f78be74d2b1; do
    workload=${pin%%=*}
    digest=${pin#*=}
    if ! grep -Eq "^${workload} +sim_digest +${digest} correct\$" <<< "$perf_out"; then
        echo "ERROR: ${workload} did not report its pinned digest ${digest} with correct outputs:" >&2
        grep -E "^${workload} " <<< "$perf_out" >&2 || true
        exit 1
    fi
done

echo "== san-mc smoke (exhaustive 2-node model check + leak-knob canary)"
# tiny2/wrap2 must verify exhaustively (with liveness); leak2 must FAIL
# with a `descriptor-conservation` counterexample (checked without
# liveness, whose shorter counterexample would otherwise stand in for it)
# — if the checker stops finding the re-introduced PR 2 leak, this gate
# trips.
cargo run --release -q -p san-mc -- check --smoke

echo "== san-mc benchmark configs (2-node failure model, two-way traffic, 3-node incast: exact counts, frontier peaks, visited-set bytes per state and frontier bytes per queued state)"
# The perf digest pins every count here but the frontier peak, which
# bounds the checker's memory; each config must verify with exactly
# these states/transitions/depth/dedup/frontier.
mc_out=$(cargo run --release -q -p san-mc -- check remap2 bidir2 incast3) || {
    echo "$mc_out" >&2
    echo "ERROR: a san-mc benchmark config did not verify" >&2
    exit 1
}
echo "$mc_out"
for pin in remap2=18424/72396/21/53973/2685 bidir2=260276/1690062/26/1429787/33714 \
    incast3=53907/319072/26/265166/6076; do
    cfg=${pin%%=*}
    IFS=/ read -r states transitions depth dedup frontier <<< "${pin#*=}"
    if ! grep -Eq "^${cfg} +${states} states +${transitions} transitions depth ${depth} +dedup +${dedup} frontier +${frontier} .*VERIFIED\$" <<< "$mc_out"; then
        echo "ERROR: ${cfg} must verify with ${states} states, ${transitions} transitions, depth ${depth}, dedup ${dedup}, frontier ${frontier}" >&2
        exit 1
    fi
done
# The visited set holds each state as a tuple of interned key sections:
# at most 64 B per state, where the keys alone average 131.9 (remap2),
# 164.6 (bidir2) and 348.1 (incast3) bytes.
for cfg in remap2 bidir2 incast3; do
    per_state=$(grep -E "^${cfg} " <<< "$mc_out" | grep -Eo '[0-9.]+ B/state' | cut -d' ' -f1)
    if [ -z "$per_state" ] || ! awk -v b="$per_state" 'BEGIN { exit !(b <= 64) }'; then
        echo "ERROR: ${cfg}'s visited set must hold at most 64 B per state, not ${per_state:-none}" >&2
        exit 1
    fi
done
# The frontier holds each queued state as a tuple of interned image
# sections: at most 64 B per queued state at its peak (36.9, 28.7 and
# 53.6), where a boxed image and its queue entry cost 241, 259 and 454 B.
for cfg in remap2 bidir2 incast3; do
    per_queued=$(grep -E "^${cfg} " <<< "$mc_out" | grep -Eo '[0-9.]+ B/queued' | cut -d' ' -f1)
    if [ -z "$per_queued" ] || ! awk -v b="$per_queued" 'BEGIN { exit !(b <= 64) }'; then
        echo "ERROR: ${cfg}'s frontier must hold at most 64 B per queued state, not ${per_queued:-none}" >&2
        exit 1
    fi
done

echo "== paper regeneration (table3, ablate, fig3, fig4, fig5, fig7, fig9 and table1 print the #tsv lines of their results/*.txt)"
# Every figure binary that finishes in seconds. fig6 (~21 s) and fig8
# (~11 s on 2 cores) stay out to keep the gate's time down.
for bin in table3 ablate fig3 fig4 fig5 fig7 fig9 table1; do
    out=$(cargo run --release -q -p san-bench --bin "$bin")
    if ! diff <(grep '^#tsv' <<< "$out") <(grep '^#tsv' "results/$bin.txt"); then
        echo "ERROR: $bin's #tsv lines (<) differ from results/$bin.txt (>)" >&2
        exit 1
    fi
done

echo "== engine smoke (events/sec floor + pinned fat_tree:4 outcome, untraced and traced: events, sim time, deliveries)"
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
