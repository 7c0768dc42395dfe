#!/usr/bin/env bash
# Repository CI gate: build, test, lint, format. Run before every push.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> every crate forbids unsafe code"
# No crate needs `unsafe`; the attribute keeps it that way.
missing=$(grep -L '^#!\[forbid(unsafe_code)\]' crates/*/src/lib.rs || true)
if [ -n "$missing" ]; then
    echo "missing #![forbid(unsafe_code)]:" $missing
    exit 1
fi

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test -q -p frappe-obs"
cargo test -q -p frappe-obs

echo "==> cargo test -q -p frappe-serve --test catalog_parity (shard sweep 1/4/16, groups 1/2/4/8)"
# The randomized parity property test sweeps shard counts {1, 4, 16}
# internally (SHARD_COUNTS in tests/catalog_parity.rs) and the router
# test sweeps group counts {1, 2, 4, 8} (GROUP_COUNTS); run it explicitly
# so a catalog/serve drift fails fast with its own banner.
cargo test -q -p frappe-serve --test catalog_parity

echo "==> trace suite (request tracing, tail sampling, SLO windows)"
# Request spans are `frappe_obs::Span` guards that feed both the trace
# and the profile table; run the trace collector's tests (the guard's
# trace side included) and the SLO windows' tests under their own banner
# so a regression there fails fast.
cargo test -q -p frappe-obs trace
cargo test -q -p frappe-obs slo

echo "==> determinism suite under FRAPPE_JOBS=1 and FRAPPE_JOBS=8"
# The frappe-jobs contract: bit-identical results at any thread count.
# Run the suite at both extremes of the env override so the serial path
# and the full fan-out are both exercised end to end.
FRAPPE_JOBS=1 cargo test -q -p frappe --test determinism
FRAPPE_JOBS=8 cargo test -q -p frappe --test determinism

echo "==> lifecycle suite, audit included (FRAPPE_JOBS=1 and FRAPPE_JOBS=8)"
# Shadow-evaluated hot swap, drift detection, the checkpoint roundtrip
# on a fresh temp dir, and the audit suite (tests/audit.rs: online
# records, fed through the manager's observer, reconstruct every fresh
# verdict); the crate's unit tests include the
# lineage hardening test
# (registry::tests::truncated_or_bit_flipped_manifests_never_panic_or_reuse_a_version,
# every truncation and single-bit flip of a saved lineage.json, parsed in
# memory by the step load_from_dir runs, is refused or loads a registry
# whose next register is a new version), with
# retraining at both pool extremes
# (the suite's retraining_is_bit_identical_across_pool_sizes covers
# 1-vs-8 explicitly; the env override makes the default-pool paths match
# too).
cargo test -q -p frappe-lifecycle
FRAPPE_JOBS=1 cargo test -q -p frappe-lifecycle --test lifecycle
FRAPPE_JOBS=8 cargo test -q -p frappe-lifecycle --test lifecycle

echo "==> shard-group suite (fenced multi-group swaps, shared known-names flips) at K=1/3/4, FRAPPE_JOBS=1 and FRAPPE_JOBS=8"
# The shared-nothing deployment: a fenced promote/rollback must land on
# every group atomically under load, and a mid-stream known-names flip
# must reach every group exactly like a single service, with every
# routed ingest visible to the very next read (no flush). Each test sweeps
# the degenerate single-group shape and two genuinely partitioned ones
# (GROUP_COUNTS in tests/shard.rs); run it at both pool extremes too.
cargo test -q -p frappe-lifecycle --test shard
FRAPPE_JOBS=1 cargo test -q -p frappe-lifecycle --test shard
FRAPPE_JOBS=8 cargo test -q -p frappe-lifecycle --test shard

echo "==> scoring suite (packed kernels, pinned arithmetic and training digests)"
# One engine, one arithmetic: the scoring test pins a digest over the
# scalar primitives and packed decisions, plus a trained model's
# support-vector count, rho, dual coefficients and decision values. Any
# change to the lane order or the exponential moves them.
cargo test -q -p svm

echo "==> gauntlet suite (adversarial scenarios, reports pinned by digest, FRAPPE_JOBS=1 and FRAPPE_JOBS=8)"
# The adaptive adversarial engine: all five built-in scenarios must pass
# their declared then-criteria, a whole scenario report must be
# byte-identical at both pool extremes, and each report's canonical JSON
# is pinned by an FNV-1a digest (builtin_reports_are_pinned).
cargo test -q -p frappe-gauntlet
FRAPPE_JOBS=1 cargo test -q -p frappe-gauntlet --test gauntlet
FRAPPE_JOBS=8 cargo test -q -p frappe-gauntlet --test gauntlet

echo "==> network edge suite (thread per connection, HTTP routes, 429/503 shed, fenced hot swap, socket-only lifecycle observation)"
# Real sockets on an ephemeral loopback port: byte-identical verdicts
# vs in-process classify, the deterministic 429 + Retry-After contract
# off the in-flight cap (stall via a parked observer: an in-process
# classify held inside the scorer keeps the one slot taken),
# the accept gate's canned 503 with its always-kept trace,
# a read pause that holds while a router's shedding group is full,
# a promote/rollback under concurrent socket load fenced by the
# drain protocol (zero drops, zero stale bodies), a drain beside a
# half-sent request, and a server drop that joins every connection
# thread wherever it is blocked. socket_traffic_alone_feeds_drift_shadow_and_audit
# drives a drifting world only through /v1/events and /v1/classify, behind
# a single service and a 4-group router, and checks that drift fires, a
# shadow is tallied and promoted, and every fresh score is audited.
cargo test -q -p frappe-net --test edge

echo "==> end-to-end trace suite (socket accept to verdict, shed/swap tail sampling)"
# A 429-shed request (the in-flight cap held by a parked observer) and a
# request in flight across a fenced promote are ALWAYS tail-sampled, with
# causally ordered spans from socket accept to response write, the
# serve spans (admission as serve/queue, then serve/score) scored on the
# connection's own thread; tracing on vs off leaves verdict bytes
# bit-identical.
cargo test -q -p frappe-net --test trace

# The quick benches below must run and succeed, but their numbers are
# quick-mode throwaways: they land in target/ci-bench/, never over the
# committed BENCH_*.json records.
CI_BENCH=target/ci-bench
mkdir -p "$CI_BENCH"

echo "==> training bench, quick mode (serial vs parallel, $CI_BENCH/BENCH_training.json)"
cargo run --release -p frappe-bench --bin repro -- --small --bench-out "$CI_BENCH/BENCH_training.json"

echo "==> lifecycle bench, quick mode (retrain/shadow, $CI_BENCH/BENCH_lifecycle.json)"
cargo run --release -p frappe-bench --bin repro -- --small --lifecycle-bench-out "$CI_BENCH/BENCH_lifecycle.json"

echo "==> shard bench, quick mode (group scaling + zero-stale swap leg, $CI_BENCH/BENCH_shard.json)"
cargo run --release -p frappe-bench --bin repro -- --small --shard-bench-out "$CI_BENCH/BENCH_shard.json"

echo "==> gauntlet bench, quick mode (adversarial scenarios, $CI_BENCH/BENCH_gauntlet.json)"
cargo run --release -p frappe-bench --bin repro -- --small --gauntlet-bench-out "$CI_BENCH/BENCH_gauntlet.json"

echo "==> benchmark crate (its own workspace: build + harness tests)"
# benchmark/ is not a member of the root workspace, yet it calls
# workspace APIs (frappe::scoring::describe, Server::bind, ...); build it
# here so an API change that breaks it fails CI. It passes both an
# Arc<FrappeService> and an Arc<ShardRouter> to Server::bind.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test --release --offline --manifest-path benchmark/Cargo.toml --test harness

echo "==> benchmark traced runs (every per-layer value is a number, no null)"
# The traced summary line (the last line of a run) prints every per-layer
# metric; a span family or counter the program stopped producing reads
# NaN there, printed as null. Run each workload at its full length, as
# the benchmark runs it, and fail on any null in that line.
for workload in edge_read edge_ingest_swap router_ingest_swap catalog_refresh; do
    summary=$(cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- \
        run --workload "$workload" --traced | tail -n 1)
    if [[ "$summary" == *null* ]]; then
        echo "$workload: traced summary carries null: $summary"
        exit 1
    fi
done

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo fmt --check"
cargo fmt --check

echo "CI green."
