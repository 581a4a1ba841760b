#!/usr/bin/env bash
# Repo-wide quality gate: formatting, lints, and the full test suite.
#
# Everything runs against the vendored in-tree dependency set (see
# vendor/README.md) — no registry access is needed or attempted.
set -euo pipefail
cd "$(dirname "$0")/.."

# The registry is unreachable in the build environment; every dependency
# is an in-tree path crate, so force cargo to never try the network.
export CARGO_NET_OFFLINE=true

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

# Every target of the root package and the first-party crates: tests
# and examples too. The vendored crates stay at the library-only pass
# above; their own tests do not follow this lint set.
echo "==> cargo clippy --all-targets (first-party) -- -D warnings"
cargo clippy --workspace --all-targets \
  --exclude proptest --exclude rand \
  --exclude serde --exclude serde_derive --exclude serde_json \
  -- -D warnings

echo "==> cargo test -q --workspace"
cargo test -q --workspace

# The benchmark is a workspace of its own, so the pass above skips it.
# Its tests hold BENCHMARK.json equal to the metric tables the binary
# emits and run the smoke path's correctness checks.
echo "==> benchmark tests (BENCHMARK.json vs emitted metrics, smoke checks)"
cargo test --release --offline -q --manifest-path benchmark/Cargo.toml

# Benchmark smoke: every workload in its own child process on a tenth
# of its windows, with every correctness check armed (repeat digests,
# traced-vs-untraced equality, held_fs8's ledger balance and 90% peak).
# Exits 1 on a failed check.
echo "==> benchmark smoke (all four workloads, checks armed)"
cargo run --release --offline -q --manifest-path benchmark/Cargo.toml -- \
  --smoke --seconds 1 --out target/benchmark-smoke

# Bench smoke: self-profile the event core on a short window and hold
# the timing-wheel's events/sec against the committed baseline. The
# wide tolerance absorbs machine-to-machine variance (the committed
# baseline is a full-length run on the reference box); a real scheduler
# regression shows up as a multiple, not a few percent.
echo "==> bench smoke (event-core self-profile vs committed baseline)"
cargo build -q --release -p fastsocket-bench --bin selfprof
./target/release/selfprof 0.02 --baseline results/BENCH_event_core.json --tolerance 0.5

# Chaos smoke: one short fault schedule per kernel with every sanitizer
# armed. Fails on any lockdep/lockset/partition finding during fault
# handling, or if a kernel never climbs back to 90% of its pre-fault
# throughput after the heal (time_to_recover == None).
echo "==> chaos smoke (fault injection under sanitizers)"
cargo build -q --release -p fastsocket-bench --bin chaos
./target/release/chaos --smoke

# Edge smoke: one short edge-tier fault schedule per kernel (SYN flood
# behind the pre-steering drop filter, a backend flap, a backend crash)
# with all five sim-check detectors armed. Fails on any sanitizer
# finding or on a single lost request — the retry budget must save
# every client that hits a dead backend.
echo "==> edge smoke (edge-tier resilience under sanitizers)"
cargo build -q --release -p fastsocket-bench --bin edge
./target/release/edge --smoke

# Capacity smoke: a short open-loop ladder per kernel with sanitizers
# armed — doubled same-seed runs must be bit-identical and the emitted
# bench artifact must round-trip through the schema. Then the committed
# full-matrix artifact is schema-checked, including the 24-core SLO
# capacity ordering (fastsocket > linux-3.13 > base).
echo "==> capacity smoke (open-loop SLO ladder under sanitizers)"
cargo build -q --release -p fastsocket-bench --bin capacity
./target/release/capacity --smoke
./target/release/capacity --validate results/BENCH_capacity.json

# Concurrency smoke: a short 2-core max-concurrency ladder against a
# deliberately tight modeled RAM budget with all five sim-check
# detectors armed — the first rung of every ladder runs doubled and
# must be bit-identical, every rung's memory accounts must balance at
# drain, and the top rung must cross into the pressure zone. Then the
# committed full artifact is schema-checked (fastsocket must hold 1M+
# modeled concurrent sockets under the SLO, never behind a baseline).
echo "==> concurrency smoke (memory ledger + pressure under sanitizers)"
cargo build -q --release -p fastsocket-bench --bin concurrency
./target/release/concurrency --smoke
./target/release/concurrency --validate results/BENCH_concurrency.json

# Bulk smoke: a short kernel x congestion-control x response-size
# matrix with the sliding-window data plane armed and sanitizers on —
# the first cell of every (kernel, cc) column runs doubled and must be
# bit-identical, the three controllers must leave distinct result
# digests, and the emitted bench artifact must round-trip through the
# schema. Then the committed full-matrix artifact is coverage-checked
# (3 kernels x 3 cc x >= 3 sizes, every cell moving payload).
echo "==> bulk smoke (sliding-window data plane under sanitizers)"
cargo build -q --release -p fastsocket-bench --bin bulk
./target/release/bulk --smoke
./target/release/bulk --validate results/BENCH_bulk.json

# Parallel-engine smoke: a 2-lane sharded run with every sanitizer
# armed, digest-asserted bit-identical between the serial-windowed and
# threaded executors. Then the speedup gate: the 8-lane point of the
# 24-core fig4a profile must stay at >= 3x over the 1-lane run — but
# only on hosts with >= 8 cores to express it (no such host has run it
# yet; see EXPERIMENTS.md); smaller
# hosts still run the sweep (every point stays digest-asserted) and
# skip only the wall-clock threshold.
echo "==> par smoke (lane-sharded engine under sanitizers)"
cargo build -q --release -p fastsocket-bench --bin par_speedup
./target/release/par_speedup --smoke
host_cores=$(nproc 2>/dev/null || echo 1)
if [ "$host_cores" -ge 8 ]; then
  echo "==> par speedup gate (host has ${host_cores} cores: enforcing >= 3x at 8 lanes)"
  ./target/release/par_speedup 0.1 --min-speedup 3.0
else
  echo "==> par speedup sweep (host has ${host_cores} cores: digest-asserted, wall-clock gate skipped)"
  ./target/release/par_speedup 0.1
fi

# Verification gate: the verify bin runs all three runtime detectors
# (lockset, happens-before, shard certifier) plus strict partition
# invariants at 1, 8 and 24 cores on every kernel, prints the
# cross-core ownership table, and re-checks doubled-run digest
# determinism. (tcp-stack's write scopes need no gate here: the window
# and congestion-control fields are private to `window.rs` and `cc.rs`,
# so the compiler enforces them.)
echo "==> verify (three-detector gate at 1/8/24 cores)"
cargo build -q --release -p fastsocket-bench --bin verify
./target/release/verify 0.1

echo "All checks passed."
