#!/usr/bin/env sh
# Tier-1 CI gate: formatting, lints, build, the full test suite, then
# smoke-test the sweep executor (bench_sweep --quick also verifies that
# parallel aggregates, metrics sheets and diagnoses are byte-identical to
# the serial run, exiting non-zero if not).
set -eu

cd "$(dirname "$0")/.."

cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
cargo build --release --all-targets
cargo test -q --release --workspace
# Telemetry determinism: parallel metrics/diagnoses must be byte-identical
# to serial, and every failed trial must land in a concrete §5 vector.
cargo test -q --release --test telemetry
# Golden traces: the packet-level mechanism of one canonical trial per
# strategy family, byte-compared against tests/golden/ snapshots.
cargo test -q --release --test golden_traces
cargo run --release -p intang-experiments --bin bench_sweep -- --quick >/dev/null
# Simcheck gate: the same smoke sweep with the runtime invariant checker
# enabled must report zero violations (bench_sweep exits non-zero and
# drops a minimal-repro artifact into .simcheck/ otherwise), and the
# violation-injection suite must show the shrinker producing a
# deterministic repro for a known-bad trial.
INTANG_SIMCHECK=1 cargo run --release -p intang-experiments --bin bench_sweep -- --quick >/dev/null
cargo test -q --release --test simcheck
# Zero-copy substrate invariants: the timing-wheel event queue must pop in
# exactly the reference (time, insertion-seq) order, COW wire buffers must
# never alias writes across clones, the wide-word checksum and DPI
# skip-loop kernels must agree with their scalar references at every
# length/alignment/split, and arena recycling must be observationally
# invisible.
cargo test -q --release --test properties
# Determinism matrix: sweep outputs byte-identical at 1/2/8 workers, and
# metropolis outputs byte-identical at every domains x workers cell.
cargo test -q --release --test determinism
# Kernel microbench smoke: asserts kernel/reference agreement on real
# iterations (a tiny time budget keeps it a compile-and-agree check, not a
# measurement).
INTANG_BENCH_BUDGET_MS=20 cargo bench -q -p intang-bench --bench kernels >/dev/null
# Allocation ceiling: steady-state heap allocations per trial must stay
# under 100 (the shard arenas' reason to exist; the seed was ~307).
INTANG_ALLOC_GATE=100 cargo run --release -p intang-experiments --features alloc-count --bin bench_sweep -- --quick >/dev/null
# Throughput regression gate: serial events/s within 10% of the blessed
# baseline (scripts/bench_smoke_baseline.txt; INTANG_BLESS=1 re-blesses
# after a hardware change; a missing file blesses automatically).
cargo run --release -p intang-experiments --bin bench_sweep -- --smoke
# Observability overhead: with the whole observability stack explicitly
# disabled the same smoke gate must still pass — the dormant span sites,
# gauge hooks and flight checks may not cost measurable throughput.
INTANG_SERIES=0 INTANG_SPANS=0 INTANG_FLIGHT=0 INTANG_PROGRESS=0 \
    cargo run --release -p intang-experiments --bin bench_sweep -- --smoke
# Folded-stack export smoke: the instrumented pass of each binary must
# produce a non-empty profile where every line parses as
# `stack<space>count` (metropolis profiles run on domain worker threads).
folded="${TMPDIR:-/tmp}/ci_profile.folded"
for bin in bench_sweep metropolis; do
    cargo run --release -p intang-experiments --bin "$bin" -- --quick --profile-folded "$folded" >/dev/null
    test -s "$folded" || { echo "ci: FAIL: $bin folded profile is empty" >&2; exit 1; }
    awk 'NF < 2 || $NF !~ /^[0-9]+$/ { print "ci: FAIL: bad folded line: " $0; bad = 1 } END { exit bad }' "$folded"
    rm -f "$folded"
done
# Fault layer smoke: degradation matrix at all intensities; the 0.00 row
# doubles as a no-op check for the fault plumbing.
cargo run --release -p intang-experiments --bin fault_matrix -- --smoke >/dev/null
# Metropolis smoke: a 1k-flow shared world with the invariant checker on
# must finish with zero simcheck violations, zero per-flow ordering
# regressions, and peak RSS under the ceiling (the binary reads VmHWM and
# exits non-zero past it, in every mode). Every --smoke runs the domains=1
# serial reference, then a parallel leg (multi-domain, 2 workers)
# byte-compared against it. The 1k-flow smokes peak at 6-7 MB; their
# 24 MB ceiling is a few times that.
INTANG_SIMCHECK=1 INTANG_METRO_RSS_MB=24 \
    cargo run --release -p intang-experiments --bin metropolis -- --smoke
# Parallel metropolis smoke at full width: 8 event domains on 8 worker
# threads under the invariant checker; exits non-zero on any
# serial/parallel divergence (outcome grid, counters, metrics) or an RSS
# peak past the ceiling.
INTANG_SIMCHECK=1 INTANG_METRO_RSS_MB=24 \
    cargo run --release -p intang-experiments --bin metropolis -- --smoke --domains 8 --workers 8
# Metropolis memory at scale: the 100k-flow serial world (one censor, one
# deep event queue, ~14k live connections at its peak) peaks at 62 MB;
# the ceiling sits ~15% above it, so storage that tracks history or
# growth slack instead of live state (a timing wheel that keeps every
# bucket's peak capacity, drained reassembly maps, socket tables and
# segment queues grown past their one live entry, TCBs stored inline in
# a half-empty hash table) fails here.
INTANG_METRO_RSS_MB=71 \
    cargo run --release -p intang-experiments --bin metropolis -- --quick --flows 100000 --domains 1 --workers 1 >/dev/null
# Censor-profile gate: every profiles/*.toml must parse, round-trip and
# compile; the checked-in gfw_prior/gfw_evolved files must drive a quick
# paper sweep byte-identical (rows, events, metrics, diagnoses) to the
# hard-coded models at 1/2/8 workers under the invariant checker; and the
# turkmenistan profile must block with spoofed 403 blockpages, zero forged
# SYN/ACKs, and an outcome grid distinct from the GFW's.
INTANG_SIMCHECK=1 cargo run --release -p intang-experiments --bin censor_profiles >/dev/null
# Middlebox-enabled metropolis smoke: the seqfw hop behind the censor must
# not cost serial/parallel identity.
INTANG_SIMCHECK=1 INTANG_METRO_RSS_MB=24 \
    cargo run --release -p intang-experiments --bin metropolis -- --smoke --middlebox
# Repo benchmark self-test: perfbench's traced replay mirrors the
# metropolis topology, PATH_HOPS and lane seeds; its tests check that the
# mirror still reproduces the library's runs.
cargo test -q --release --manifest-path perfbench/Cargo.toml

echo "ci: OK"
