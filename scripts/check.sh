#!/usr/bin/env bash
# Repo health check: tier-1 (build + root-package tests) plus the
# sanitizer and static-lint suites. Run from anywhere; exits non-zero
# on any failure.
set -euo pipefail
cd "$(dirname "$0")/.."

# First-party crates (vendored shims under vendor/ are exempt from the
# clippy gate).
FIRST_PARTY=(-p tridiag-core -p gpu-sim -p tridiag-gpu -p cpu-ref -p tridiag-service -p tridiag-cli -p bench)

echo "== tier-1: build =="
cargo build --release

echo "== tier-1: root-package tests =="
cargo test -q

echo "== clippy (first-party, warnings are errors) =="
cargo clippy "${FIRST_PARTY[@]}" --all-targets -- -D warnings

echo "== sanitizer: negative suite (violations must fire) =="
cargo test -q -p gpu-sim --test sanitizer_negative

echo "== lint: negative suite (every diagnostic class must fire) =="
cargo test -q -p gpu-sim --test lint_negative

echo "== sanitizer: kernel zoo must run clean =="
cargo test -q -p tridiag-gpu --test sanitizer_clean

echo "== golden counters (incl. static-vs-dynamic cross-check) =="
cargo test -q -p tridiag-gpu --test golden_counters

echo "== phase sums (per-phase counters partition kernel totals) =="
cargo test -q -p tridiag-gpu --test phase_sums

echo "== trace export (Chrome-trace schema + round-trip) =="
cargo test -q -p tridiag-gpu --test trace_roundtrip

echo "== plan snapshots (golden describe() + plan-then-execute bit-identity; Fig. 12/13 modeled-time pins) =="
cargo test --release -q -p tridiag-gpu --test plan_snapshots

echo "== sharded partition properties (coverage, balance, typed degenerate errors) =="
cargo test -q -p tridiag-gpu --test sharded_partition

echo "== sharded trace merge (Chrome schema, per-device tracks, bit-exact phase sums) =="
cargo test -q -p tridiag-gpu --test sharded_trace

echo "== sharded differential harness (shard(D) . merge == single device, bit-for-bit) =="
cargo test --release -q -p tridiag-gpu --test sharded_differential

echo "== distributed partition properties (row coverage, interface bijection, mixed groups) =="
cargo test -q -p tridiag-gpu --test distributed_partition_props

echo "== distributed differential harness (split(D) . reduce . back-sub vs single device) =="
cargo test --release -q -p tridiag-gpu --test distributed_differential

echo "== bench harness unit tests (history ledger parser, argument parsing, series) =="
cargo test --release -q -p bench

echo "== repository benchmark unit tests (benchmark/, host-clock instrument) =="
cargo test --release -q --manifest-path benchmark/Cargo.toml

echo "== distributed scaling bench (D=4 must beat D=2) =="
cargo run --release -q -p bench --bin distributed_scaling -- --fast

echo "== service differential harness (coalesced == solo, bit-for-bit, 60 mixes; pinned window sweep) =="
cargo test --release -q -p tridiag-service --test service_differential

echo "== service plan-cache properties (hit == fresh build byte-for-byte) =="
cargo test --release -q -p tridiag-service --test plan_cache_props

echo "== service concurrency stress (bounded queue, typed overload, fault isolation) =="
cargo test --release -q -p tridiag-service --test service_stress

echo "== seed-era release suites (engine parity + scalability under --release) =="
cargo test --release -q --test engine_parity --test scalability

echo "== CLI end-to-end tests (usage errors, rejected options, --split-n auto) =="
cargo test --release -q -p tridiag-cli

echo "== CLI lint over the kernel zoo (exit 0 = no findings) =="
cargo run --release -q -p tridiag-cli -- lint

echo "== CLI --check smoke (sanitizer + lint on a solve) =="
out="$(cargo run --release -q -p tridiag-cli -- solve --m 8 --n 256 --check)"
grep -q "sanitizer   : clean" <<<"$out"
grep -q "lint        : clean" <<<"$out"

echo "== CLI plan smoke (dry-run planning, plan JSON) =="
out="$(cargo run --release -q -p tridiag-cli -- solve --m 16 --n 1024 --dry-run)"
grep -q "dry run     : no kernels launched" <<<"$out"
out="$(cargo run --release -q -p tridiag-cli -- plan --m 64 --n 512 --json)"
grep -q "tridiag.solve_plan/v3" <<<"$out"

echo "== CLI layout smoke (forced layouts plan, solve and certify) =="
out="$(cargo run --release -q -p tridiag-cli -- plan --m 64 --n 512 --layout interleaved)"
grep -q "layout=Interleaved" <<<"$out"
out="$(cargo run --release -q -p tridiag-cli -- solve --m 64 --n 512 --layout interleaved --verify)"
grep -q "verify      : clean" <<<"$out"
out="$(cargo run --release -q -p tridiag-cli -- solve --m 64 --n 512 --layout contiguous --check)"
grep -q "sanitizer   : clean" <<<"$out"

echo "== layout acceptance gate (coalesced floor exactly, pinned layout ablation) =="
cargo test --release -q -p tridiag-gpu --test layout_cost

echo "== interleaved differential (GPU vs cpu-ref lane reference) =="
cargo test --release -q -p tridiag-gpu --test interleaved_differential

echo "== layout properties (bijection, round-trip) =="
cargo test -q -p tridiag-core --test layout_properties

echo "== plan verifier: negative suite (every diagnostic class must fire) =="
cargo test -q -p tridiag-gpu --test verify_negative

echo "== plan verifier: properties (planner-built certifies clean, prediction exact) =="
cargo test --release -q -p tridiag-gpu --test verify_props

echo "== CLI verify smoke (static certificate; executed cross-check on a solve) =="
out="$(cargo run --release -q -p tridiag-cli -- verify --m 64 --n 512)"
grep -q "clean" <<<"$out"
out="$(cargo run --release -q -p tridiag-cli -- solve --m 8 --n 256 --verify)"
grep -q "verify      : clean" <<<"$out"

echo "== API docs (first-party, warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps \
  -p tridiag-core -p gpu-sim -p tridiag-gpu -p cpu-ref -p tridiag-service > /dev/null

echo "== CLI multi-device smoke (sharded solve + sharded plan schema) =="
out="$(cargo run --release -q -p tridiag-cli -- solve --m 8 --n 256 --devices 2)"
grep -q "devices     : 2" <<<"$out"
out="$(cargo run --release -q -p tridiag-cli -- plan --m 64 --n 512 --devices 2 --json)"
grep -q "tridiag.sharded_plan/v3" <<<"$out"

echo "== CLI distributed smoke (one system row-split, certified + solved) =="
out="$(cargo run --release -q -p tridiag-cli -- solve --split-n 4 --n 4096 --verify)"
grep -q "one system row-split" <<<"$out"
grep -q "distributed : reduced 8 unknowns" <<<"$out"
grep -q "verify      : clean" <<<"$out"
out="$(cargo run --release -q -p tridiag-cli -- plan --split-n 2 --n 16384 --json)"
grep -q "tridiag.distributed_plan/v1" <<<"$out"
out="$(cargo run --release -q -p tridiag-cli -- verify --split-n 2 --n 16384)"
grep -q "clean" <<<"$out"

echo "== CLI serve smoke (8 concurrent requests, bit-checked vs solo, exit 2 on mismatch) =="
out="$(cargo run --release -q -p tridiag-cli -- serve --requests 8 --clients 4)"
grep -q "answered 8/8 bit-identical to solo" <<<"$out"

echo "== CLI profile smoke (trace schema + phase sums, exit 2 on violation) =="
tracedir="$(mktemp -d)"
trap 'rm -rf "$tracedir"' EXIT
cargo run --release -q -p tridiag-cli -- profile --m 8 --n 256 --out "$tracedir/trace.json"
test -s "$tracedir/trace.json"
cargo run --release -q -p tridiag-cli -- profile --zoo --out "$tracedir/zoo.json" > /dev/null
test -s "$tracedir/zoo.json"

echo "== telemetry: metrics registry + event-log replay + determinism properties =="
cargo test -q -p gpu-sim --lib metrics
cargo test --release -q -p tridiag-service --test telemetry_props

echo "== CLI stats smoke (snapshot tables + every telemetry invariant, exit 2 on violation) =="
out="$(cargo run --release -q -p tridiag-cli -- stats --requests 24)"
grep -q "partitions report totals bit-exactly" <<<"$out"
grep -q "slo: target" <<<"$out"
cargo run --release -q -p tridiag-cli -- stats --requests 24 --json | grep -q "tridiag.metrics/v1"

echo "== telemetry artifact sweep (stats --out + serve --telemetry, all schemas validated) =="
cargo run --release -q -p tridiag-cli -- stats --requests 24 --out "$tracedir/tel" > /dev/null
test -s "$tracedir/tel/metrics.json"
test -s "$tracedir/tel/events.jsonl"
test -s "$tracedir/tel/trace.json"
out="$(cargo run --release -q -p tridiag-cli -- serve --requests 8 --clients 4 --telemetry "$tracedir/tel_serve")"
grep -q "answered 8/8 bit-identical to solo" <<<"$out"
test -s "$tracedir/tel_serve/events.jsonl"

echo "all checks passed"
