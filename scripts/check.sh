#!/usr/bin/env bash
# Repo health check: tier-1 (build + root-package tests), rustfmt, clippy, every
# workspace test once, the benchmark's unit tests, API docs and the CLI
# smokes. Run from anywhere; exits non-zero on any failure.
set -euo pipefail
cd "$(dirname "$0")/.."

# First-party crates (vendored shims under vendor/ are exempt from the
# rustfmt and clippy gates).
FIRST_PARTY=(-p tridiag-core -p gpu-sim -p tridiag-gpu -p cpu-ref -p tridiag-service -p tridiag-cli -p bench)

echo "== tier-1: build =="
cargo build --release

echo "== tier-1: root-package tests =="
cargo test -q

echo "== rustfmt (first-party and the root package; vendor/ and benchmark/ are exempt) =="
cargo fmt "${FIRST_PARTY[@]}" -p scalable-tridiag -- --check

echo "== clippy (first-party, warnings are errors) =="
cargo clippy "${FIRST_PARTY[@]}" --all-targets -- -D warnings

echo "== every workspace test, once (lib units; sanitizer/counter-finding/verifier negative suites; golden counters, plan snapshots, layout, differential and service pins; properties; CLI) =="
cargo test --release -q --workspace

echo "== repository benchmark unit tests (benchmark/, host-clock instrument) =="
cargo test --release -q --manifest-path benchmark/Cargo.toml

echo "== distributed scaling bench (D=4 must beat D=2) =="
cargo run --release -q -p bench --bin distributed_scaling -- --fast

echo "== CLI lint over the kernel zoo: sanitizer + counter findings (exit 0 = no findings) =="
cargo run --release -q -p tridiag-cli -- lint

echo "== CLI --sanitize smoke (the sanitizer on a solve) =="
out="$(cargo run --release -q -p tridiag-cli -- solve --m 8 --n 256 --sanitize)"
grep -q "sanitizer   : clean" <<<"$out"
# The window engine's bulk-counted shared accesses under the sanitizer:
# a low-k fused geometry (f64, k = 4), a service-sized batch, and the
# f32 block-group tiled PCR of one long system.
out="$(cargo run --release -q -p tridiag-cli -- solve --m 64 --n 2048 --sanitize)"
grep -q "sanitizer   : clean" <<<"$out"
out="$(cargo run --release -q -p tridiag-cli -- solve --m 4 --n 512 --sanitize)"
grep -q "sanitizer   : clean" <<<"$out"
out="$(cargo run --release -q -p tridiag-cli -- solve --m 1 --n 16384 --precision f32 --sanitize)"
grep -q "sanitizer   : clean" <<<"$out"

echo "== CLI plan smoke (dry-run planning, plan JSON) =="
out="$(cargo run --release -q -p tridiag-cli -- solve --m 16 --n 1024 --dry-run)"
grep -q "dry run     : no kernels launched" <<<"$out"
out="$(cargo run --release -q -p tridiag-cli -- plan --m 64 --n 512 --json)"
grep -q "tridiag.solve_plan/v3" <<<"$out"

echo "== CLI closed-pipe smoke (a reader that stops early is a quiet exit 0, not a panic) =="
cargo build --release -q -p tridiag-cli
status=0
./target/release/tridiag plan --m 1024 --n 512 --layout contiguous | head -2 > /dev/null || status="${PIPESTATUS[0]}"
[ "$status" -eq 0 ] || { echo "tridiag plan | head -2 exited $status"; exit 1; }
# The same with a reader that closed its end before the first write.
status=0
{ sleep 0.2; ./target/release/tridiag plan --m 1024 --n 512 --layout contiguous; } \
  | (exec 0<&-; sleep 0.4) || status="${PIPESTATUS[0]}"
[ "$status" -eq 0 ] || { echo "tridiag plan into a closed pipe exited $status"; exit 1; }

echo "== CLI plan rule smoke (which rule decided, Table III's k beside it) =="
out="$(cargo run --release -q -p tridiag-cli -- plan --m 64 --n 512)"
grep -q "rule: tuned cell M∈\[64,128) N∈\[512,1024)" <<<"$out"
out="$(cargo run --release -q -p tridiag-cli -- plan --m 64 --n 512 --device gtx280)"
grep -q "rule: Table III fallback (spec not tuned)" <<<"$out"

echo "== CLI tune smoke (the planner's own search: k = 5 at M = 16, N = 4096, as planned) =="
out="$(cargo run --release -q -p tridiag-cli -- tune --n 4096 --m-list 16)"
grep -qE "^ +16 +5 " <<<"$out"

echo "== CLI fusion smoke (the planner fuses block-per-system hybrids, never k = 0) =="
out="$(cargo run --release -q -p tridiag-cli -- plan --m 64 --n 512)"
grep -q "fused=true" <<<"$out"
out="$(cargo run --release -q -p tridiag-cli -- plan --m 2048 --n 64)"
grep -q "fused=false" <<<"$out"

echo "== CLI layout smoke (forced layouts plan, solve and certify) =="
out="$(cargo run --release -q -p tridiag-cli -- plan --m 64 --n 512 --layout interleaved)"
grep -q "layout=Interleaved" <<<"$out"
out="$(cargo run --release -q -p tridiag-cli -- solve --m 64 --n 512 --layout interleaved --verify)"
grep -q "verify      : clean" <<<"$out"
# An interleaved host batch under an interleaved plan: an elided solve
# whose coefficient arrays are borrowed, under the sanitizer.
out="$(cargo run --release -q -p tridiag-cli -- solve --m 64 --n 512 --layout interleaved --sanitize)"
grep -q "sanitizer   : clean" <<<"$out"
out="$(cargo run --release -q -p tridiag-cli -- solve --m 64 --n 512 --layout contiguous --sanitize)"
grep -q "sanitizer   : clean" <<<"$out"

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

echo "== CLI large-geometry smokes (only plans that run are held to device memory) =="
# 8192 x 4096 f64 overflows one GTX480 but not two shards of 4096.
out="$(cargo run --release -q -p tridiag-cli -- plan --m 8192 --n 4096 --devices 2)"
grep -q "sharded plan: m=8192" <<<"$out"
# One 131072-row system fits the device and the service runs it.
out="$(cargo run --release -q -p tridiag-cli -- stats --requests 2 --m 1 --n 131072)"
grep -q "completed 2" <<<"$out"
# A lone 1 x 2M request runs at its own decision: the service's makespan
# is within 1.25x of the modeled time `solve` reports for it.
solve_us="$(cargo run --release -q -p tridiag-cli -- solve --m 1 --n 2097152 | awk '/^modeled time:/ {print $3}')"
out="$(cargo run --release -q -p tridiag-cli -- stats --requests 1 --m 1 --n 2097152)"
grep -q "completed 1" <<<"$out"
makespan_us="$(grep -o 'makespan [0-9.]*' <<<"$out" | awk '{print $2}')"
awk -v s="$solve_us" -v m="$makespan_us" 'BEGIN { exit !(s > 0 && m <= 1.25 * s) }' || {
  echo "service 1x2M makespan $makespan_us us exceeds 1.25 x solve's $solve_us us"
  exit 1
}

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

echo "== CLI stats smoke (snapshot tables + every telemetry invariant, exit 2 on violation) =="
out="$(cargo run --release -q -p tridiag-cli -- stats --requests 24)"
grep -q "partitions report totals bit-exactly" <<<"$out"
grep -q "slo: target" <<<"$out"
cargo run --release -q -p tridiag-cli -- stats --requests 24 --json | grep -q "tridiag.metrics/v1"
# An overload burst: multi-batch ticks whose windows overlap a busy
# device, and bounces at the queue bound, all through the validators.
out="$(cargo run --release -q -p tridiag-cli -- stats --requests 200 --precision mixed)"
grep -q "partitions report totals bit-exactly" <<<"$out"

echo "== telemetry artifact sweep (stats --out + serve --telemetry, all schemas validated) =="
cargo run --release -q -p tridiag-cli -- stats --requests 24 --out "$tracedir/tel" > /dev/null
test -s "$tracedir/tel/metrics.json"
test -s "$tracedir/tel/events.jsonl"
test -s "$tracedir/tel/trace.json"
out="$(cargo run --release -q -p tridiag-cli -- serve --requests 8 --clients 4 --telemetry "$tracedir/tel_serve")"
grep -q "answered 8/8 bit-identical to solo" <<<"$out"
test -s "$tracedir/tel_serve/events.jsonl"

echo "all checks passed"
