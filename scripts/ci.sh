#!/usr/bin/env bash
# Repository CI: tier-1 build + tests, a 2-thread smoke run of every
# experiment binary, and a determinism spot-check (reports produced with
# 2 threads must be byte-identical to a fresh 1-thread run).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier 1: release build =="
cargo build --release

echo "== tier 1: tests =="
cargo test -q

echo "== workspace tests: every member crate's unit, property and e2e tests =="
# A bare `cargo test` covers only the root package; --workspace adds the
# compat shims' unit tests, abonn-serve's property tests and the serve
# end-to-end goldens in crates/bench/tests.
cargo test --release -q --workspace

echo "== lints: abonn-lint determinism & soundness gate (baseline-aware) =="
# Hard gate: exits non-zero on any finding not grandfathered by the
# committed lint-baseline.json. The JSON and SARIF reports are kept as
# build artefacts for trend tracking and code-scanning upload; the rule
# roster is pinned by a committed golden so adding/renaming a rule (or
# changing a severity) is a deliberate, reviewed act.
cargo run --release -q -p abonn-bench --bin lint
mkdir -p target/experiments
cargo run --release -q -p abonn-bench --bin lint -- --json \
    > target/experiments/lint-findings.json
cargo run --release -q -p abonn-bench --bin lint -- --sarif \
    > target/experiments/lint-findings.sarif
cargo run --release -q -p abonn-bench --bin lint -- --list-rules \
    | diff scripts/lint-rules.golden -

echo "== lints: clippy with warnings denied =="
cargo clippy -q --workspace --all-targets -- -D warnings

echo "== smoke: experiment binaries on a 2-lane pool =="
out2=$(mktemp -d)
for exp in table1 table2 fig3 fig4 fig5 fig6; do
    echo "-- $exp --scale smoke --threads 2"
    cargo run --release -q -p abonn-bench --bin "$exp" -- \
        --scale smoke --seed 2025 --threads 2 --out-dir "$out2" >/dev/null
done

echo "== determinism: 1-thread fresh rerun must reproduce the records =="
out1=$(mktemp -d)
cargo run --release -q -p abonn-bench --bin table2 -- \
    --scale smoke --seed 2025 --threads 1 --fresh --out-dir "$out1" >/dev/null
diff "$out2/rq1-smoke-2025.json" "$out1/rq1-smoke-2025.json"

echo "== cache equivalence: --no-bound-cache must reproduce every report byte =="
outnc=$(mktemp -d)
cargo run --release -q -p abonn-bench --bin table2 -- \
    --scale smoke --seed 2025 --threads 2 --fresh --no-bound-cache \
    --out-dir "$outnc" >/dev/null
for report in "$out2"/rq1-smoke-2025.* "$out2"/table2.csv; do
    diff "$report" "$outnc/$(basename "$report")"
done

echo "== warm-start equivalence: --no-warm-start must reproduce every report byte =="
outnw=$(mktemp -d)
cargo run --release -q -p abonn-bench --bin table2 -- \
    --scale smoke --seed 2025 --threads 2 --fresh --no-warm-start \
    --out-dir "$outnw" >/dev/null
for report in "$out2"/rq1-smoke-2025.* "$out2"/table2.csv; do
    diff "$report" "$outnw/$(basename "$report")"
done

echo "== benches: warm-start LP micro-benchmarks (trajectory in perf/BENCH_lp.jsonl) =="
rm -f target/experiments/BENCH_lp.json
ABONN_BENCH_JSON="$PWD/target/experiments/BENCH_lp.json" \
    cargo bench -q -p abonn-lp --bench simplex_warm
ABONN_BENCH_JSON="$PWD/target/experiments/BENCH_lp.json" \
    cargo bench -q -p abonn-lp --bench revised
ABONN_BENCH_JSON="$PWD/target/experiments/BENCH_lp.json" \
    cargo bench -q -p abonn-bound --bench triangle_lp
test -s target/experiments/BENCH_lp.json
# The committed trajectory pins the bench roster: a dropped or renamed
# bench fails the diff and must update perf/BENCH_lp.jsonl deliberately.
# Fresh timings are then appended so the file accumulates a perf history
# across CI runs (commit the growth when it is worth keeping).
diff <(sed -n 's/.*"bench":"\([^"]*\)".*/\1/p' perf/BENCH_lp.jsonl | sort -u) \
     <(sed -n 's/.*"bench":"\([^"]*\)".*/\1/p' target/experiments/BENCH_lp.json | sort -u)
cat target/experiments/BENCH_lp.json >> perf/BENCH_lp.jsonl

echo "== benches: tensor kernel micro-benchmarks (trajectory in perf/BENCH_tensor.jsonl) =="
rm -f target/experiments/BENCH_tensor.json
ABONN_BENCH_JSON="$PWD/target/experiments/BENCH_tensor.json" \
    cargo bench -q -p abonn-tensor --bench blocked
test -s target/experiments/BENCH_tensor.json
diff <(sed -n 's/.*"bench":"\([^"]*\)".*/\1/p' perf/BENCH_tensor.jsonl | sort -u) \
     <(sed -n 's/.*"bench":"\([^"]*\)".*/\1/p' target/experiments/BENCH_tensor.json | sort -u)
cat target/experiments/BENCH_tensor.json >> perf/BENCH_tensor.jsonl

echo "== benches: block-sparse backsub micro-benchmarks (trajectory in perf/BENCH_backsub.jsonl) =="
rm -f target/experiments/BENCH_backsub.json
ABONN_BENCH_JSON="$PWD/target/experiments/BENCH_backsub.json" \
    cargo bench -q -p abonn-bound --bench backsub_sparse
test -s target/experiments/BENCH_backsub.json
diff <(sed -n 's/.*"bench":"\([^"]*\)".*/\1/p' perf/BENCH_backsub.jsonl | sort -u) \
     <(sed -n 's/.*"bench":"\([^"]*\)".*/\1/p' target/experiments/BENCH_backsub.json | sort -u)
cat target/experiments/BENCH_backsub.json >> perf/BENCH_backsub.jsonl

echo "== soundness: fixed-seed differential fuzz smoke =="
outfz=$(mktemp -d)
cargo run --release -q -p abonn-bench --bin fuzz -- \
    --seed 2025 --count 25 --out-dir "$outfz"

echo "== soundness: served-vs-batch differential fuzz smoke =="
cargo run --release -q -p abonn-bench --bin fuzz -- --served --seed 2025 --count 12

echo "== serve: committed session must reproduce the golden transcript byte-for-byte =="
outsv=$(mktemp -d)
cargo run --release -q -p abonn-bench --bin serve -- \
    --threads 2 --store-stats target/experiments/serve-store.json \
    < scripts/serve-session.jsonl > "$outsv/serve-session.out" 2>/dev/null
diff scripts/serve-session.golden "$outsv/serve-session.out"
test -s target/experiments/serve-store.json

echo "== serve: wave batching (--batch 8) must reproduce the same golden =="
./target/release/serve --threads 2 --batch 8 \
    < scripts/serve-session.jsonl > "$outsv/serve-session-batch.out" 2>/dev/null
diff scripts/serve-session.golden "$outsv/serve-session-batch.out"

echo "== serve: two concurrent TCP clients must match their solo goldens =="
./target/release/serve --threads 2 --batch 4 --tcp 127.0.0.1:0 \
    2> "$outsv/daemon.log" &
daemon_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/^listening on \([^ ]*\).*/\1/p' "$outsv/daemon.log" | head -n1)
    [ -n "$addr" ] && break
    sleep 0.1
done
test -n "$addr"
./target/release/serve_client --addr "$addr" scripts/serve-client-a.jsonl \
    > "$outsv/client-a.out" &
client_a=$!
./target/release/serve_client --addr "$addr" scripts/serve-client-b.jsonl \
    > "$outsv/client-b.out" &
client_b=$!
wait "$client_a" "$client_b"
kill "$daemon_pid" 2>/dev/null || true
wait "$daemon_pid" 2>/dev/null || true
diff scripts/serve-client-a.golden "$outsv/client-a.out"
diff scripts/serve-client-b.golden "$outsv/client-b.out"

echo "== serve: a restarted daemon must answer the session from the persisted store =="
./target/release/serve --threads 2 --store-path "$outsv/store.json" \
    < scripts/serve-session.jsonl > /dev/null 2>/dev/null
test -s "$outsv/store.json"
./target/release/serve --threads 2 --batch 8 --store-path "$outsv/store.json" \
    --store-stats "$outsv/warm-stats.json" \
    < scripts/serve-session.jsonl > /dev/null 2>/dev/null
grep -Eq '"appver_calls_total": *0' "$outsv/warm-stats.json"

echo "== serve: a hostile session gets structured errors over stdin and TCP =="
# Too-deep nesting, a bad surrogate pair and a 100 KB string, then a normal
# query: each draws one error line and the daemon keeps serving. The TCP
# leg runs on a per-connection thread with the default 2 MiB stack.
./target/release/serve --threads 2 \
    < scripts/serve-hostile.jsonl > "$outsv/hostile.out" 2>/dev/null
diff scripts/serve-hostile.golden "$outsv/hostile.out"
./target/release/serve --threads 2 --tcp 127.0.0.1:0 2> "$outsv/hostile-daemon.log" &
daemon_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/^listening on \([^ ]*\).*/\1/p' "$outsv/hostile-daemon.log" | head -n1)
    [ -n "$addr" ] && break
    sleep 0.1
done
test -n "$addr"
./target/release/serve_client --addr "$addr" scripts/serve-hostile.jsonl \
    > "$outsv/hostile-tcp.out"
kill "$daemon_pid" 2>/dev/null || true
wait "$daemon_pid" 2>/dev/null || true
diff scripts/serve-hostile.golden "$outsv/hostile-tcp.out"
rm -rf "$outsv"

# The LP replay over the 3072-input conv models costs minutes per
# certificate, so CI audits the MNIST models; drop --models for the rest.
echo "== soundness: certificate audit over the MNIST tier-1 suite =="
cargo run --release -q -p abonn-bench --bin check -- \
    --scale smoke --seed 2025 --out-dir "$out2" --models mnist 2>/dev/null

rm -rf "$out1" "$out2" "$outnc" "$outnw" "$outfz"
echo "ci: ok"
