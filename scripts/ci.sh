#!/usr/bin/env bash
# The full local CI gate: release build, tests, lints, exact simperf
# counters, perf smoke.
#
# The perf comparison is advisory here (it prints, but a shared/loaded
# machine must not fail CI); run scripts/perf_check.sh directly for the
# enforcing version.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release

echo "== cargo test =="
cargo test -q

echo "== cargo clippy (deny warnings) =="
cargo clippy --all-targets -- -D warnings

echo "== fault-matrix smoke (worst cell, release) =="
# The full loss x outage x reorder grid already ran under `cargo test`;
# this re-runs just the harshest cell per primitive under the release
# profile, where timing-sensitive reliability bugs shake out differently.
cargo test -q --release --test fault_matrix smoke_

echo "== crash/failover cells (release) =="
# The replicated-pool crash, failover, and rejoin cells re-run under the
# release profile: failure detection races on timer ordering and PSN
# resync, which optimization can reshuffle. This includes the cuckoo
# relocation-crash cell (crash_lookup_mid_relocation_*): a primary dying
# with displacement WRITEs in flight is the sharpest ordering race in the
# tree, its remote-op twin (crash_remote_ops_lookup_*), where failover
# must reissue in-flight hash-probe ops verbatim against the promoted
# mirror without re-planning them, the parallel-backend replay of the
# harshest state-store cell
# (crash_state_store_rejoin_under_parallel_backend), where the crashed
# server lives in a different partition than the switch driving it, and
# the sharded store's cell (crash_fabric_shard_*), where one shard's
# primary dies and rejoins while consistent-hash routing keeps the other
# shards counting.
cargo test -q --release --test fault_matrix crash_

echo "== wire-counter isolation (release, 5 runs x 8 test threads) =="
# The zero-copy tests assert exact alloc/CoW/digest deltas while sibling
# tests build packets on other threads. The counters are per thread, so
# the deltas must hold on every run however the tests interleave.
for _ in 1 2 3 4 5; do
    cargo test -q --release --test payload_sharing -- --test-threads 8
done

echo "== scheduler equivalence proptests (release) =="
# The timing-wheel vs binary-heap oracle properties plus the parallel
# engine's lookahead-safety and digest-equivalence properties, under the
# optimized profile the perf numbers are measured with (overflow/ordering
# bugs can be profile-dependent).
cargo test -q --release --test structure_proptests

echo "== backend equivalence at 1/2/4 workers (release) =="
# The full-scenario equivalence suite at three parallel worker counts.
# Each run already asserts wheel == heap == parallel(N) internally; the
# digest lines it prints are additionally compared *across* the three
# runs, so a thread-count-dependent trace can't slip through even if it
# were self-consistent within one run. `-q` prints a progress dot in
# front of every line but the first, so the lines are matched anywhere,
# not at line start.
digest_log="$(mktemp)"
trap 'rm -f "$digest_log"' EXIT
for n in 1 2 4; do
    EXTMEM_SCHED_THREADS=$n cargo test -q --release --test sched_equivalence -- --nocapture \
        | grep -o 'sched_equivalence .*' | sort > "$digest_log.$n"
done
if [[ ! -s "$digest_log.1" ]]; then
    echo "FAIL: no sched_equivalence digest lines captured" >&2
    exit 1
fi
if ! diff -q "$digest_log.1" "$digest_log.2" >/dev/null \
    || ! diff -q "$digest_log.1" "$digest_log.4" >/dev/null; then
    echo "FAIL: scenario digests differ across EXTMEM_SCHED_THREADS=1,2,4" >&2
    diff "$digest_log.1" "$digest_log.2" >&2 || true
    diff "$digest_log.1" "$digest_log.4" >&2 || true
    exit 1
fi
rm -f "$digest_log.1" "$digest_log.2" "$digest_log.4"
echo "digests identical across 1, 2 and 4 workers"

echo "== simperf exact counters vs BENCH_simperf.json =="
# The refactor oracle: every simperf scenario's trace digest, event count
# and hop-packet count must equal the committed baseline exactly. These
# are deterministic work counters, so any difference is a behaviour
# change that must be explained (and the baseline re-captured), never
# noise. Wall-clock stays advisory (perf smoke below).
if ! command -v jq >/dev/null; then
    echo "FAIL: the simperf exact-counter gate needs jq" >&2
    exit 1
fi
fresh_simperf=target/simperf_exact.json
./target/release/simperf "$fresh_simperf" >/dev/null
exact='.scenarios | map_values({digest, events, packets})'
if ! diff <(jq -S "$exact" BENCH_simperf.json) <(jq -S "$exact" "$fresh_simperf") >&2; then
    echo "FAIL: simperf digest/events/packets differ from BENCH_simperf.json" >&2
    exit 1
fi
echo "all simperf digests, events and packets match BENCH_simperf.json"

echo "== benchmark self-tests (release) =="
# perfbench/ is a package of its own (BENCHMARK.json's command runs it).
# Its tests check the metric arithmetic and run every workload at reduced
# length on seeds 1, 7 and 1009 with exact-counter and determinism checks.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== perf smoke (advisory) =="
perf_rc=0
scripts/perf_check.sh || perf_rc=$?
case "$perf_rc" in
    0) echo "perf: within tolerance of BENCH_simperf.json" ;;
    3) echo "perf: SKIPPED - gate could not run (missing jq or baseline); no comparison was made" ;;
    *) echo "perf: WARNING - below baseline tolerance (not failing CI; investigate or re-baseline)" ;;
esac

echo "== ci.sh: all gates passed =="
