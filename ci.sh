#!/usr/bin/env bash
# ci.sh — the full verification pipeline, runnable locally and in CI.
#
# Order matters: formatting and static analysis run before the build so a
# contract violation fails fast with a precise diagnostic instead of a test
# log. custodylint (cmd/custodylint) enforces the project invariants
# documented in DESIGN.md: determinism (detrand, maporder), layering,
# error-handling (errdrop), concurrency safety (guardedby, goroutine), and
# hot-path allocation (noalloc).
set -euo pipefail
cd "$(dirname "$0")"

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "$unformatted"
    echo "gofmt: the files above need formatting"
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== custodylint"
# Build the lint binary once and reuse it below; the full suite (including
# the module-wide annotation index) must stay fast enough to run on every
# push, so the self-lint is held under a 60s wall-clock budget.
mkdir -p artifacts
go build -o artifacts/custodylint ./cmd/custodylint
lint_start=$(date +%s)
artifacts/custodylint -json > artifacts/custodylint.json || {
    echo "custodylint findings:"
    cat artifacts/custodylint.json
    exit 1
}
lint_elapsed=$(( $(date +%s) - lint_start ))
echo "custodylint clean in ${lint_elapsed}s (JSON artifact: artifacts/custodylint.json)"
if [ "$lint_elapsed" -ge 60 ]; then
    echo "custodylint took ${lint_elapsed}s, over the 60s budget; profile the analyzers"
    exit 1
fi

echo "== custodylint negative fixtures"
for d in internal/analysis/testdata/src/*_bad; do
    if artifacts/custodylint -root "$d" -modpath fixture >/dev/null 2>&1; then
        echo "custodylint unexpectedly exited 0 on negative fixture $d"
        exit 1
    fi
done

echo "== go build"
go build ./...

echo "== go test -race"
go test -race ./...

echo "== repository benchmark tests"
# bench/ is its own Go module, so the root go vet ./... and go test ./...
# never reach it. It is the main external user of the hdfs and manager
# APIs, so vet it here. Its tests run every workload at smoke size and
# check the per-layer decorators and the metric list against
# BENCHMARK.json.
(cd bench && go vet ./...)
(cd bench && go test -count=1 ./...)

echo "== chaos smoke (-race)"
go test -race -count=1 -run TestChaosSmoke ./internal/chaos

echo "== fuzz smoke"
# Each target gets a short bounded run; go test accepts one fuzz target per
# invocation. New corpus entries land in testdata/fuzz/ — commit them.
go test -run='^$' -fuzz='^FuzzAllocateEquivalence$' -fuzztime=20s ./internal/core
go test -run='^$' -fuzz='^FuzzAllocate$' -fuzztime=20s ./internal/core
go test -run='^$' -fuzz='^FuzzSessionChurnEquivalence$' -fuzztime=10s ./internal/core
go test -run='^$' -fuzz='^FuzzMinCostFlow$' -fuzztime=10s ./internal/maxflow
go test -run='^$' -fuzz='^FuzzFabricEquivalence$' -fuzztime=10s ./internal/netsim
go test -run='^$' -fuzz='^FuzzDelayEquivalence$' -fuzztime=10s ./internal/scheduler
go test -run='^$' -fuzz='^FuzzAuditEquivalence$' -fuzztime=10s ./internal/driver
go test -run='^$' -fuzz='^FuzzMaxWeightAssignment$' -fuzztime=10s ./internal/matching

echo "== modelcheck mutation smoke"
# Compile the seeded bugs (build tag custodymutate; internal/mutant selects
# one by name) and require the model checker to catch each and shrink its
# counterexample: the inverted fairness comparison, the descending executor
# tie-break (only the SelfCheck reference oracle can see it), and the
# inverted Quincy edge-cost sign (only the policy-generic invariant core can
# see it, DESIGN.md §16), and a crashed executor left in its old owner's
# owned-executor index (the driver audit's cluster.Validate must report
# it), and a retried task left out of the driver's per-state task tally
# (the audit's tally cross-check must report it). The first two are hunted in both harness modes,
# the bare driver and the custodyd service, since both run the same check
# battery, and each shrunk counterexample must replay from its .repro on the
# stack it came from. With no mutant selected a tagged build behaves
# like an untagged one, but only the mutation tests need to run here. The
# fabric has two seeded bugs of its own: a warm-start replay that ignores
# the resources new flows joined, and a tie run that ignores its calm check;
# the fabric differential must catch both (DESIGN.md §10). So does the executor pool's sort skip: a pool that
# trusts an unsorted idle list, which the warm-session churn differential
# must catch.
go test -count=1 -tags custodymutate -run '^TestMutationSmoke$' ./internal/modelcheck
go test -count=1 -tags custodymutate -run '^TestWarmJoinedMutant$' ./internal/netsim
go test -count=1 -tags custodymutate -run '^TestTieCalmMutant$' ./internal/netsim
go test -count=1 -tags custodymutate -run '^TestTrustOrderMutant$' ./internal/core

echo "== modelcheck sweep (custodysim)"
# The long-run CLI entry on a clean build: a bounded seed sweep of each mode,
# the bare driver and the custodyd service (committed ops, crash/recovery
# cycles), must come back violation-free.
go run ./cmd/custodysim -modelcheck -seeds 40 -mc-cmds 30
go run ./cmd/custodysim -modelcheck -mc-server -seeds 16 -mc-cmds 60

echo "== coverage gate"
# Combined statement coverage of the allocation stack — core + manager +
# driver, plus (since PR 10) the policy tournament surface: scheduler,
# maxflow, matching, and the policy layer itself — gated against the
# committed floor (COVERAGE_FLOOR.txt, recomputed honestly at 90.6% when
# the scope grew; the floor holds 90.0 to absorb sub-point jitter). Raise
# the floor when coverage improves; never lower it to make CI pass.
mkdir -p artifacts
go test -count=1 -coverprofile=artifacts/coverage.out \
    -coverpkg=./internal/core,./internal/manager,./internal/driver,./internal/scheduler,./internal/maxflow,./internal/matching,./internal/policy \
    ./internal/core ./internal/manager ./internal/driver ./internal/scheduler ./internal/maxflow ./internal/matching ./internal/policy > /dev/null
coverage=$(go tool cover -func=artifacts/coverage.out | awk '/^total:/ {gsub(/%/, "", $3); print $3}')
floor=$(cat COVERAGE_FLOOR.txt)
awk -v c="$coverage" -v f="$floor" 'BEGIN { exit !(c >= f) }' || {
    echo "coverage gate: ${coverage}% < floor ${floor}% (COVERAGE_FLOOR.txt)"
    exit 1
}
echo "coverage ${coverage}% >= floor ${floor}%"

echo "== observability sweep"
# Small seeded run with every provenance sink attached: exercises the
# JSONL/CSV/OpenMetrics exporters and the -explain chain end to end, and
# leaves the artifacts for CI to upload.
mkdir -p artifacts
go run ./cmd/custodysim -nodes 16 -apps 2 -jobs 3 -workload Sort -seed 7 \
    -obsv-out artifacts/obsv -explain 0.1 > artifacts/explain.txt
for f in artifacts/obsv.jsonl artifacts/obsv.csv artifacts/obsv.om artifacts/explain.txt; do
    if [ ! -s "$f" ]; then
        echo "observability sweep left $f empty or missing"
        exit 1
    fi
done
if ! tail -1 artifacts/obsv.om | grep -q '^# EOF$'; then
    echo "artifacts/obsv.om is not a terminated OpenMetrics exposition"
    exit 1
fi
if ! grep -q '^custody_decisions_total ' artifacts/obsv.om; then
    echo "artifacts/obsv.om has no custody_decisions_total counter"
    exit 1
fi

echo "== block-cache sweep"
# Build the study runner once; this stage and the tournament below reuse
# it. Cache on: the quick A14 sweep must show real cache traffic (nonzero
# hits on a cached row) and lands as an artifact. Cache off is the default
# everywhere else in this script, so re-running the golden-trace suite
# right after proves the zero-default contract: with CacheBytes=0 the 16
# golden replays stay byte-identical.
go build -o artifacts/custodybench ./cmd/custodybench
artifacts/custodybench -fig cache -quick > artifacts/cache-sweep.txt
if [ ! -s artifacts/cache-sweep.txt ]; then
    echo "cache sweep left artifacts/cache-sweep.txt empty or missing"
    exit 1
fi
if ! awk '$1 == 256 && $7 > 0 { found = 1 } END { exit !found }' artifacts/cache-sweep.txt; then
    echo "cache sweep shows no hits on a cached row"
    cat artifacts/cache-sweep.txt
    exit 1
fi
go test -count=1 -run '^TestGoldenTraces$' ./internal/experiments

echo "== policy tournament (A15)"
# The quick tournament grid: every allocation policy under the Sort
# workload at the fault-free and medium chaos levels. Every cell must
# complete all jobs with zero invariant-audit violations; the ranking
# itself (JCT, locality, Jain fairness) is the figure, uploaded as a CI
# artifact.
artifacts/custodybench -fig tournament -quick > artifacts/tournament.txt
if [ ! -s artifacts/tournament.txt ]; then
    echo "policy tournament left artifacts/tournament.txt empty or missing"
    exit 1
fi
if ! awk 'NR > 2 && NF > 0 { split($4, j, "/"); if (j[1] != j[2] || $NF != 0) bad = 1 } END { exit bad }' artifacts/tournament.txt; then
    echo "policy tournament has incomplete jobs or audit violations:"
    cat artifacts/tournament.txt
    exit 1
fi

echo "== custodyd service smoke"
# Boot the allocation service on an ephemeral port, drive a workload over
# the HTTP API, scrape /metrics, kill -9 the daemon, and require the
# restarted process to replay the intent log back to a byte-identical
# digest, verifying the last checkpoint on the way. Then kill -9 it again
# right after a 202 and require the third incarnation to hold that job and
# finish it when SIGTERM drains it.
# Server logs, the metrics exposition, and the final checkpoint are left
# under artifacts/ for CI to upload.
DDIR=artifacts/custodyd
rm -rf "$DDIR"
mkdir -p "$DDIR"
go build -o artifacts/custodyd.bin ./cmd/custodyd

# status_field <field> — extract a scalar field from /v1/status JSON.
status_field() {
    curl -sf "http://$CUSTODYD_ADDR/v1/status" | jq -r ".$1"
}
# wait_addr <logfile> — wait for the daemon to publish its bound address.
wait_addr() {
    for _ in $(seq 1 100); do
        if [ -s "$DDIR/addr" ]; then
            CUSTODYD_ADDR=$(cat "$DDIR/addr")
            return 0
        fi
        sleep 0.1
    done
    echo "custodyd did not publish $DDIR/addr; log:"
    cat "$1"
    exit 1
}

artifacts/custodyd.bin -addr 127.0.0.1:0 -dir "$DDIR" -round-ms 20 \
    -checkpoint-every 4 -obsv-jsonl > "$DDIR/server1.log" 2>&1 &
DPID=$!
wait_addr "$DDIR/server1.log"

curl -sf -XPOST "http://$CUSTODYD_ADDR/v1/register-app" -d '{"name":"ci-alice"}' > /dev/null
curl -sf -XPOST "http://$CUSTODYD_ADDR/v1/register-app" -d '{"name":"ci-bob"}' > /dev/null
for i in 0 1 2 3 4 5; do
    curl -sf -XPOST "http://$CUSTODYD_ADDR/v1/submit-job" \
        -d "{\"tenant\":$((i % 2)),\"workload\":\"Sort\",\"file\":$((i % 2))}" > /dev/null
done
for _ in $(seq 1 200); do
    if [ "$(status_field idle)" = "true" ] && [ "$(status_field queued)" = "0" ] &&
        [ "$(status_field jobs_finished)" = "6" ]; then
        break
    fi
    sleep 0.1
done
if [ "$(status_field jobs_finished)" != "6" ]; then
    echo "custodyd did not finish the workload; status:"
    curl -s "http://$CUSTODYD_ADDR/v1/status"
    exit 1
fi

curl -sf "http://$CUSTODYD_ADDR/metrics" > artifacts/custodyd-metrics.om
if [ "$(grep -c '^# EOF$' artifacts/custodyd-metrics.om)" != "1" ]; then
    echo "custodyd /metrics exposition is not terminated by exactly one # EOF"
    exit 1
fi

digest_before=$(status_field digest)
if [ -z "$digest_before" ] || [ "$digest_before" = "null" ]; then
    echo "custodyd status did not report a digest"
    exit 1
fi
kill -9 "$DPID"
wait "$DPID" 2>/dev/null || true

rm -f "$DDIR/addr"
artifacts/custodyd.bin -addr 127.0.0.1:0 -dir "$DDIR" -round-ms 20 \
    -checkpoint-every 4 -obsv-jsonl > "$DDIR/server2.log" 2>&1 &
DPID=$!
wait_addr "$DDIR/server2.log"
if [ "$(status_field recovered)" != "true" ]; then
    echo "restarted custodyd did not report recovery"
    exit 1
fi
# With -checkpoint-every 4 the first incarnation left a checkpoint, almost
# always behind the log tail after a kill -9; boot must verify it on the
# way to the tail.
if [ "$(status_field checkpoint_verified)" != "true" ]; then
    echo "restarted custodyd did not verify its checkpoint; status:"
    curl -s "http://$CUSTODYD_ADDR/v1/status"
    exit 1
fi
digest_after=$(status_field digest)
if [ "$digest_before" != "$digest_after" ]; then
    echo "custodyd recovery digest mismatch: $digest_before != $digest_after"
    exit 1
fi
echo "custodyd recovered to identical digest $digest_after after kill -9"
# The provenance counters and the accepted-submission count count logged
# ops from genesis, so replay restores them. The service is idle, so no new
# decision can move them after the scrape.
curl -sf "http://$CUSTODYD_ADDR/metrics" > "$DDIR/metrics-recovered.om"
for c in custody_decisions_total custody_grants_total custody_submissions_accepted_total; do
    before=$(grep "^$c " artifacts/custodyd-metrics.om || true)
    after=$(grep "^$c " "$DDIR/metrics-recovered.om" || true)
    if [ -z "$before" ] || [ "$before" != "$after" ]; then
        echo "custodyd $c did not survive kill -9: before '$before', after '$after'"
        exit 1
    fi
done

# A 202 is durable: submit one more job, kill -9 the daemon the moment the
# 202 arrives, and require the next incarnation to hold the job and the
# SIGTERM drain to finish it.
code=$(curl -s -o /dev/null -w '%{http_code}' -XPOST "http://$CUSTODYD_ADDR/v1/submit-job" \
    -d '{"tenant":0,"workload":"Sort","file":1}')
kill -9 "$DPID"
wait "$DPID" 2>/dev/null || true
if [ "$code" != "202" ]; then
    echo "custodyd answered $code to the submit before the kill, want 202"
    exit 1
fi

rm -f "$DDIR/addr"
artifacts/custodyd.bin -addr 127.0.0.1:0 -dir "$DDIR" -round-ms 20 \
    -checkpoint-every 4 -obsv-jsonl > "$DDIR/server3.log" 2>&1 &
DPID=$!
wait_addr "$DDIR/server3.log"
if [ "$(status_field jobs_submitted)" != "7" ]; then
    echo "custodyd lost the job acknowledged before kill -9; status:"
    curl -s "http://$CUSTODYD_ADDR/v1/status"
    exit 1
fi

kill -TERM "$DPID"
if ! wait "$DPID"; then
    echo "custodyd did not exit cleanly on SIGTERM; log:"
    cat "$DDIR/server3.log"
    exit 1
fi
if [ ! -s "$DDIR/checkpoint.json" ]; then
    echo "custodyd drain left no final checkpoint"
    exit 1
fi
if [ "$(jq -r .snapshot.jobs_finished "$DDIR/checkpoint.json")" != "7" ]; then
    echo "custodyd drain did not finish all 7 jobs; final checkpoint:"
    cat "$DDIR/checkpoint.json"
    exit 1
fi

echo "ci: OK"
