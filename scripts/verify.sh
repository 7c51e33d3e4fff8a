#!/bin/sh
# verify.sh — the full pre-merge gate:
#   tier-1 (build + all tests), vet, the race gate for the concurrent
#   packages, a 20-fold repeat of the race gate over serve and cluster,
#   coverage floors, a short fuzz pass over every fuzz
#   target, and a 1-iteration benchmark smoke so every benchmark keeps
#   compiling and running.
set -eu
cd "$(dirname "$0")/.."

echo "== tier 1: build + tests"
go build ./...
go test ./...

echo "== vet"
go vet ./...

echo "== race gate (explore, sim, fault, serve, batch, tlm3, calib, cluster, arb, dma, crypto, tear, journal)"
go test -race ./internal/explore/... ./internal/sim/... ./internal/fault/... ./internal/serve/... ./internal/batch/... ./internal/tlm3/... ./internal/calib/... ./internal/cluster/... ./internal/arb/... ./internal/dma/... ./internal/crypto/... ./internal/tear/... ./internal/journal/...

echo "== repeat-run race gate (serve, cluster x20)"
# Schedule-dependent failures (the admission/WaitGroup ordering in
# serve, the work-stealing lanes in cluster) must fail here, not one
# run in ten.
go test -race -count=20 ./internal/serve/ ./internal/cluster/

echo "== coverage floors"
./scripts/cover.sh

echo "== fuzz smoke (10s per target)"
go test -run '^$' -fuzz '^FuzzPlanParse$' -fuzztime 10s ./internal/fault/
go test -run '^$' -fuzz '^FuzzWithoutReadErrors$' -fuzztime 10s ./internal/fault/
go test -run '^$' -fuzz '^FuzzCheckerRules$' -fuzztime 10s ./internal/checker/
go test -run '^$' -fuzz '^FuzzArbiterGrant$' -fuzztime 10s ./internal/arb/

echo "== fault-plan smoke (ecbench)"
go run ./cmd/ecbench -fault grind > /dev/null

echo "== card-tear smoke (seeded tear -> replay; a lost committed word fails the run)"
# tear.RunSession verifies every committed word against the recovered
# device, so a torn grid cell completing at all is the recovery check.
tearout=$(go run ./cmd/ecbench -tear none,tear-mid -journal word-eager,page-lazy)
echo "$tearout" | head -3
echo "$tearout" | grep -q " true " || {
	echo "verify: tear grid produced no torn cell" >&2; exit 1; }
go run ./cmd/jcexplore -layer 1 -workload wallet -tear tear-mid -journal word-eager \
	| grep -q "tear-mid/word-eager" || {
	echo "verify: jcexplore tear axis rows missing" >&2; exit 1; }

echo "== multi-fidelity smoke (jcexplore -fidelity confirm)"
mf=$(go run ./cmd/jcexplore -fidelity confirm -workload arith-loop | head -1)
echo "$mf"
screened=$(echo "$mf" | sed -n 's/.*screened \([0-9]*\).*/\1/p')
confirmed=$(echo "$mf" | sed -n 's/.*confirmed \([0-9]*\).*/\1/p')
if [ -z "$screened" ] || [ -z "$confirmed" ] || \
   [ "$confirmed" -le 0 ] || [ "$screened" -le "$confirmed" ]; then
	echo "verify: multi-fidelity smoke wants screened > confirmed > 0, got screened=$screened confirmed=$confirmed" >&2
	exit 1
fi

echo "== arbitration smoke (jcexplore -arb, both policies)"
arbout=$(go run ./cmd/jcexplore -arb fixed,rr -workload stack-churn -layer 1)
echo "$arbout" | head -4
for pol in fixed rr; do
	echo "$arbout" | grep -q "/$pol\b" || {
		echo "verify: arbitration smoke missing $pol rows" >&2; exit 1; }
done

echo "== cluster smoke (2 nodes, SIGKILL one mid-sweep)"
tmpd=$(mktemp -d)
A_PID=""; B_PID=""; C_PID=""
trap 'kill -9 $A_PID $B_PID $C_PID 2>/dev/null || true; rm -rf "$tmpd"' EXIT
go build -o "$tmpd/ecserved" ./cmd/ecserved
SWEEP='{"layers":[1],"workloads":["arith-loop","stack-churn"]}'

scrape_url() { # scrape_url <logfile>
	for _ in $(seq 1 100); do
		url=$(sed -n 's|.*listening on \(http://[^ ]*\).*|\1|p' "$1")
		[ -n "$url" ] && { echo "$url"; return 0; }
		sleep 0.1
	done
	echo "verify: no listen line in $1" >&2
	return 1
}

# Single-node reference bytes.
"$tmpd/ecserved" -addr 127.0.0.1:0 -workers 2 > "$tmpd/c.log" 2>&1 &
C_PID=$!
C_URL=$(scrape_url "$tmpd/c.log")
curl -sS -X POST -d "$SWEEP" "$C_URL/v1/sweep" -o "$tmpd/ref.ndjson"
kill "$C_PID" 2>/dev/null || true

# Two-node cluster: B plain, A peering with B (A coordinates; A only
# needs to reach B for work stealing).
"$tmpd/ecserved" -addr 127.0.0.1:0 -workers 2 > "$tmpd/b.log" 2>&1 &
B_PID=$!
B_URL=$(scrape_url "$tmpd/b.log")
"$tmpd/ecserved" -addr 127.0.0.1:0 -workers 2 -peers "$B_URL" > "$tmpd/a.log" 2>&1 &
A_PID=$!
A_URL=$(scrape_url "$tmpd/a.log")

# Sweep through A; SIGKILL B mid-flight. The work-stealing loop must
# requeue whatever B held and still assemble the identical bytes.
curl -sS -X POST -d "$SWEEP" "$A_URL/v1/sweep" -o "$tmpd/got.ndjson" &
CURL_PID=$!
sleep 0.3
kill -9 "$B_PID" 2>/dev/null || true
wait "$CURL_PID"
if ! cmp -s "$tmpd/ref.ndjson" "$tmpd/got.ndjson"; then
	echo "verify: cluster sweep bytes differ from single-node reference" >&2
	diff "$tmpd/ref.ndjson" "$tmpd/got.ndjson" | head -5 >&2
	exit 1
fi
# A must keep serving (and now replay the assembled body from cache).
curl -sS -X POST -d "$SWEEP" "$A_URL/v1/sweep" -o "$tmpd/again.ndjson"
cmp -s "$tmpd/ref.ndjson" "$tmpd/again.ndjson" || {
	echo "verify: cluster replay after peer death differs" >&2; exit 1; }
kill "$A_PID" 2>/dev/null || true
echo "cluster smoke: OK (bytes identical, survivor kept serving)"

echo "== benchmark smoke (1 iteration each)"
go test -run '^$' -bench . -benchtime 1x ./... > /dev/null

echo "== bench table smoke (bench.sh, 1 iteration)"
BENCHTIME=1x BENCH_OUT=/tmp/bench_smoke.json ./scripts/bench.sh > /dev/null

echo "verify: OK"
