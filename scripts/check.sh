#!/usr/bin/env sh
# Repository gate: vet + build + full test suite + race checks on the
# concurrent paths. Benchmarks are behind a flag so the tier-1 gate
# stays fast: pass --bench (or set BENCH=1) to also regenerate
# BENCH_pr1.json (datapath microbenches), BENCH_pr2.json (serving-engine
# experiments via hixbench), BENCH_pr3.json (network serving layer:
# remote-vs-in-process identity gate + loopback connection sweep),
# BENCH_pr4.json (seeded chaos sweep + reconnect gate),
# BENCH_pr5.json (wire pipelining: window identity gate +
# in-flight depth sweep with the 1.5x depth-8 throughput gate), and
# BENCH_pr7.json (continuous batching + QoS: identity, throughput,
# fairness gates), and BENCH_pr8.json (GPU partitioning + fleet:
# cross-partition isolation identity gate + capacity sweep with the
# 1.5x four-partition scaling gate), and BENCH_pr9.json (open-loop
# load harness: replay-determinism gate, offered-rate sweep with
# coordinated-omission-free p50/p99/p999 and a saturation gate at the
# 2x overload point, churn storm under the seeded fault plane), and
# BENCH_pr10.json (session resumption: post-resume ciphertext identity
# gate, full-vs-ticket establishment sweep with the 3x wall-speedup
# gate, reconnect-storm redial comparison).
# --bench also runs scripts/benchdiff.sh first, so a
# regression against the committed trajectory fails before any file is
# rewritten.
set -eu
cd "$(dirname "$0")/.."

bench=${BENCH:-0}
for arg in "$@"; do
	case "$arg" in
	--bench) bench=1 ;;
	*) echo "usage: $0 [--bench]" >&2; exit 2 ;;
	esac
done

echo "== go vet =="
go vet ./...
# benchmark/ is its own module, so ./... above never compiles it; vet
# type-checks it (and its tests) against this tree's internal API.
(cd benchmark && go vet ./...)

echo "== go build =="
go build ./...

echo "== go test (full suite) =="
go test ./...

# -race targets the paths that run concurrently: client-side chunk
# crypto, the windowed transfer machinery, the multi-tenant serving
# engine (concurrent Serve workers driven by lockstep clients), the
# network serving layer (wire codec and fault plane in full; for
# netserve the heaviest concurrent scenarios — parallel connections,
# shutdown-under-load, reconnect-across-drops, fault injection — via
# -run, because the full netserve suite under -race takes minutes on a
# single-core host). The Determinism tests double as the
# schedule-reproducibility gate.
echo "== go test -race (concurrent paths) =="
go test -race -count=1 ./internal/ocb/
go test -race -count=1 ./internal/sched/
go test -race -count=1 ./internal/part/
go test -race -count=1 ./internal/bench/hist/
go test -race -count=1 ./internal/hixrt/ \
	-run 'Windowed|Undersized|Concurrent|Tamper|Replay|MultiChunk|Isolation|Determinism|TestPipe|TestRemoteDesync|TestDial|TestLoad'
go test -race -count=1 ./internal/wire/
go test -race -count=1 ./internal/faults/
go test -race -count=1 -timeout 15m ./internal/netserve/ \
	-run 'TestConcurrentConnections|TestGracefulShutdownUnderLoad|TestShutdownNotifiesIdleClient|TestReconnect|TestMidPayloadPeerDeath|TestAuthCircuitBreaker|TestConnectionPanicRecovery|TestConcurrentRemoteSessionUse|TestPipelinedStartAPI|TestSchedConcurrentConnections|TestLoadReplay|TestResumeRoundTrip|TestResumeAcrossDrop|TestResumeTicketChaos'
go test -race -count=1 ./internal/attack/ -run 'TestTicket'

if [ "$bench" != "1" ]; then
	echo "== OK (benchmarks skipped; pass --bench to run them) =="
	exit 0
fi

# Gate before refresh: a fresh run of every hixbench-backed BENCH file
# must stay within tolerance of the committed trajectory (and keep
# every committed gate passing) before the files below are rewritten.
echo "== benchdiff (fresh vs committed trajectory) =="
./scripts/benchdiff.sh

echo "== benchmarks -> BENCH_pr1.json =="
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT
go test -run '^$' -bench 'MemcpyHtoD|MemcpyDtoH' -benchtime 3x -benchmem . >>"$tmp"
go test -run '^$' -bench 'OCBSealInto|OCBOpenInto' -benchmem ./internal/ocb/ >>"$tmp"
go test -run '^$' -bench 'Translate' -benchmem ./internal/mmu/ >>"$tmp"
awk '
BEGIN { print "[" }
/^Benchmark/ {
	if (n++) printf ",\n"
	printf "  {\"name\":\"%s\",\"iterations\":%s", $1, $2
	for (i = 3; i < NF; i += 2) {
		unit = $(i + 1)
		gsub(/\//, "_per_", unit)
		printf ",\"%s\":%s", unit, $i
	}
	printf "}"
}
END { print "\n]" }
' "$tmp" >BENCH_pr1.json
cat BENCH_pr1.json

echo "== serving-engine experiments -> BENCH_pr2.json =="
go run ./cmd/hixbench -exp datapath,multitenant -json BENCH_pr2.json

echo "== network serving layer -> BENCH_pr3.json =="
go run ./cmd/hixbench -exp netserve -json BENCH_pr3.json

echo "== chaos sweep + reconnect gate -> BENCH_pr4.json =="
go run ./cmd/hixbench -exp faults -json BENCH_pr4.json

echo "== wire pipelining -> BENCH_pr5.json =="
go run ./cmd/hixbench -exp pipeline -json BENCH_pr5.json

echo "== continuous batching + QoS -> BENCH_pr7.json =="
go run ./cmd/hixbench -exp sched -json BENCH_pr7.json

echo "== partitioning + fleet -> BENCH_pr8.json =="
go run ./cmd/hixbench -exp partition -json BENCH_pr8.json

echo "== open-loop load harness -> BENCH_pr9.json =="
go run ./cmd/hixbench -exp load -json BENCH_pr9.json

echo "== session resumption -> BENCH_pr10.json =="
go run ./cmd/hixbench -exp resume -json BENCH_pr10.json

echo "== OK =="
