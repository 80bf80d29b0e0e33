#!/bin/sh
# census.sh: which internal code do the shipped commands actually run?
#
# Builds every cmd/ and examples/ main with statement coverage over the
# whole module, runs the workloads CI's smokes run (plus the default
# `nexitsim -fig all` and a `topogen -out` / `nexitsim -dataset` round
# trip), merges the counters and prints, for each internal/ package, the
# share of statements executed and the functions never executed. A function listed here is reachable only from tests.
#
# Run from the repository root: `make census` (about a minute on two
# cores). It writes only to a temporary directory, removed on exit, and
# uses loopback ports 14380-14382 and 18371/18372.
set -eu

work=$(mktemp -d)
pids=""
cleanup() {
	for p in $pids; do kill "$p" 2>/dev/null || true; done
	rm -rf "$work"
}
trap cleanup EXIT
# A trapped signal would otherwise resume the script after cleanup.
trap 'exit 130' INT TERM

bin=$work/bin cov=$work/cov run=$work/run
mkdir -p "$bin" "$cov" "$run"
# The main packages must be in -coverpkg too: with only ./internal/...
# no counters are written.
for m in ./cmd/* ./examples/*; do
	go build -cover -coverpkg=./... -o "$bin/$(basename "$m")" "$m"
done
GOCOVERDIR=$cov
export GOCOVERDIR
cd "$run"

# The five examples and the generator.
for e in continuousnegotiation diversecriteria failover meshnegotiation quickstart; do
	"$bin/$e" > /dev/null
done
"$bin/topogen" -isps 12 -inventory > /dev/null

# The .topo codec: a generated dataset written out and read back.
"$bin/topogen" -isps 12 -out ds.topo
"$bin/nexitsim" -dataset ds.topo -fig 4 -max-pairs 2 > /dev/null

# Figure mode on the default dataset, and CI's streaming, fold and
# shard-merge smokes.
"$bin/nexitsim" -fig all > /dev/null
"$bin/nexitsim" -isps 12 -max-pairs 4 -max-failures 6 -stream -fig all > stream.ndjson
"$bin/nexitsim" -isps 12 -max-pairs 2 -stream -fig 4 > /dev/null
awk 'NR%2==1' stream.ndjson > shard1.ndjson
awk 'NR%2==0' stream.ndjson > shard2.ndjson
"$bin/nexitplot" stream.ndjson > whole.txt
"$bin/nexitplot" shard2.ndjson shard1.ndjson > merged.txt
cmp -s whole.txt merged.txt || echo "census: shard-merge fold differs" >&2

# CI's metrics smoke: a two-daemon mesh scraped over /metrics and
# watched by nexitplot.
"$bin/nexitagent" -isp 8 -isps 12 -listen 127.0.0.1:14380 -peer 1 \
	-epochs 12 -interval 1s -debug-addr 127.0.0.1:18372 -quiet > /dev/null 2>&1 &
resp=$!
pids="$pids $resp"
sleep 1
"$bin/nexitagent" -isp 1 -isps 12 -peer 8=127.0.0.1:14380 \
	-epochs 12 -interval 1s -debug-addr 127.0.0.1:18371 -quiet > /dev/null 2>&1 &
ini=$!
pids="$pids $ini"
sleep 4
curl -sf http://127.0.0.1:18371/metrics > /dev/null || echo "census: no /metrics" >&2
"$bin/nexitplot" -watch 127.0.0.1:18371,127.0.0.1:18372 -interval 1s -polls 2 > /dev/null
wait "$ini" "$resp" || true

# CI's crash-recovery smoke: SIGKILL a responder with -state-dir and
# restart it over the same directory. A killed process writes no
# counters; the restarted one does.
"$bin/nexitagent" -isp 8 -isps 12 -listen 127.0.0.1:14381 -peer 1 \
	-epochs 10 -interval 1s -state-dir state -snapshot-interval 2 -quiet > /dev/null 2>&1 &
resp=$!
pids="$pids $resp"
sleep 1
"$bin/nexitagent" -isp 1 -isps 12 -peer 8=127.0.0.1:14381 \
	-epochs 10 -interval 1s -quiet > /dev/null 2>&1 &
ini=$!
pids="$pids $ini"
sleep 6
kill -9 "$resp"
wait "$resp" 2>/dev/null || true
"$bin/nexitagent" -isp 8 -isps 12 -listen 127.0.0.1:14381 -peer 1 \
	-epochs 10 -interval 1s -state-dir state -snapshot-interval 2 -quiet > /dev/null 2>&1 &
resp=$!
pids="$pids $resp"
wait "$ini" "$resp" || echo "census: crash-recovery mesh did not complete" >&2
pids=""

# The epoch-resync path: SIGKILL the initiator after about three epochs
# and restart it without state. Its first Hello is behind the
# responder, which rejects it with the epoch skew; the initiator reads
# the skew and replays locally up to the responder's epoch.
"$bin/nexitagent" -isp 8 -isps 12 -listen 127.0.0.1:14382 -peer 1 \
	-epochs 6 -interval 1s -quiet > /dev/null 2>&1 &
resp=$!
pids="$pids $resp"
sleep 1
"$bin/nexitagent" -isp 1 -isps 12 -peer 8=127.0.0.1:14382 \
	-epochs 6 -interval 1s -quiet > /dev/null 2>&1 &
ini=$!
pids="$pids $ini"
sleep 3.5
kill -9 "$ini"
wait "$ini" 2>/dev/null || true
"$bin/nexitagent" -isp 1 -isps 12 -peer 8=127.0.0.1:14382 \
	-epochs 6 -interval 1s -quiet > resync.out 2>&1 &
ini=$!
pids="$pids $ini"
wait "$ini" "$resp" || echo "census: resync mesh did not complete" >&2
pids=""
grep -q "resynced peer isp008" resync.out || echo "census: the restarted initiator did not resync" >&2

unset GOCOVERDIR
cd - > /dev/null
mkdir "$work/merged"
go tool covdata merge -i="$cov" -o "$work/merged"
go tool covdata textfmt -i="$work/merged" -o "$work/profile.txt"

# Per package: statements executed / statements, from the profile's
# "file:start,end statements count" blocks.
echo "executed statements by package"
awk 'NR > 1 && $1 ~ /\/internal\// {
	pkg = $1; sub(/\/[^\/]*$/, "", pkg); sub(/^.*\/internal\//, "internal/", pkg)
	total[pkg] += $2; all += $2
	if ($3 > 0) { hit[pkg] += $2; run += $2 }
}
END {
	for (p in total) printf "  %-24s %5d / %5d  %5.1f %%\n", p, hit[p], total[p], 100 * hit[p] / total[p]
	printf "  %-24s %5d / %5d  %5.1f %%\n", "total", run, all, 100 * run / all
}' "$work/profile.txt" | sort -k1,1

echo "functions never executed"
go tool covdata func -i="$work/merged" |
	awk '$1 ~ /\/internal\// && $NF == "0.0%" { f = $1; sub(/^.*\/internal\//, "internal/", f); printf "  %s %s\n", f, $2 }'
