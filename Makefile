# Convenience targets mirroring CI (.github/workflows/ci.yml).

.PHONY: test smoke bench census

# Tier-1 verification: build plus the full race-enabled test suite.
test:
	go build ./...
	go test -race -timeout 20m ./...

# CI's mesh-smoke job: the daemon path end to end, including the
# fault-injection / epoch-resync recovery variants (replay and
# snapshot-based), the mid-run status consistent-cut check, and short
# snapshot, wire, workload hash, .topo, pair enumeration, engine,
# proposal index, distance evaluator, load evaluator, LP kernel, LP
# held-pivot, watch-mode status and NDJSON fold fuzz bursts, plus the LP
# digest, the factor-column read and solves on reused tableau storage at
# GOMAXPROCS 1 and 4.
smoke:
	go test -short -race -run 'TestMeshMatchesSerial/distance|TestMeshOverTCP|TestMeshNeighborGraph|TestMeshRecovery' ./internal/mesh/...
	go test -short -race -run 'TestMeshMatchesSerial/bandwidth' ./internal/mesh/...
	go test -race -count=10 -run 'TestStatusIsConsistentCut' ./internal/agentd/
	go test -run '^$$' -fuzz 'FuzzSnapshotDecode' -fuzztime 20s ./internal/snapshot/
	go test -run '^$$' -fuzz 'FuzzRestoreSnapshot' -fuzztime 20s ./internal/continuous/
	go test -run '^$$' -fuzz 'FuzzFrameDecode' -fuzztime 20s ./internal/nexitwire/
	go test -run '^$$' -fuzz 'FuzzResponderSession' -fuzztime 20s -fuzzminimizetime 2s ./internal/nexitwire/
	go test -run '^$$' -fuzz 'FuzzWorkloadHash' -fuzztime 20s ./internal/nexitwire/
	go test -run '^$$' -fuzz 'FuzzTopologyRead' -fuzztime 20s ./internal/topology/
	go test -run '^$$' -fuzz 'FuzzAllPairs' -fuzztime 20s -fuzzminimizetime 2s ./internal/topology/
	go test -run '^$$' -fuzz 'FuzzNegotiateMatchesReference' -fuzztime 20s ./internal/nexit/
	go test -run '^$$' -fuzz 'FuzzPickMatchesBruteForce' -fuzztime 20s ./internal/nexit/
	go test -run '^$$' -fuzz 'FuzzDistanceEvaluatorMatchesOracle' -fuzztime 20s ./internal/nexit/
	go test -run '^$$' -fuzz 'FuzzLoadRowsMatchOracle' -fuzztime 20s ./internal/nexit/
	go test -run '^$$' -fuzz 'FuzzSubScaled' -fuzztime 20s ./internal/simplex/
	go test -run '^$$' -fuzz 'FuzzSolveFanOut' -fuzztime 20s ./internal/simplex/
	go test -count=1 -cpu 1,4 -run 'TestBandwidthLPGolden|TestImpliedRowsMoveNoBit|TestSolveFanOutMatchesOneLoop|TestColumnMatchesAt|TestSolveReusesStorage' ./internal/experiments ./internal/optimal ./internal/simplex
	go test -run '^$$' -fuzz 'FuzzWatchStatus' -fuzztime 20s ./internal/plot/
	go test -run '^$$' -fuzz 'FuzzFoldLine' -fuzztime 20s ./internal/plot/

# The one measurement path: seven named workloads, end-to-end and
# per-layer metrics, one JSON document on stdout (bench/README.md).
bench:
	go run ./bench

# Which internal code the shipped commands reach: every cmd/ and
# examples/ main built with coverage, run on CI's smoke workloads; prints
# each package's executed statement share and its never-executed
# functions. A report, not a gate.
census:
	sh scripts/census.sh
