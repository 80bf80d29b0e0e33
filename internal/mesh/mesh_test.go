package mesh

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
	"weak"

	"repro/internal/agentd"
	"repro/internal/continuous"
	"repro/internal/runner"
	"repro/internal/topology"
)

// randomFaultPlan derives a seeded fault schedule: the connection kill
// lands in a seed-chosen epoch on a seed-chosen pair, and the agent
// restart tears down a seed-chosen pair's responder after an epoch
// early enough that the mesh must keep negotiating through the
// recovery. The plan is deterministic in (seed, epochs) alone — the
// splitmix64 derivation is the runner's — so a failing schedule is
// replayable from its seed.
//
// A single-epoch mesh cannot exercise the restart fault at all: the
// restart fires after an epoch completes, and with epochs <= 1 the
// only candidate is the final one, making the restart a no-op (and a
// Progress.Resyncs > 0 expectation unsatisfiable). Use epochs >= 2 for
// a meaningful schedule.
func randomFaultPlan(seed int64, epochs int) *FaultPlan {
	draw := func(k, n int) int {
		if n <= 0 {
			return 0
		}
		return int(uint64(runner.PairSeed(seed, k)) % uint64(n))
	}
	// Leave at least one epoch after the restart so the restarted agent
	// actually has to resync and serve again.
	restartSpan := epochs - 1
	if restartSpan < 1 {
		restartSpan = 1
	}
	const anyPair = 1 << 20 // normalized modulo the pair count at run time
	return &FaultPlan{
		KillConnEpoch: draw(0, epochs),
		KillPair:      draw(1, anyPair),
		RestartEpoch:  draw(2, restartSpan),
		RestartPair:   draw(3, anyPair),
	}
}

// testOptions is the shared mesh configuration: a 10-ISP dataset yields
// 12 eligible pairs across 9 agents — above the issue's N>=6 floor —
// and 4 epochs take the registry from cold start into steady-state
// renegotiation.
func testOptions() Options {
	return Options{
		NumISPs: 10,
		Seed:    1,
		Epochs:  4,
		Timeout: 20 * time.Second,
	}
}

// checkParity requires the wire mesh to reproduce the serial reference
// pair by pair, epoch by epoch — assignments, gains, distances, ledger.
func checkParity(t *testing.T, serial, wire *Result) {
	t.Helper()
	if len(wire.Pairs) != len(serial.Pairs) {
		t.Fatalf("wire mesh ran %d pairs, serial ran %d", len(wire.Pairs), len(serial.Pairs))
	}
	for k, sp := range serial.Pairs {
		wp := wire.Pairs[k]
		if wp.I != sp.I || wp.J != sp.J {
			t.Fatalf("pair %d is (%d,%d) on the wire, (%d,%d) serially", k, wp.I, wp.J, sp.I, sp.J)
		}
		if len(wp.Reports) != len(sp.Reports) {
			t.Fatalf("pair (%d,%d): %d wire epochs, %d serial", wp.I, wp.J, len(wp.Reports), len(sp.Reports))
		}
		for e := range sp.Reports {
			if !reflect.DeepEqual(wp.Reports[e], sp.Reports[e]) {
				t.Errorf("pair (%d,%d) epoch %d diverged:\n  wire   %+v\n  serial %+v",
					wp.I, wp.J, e, wp.Reports[e], sp.Reports[e])
			}
		}
	}
}

// TestMeshMatchesSerial is the acceptance test, run as a parity
// matrix: for every supported metric, a >=6-agent mesh with concurrent
// sessions produces, for every pair, the identical assignments and
// gains as the serial in-process negotiation for the same seed — at
// every session bound.
func TestMeshMatchesSerial(t *testing.T) {
	for _, metric := range continuous.Metrics() {
		t.Run(string(metric), func(t *testing.T) {
			opt := testOptions()
			opt.Metric = metric
			serial, err := RunSerial(opt)
			if err != nil {
				t.Fatal(err)
			}
			if serial.ISPs < 6 {
				t.Fatalf("mesh has %d agents, want >= 6", serial.ISPs)
			}

			// The steady state must negotiate for real: some pair
			// reaches the table, so the metric's wire path (prefs,
			// commits, reassignment for load metrics) is exercised.
			negotiated := false
			for _, p := range serial.Pairs {
				last := p.Reports[len(p.Reports)-1]
				if last.Negotiated > 0 && last.Assign != nil {
					negotiated = true
				}
			}
			if !negotiated {
				t.Fatal("no pair ever negotiated; the mesh exercises nothing")
			}

			bounds := []int{1, runtime.GOMAXPROCS(0)}
			for _, sessions := range bounds {
				opt := opt
				opt.Sessions = sessions
				wire, err := Run(opt)
				if err != nil {
					t.Fatalf("sessions=%d: %v", sessions, err)
				}
				if wire.ISPs != serial.ISPs {
					t.Errorf("sessions=%d: %d agents, serial had %d", sessions, wire.ISPs, serial.ISPs)
				}
				wantSessions := int64(len(serial.Pairs) * opt.Epochs)
				if wire.Sessions != wantSessions {
					t.Errorf("sessions=%d: completed %d wire sessions, want %d", sessions, wire.Sessions, wantSessions)
				}
				if rollup(t, wire).Resyncs != 0 {
					t.Errorf("sessions=%d: clean run resynced %d times", sessions, rollup(t, wire).Resyncs)
				}
				for _, st := range wire.Agents {
					if st.SessionsFailed != 0 {
						t.Errorf("sessions=%d: agent %s failed %d sessions", sessions, st.Name, st.SessionsFailed)
					}
					for _, peer := range st.Peers {
						if peer.Metric != string(metric) {
							t.Errorf("agent %s peer %s reports metric %q, want %q", st.Name, peer.Name, peer.Metric, metric)
						}
					}
				}
				checkParity(t, serial, wire)

				// The same mesh under injected faults — a connection
				// killed mid-session, an agent restarted cold — must
				// still converge to the identical serial reference: the
				// post-recovery outcome is exact, not merely plausible.
				fopt := opt
				fopt.Faults = &FaultPlan{KillConnEpoch: 1, RestartEpoch: 2}
				faulted, err := Run(fopt)
				if err != nil {
					t.Fatalf("sessions=%d faulted: %v", sessions, err)
				}
				checkParity(t, serial, faulted)
				if rollup(t, faulted).Resyncs == 0 {
					t.Errorf("sessions=%d: faulted run healed without a single resync — the faults were not injected", sessions)
				}
				var failures int64
				for _, st := range faulted.Agents {
					failures += st.SessionsFailed
				}
				if failures == 0 {
					t.Errorf("sessions=%d: faulted run recorded no session failures", sessions)
				}
			}
		})
	}
}

// TestMeshRecovery is the CI smoke variant of the fault-injection
// matrix: a reduced mesh with a mid-session connection kill and a cold
// agent restart must converge to the exact serial reference with zero
// operator intervention, and both the failures and the resyncs must be
// visible in the agents' status surface.
func TestMeshRecovery(t *testing.T) {
	opt := testOptions()
	opt.MaxPairs = 4
	serial, err := RunSerial(opt)
	if err != nil {
		t.Fatal(err)
	}
	// The same kill-and-restart schedule twice: once healing by pure
	// epoch-0 replay, once with a state directory so the cold restart
	// resumes from persisted snapshots and replays only the tail.
	for _, mode := range []string{"replay", "snapshots"} {
		t.Run(mode, func(t *testing.T) {
			fopt := opt
			fopt.Faults = &FaultPlan{KillConnEpoch: 1, RestartEpoch: 2}
			if mode == "snapshots" {
				fopt.StateDir = t.TempDir()
				// Interval 2 with the restart after epoch 2 leaves a
				// snapshot at epoch index 2 on disk: recovery restores it
				// and replays exactly the remaining tail, so resyncs stay
				// observable while full replays would be caught below.
				fopt.SnapshotInterval = 2
			}
			wire, err := Run(fopt)
			if err != nil {
				t.Fatal(err)
			}
			checkParity(t, serial, wire)
			if rollup(t, wire).Resyncs == 0 {
				t.Error("recovery left no resync trace in the status surface")
			}
			restarted := agentdStatusByName(wire, wire.Pairs[0].J)
			if restarted == nil {
				t.Fatalf("no status snapshot for the restarted agent %d", wire.Pairs[0].J)
			}
			// The restarted responder's fast-forward is counted against
			// the pair it serves.
			resynced := false
			for _, p := range restarted.Peers {
				if p.Resyncs > 0 {
					resynced = true
				}
			}
			if !resynced {
				t.Errorf("restarted agent shows no per-peer resync: %+v", restarted)
			}
			if mode != "snapshots" {
				return
			}
			if rollup(t, wire).SnapshotSaves == 0 {
				t.Error("no agent ever persisted a snapshot")
			}
			if restarted.SnapshotRestores == 0 {
				t.Errorf("restarted agent never restored a snapshot: %+v", restarted)
			}
			// Tail-only recovery: at the restart (after epoch 2, epoch
			// index 3) a full replay would reconstruct 3 epochs per pair;
			// with the epoch-2 snapshot restored, each resync replays at
			// most interval-1 epochs.
			fullReplay := int64(fopt.Faults.RestartEpoch + 1)
			for _, p := range restarted.Peers {
				if p.Resyncs > 0 && p.ReplayedEpochs >= fullReplay*p.Resyncs {
					t.Errorf("peer %s replayed %d epochs over %d resyncs — a full replay, not tail-only",
						p.Name, p.ReplayedEpochs, p.Resyncs)
				}
				if p.Resyncs > 0 && p.SnapshotRestores == 0 {
					t.Errorf("peer %s resynced without touching its snapshot: %+v", p.Name, p)
				}
			}
		})
	}
}

// TestMeshRecoveryRandomized hardens the recovery matrix with seeded
// fault schedules over many pairs (not just the historical first-pair
// targets): for every seed, the kill and restart land on seed-chosen
// pairs and epochs, and the run must still converge to the exact serial
// reference with the recovery visible in the status surface. A failing
// schedule is replayable from its seed.
func TestMeshRecoveryRandomized(t *testing.T) {
	opt := testOptions()
	serial, err := RunSerial(opt)
	if err != nil {
		t.Fatal(err)
	}
	seeds := []int64{2, 3, 5, 8}
	if testing.Short() {
		seeds = seeds[:2]
	}
	// Derive every schedule up front (not inside t.Run) so the
	// randomization check below holds even when -run selects a single
	// seed subtest for replay.
	targets := map[[2]int]bool{}
	for _, seed := range seeds {
		plan := randomFaultPlan(seed, opt.Epochs)
		targets[[2]int{
			faultTarget(plan.KillPair, len(serial.Pairs)),
			faultTarget(plan.RestartPair, len(serial.Pairs)),
		}] = true
	}
	if len(targets) < 2 {
		t.Errorf("every seed targeted the same pairs %v; the schedule is not randomized", targets)
	}
	for _, seed := range seeds {
		seed := seed
		// Every seeded schedule runs twice: pure-replay recovery and
		// snapshot-backed recovery over a state directory. Both must
		// converge to the same serial reference.
		for _, mode := range []string{"replay", "snapshots"} {
			mode := mode
			t.Run(fmt.Sprintf("seed=%d/%s", seed, mode), func(t *testing.T) {
				fopt := opt
				fopt.Faults = randomFaultPlan(seed, opt.Epochs)
				if mode == "snapshots" {
					fopt.StateDir = t.TempDir()
					fopt.SnapshotInterval = 2
				}
				t.Logf("schedule: kill pair %d epoch %d, restart pair %d after epoch %d",
					faultTarget(fopt.Faults.KillPair, len(serial.Pairs)), fopt.Faults.KillConnEpoch,
					faultTarget(fopt.Faults.RestartPair, len(serial.Pairs)), fopt.Faults.RestartEpoch)
				wire, err := Run(fopt)
				if err != nil {
					t.Fatal(err)
				}
				checkParity(t, serial, wire)
				if mode == "snapshots" {
					// A snapshot restore can land the restarted agent exactly
					// on the driven epoch, eliminating the resync entirely —
					// the recovery trace is then the restore counter.
					if rollup(t, wire).Resyncs == 0 && rollup(t, wire).SnapshotRestores == 0 {
						t.Error("randomized faults healed without a resync or a snapshot restore — nothing was injected")
					}
					if rollup(t, wire).SnapshotSaves == 0 {
						t.Error("state-dir run never persisted a snapshot")
					}
					// A snapshot exists by the time of any restart at epoch
					// >= 1 (interval 2), so recovery must have used one.
					if fopt.Faults.RestartEpoch >= 1 && rollup(t, wire).SnapshotRestores == 0 {
						t.Error("restart past the first snapshot interval never restored one")
					}
				} else if rollup(t, wire).Resyncs == 0 {
					t.Error("randomized faults healed without a single resync — nothing was injected")
				}
			})
		}
	}
}

// rollup is the run's Progress; a status that does not merge fails the
// test.
func rollup(t *testing.T, res *Result) Progress {
	t.Helper()
	pr, err := res.Progress()
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

// agentdStatusByName finds one agent's final status snapshot.
func agentdStatusByName(res *Result, idx int) *agentd.Status {
	for i := range res.Agents {
		if res.Agents[i].Name == agentd.AgentName(idx) {
			return &res.Agents[i]
		}
	}
	return nil
}

// TestMeshOverTCP smoke-tests the loopback-TCP transport on a reduced
// mesh.
func TestMeshOverTCP(t *testing.T) {
	opt := testOptions()
	opt.MaxPairs = 4
	opt.Epochs = 3
	opt.UseTCP = true
	serial, err := RunSerial(opt)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	checkParity(t, serial, wire)
}

// TestPairsCollectableAfterRun pins the lifetime of the base-workload
// memo behind agentd.EpochWorkloads: it belongs to the run's pairs, so
// once a run's wiring is dropped its pairs (and the gravity workloads
// derived from them) are garbage. A process-wide memo keyed by the pair
// kept every run's pairs alive for good — 52 MB against 23 MB peak RSS
// over a few hundred mesh runs in one process (bench/README.md).
func TestPairsCollectableAfterRun(t *testing.T) {
	opt := testOptions().withDefaults()
	_, pairs, err := buildPairs(opt)
	if err != nil {
		t.Fatal(err)
	}
	held := make([]weak.Pointer[topology.Pair], len(pairs))
	for k, mp := range pairs {
		held[k] = weak.Make(mp.pair)
		mp.wl(0) // a run's first epoch: derives and memoizes the base workloads
	}
	pairs = nil
	runtime.GC()
	for k, w := range held {
		if w.Value() != nil {
			t.Errorf("pair %d of a dropped run is still reachable", k)
		}
	}
}
