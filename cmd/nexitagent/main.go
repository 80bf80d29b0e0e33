// Command nexitagent runs one ISP's negotiation daemon (paper §6,
// Figure 12): a long-running process that represents one ISP and
// negotiates continually with every configured neighbor over TCP, built
// on internal/agentd. Each epoch it renegotiates the (drifting) traffic
// of every pair through the continuous controller, settles the credit
// ledger, and keeps per-peer statistics (a JSON status document).
//
// Each neighbor pair is oriented by dataset index: the lower-index
// agent initiates the pair's sessions, the higher-index one serves
// them. Peers this agent initiates to need an address; peers that dial
// in are listed bare. All daemons of a mesh must share -seed, -isps,
// -p, and -volatility so they derive identical negotiation universes
// (in deployment this agreement comes from observing the same flows;
// see DESIGN.md §6). A three-ISP mesh on one machine (ISPs 1, 2, and 3
// of the 12-ISP dataset are mutual neighbors; not every index pair
// shares the >=2 interconnections a pair needs):
//
//	nexitagent -isp 3 -isps 12 -listen 127.0.0.1:4181 -peer 1 -peer 2 -epochs 8
//	nexitagent -isp 2 -isps 12 -listen 127.0.0.1:4180 -peer 1 -peer 3=127.0.0.1:4181 -epochs 8
//	nexitagent -isp 1 -isps 12 -peer 2=127.0.0.1:4180 -peer 3=127.0.0.1:4181 -epochs 8
//
// Negotiation is metric-generic: -metric selects the objective for
// every pair (distance, bandwidth, or fortz-thorup), and a per-peer
// override — -peer index/metric[=addr] — lets one daemon negotiate
// different objectives with different neighbors. Both endpoints of a
// pair must configure the same metric; the wire Hello carries it and a
// mismatch is rejected cleanly at session open (DESIGN.md §7). A
// bandwidth-negotiating pair:
//
//	nexitagent -isp 2 -isps 12 -listen 127.0.0.1:4180 -metric bandwidth -peer 1 -epochs 8
//	nexitagent -isp 1 -isps 12 -metric bandwidth -peer 2=127.0.0.1:4180 -epochs 8
//
// The daemon runs until every initiated peer has completed -epochs
// epochs (0 = until interrupted), pacing rounds by -interval, and shuts
// down gracefully on SIGINT/SIGTERM. With -debug-addr it serves the
// agent's status document at /status (agentd.Status as JSON, including
// each peer's metric and resync count; what nexitplot -watch reads),
// the same snapshot in the Prometheus text format at /metrics, the
// stock expvar memstats and cmdline at /debug/vars, and the Go
// profiling endpoints at /debug/pprof/ — the probes the wire/session
// hot-path work was profiled with (DESIGN.md §9).
//
// Failures self-heal (the epoch-resync handshake, DESIGN.md §7): each
// round drives the lowest epoch any peer still needs, so a failed
// session is simply retried next round, and a restarted daemon — this
// one or a neighbor — fast-forwards by deterministic local replay and
// rejoins without operator intervention. A daemon restarted mid-mesh
// starts again at epoch 0, learns its neighbors' epoch from their skew
// rejections, catches up, and continues; no other daemon needs a
// restart. With -state-dir the daemon additionally persists per-peer
// snapshots every -snapshot-interval epochs (checksummed, atomically
// renamed — safe against SIGKILL mid-write) and a restart over the same
// directory resumes from the newest usable snapshot, replaying only the
// tail since it instead of the whole history (DESIGN.md §11).
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/agentd"
	"repro/internal/continuous"
	"repro/internal/gen"
	"repro/internal/nexit"
	"repro/internal/pairsim"
	"repro/internal/snapshot"
	"repro/internal/topology"
)

// peerSpec is one -peer flag: a dataset index, an optional per-peer
// metric override, and an address when this agent initiates toward it.
type peerSpec struct {
	index  int
	addr   string
	metric string // empty = the global -metric
}

func main() {
	var (
		ispIdx     = flag.Int("isp", 0, "dataset index of the ISP this agent represents")
		listen     = flag.String("listen", "", "listen address for inbound peers (required when any peer dials in)")
		seed       = flag.Int64("seed", 1, "dataset seed (must match all neighbors)")
		isps       = flag.Int("isps", 65, "dataset size (must match all neighbors)")
		pBound     = flag.Int("p", 10, "preference class bound P")
		epochs     = flag.Int("epochs", 8, "negotiation epochs to run (0 = until interrupted)")
		interval   = flag.Duration("interval", 0, "pause between epochs (set identically on serving daemons so their idle window covers the cadence)")
		volatility = flag.Float64("volatility", 0.25, "per-epoch traffic drift (must match all neighbors)")
		metricFlag = flag.String("metric", "distance", "negotiation objective for every peer: distance, bandwidth, or fortz-thorup (override per peer with -peer index/metric)")
		maxSess    = flag.Int("max-sessions", 0, "bound on concurrent sessions per direction (0 = GOMAXPROCS)")
		timeout    = flag.Duration("timeout", 30*time.Second, "per-exchange wire deadline")
		debugAddr  = flag.String("debug-addr", "", "serve status (/status), metrics (/metrics), expvar (/debug/vars) and pprof (/debug/pprof/) on this address")
		quiet      = flag.Bool("quiet", false, "suppress per-epoch report lines")
		stateDir   = flag.String("state-dir", "", "directory for per-peer controller snapshots; a restarted daemon resumes from them and replays only the epochs since the newest snapshot")
		snapEvery  = flag.Int("snapshot-interval", 0, "epochs between snapshot writes (default 16; needs -state-dir)")
	)
	var specs []peerSpec
	flag.Func("peer", "neighbor `index[/metric][=addr]` (repeatable); addr required when our index is lower (we initiate); /metric overrides -metric for this peer", func(v string) error {
		idx, addr, metric := v, "", ""
		if eq := strings.IndexByte(idx, '='); eq >= 0 {
			idx, addr = idx[:eq], idx[eq+1:]
		}
		if sl := strings.IndexByte(idx, '/'); sl >= 0 {
			idx, metric = idx[:sl], idx[sl+1:]
		}
		n, err := strconv.Atoi(idx)
		if err != nil {
			return fmt.Errorf("bad peer index %q", idx)
		}
		specs = append(specs, peerSpec{index: n, addr: addr, metric: metric})
		return nil
	})
	flag.Parse()
	if len(specs) == 0 {
		fatal(fmt.Errorf("no -peer configured"))
	}

	cfg := gen.DefaultConfig()
	cfg.Seed = *seed
	cfg.NumISPs = *isps
	dataset, err := gen.Generate(cfg)
	if err != nil {
		fatal(err)
	}
	if *ispIdx < 0 || *ispIdx >= len(dataset) {
		fatal(fmt.Errorf("-isp %d out of range for a %d-ISP dataset", *ispIdx, len(dataset)))
	}

	// A serving connection must survive the initiator's epoch pacing:
	// keep the idle window comfortably above -interval, or a slow
	// cadence would time out every responder between epochs.
	idle := agentd.DefaultIdleTimeout
	if min := 2**interval + *timeout; min > idle {
		idle = min
	}
	// With -state-dir the daemon persists per-peer snapshots and — on a
	// restart over the same directory — resumes from them, turning
	// crash-recovery replay from O(lifetime) into O(epochs since the
	// last snapshot). Corrupt or missing snapshots only degrade to the
	// old epoch-0 replay (DESIGN.md §11).
	var store *snapshot.Store
	if *stateDir != "" {
		if store, err = snapshot.NewStore(*stateDir, 0); err != nil {
			fatal(err)
		}
	} else if *snapEvery > 0 {
		fatal(fmt.Errorf("-snapshot-interval needs -state-dir"))
	}
	agent := agentd.New(agentd.Config{
		Name:             agentd.AgentName(*ispIdx),
		MaxSessions:      *maxSess,
		Timeout:          *timeout,
		IdleTimeout:      idle,
		Snapshots:        store,
		SnapshotInterval: *snapEvery,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})

	cache := pairsim.NewTableCache()
	initiating, serving := 0, 0
	for _, spec := range specs {
		if spec.index == *ispIdx || spec.index < 0 || spec.index >= len(dataset) {
			fatal(fmt.Errorf("peer index %d invalid", spec.index))
		}
		lo, hi := *ispIdx, spec.index
		if lo > hi {
			lo, hi = hi, lo
		}
		pair := topology.NewPair(dataset[lo], dataset[hi])
		if pair.NumInterconnections() < 2 {
			fatal(fmt.Errorf("ISPs %d and %d share %d interconnections; need >=2", lo, hi, pair.NumInterconnections()))
		}
		side := nexit.SideA
		if *ispIdx == hi {
			side = nexit.SideB
		}
		metricName := spec.metric
		if metricName == "" {
			metricName = *metricFlag
		}
		metric, err := continuous.ParseMetric(metricName)
		if err != nil {
			fatal(fmt.Errorf("peer %d: %w", spec.index, err))
		}
		ctl, err := continuous.NewWithMetric(pairsim.New(pair, cache), *pBound, metric, nil)
		if err != nil {
			fatal(err)
		}
		key := agentd.PairKey(lo, hi, len(dataset))
		peer := agentd.Peer{
			Name:      agentd.AgentName(spec.index),
			Side:      side,
			Ctl:       ctl,
			Workloads: agentd.EpochWorkloads(pair, *seed, key, *volatility),
		}
		if side == nexit.SideA {
			if spec.addr == "" {
				fatal(fmt.Errorf("peer %d: our index is lower, we initiate — an address is required (-peer %d=host:port)", spec.index, spec.index))
			}
			addr := spec.addr
			peer.Dial = func() (net.Conn, error) { return net.Dial("tcp", addr) }
			initiating++
		} else {
			if spec.addr != "" {
				fatal(fmt.Errorf("peer %d: their index is lower, they dial us — drop the address (-peer %d) and set -listen", spec.index, spec.index))
			}
			serving++
		}
		if err := agent.AddPeer(peer); err != nil {
			fatal(err)
		}
	}

	var ln net.Listener
	if serving > 0 || *listen != "" {
		if *listen == "" {
			fatal(fmt.Errorf("%d peers dial in; -listen is required", serving))
		}
		if ln, err = net.Listen("tcp", *listen); err != nil {
			fatal(err)
		}
		go func() {
			if err := agent.Serve(ln); err != nil {
				fmt.Fprintln(os.Stderr, "nexitagent: serve:", err)
			}
		}()
		fmt.Printf("%s listening on %s (%d inbound peers)\n", agent.Name(), ln.Addr(), serving)
	}
	if *debugAddr != "" {
		go func() {
			mux := http.NewServeMux()
			mux.HandleFunc("/status", func(w http.ResponseWriter, _ *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				w.Write(agent.StatusJSON())
			})
			// The stock expvar handler still serves memstats and cmdline.
			mux.Handle("/debug/vars", expvar.Handler())
			mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
				w.Header().Set("Content-Type", "text/plain; version=0.0.4")
				if err := agent.WriteMetrics(w); err != nil {
					fmt.Fprintln(os.Stderr, "nexitagent: /metrics:", err)
				}
			})
			// The daemon uses a private mux, so the net/http/pprof
			// handlers must be wired explicitly (the package's init only
			// touches http.DefaultServeMux). Index serves every profile
			// (heap, goroutine, ...); the named routes cover the handlers
			// that are not plain profile lookups.
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
			if err := http.ListenAndServe(*debugAddr, mux); err != nil {
				fmt.Fprintln(os.Stderr, "nexitagent: debug server:", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Drive the peers we initiate to, epoch by epoch; serving peers
	// advance when their initiators call. Each round runs the lowest
	// epoch any initiated peer still needs (NextEpoch), so a failed
	// epoch is retried until it heals — RunEpoch is idempotent, so
	// peers that already negotiated it are skipped — and a daemon
	// restarted mid-mesh resyncs to its neighbors and continues.
	// -epochs 0 runs until SIGINT.
	for initiating > 0 && ctx.Err() == nil {
		epoch := agent.NextEpoch()
		if *epochs > 0 && epoch >= *epochs {
			break
		}
		reports, err := agent.RunEpoch(ctx, epoch)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nexitagent: epoch %d: %v\n", epoch, err)
		}
		if !*quiet {
			printEpoch(reports)
		}
		if done := *epochs > 0 && agent.NextEpoch() >= *epochs; !done {
			pause := *interval
			if err != nil && pause < time.Second {
				// Failed rounds must not spin: retry at a gentle pace
				// even when -interval is zero.
				pause = time.Second
			}
			if pause > 0 {
				select {
				case <-time.After(pause):
				case <-ctx.Done():
				}
			}
		}
	}

	// A serving agent stays up until its initiators are done (-epochs
	// reached on every inbound peer) or it is interrupted.
	if serving > 0 {
		fmt.Printf("%s serving; press Ctrl-C to stop\n", agent.Name())
		for ctx.Err() == nil && !servedAll(agent, *epochs) {
			select {
			case <-time.After(200 * time.Millisecond):
			case <-ctx.Done():
			}
		}
	}

	if ln != nil {
		ln.Close()
	}
	agent.Close()
	agent.Wait()
	fmt.Printf("final status:\n%s\n", agent.StatusJSON())
}

// servedAll reports whether every inbound peer has completed the target
// number of epochs (never true when the target is 0 = run forever).
func servedAll(a *agentd.Agent, epochs int) bool {
	if epochs <= 0 {
		return false
	}
	for _, p := range a.Status().Peers {
		if !p.Initiator && p.Epochs < epochs {
			return false
		}
	}
	return true
}

// printEpoch writes one line per peer for the epoch. A peer that
// resynced past the driven epoch (skew recovery) reports the epoch it
// actually negotiated, so each line shows its report's own index.
func printEpoch(reports map[string]*continuous.EpochReport) {
	peers := make([]string, 0, len(reports))
	for name := range reports {
		peers = append(peers, name)
	}
	sort.Strings(peers)
	for _, name := range peers {
		rep := reports[name]
		saving := 0.0
		if rep.DistanceDefault > 0 {
			saving = 100 * (rep.DistanceDefault - rep.DistanceApplied) / rep.DistanceDefault
		}
		fmt.Printf("epoch %2d  %s: observed %3d, negotiated %3d, moved %3d, gains %+d/%+d, ledger %+d, %+.2f%% vs early-exit\n",
			rep.Epoch, name, rep.Observed, rep.Negotiated, rep.Moved,
			rep.GainA, rep.GainB, rep.LedgerBalance, saving)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nexitagent:", err)
	os.Exit(1)
}
