// Command nexitplot is the consumer of the streaming pipeline: it
// folds `nexitsim -stream` NDJSON back into the paper's figure tables,
// and watches a running mesh live.
//
// Fold mode (the default) reads NDJSON from the named files (or stdin
// when none are given), folds every record through internal/plot's
// fold, and prints the figure and extras sections for the experiments
// the input carries. nexitsim's figure mode renders through the same
// fold, so nexitplot over `nexitsim -stream` prints exactly what
// `nexitsim` prints for the same flags. Passing several files merges
// shards of one run: the fold is order-independent, so
//
//	nexitsim -stream -out full.ndjson
//	nexitplot full.ndjson
//	nexitplot shard1.ndjson shard2.ndjson   # any line split of full
//
// print the same bytes. Each experiment's summary lines state how many
// records it streamed; a fold whose records disagree with that count (a
// shard left out, a stream cut short) is an error naming the experiment
// (DESIGN.md §10), and so is a record index folded twice (a shard or a
// run passed twice).
//
// Watch mode polls the /status document of one or more agentd debug
// endpoints (nexitagent -debug-addr) and renders mesh-wide progress —
// sessions/s, the epoch frontier, resync and failure counts, and
// session-latency quantiles:
//
//	nexitplot -watch 127.0.0.1:8171,127.0.0.1:8172 -interval 2s
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/agentd"
	"repro/internal/mesh"
	"repro/internal/plot"
)

func main() {
	var (
		watch    = flag.String("watch", "", "comma-separated agentd debug addresses to poll instead of folding NDJSON")
		interval = flag.Duration("interval", 2*time.Second, "watch poll interval")
		polls    = flag.Int("polls", 0, "stop watching after N polls (0 = until interrupted)")
	)
	flag.Parse()

	if *watch != "" {
		if flag.NArg() > 0 {
			fatal(fmt.Errorf("-watch polls live agents and takes no NDJSON files"))
		}
		if err := runWatch(strings.Split(*watch, ","), *interval, *polls); err != nil {
			fatal(err)
		}
		return
	}

	fold := plot.NewFold()
	if flag.NArg() == 0 {
		if err := fold.ReadLines(os.Stdin); err != nil {
			fatal(fmt.Errorf("stdin: %w", err))
		}
	}
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		err = fold.ReadLines(f)
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
	}
	if fold.Unknown > 0 {
		fmt.Fprintf(os.Stderr, "nexitplot: skipped %d lines of unknown experiments\n", fold.Unknown)
	}
	if err := fold.Render(os.Stdout, "all"); err != nil {
		fatal(err)
	}
}

// runWatch polls every address each interval, folds the statuses into
// one mesh-wide rollup, and prints a progress line. Endpoints that
// fail a poll are reported and skipped for that round; the watch keeps
// going as long as anything answers.
func runWatch(addrs []string, interval time.Duration, polls int) error {
	client := &http.Client{Timeout: interval}
	var prev mesh.Progress
	var prevAt time.Time
	for n := 0; polls <= 0 || n < polls; n++ {
		if n > 0 {
			time.Sleep(interval)
		}
		var statuses []agentd.Status
		for _, addr := range addrs {
			addr = strings.TrimSpace(addr)
			if addr == "" {
				continue
			}
			st, err := fetchStatus(client, addr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "nexitplot: %s: %v\n", addr, err)
				continue
			}
			statuses = append(statuses, st)
		}
		now := time.Now()
		pr, err := mesh.AggregateStatuses(statuses)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nexitplot: aggregate: %v\n", err)
			continue
		}
		rate := plot.SessionRate(prev, pr, now.Sub(prevAt).Seconds())
		fmt.Printf("[%s] %s\n", now.Format("15:04:05"), plot.FormatProgress(pr, rate))
		prev, prevAt = pr, now
	}
	return nil
}

// fetchStatus retrieves one agent's /status document.
func fetchStatus(client *http.Client, addr string) (agentd.Status, error) {
	var st agentd.Status
	url := addr
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	resp, err := client.Get(url + "/status")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/status: %s", resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return st, fmt.Errorf("/status: %w", err)
	}
	if st.Name == "" {
		return st, fmt.Errorf("/status: not an agent status (no name)")
	}
	return st, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nexitplot:", err)
	os.Exit(1)
}
