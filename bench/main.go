// Command bench is the repository's benchmark (BENCHMARK.json names
// it): seven named workloads over the experiment pipeline and the
// daemon path, each measured end to end in an untraced run and layer by
// layer in a separate traced run, with its outputs checked.
//
//	go run ./bench                      every workload, each run in a fresh child; one JSON document
//	go run ./bench -workload W [-seed N] [-seconds S] [-trace 0|1]
//	                                    one run in this process; the last line is the contract's result
//	go run ./bench -aa [-runs N]        two sets of runs of the same build, compared against the bounds
//	go run ./bench -compare a.json b.json
//
// README.md says why each workload exists and which layer should move
// which number.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
)

// workloads is every workload, in the order BENCHMARK.json lists them.
var workloads = []*workload{dist65, bw30, cold1024, mesh2, wireSmall, wireLarge, recoverW}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// document is what `go run ./bench` prints.
type document struct {
	// Claim is the gain this document claims over a parent: none. The
	// benchmark's own PR only measures.
	Claim   *string     `json:"claim"`
	Env     environment `json:"env"`
	Seed    int64       `json:"seed"`
	Seconds float64     `json:"seconds"`
	Results []*result   `json:"results"`
}

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in this process and print the contract's result line")
		seed    = flag.Int64("seed", 1, "workload seed: the experiments' per-pair random streams and keyed pair selection")
		seconds = flag.Float64("seconds", 10, "how long an untraced run measures passes")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
		short   = flag.Bool("short", false, "smoke scale: a handful of pairs and sessions, one pass")
		outDir  = flag.String("out", "bench/out", "directory for traces and scratch files")
		aa      = flag.Bool("aa", false, "run two complete sets on this build and compare them against the bounds")
		runs    = flag.Int("runs", 3, "with -aa: runs per workload in each set, each with another seed")
		compare = flag.Bool("compare", false, "compare two documents: -compare a.json b.json")
	)
	flag.Parse()
	if *seed == 0 {
		*seed = 1 // the experiment drivers read seed 0 as 1
	}
	c := &config{Seed: *seed, Seconds: *seconds, Scale: fullScale, OutDir: *outDir}
	if *short {
		c.Scale = shortScale
	}

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("-compare takes two result documents")
			break
		}
		err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *aa:
		err = runAA(c, *short, *runs)
	case *name != "":
		w := workloadByName(*name)
		if w == nil {
			err = fmt.Errorf("unknown workload %q", *name)
			break
		}
		err = child(w, c, *trace != 0)
	default:
		err = runAll(c, *short)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// child runs one workload here and prints the full result, then the
// contract's line last.
func child(w *workload, c *config, traced bool) error {
	c.Probes = true
	res := run(w, c, traced)
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(res); err != nil {
		return err
	}
	if err := enc.Encode(res.line()); err != nil {
		return err
	}
	if !res.correct() {
		return fmt.Errorf("%s: %d of %d operations failed: %v", w.name, res.Failed, res.Ops, res.Errors)
	}
	return nil
}

// spawn runs one workload in a fresh child process — a re-exec of this
// binary — and returns the child's full result.
func spawn(w *workload, c *config, short, traced bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", w.name, "-seed", fmt.Sprint(c.Seed), "-seconds", fmt.Sprint(c.Seconds), "-out", c.OutDir, "-trace", "0"}
	if traced {
		args[len(args)-1] = "1"
	}
	if short {
		args = append(args, "-short")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	first, _, _ := bytes.Cut(out, []byte("\n"))
	res := new(result)
	if err := json.Unmarshal(first, res); err != nil {
		return nil, errors.Join(runErr, fmt.Errorf("%s: child printed no result: %w", w.name, err))
	}
	return res, nil // a child that failed its checks says so in res
}

// runAll measures every workload, untraced then traced, one child at a
// time, and prints one document.
func runAll(c *config, short bool) error {
	doc := document{Env: readEnvironment(), Seed: c.Seed, Seconds: c.Seconds}
	ok := true
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			fmt.Fprintf(os.Stderr, "bench: %s traced=%v\n", w.name, traced)
			res, err := spawn(w, c, short, traced)
			if err != nil {
				return err
			}
			doc.Results = append(doc.Results, res)
			ok = ok && res.correct()
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return err
	}
	if !ok {
		return errors.New("some operations failed; see \"errors\" in the document")
	}
	return nil
}
