package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestCommandsAndExamplesRun builds every cmd/ main and every example
// into a temporary directory and runs each once on a small input: a
// clean exit and some output, inside a bounded time. What they print is
// pinned elsewhere (the experiment, plot and mesh suites), except for
// the shape of a 1024-ISP stream, nexitsim's refusal of an unknown
// -fig, and the one contract between two binaries: nexitplot over
// nexitsim's stream prints exactly what nexitsim's figure mode prints.
// Needs the go tool, no network.
func TestCommandsAndExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs nine binaries")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	bin := buildMains(ctx, t, nil, nil, "./cmd/...", "./examples/...")
	stream := filepath.Join(bin, "fig4.ndjson")

	for _, c := range []struct {
		name string
		args []string
		// stdout, when set, receives the command's standard output for a
		// later row to read.
		stdout string
		// check, when set, inspects the command's standard output.
		check func(t *testing.T, stdout []byte)
	}{
		{name: "continuousnegotiation"},
		{name: "diversecriteria"},
		{name: "failover"},
		{name: "meshnegotiation"},
		{name: "quickstart"},
		{name: "nexitsim", args: []string{"-isps", "12", "-inventory"}},
		{name: "nexitsim", args: []string{"-isps", "12", "-max-pairs", "2", "-stream", "-fig", "4"}, stdout: stream},
		// Generation shards per ISP, so a universe far beyond the paper's
		// 65 ISPs must stream end to end (DESIGN.md §4); the pair bound
		// keeps it a smoke.
		{name: "nexitsim", args: []string{"-isps", "1024", "-max-pairs", "6", "-stream", "-fig", "4"}, check: checkStreamSummary},
		{name: "nexitplot", args: []string{stream}},
		{name: "topogen", args: []string{"-isps", "12", "-inventory"}},
		{name: "nexitagent", args: []string{"-h"}},
	} {
		ok := t.Run(c.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
			defer cancel()
			cmd := exec.CommandContext(ctx, filepath.Join(bin, c.name), c.args...)
			cmd.Dir = bin // whatever a main writes stays out of the repository
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%s %v: %v\n%s%s", c.name, c.args, err, stdout.Bytes(), stderr.Bytes())
			}
			if stdout.Len()+stderr.Len() == 0 {
				t.Errorf("%s %v printed nothing", c.name, c.args)
			}
			if c.check != nil {
				c.check(t, stdout.Bytes())
			}
			if c.stdout != "" {
				if err := os.WriteFile(c.stdout, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		})
		if !ok && c.stdout != "" {
			t.Fatalf("%s produced no %s for the rows after it", c.name, filepath.Base(c.stdout))
		}
	}

	t.Run("figures", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
		defer cancel()
		run := func(stdin io.Reader, name string, args ...string) string {
			cmd := exec.CommandContext(ctx, filepath.Join(bin, name), args...)
			cmd.Dir, cmd.Stdin = bin, stdin
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s %v: %v", name, args, err)
			}
			return string(out)
		}
		small := []string{"-isps", "12", "-max-pairs", "4", "-max-failures", "6", "-fig", "all"}
		figures := run(nil, "nexitsim", small...)
		stream := run(nil, "nexitsim", append(small, "-stream")...)
		plot := run(strings.NewReader(stream), "nexitplot")
		if !strings.Contains(figures, "=== Figure 11") || strings.Count(figures, "=== Extra — ") != 7 {
			t.Fatalf("nexitsim -fig all lacks Figure 11 or one of the seven extras sections:\n%s", figures)
		}
		if figures != plot {
			t.Errorf("outputs differ:\nnexitsim -fig all:\n%s\nnexitplot over -stream:\n%s", figures, plot)
		}
	})

	// An unknown -fig is a usage error naming the valid values, in both
	// modes, before any dataset is built.
	t.Run("unknown-fig", func(t *testing.T) {
		for _, args := range [][]string{{"-fig", "3"}, {"-fig", "3", "-stream"}} {
			cmd := exec.CommandContext(ctx, filepath.Join(bin, "nexitsim"), args...)
			cmd.Dir = bin
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("nexitsim %v: %v, want exit status 2", args, err)
			}
			if stdout.Len() != 0 || !strings.Contains(stderr.String(), "all, 4, 5, 6, 7, 8, 9, 10, 11, extras") {
				t.Fatalf("nexitsim %v printed stdout %q, stderr %q; want the valid values on stderr only",
					args, stdout.Bytes(), stderr.Bytes())
			}
		}
	})
}

// checkStreamSummary checks a one-experiment NDJSON stream: at least
// six lines, each a JSON object naming its experiment, and the last one
// the summary, counting the records before it.
func checkStreamSummary(t *testing.T, stdout []byte) {
	lines := strings.Split(strings.TrimSuffix(string(stdout), "\n"), "\n")
	if len(lines) < 6 {
		t.Fatalf("stream has %d NDJSON lines, want at least 6:\n%s", len(lines), stdout)
	}
	for i, line := range lines {
		var obj struct {
			Experiment string `json:"experiment"`
			Results    *int   `json:"results"`
		}
		if err := json.Unmarshal([]byte(line), &obj); err != nil || obj.Experiment == "" {
			t.Fatalf("line %d is not a JSON object naming its experiment (%v): %.200s", i+1, err, line)
		}
		last := i == len(lines)-1
		if (obj.Results != nil) != last {
			t.Fatalf("line %d of %d: summary=%v, want the summary last and only there", i+1, len(lines), obj.Results != nil)
		}
		if last && *obj.Results != len(lines)-1 {
			t.Fatalf("summary counts %d results, the stream has %d records", *obj.Results, len(lines)-1)
		}
	}
}

// buildMains builds the main packages matched by pkgs into a fresh
// temporary directory and returns it. env is appended to the go tool's
// environment (GOARCH=arm64 cross-compiles) and flags go before the
// packages on the go build command line.
func buildMains(ctx context.Context, t *testing.T, env, flags []string, pkgs ...string) string {
	t.Helper()
	bin := t.TempDir()
	args := append([]string{"build", "-o", bin + string(filepath.Separator)}, flags...)
	cmd := exec.CommandContext(ctx, "go", append(args, pkgs...)...)
	cmd.Env = append(os.Environ(), env...)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %v %v: %v\n%s", env, flags, err, out)
	}
	return bin
}
