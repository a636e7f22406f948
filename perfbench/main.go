// Command perfbench is the repository's query benchmark. One run loads
// one workload's engine, runs its query in a closed loop with a single
// client for a fixed time, checks every answer, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) as the
// last line of its output:
//
//	go run . -workload q1-agg -seed 1 -seconds 20 -trace 0
//
// Run it from the repository root; perfbench/run.py builds and runs it
// there.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// result is the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: q1-agg, scan-sel, join or q1-volcano")
	seed := fs.Uint64("seed", 1, "seed of the generated tables")
	seconds := fs.Float64("seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the measured run")
	rows := fs.Int("rows", 0, "lineitem rows (0: the workload's default)")
	orders := fs.Int("orders", 0, "orders rows of the join (0: the workload's default)")
	spansDir := fs.String("spans-dir", "", "directory the traced run writes its spans to (empty: not written)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	res, err := runBench(benchConfig{
		name: *name, seed: *seed, seconds: *seconds, trace: *trace == 1,
		rows: *rows, orders: *orders, spansDir: *spansDir,
	}, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

type benchConfig struct {
	name         string
	seed         uint64
	seconds      float64
	trace        bool
	rows, orders int
	spansDir     string
}

// setups is how many loads a run times; setup_s is their median.
const setups = 5

// runBench performs one run and returns its result line. Before it, it
// prints one line describing the run.
func runBench(cfg benchConfig, stdout, stderr io.Writer) (*result, error) {
	b, err := findBench(cfg.name)
	if err != nil {
		return nil, err
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	if cfg.rows <= 0 {
		cfg.rows = b.rows
	}
	if cfg.orders <= 0 {
		cfg.orders = b.orders
	}
	if b.orders == 0 {
		cfg.orders = 0
	}
	d := time.Duration(cfg.seconds * float64(time.Second))

	workers := runtime.NumCPU()
	probe, err := newHostProbe()
	if err != nil {
		return nil, err
	}
	in := genInputs(b, cfg.rows, cfg.orders, cfg.seed)
	want := reference(b, in)
	sys, setupS, err := setupRepeated(b, in, workers, setups)
	if err != nil {
		return nil, err
	}
	r := &runner{ctx: context.Background(), b: b, sys: sys, want: want, probe: probe}
	info := map[string]any{
		"workload": b.name, "seed": cfg.seed, "rows": cfg.rows, "orders": cfg.orders,
		"workers": workers, "gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"go": runtime.Version(), "seconds": cfg.seconds, "trace": cfg.trace, "setups": setups,
		"clients": 1,
	}

	var vals map[string]float64
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		rec := newRecorder()
		vals, err = r.traced(in, d, rec)
		if err == nil && cfg.spansDir != "" {
			err = rec.write(filepath.Join(cfg.spansDir, fmt.Sprintf("spans-%s-%d.json", b.name, cfg.seed)))
		}
		info["spans"] = len(rec.spans)
	} else {
		in = nil // the measured run's live heap holds only the engine
		vals, err = r.measured(d, setupS, info)
	}
	if err != nil {
		return nil, err
	}
	info["attempted"], info["failed"] = r.attempted, r.failed
	if r.firstErr != nil {
		info["first_error"] = r.firstErr.Error()
		fmt.Fprintln(stderr, "perfbench: wrong answer or error:", r.firstErr)
	}
	if line, err := json.Marshal(map[string]any{"info": info}); err == nil {
		fmt.Fprintln(stdout, string(line))
	}
	metrics, err := report(defs, vals)
	if err != nil {
		return nil, err
	}
	return &result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   metrics,
	}, nil
}
