package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{100000, 99.99, true}, // rank 99990, 10 beyond
		{99999, 99.9, true},   // p99.99 leaves 9
		{1000, 99, true},
		{999, 95, true}, // p99 rank 990 leaves 9
		{200, 95, true},
		{40, 75, true},
		{39, 50, true}, // p75 rank 30 leaves 9
		{20, 50, true},
		{19, 50, false}, // even the median leaves 9
	} {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
		if ok && c.n-rankOf(p, c.n) < tailMinBeyond {
			t.Errorf("n=%d: p%v leaves %d samples beyond it", c.n, p, c.n-rankOf(p, c.n))
		}
	}
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(sorted, 90); got != 9 {
		t.Errorf("p90 of 1..10 = %v, want 9", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "query", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 20 * ms, End: 50 * ms},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90 * ms, End: 120 * ms}, // runs past its parent
		{ID: 5, Parent: 3, Name: "b1", Start: 25 * ms, End: 35 * ms}, // grandchild
		{ID: 6, Name: "probe", Start: 200 * ms, End: 210 * ms},       // another root
	}
	got := selfTimes(spans)
	want := map[int]time.Duration{
		1: 100*ms - 40*ms - 10*ms, // children cover [10,50] and [90,100]
		2: 20 * ms,
		3: 30*ms - 10*ms,
		4: 30 * ms,
		5: 10 * ms,
		6: 10 * ms,
	}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, got[id], w)
		}
	}
	rec := &recorder{spans: spans}
	if s := rec.byName(true)["query"]; len(s) != 1 || s[0] != 50 {
		t.Errorf("self time of query by name = %v ms, want [50]", s)
	}
}

// smallSystem loads a workload at 20k lineitem rows.
func smallSystem(t *testing.T, name string) (bench, *system, answer) {
	t.Helper()
	b, err := findBench(name)
	if err != nil {
		t.Fatal(err)
	}
	in := genInputs(b, 20000, b.orders/10, 7)
	sys, _, err := setupRepeated(b, in, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	return b, sys, reference(b, in)
}

func TestCheckRejectsPerturbedResults(t *testing.T) {
	perturb := map[string][]func(*core.Result){
		"q1-agg": {
			func(r *core.Result) { r.Batches[0].Col(1).Int64s()[0]++ },             // a count
			func(r *core.Result) { r.Batches[0].Col(3).Float64s()[0] *= 1 + 1e-7 }, // a float sum
			func(r *core.Result) { r.Batches[0].Col(4).Float64s()[1] *= 1 - 1e-7 }, // an average
			func(r *core.Result) { r.Batches[0] = r.Batches[0].Slice(0, 2) },       // a lost group
		},
		"scan-sel": {
			func(r *core.Result) { r.Batches[0].Col(0).Int64s()[0]++ },
			func(r *core.Result) { r.Batches = r.Batches[1:] },
		},
	}
	for name, fs := range perturb {
		b, sys, want := smallSystem(t, name)
		for i, f := range fs {
			res, err := sys.query(context.Background(), b)
			if err != nil {
				t.Fatal(err)
			}
			if err := check(res, want); err != nil {
				t.Fatalf("%s: correct result rejected: %v", name, err)
			}
			f(res)
			if check(res, want) == nil {
				t.Errorf("%s: perturbation %d accepted", name, i)
			}
		}
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("loads every workload")
	}
	for _, b := range benches {
		for _, trace := range []bool{false, true} {
			var out, errOut bytes.Buffer
			res, err := runBench(benchConfig{
				name: b.name, seed: 3, seconds: 0.3, trace: trace,
				rows: 20000, orders: 2500,
			}, &out, &errOut)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", b.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d: %s", b.name, trace, res.Correct, res.Attempted, res.Failed, errOut.String())
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", b.name, trace, len(res.Metrics), len(defs))
			}
			if !trace {
				for _, d := range defs {
					if res.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", b.name, d.Name, res.Metrics[d.Name].Value)
					}
				}
			}
			if !strings.Contains(out.String(), `"info"`) {
				t.Errorf("%s trace=%v: no info line", b.name, trace)
			}
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json and the metric
// catalogue the program reports in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(benches) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(benches))
	}
	for i, w := range spec.Workloads {
		if w.Name != benches[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, w.Name, benches[i].name)
		}
	}
}

func TestBlockTailSizesByMedianBlock(t *testing.T) {
	block := func(n int, slow float64) []float64 {
		b := make([]float64, n)
		for i := range b {
			b[i] = float64(i + 1)
		}
		b[n-1] = slow
		return b
	}
	// Median block size 100: p90 leaves 10 beyond it there, although
	// the 60-sample block leaves only 6.
	blocks := [][]float64{block(100, 1000), block(100, 1000), block(60, 1000), block(100, 1000), block(120, 1000)}
	got := blockTail(blocks)
	if got.p != 90 || got.blocks != 5 || got.beyond != 10 || !got.ok {
		t.Fatalf("blockTail = %+v, want p90 over 5 blocks with 10 beyond", got)
	}
	if got.ms != 90 { // p90 of 1..100 is 90; of 1..60 is 54; of 1..120 is 108
		t.Errorf("tail = %v, want the median block tail 90", got.ms)
	}
	// Blocks of 5 samples cannot carry a tail: pool them.
	small := [][]float64{block(5, 50), block(5, 50), block(5, 50), block(5, 50), block(5, 50)}
	if got := blockTail(small); got.blocks != 1 || got.p != 50 || !got.ok {
		t.Errorf("blockTail of small blocks = %+v, want pooled p50", got)
	}
}
