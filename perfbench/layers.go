package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"repro/internal/bufferpool"
	"repro/internal/columnar"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/fabric"
	"repro/internal/plan"
	"repro/internal/sched"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// The traced run splits its time: the first third runs queries untraced,
// for the reference p50 and host costs; the rest runs them traced, with
// the layer probes after every probeEvery-th query. The probes' garbage
// and cache traffic slow the query after them, so most traced queries
// run without probes in between.
const (
	untracedShare = 3
	probeEvery    = 4
)

// samples collects one number per traced query, by metric name.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// traced is the per-layer run. It times, from the benchmark's own code,
// each call into a layer's public functions, and reads each layer's
// counters. It reports every per-layer metric.
func (r *runner) traced(in *inputs, d time.Duration, rec *recorder) (map[string]float64, error) {
	ctx, b, sys := r.ctx, r.b, r.sys
	vals := make(map[string]float64)
	if err := timeLoadLayers(in, vals); err != nil {
		return nil, err
	}
	vals["storage.stored_mb"] = float64(sys.store().TotalBytes()) / mb

	r.warmUp(d)
	runtime.GC()
	cpu0, gc0, all0 := cpuTime(), runtimeCPU(gcCPUMetric), runtimeCPU(allCPUMetric)
	w := r.window(d / untracedShare)
	cpu1, gc1, all1 := cpuTime(), runtimeCPU(gcCPUMetric), runtimeCPU(allCPUMetric)
	n := float64(len(w.latMs))
	if n == 0 {
		return nil, fmt.Errorf("no query succeeded: %v", r.firstErr)
	}
	vals["trace.untraced_p50_ms"] = median(w.latMs)
	vals["core.cpu_ms_per_query"] = ms(cpu1-cpu0) / n
	vals["go.gc_per_query"] = float64(w.numGC) / n
	vals["go.gc_cpu_frac"] = (gc1 - gc0) / (all1 - all0)
	vals["host.cpu_probe_ms"] = median(w.cpuProbeMs)
	vals["host.mem_probe_ms"] = median(w.memProbeMs)

	per := make(samples)
	var pool0 bufferpool.Stats
	if sys.vo != nil {
		pool0 = sys.vo.Pool.Stats()
	}
	if sys.df != nil {
		sys.df.Scheduler.SetWorkers(sys.df.Workers)
	}
	start := time.Now()
	queries := 0
	for i := 1; i <= 3 || time.Since(start) < d-d/untracedShare; i++ {
		res, ph, err := tracedQuery(ctx, b, sys, rec, i)
		if !r.note(res, err) {
			continue
		}
		queries++
		readStats(res, per)
		if ph != nil {
			per.add("plan.variants", float64(ph.variants))
		}
		if queries%probeEvery == 1 {
			if err := runProbes(ctx, b, sys, ph, rec, i, per); err != nil {
				return nil, err
			}
		}
	}
	for name, xs := range per {
		vals[name] = median(xs)
	}
	for name, xs := range rec.byName(false) {
		m := spanMetrics[name]
		vals[m.name] = median(xs) * m.perMs
	}
	vals["core.query_self_us"] = median(rec.byName(true)["query"]) * 1000
	vals["trace.overhead_ratio"] = vals["trace.traced_p50_ms"] / vals["trace.untraced_p50_ms"]
	switch {
	case b.sql == "":
		vals["netsim.exchange_join_ms"] = vals["core.execute_ms"] - vals["join.materialize_ms"]
	case sys.df != nil:
		vals["core.residual_ms"] = vals["core.execute_plan_ms"] - vals["storage.scan_ms"]
	}
	if sys.vo != nil {
		p := sys.vo.Pool.Stats()
		hits, misses := p.Hits-pool0.Hits, p.Misses-pool0.Misses
		if hits+misses > 0 {
			vals["bufferpool.hit_ratio"] = float64(hits) / float64(hits+misses)
		}
		vals["bufferpool.misses_per_query"] = float64(misses) / float64(queries)
		vals["bufferpool.resident_mb"] = float64(p.Resident) / mb
	}
	return vals, nil
}

// spanMetrics maps each span name to the metric its median duration
// reports, with that metric's units per millisecond.
var spanMetrics = map[string]struct {
	name  string
	perMs float64
}{
	"query":             {"trace.traced_p50_ms", 1},
	"sqlparse.parse":    {"sqlparse.parse_us", 1000},
	"plan.plan":         {"plan.plan_us", 1000},
	"sched.admit":       {"sched.admit_us", 1000},
	"sched.release":     {"sched.release_us", 1000},
	"core.execute_plan": {"core.execute_plan_ms", 1},
	"core.execute":      {"core.execute_ms", 1},
	"core.execute_join": {"core.execute_ms", 1},
	"storage.scan":      {"storage.scan_ms", 1},
	"storage.unmarshal": {"storage.unmarshal_ms", 1},
	"encoding.decode":   {"encoding.decode_ms", 1},
	"encoding.eval":     {"encoding.eval_ms", 1},
	"expr.filter":       {"expr.filter_ms", 1},
	"expr.agg":          {"expr.agg_ms", 1},
	"join.materialize":  {"join.materialize_ms", 1},
	"exec.build":        {"exec.build_ms", 1},
	"exec.probe":        {"exec.probe_ms", 1},
}

// physical is what a traced dataflow query planned, for the probes.
type physical struct {
	plan     *plan.Physical
	variants int
}

// tracedQuery runs one query as calls into each layer in turn, the way
// the engine's Execute chains them, with a span around each call.
func tracedQuery(ctx context.Context, b bench, sys *system, rec *recorder, id int) (*core.Result, *physical, error) {
	root := rec.begin("query", 0, id)
	defer rec.end(root)
	step := func(name string, f func() error) error {
		s := rec.begin(name, root, id)
		defer rec.end(s)
		return f()
	}
	var res *core.Result
	if b.sql == "" {
		err := step("core.execute_join", func() (err error) {
			res, err = sys.df.ExecuteJoin(ctx, joinQuery)
			return err
		})
		return res, nil, err
	}
	var q *plan.Query
	if err := step("sqlparse.parse", func() (err error) {
		q, err = sqlparse.Parse(b.sql, sys.catalog())
		return err
	}); err != nil {
		return nil, nil, err
	}
	if sys.vo != nil {
		err := step("core.execute", func() (err error) {
			res, err = sys.vo.Execute(ctx, q)
			return err
		})
		return res, nil, err
	}
	var variants []*plan.Physical
	if err := step("plan.plan", func() (err error) {
		variants, err = sys.df.Plan(q, 0)
		return err
	}); err != nil {
		return nil, nil, err
	}
	var adm *sched.Admission
	if err := step("sched.admit", func() (err error) {
		adm, err = sys.df.Scheduler.Admit(ctx, variants)
		return err
	}); err != nil {
		return nil, nil, err
	}
	err := step("core.execute_plan", func() (err error) {
		res, err = sys.df.ExecutePlan(ctx, adm.Plan)
		return err
	})
	_ = step("sched.release", func() error {
		sys.df.Scheduler.Release(adm)
		return nil
	})
	return res, &physical{plan: adm.Plan, variants: len(variants)}, err
}

// readStats records a query's own counters: storage scan, flow ports and
// the fabric's virtual busy time and bytes.
func readStats(res *core.Result, per samples) {
	st := res.Stats
	per.add("storage.segments", float64(st.Scan.SegmentsTotal))
	per.add("storage.pruned_segments", float64(st.Scan.SegmentsPruned))
	per.add("storage.encoded_segments", float64(st.Scan.EncodedEvalSegments))
	per.add("storage.decoded_mb", float64(st.Scan.DecodedBytes)/mb)
	per.add("storage.decode_saved_mb", float64(st.Scan.DecodedBytesSaved)/mb)
	var data, credit, stalls, bytes float64
	for _, p := range st.Ports {
		data += float64(p.DataMessages)
		credit += float64(p.CreditMessages)
		stalls += float64(p.CreditStalls)
		bytes += float64(p.Bytes)
	}
	per.add("flow.data_msgs", data)
	per.add("flow.credit_msgs", credit)
	per.add("flow.credit_stalls", stalls)
	per.add("flow.port_mb", bytes/mb)
	per.add("fabric.cpu_busy_ms", vms(st.CPUBusy))
	per.add("sim_time_ms_per_query", vms(st.SimTime))
	for _, d := range fabricDevices {
		per.add("fabric.busy_ms."+d, vms(st.DeviceBusy[d]))
	}
	for _, l := range fabricLinks {
		per.add("fabric.link_mb."+l, float64(st.LinkBytes[l])/mb)
	}
}

// runProbes times the layers under the query on the same loaded data,
// each call as its own span.
func runProbes(ctx context.Context, b bench, sys *system, ph *physical, rec *recorder, id int, per samples) error {
	probe := func(name string, f func() error) error {
		s := rec.begin(name, 0, id)
		defer rec.end(s)
		if err := f(); err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
		return nil
	}
	if b.sql == "" {
		return joinProbes(ctx, sys, probe, per)
	}
	q, err := sqlparse.Parse(b.sql, sys.catalog())
	if err != nil {
		return err
	}
	meta, err := sys.server().Table(q.Table)
	if err != nil {
		return err
	}
	numFields := meta.Schema.NumFields()
	needed := allColumns(numFields) // the volcano engine decodes whole segments
	encoded := false
	if ph != nil {
		spec := scanSpec(ph.plan, sys.df.Workers)
		if err := probe("storage.scan", func() error {
			_, err := sys.df.Storage.Scan(ctx, q.Table, spec, func(*columnar.Batch) error { return nil })
			return err
		}); err != nil {
			return err
		}
		needed = neededColumns(spec, numFields)
		encoded = encodedEvalActive(spec)
	}

	var segs []*storage.Segment
	if err := probe("storage.unmarshal", func() error {
		segs = segs[:0]
		for _, key := range meta.SegmentKeys {
			blob, err := sys.store().GetNoCopy(ctx, key)
			if err != nil {
				return err
			}
			seg, err := storage.UnmarshalSegment(blob)
			if err != nil {
				return err
			}
			segs = append(segs, seg)
		}
		return nil
	}); err != nil {
		return err
	}
	decoded := make([]*columnar.Batch, len(segs))
	if err := probe("encoding.decode", func() (err error) {
		for i, seg := range segs {
			if decoded[i], err = seg.DecodeColumns(needed); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	pos := make(map[int]int, len(needed))
	for i, c := range needed {
		pos[c] = i
	}
	rebase := func(c int) int { return pos[c] }

	filtered := decoded
	if q.Filter != nil {
		if encoded {
			if err := probe("encoding.eval", func() error {
				for _, seg := range segs {
					cols := seg.Columns
					if _, _, err := expr.EvalEncoded(q.Filter, func(c int) *encoding.EncodedColumn {
						if c < 0 || c >= len(cols) {
							return nil
						}
						return cols[c]
					}); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				return err
			}
		}
		filter := expr.Rebase(q.Filter, rebase)
		filtered = make([]*columnar.Batch, len(decoded))
		_ = probe("expr.filter", func() error {
			for i, bt := range decoded {
				filtered[i] = bt.Filter(filter.Eval(bt))
			}
			return nil
		})
	}
	if q.GroupBy != nil {
		spec := q.GroupBy.Rebase(rebase)
		var groups int
		_ = probe("expr.agg", func() error {
			agg := expr.NewPartialAggregator(spec, meta.Schema.Project(needed), 0)
			for _, bt := range filtered {
				agg.AddRaw(bt)
			}
			groups = agg.NumGroups()
			agg.Flush()
			return nil
		})
		per.add("expr.groups", float64(groups))
	}
	return nil
}

// joinProbes times the join's two table scans, then the hash-join build
// and probe on the materialized tables.
func joinProbes(ctx context.Context, sys *system, probe func(string, func() error) error, per samples) error {
	var build, probeSide []*columnar.Batch
	scan := func(table string) ([]*columnar.Batch, error) {
		var out []*columnar.Batch
		_, err := sys.df.Storage.Scan(ctx, table, storage.ScanSpec{Workers: sys.df.Workers}, func(b *columnar.Batch) error {
			out = append(out, b)
			return nil
		})
		return out, err
	}
	if err := probe("join.materialize", func() (err error) {
		if build, err = scan(joinQuery.Build); err != nil {
			return err
		}
		probeSide, err = scan(joinQuery.Probe)
		return err
	}); err != nil {
		return err
	}
	if len(build) == 0 {
		return fmt.Errorf("join build side is empty")
	}
	ht := exec.NewPartitionedHashTable(build[0].Schema(), joinQuery.BuildKey, sys.df.Workers)
	_ = probe("exec.build", func() error {
		for _, b := range build {
			ht.Build(b)
		}
		return nil
	})
	var rows int
	_ = probe("exec.probe", func() error {
		for _, b := range probeSide {
			rows += ht.Probe(b, joinQuery.ProbeKey).NumRows()
		}
		return nil
	})
	per.add("exec.join_rows", float64(rows))
	return nil
}

// scanSpec mirrors how the dataflow engine turns a plan's storage-site
// placements into its scan request, so the storage probe reads what the
// query read.
func scanSpec(ph *plan.Physical, workers int) storage.ScanSpec {
	q := ph.Query
	spec := storage.ScanSpec{Projection: q.Projection, Filter: q.Filter, Workers: workers}
	filterAt := ph.HasPlacement(fabric.OpFilter, plan.SiteStorage)
	preaggAt := ph.HasPlacement(fabric.OpPreAgg, plan.SiteStorage)
	projectAt := ph.HasPlacement(fabric.OpProject, plan.SiteStorage)
	spec.Pushdown = filterAt || preaggAt || projectAt
	spec.EncodedEval = ph.EncodedEval
	switch {
	case preaggAt:
		spec.PreAgg = q.GroupBy
	case q.GroupBy != nil && q.Projection == nil:
		spec.Projection = groupColumns(q.GroupBy, q.Filter)
	}
	return spec
}

// encodedEvalActive mirrors when the storage server evaluates a scan's
// filter on encoded columns.
func encodedEvalActive(spec storage.ScanSpec) bool {
	return spec.Pushdown && spec.EncodedEval && spec.Filter != nil && spec.PreAgg == nil
}

// groupColumns lists the columns an aggregation and its filter touch.
func groupColumns(g *expr.GroupBy, filter expr.Predicate) []int {
	cols := append([]int(nil), g.GroupCols...)
	for _, a := range g.Aggs {
		if a.Func != expr.Count {
			cols = append(cols, a.Col)
		}
	}
	if filter != nil {
		cols = append(cols, filter.Columns()...)
	}
	return uniqueSorted(cols)
}

// neededColumns lists the columns a scan decodes, as the storage server
// works them out.
func neededColumns(spec storage.ScanSpec, numFields int) []int {
	var cols []int
	switch {
	case spec.PreAgg != nil && spec.Pushdown:
		cols = groupColumns(spec.PreAgg, nil)
	case spec.Projection == nil:
		cols = allColumns(numFields)
	default:
		cols = append(cols, spec.Projection...)
	}
	if spec.Filter != nil {
		cols = append(cols, spec.Filter.Columns()...)
	}
	return uniqueSorted(cols)
}

func allColumns(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func uniqueSorted(xs []int) []int {
	sort.Ints(xs)
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// timeLoadLayers times the two halves of a table load on their own, on
// a fresh storage server: segment encoding and storing (Server.Append)
// and planner statistics (core.ComputeStats). Each is the median of
// three loads.
func timeLoadLayers(in *inputs, vals map[string]float64) error {
	var appendS, statsS []float64
	for rep := 0; rep < 3; rep++ {
		c := fabric.NewCluster(fabric.DefaultClusterConfig())
		srv := storage.NewServer(storage.NewObjectStore(), c.MustDevice(fabric.DevStorageMed), c.StorageProc(),
			c.LinkBetween(fabric.DevStorageMed, fabric.DevStorageProc))
		var a, s time.Duration
		for _, t := range []struct {
			name string
			rows *columnar.Batch
		}{{"lineitem", in.lineitem}, {"orders", in.orders}} {
			if t.rows == nil {
				continue
			}
			if _, err := srv.CreateTable(t.name, t.rows.Schema()); err != nil {
				return err
			}
			runtime.GC()
			t0 := time.Now()
			if err := srv.Append(t.name, t.rows); err != nil {
				return err
			}
			t1 := time.Now()
			core.ComputeStats(t.rows)
			a, s = a+t1.Sub(t0), s+time.Since(t1)
		}
		appendS = append(appendS, a.Seconds())
		statsS = append(statsS, s.Seconds())
	}
	vals["storage.append_s"] = median(appendS)
	vals["core.stats_s"] = median(statsS)
	return nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Runtime estimates of CPU time, in seconds: spent in GC, and in total.
const (
	gcCPUMetric  = "/cpu/classes/gc/total:cpu-seconds"
	allCPUMetric = "/cpu/classes/total:cpu-seconds"
)

func runtimeCPU(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}
