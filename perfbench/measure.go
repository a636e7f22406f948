package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

const mb = float64(sim.MB)

// runner runs one loaded workload's queries and checks every answer.
type runner struct {
	ctx   context.Context
	b     bench
	sys   *system
	want  answer
	probe *hostProbe

	// Queries attempted and failed, failing ones being those that
	// returned an error or a wrong answer.
	attempted, failed int
	firstErr          error
}

// note checks one query's outcome and reports whether it succeeded.
func (r *runner) note(res *core.Result, err error) bool {
	r.attempted++
	if err == nil {
		err = check(res, r.want)
	}
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
		return false
	}
	return true
}

// window is what one closed-loop measurement window observed.
type window struct {
	latMs      []float64 // host wall time of each successful query
	atMs       []float64 // when each one ended, from the window's start
	moved      []float64 // virtual-clock readings per successful query
	cpuBytes   []float64
	simMs      []float64
	allocBytes uint64
	allocs     uint64
	numGC      uint32
	cpuProbeMs []float64
	memProbeMs []float64
	last       *core.Result
}

// virtualConstant reports whether every query read the same virtual
// clock, as a deterministic cost model must.
func (w *window) virtualConstant() bool {
	for i := range w.moved {
		if w.moved[i] != w.moved[0] || w.cpuBytes[i] != w.cpuBytes[0] || w.simMs[i] != w.simMs[0] {
			return false
		}
	}
	return true
}

// hostProbeEvery spaces the host probes through a window.
const hostProbeEvery = 500 * time.Millisecond

// window runs the workload's query in a closed loop with one client for
// d: the next query starts when the previous one returns. Each answer is
// checked outside its timed interval.
func (r *runner) window(d time.Duration) *window {
	w := &window{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	lastProbe := start.Add(-hostProbeEvery)
	for time.Since(start) < d {
		if time.Since(lastProbe) >= hostProbeEvery {
			c, m := r.probe.run()
			w.cpuProbeMs, w.memProbeMs = append(w.cpuProbeMs, c), append(w.memProbeMs, m)
			lastProbe = time.Now()
		}
		q0 := time.Now()
		res, err := r.sys.query(r.ctx, r.b)
		lat := time.Since(q0)
		if !r.note(res, err) {
			continue
		}
		w.latMs = append(w.latMs, ms(lat))
		w.atMs = append(w.atMs, ms(time.Since(start)))
		w.moved = append(w.moved, float64(res.Stats.MovedBytes))
		w.cpuBytes = append(w.cpuBytes, float64(res.Stats.CPUBytes))
		w.simMs = append(w.simMs, vms(res.Stats.SimTime))
		w.last = res
	}
	runtime.ReadMemStats(&after)
	w.allocBytes = after.TotalAlloc - before.TotalAlloc
	w.allocs = after.Mallocs - before.Mallocs
	w.numGC = after.NumGC - before.NumGC
	return w
}

// warmUp runs queries until the engine's caches and lazy state are
// filled: at least three queries and a tenth of the window.
func (r *runner) warmUp(d time.Duration) {
	start := time.Now()
	for i := 0; i < 3 || time.Since(start) < d/10; i++ {
		res, err := r.sys.query(r.ctx, r.b)
		r.note(res, err)
	}
}

// measured is the untraced run: it reports every end-to-end metric.
func (r *runner) measured(d time.Duration, setupS float64, info map[string]any) (map[string]float64, error) {
	r.warmUp(d)
	runtime.GC()
	w := r.window(d)
	n := len(w.latMs)
	if n == 0 {
		return nil, fmt.Errorf("no query succeeded: %v", r.firstErr)
	}
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	runtime.KeepAlive(r.sys)

	blocks := w.blocks(d)
	tail := blockTail(blocks)
	q := float64(n)
	vals := map[string]float64{
		"setup_s":            setupS,
		"latency_p50_ms":     median(w.latMs),
		"latency_tail_ms":    tail.ms,
		"throughput_qps":     blockThroughput(blocks),
		"success_rate":       1 - float64(r.failed)/float64(r.attempted),
		"alloc_mb_per_query": float64(w.allocBytes) / mb / q,
		"allocs_per_query":   float64(w.allocs) / q,
		"live_heap_mb":       float64(live.HeapAlloc) / mb,
		"moved_mb_per_query": median(w.moved) / mb,
		"cpu_mb_per_query":   median(w.cpuBytes) / mb,
	}
	info["samples"] = n
	info["tail_percentile"] = tail.p
	info["tail_blocks"] = tail.blocks
	info["tail_samples_beyond"] = tail.beyond
	info["tail_ok"] = tail.ok
	info["error_rate"] = float64(r.failed) / float64(r.attempted)
	info["virtual_clock_constant"] = w.virtualConstant()
	info["sim_time_ms_per_query"] = median(w.simMs)
	info["gc_per_query"] = float64(w.numGC) / q
	info["host_cpu_probe_ms"] = median(w.cpuProbeMs)
	info["host_mem_probe_ms"] = median(w.memProbeMs)
	info["variant"] = w.last.Stats.Variant
	return vals, nil
}

// vms converts virtual time to milliseconds.
func vms(v sim.VTime) float64 { return float64(v) / float64(sim.Millisecond) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// blockCount splits a window into this many blocks of equal time.
// Reporting the median of per-block figures keeps a burst of host
// interference in one or two blocks from moving the result.
const blockCount = 7

// blocks splits the window's latencies by when each query ended.
func (w *window) blocks(d time.Duration) [][]float64 {
	out := make([][]float64, blockCount)
	span := ms(d) / blockCount
	for i, lat := range w.latMs {
		k := min(int(w.atMs[i]/span), blockCount-1)
		out[k] = append(out[k], lat)
	}
	return out
}

// tailFigure is a reported tail latency and how it was taken.
type tailFigure struct {
	ms     float64
	p      float64 // percentile
	blocks int     // blocks it is the median over; 1 when pooled
	beyond int     // samples beyond p in the median-sized block, or pooled
	ok     bool    // at least tailMinBeyond samples lie beyond p
}

// blockTail takes each block's tail at the highest percentile that
// leaves tailMinBeyond samples beyond it in a block of the median size,
// and reports the median over blocks. Sizing by the median block keeps
// one slow block from lowering the percentile. When blocks are too small
// for even the median to qualify, it pools them instead.
func blockTail(blocks [][]float64) tailFigure {
	sizes := make([]float64, len(blocks))
	var all []float64
	for i, b := range blocks {
		sizes[i] = float64(len(b))
		all = append(all, b...)
	}
	size := int(median(sizes))
	if p, ok := tailPercentile(size); ok {
		var tails []float64
		for _, b := range blocks {
			if len(b) > 0 {
				tails = append(tails, percentile(sortedCopy(b), p))
			}
		}
		return tailFigure{ms: median(tails), p: p, blocks: len(blocks), beyond: size - rankOf(p, size), ok: true}
	}
	p, ok := tailPercentile(len(all))
	return tailFigure{ms: percentile(sortedCopy(all), p), p: p, blocks: 1, beyond: len(all) - rankOf(p, len(all)), ok: ok}
}

// blockThroughput is the median over blocks of queries completed per
// second of query time.
func blockThroughput(blocks [][]float64) float64 {
	var qps []float64
	for _, b := range blocks {
		if len(b) > 0 {
			qps = append(qps, float64(len(b))/(sum(b)/1000))
		}
	}
	return median(qps)
}
