package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/columnar"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/workload"
)

const (
	q1SQL = "SELECT l_returnflag, COUNT(*), SUM(l_quantity), SUM(l_extendedprice), AVG(l_discount) " +
		"FROM lineitem WHERE l_shipdate BETWEEN 0 AND 251 GROUP BY l_returnflag"
	scanSQL = "SELECT l_orderkey, l_extendedprice FROM lineitem WHERE l_shipdate BETWEEN 0 AND 24"

	// Shipdate bounds of the two SQL filters, for the reference answers.
	q1Lo, q1Hi     = 0, 251
	scanLo, scanHi = 0, 24

	volcanoPool = 512 * sim.MB
)

// bench is one workload: which engine runs it, on what data, which
// query, and how its answer is checked.
type bench struct {
	name    string
	volcano bool
	sql     string // empty for the join
	rows    int    // default lineitem rows
	orders  int    // default orders rows; 0 means no orders table
}

var benches = []bench{
	{name: "q1-agg", sql: q1SQL, rows: 500000},
	{name: "scan-sel", sql: scanSQL, rows: 500000},
	{name: "join", rows: 100000, orders: 25000},
	{name: "q1-volcano", volcano: true, sql: q1SQL, rows: 500000},
}

func findBench(name string) (bench, error) {
	for _, b := range benches {
		if b.name == name {
			return b, nil
		}
	}
	return bench{}, fmt.Errorf("unknown workload %q", name)
}

// inputs are the generated tables. Generating them is the benchmark's
// work, never timed.
type inputs struct {
	lineitem *columnar.Batch
	orders   *columnar.Batch
}

func genInputs(b bench, rows, orders int, seed uint64) *inputs {
	cfg := workload.DefaultLineitemConfig(rows)
	cfg.Seed = seed
	in := &inputs{}
	if orders > 0 {
		cfg.Orders = int64(orders)
		in.orders = workload.GenOrders(orders, seed)
	}
	in.lineitem = workload.GenLineitem(cfg)
	return in
}

// system is a loaded engine.
type system struct {
	df *core.DataFlowEngine
	vo *core.VolcanoEngine
}

// catalog resolves table schemas on whichever engine is loaded.
func (s *system) catalog() sqlparse.Catalog {
	if s.vo != nil {
		return s.vo
	}
	return s.df
}

// load builds the workload's engine in its default configuration and
// loads the generated rows into it. This is the work setup_s times.
func load(b bench, in *inputs, workers int) (*system, error) {
	type loader interface {
		CreateTable(string, *columnar.Schema) error
		Load(string, *columnar.Batch) error
	}
	s := &system{}
	var eng loader
	if b.volcano {
		s.vo = core.NewVolcanoEngine(fabric.NewCluster(fabric.LegacyClusterConfig()), volcanoPool)
		s.vo.Workers = workers
		eng = s.vo
	} else {
		s.df = core.NewDataFlowEngine(fabric.NewCluster(fabric.DefaultClusterConfig()))
		s.df.Workers = workers
		eng = s.df
	}
	tables := []struct {
		name   string
		schema *columnar.Schema
		rows   *columnar.Batch
	}{
		{"lineitem", workload.LineitemSchema(), in.lineitem},
		{"orders", workload.OrdersSchema(), in.orders},
	}
	for _, t := range tables {
		if t.rows == nil {
			continue
		}
		if err := eng.CreateTable(t.name, t.schema); err != nil {
			return nil, err
		}
		if err := eng.Load(t.name, t.rows); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// setupRepeated loads the engine n times, each from a collected heap,
// and returns the last system with the median load time in seconds.
func setupRepeated(b bench, in *inputs, workers, n int) (*system, float64, error) {
	var sys *system
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		sys = nil
		runtime.GC()
		start := time.Now()
		s, err := load(b, in, workers)
		times = append(times, time.Since(start).Seconds())
		if err != nil {
			return nil, 0, fmt.Errorf("setup: %w", err)
		}
		sys = s
	}
	return sys, median(times), nil
}

// query runs the workload's query once, the way a client would.
func (s *system) query(ctx context.Context, b bench) (*core.Result, error) {
	if b.sql == "" {
		return s.df.ExecuteJoin(ctx, joinQuery)
	}
	q, err := sqlparse.Parse(b.sql, s.catalog())
	if err != nil {
		return nil, err
	}
	if s.vo != nil {
		return s.vo.Execute(ctx, q)
	}
	return s.df.Execute(ctx, q)
}

var joinQuery = core.JoinQuery{
	Probe: "lineitem", Build: "orders",
	ProbeKey: workload.LOrderKey, BuildKey: workload.OOrderKey,
}

// server is the loaded engine's storage server.
func (s *system) server() *storage.Server {
	if s.vo != nil {
		return s.vo.Storage
	}
	return s.df.Storage
}

func (s *system) store() *storage.ObjectStore { return s.server().Store() }
