package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/columnar"
	"repro/internal/core"
	"repro/internal/workload"
)

// floatTol is the relative tolerance for floating-point sums and
// averages, whose summation order the engines are free to change.
const floatTol = 1e-9

// flagTotals is one group of the Q1-shaped answer.
type flagTotals struct {
	count    int64
	sumQty   int64
	sumPrice float64
	avgDisc  float64
}

// answer is a workload's expected result, computed by the benchmark
// from the generated rows without any engine code.
type answer struct {
	groups map[string]flagTotals // Q1 shape; nil otherwise
	rows   int64                 // scan and join: row count
	keySum int64                 // scan and join: sum of l_orderkey
}

func reference(b bench, in *inputs) answer {
	switch {
	case b.sql == q1SQL:
		return referenceQ1(in.lineitem, q1Lo, q1Hi)
	case b.sql == scanSQL:
		return referenceScan(in.lineitem, scanLo, scanHi)
	default:
		return referenceJoin(in.lineitem, in.orders)
	}
}

func referenceQ1(li *columnar.Batch, lo, hi int64) answer {
	ship := li.Col(workload.LShipDate).Int64s()
	flag := li.Col(workload.LReturnFlag).Strings()
	qty := li.Col(workload.LQuantity).Int64s()
	price := li.Col(workload.LExtendedPrice).Float64s()
	disc := li.Col(workload.LDiscount).Float64s()
	sums := make(map[string]*flagTotals)
	for i, d := range ship {
		if d < lo || d > hi {
			continue
		}
		g := sums[flag[i]]
		if g == nil {
			g = &flagTotals{}
			sums[flag[i]] = g
		}
		g.count++
		g.sumQty += qty[i]
		g.sumPrice += price[i]
		g.avgDisc += disc[i] // a sum until divided below
	}
	out := answer{groups: make(map[string]flagTotals, len(sums))}
	for k, g := range sums {
		g.avgDisc /= float64(g.count)
		out.groups[k] = *g
	}
	return out
}

func referenceScan(li *columnar.Batch, lo, hi int64) answer {
	ship := li.Col(workload.LShipDate).Int64s()
	keys := li.Col(workload.LOrderKey).Int64s()
	var a answer
	for i, d := range ship {
		if d >= lo && d <= hi {
			a.rows++
			a.keySum += keys[i]
		}
	}
	return a
}

func referenceJoin(li, orders *columnar.Batch) answer {
	matches := make(map[int64]int64)
	for _, k := range orders.Col(workload.OOrderKey).Int64s() {
		matches[k]++
	}
	var a answer
	for _, k := range li.Col(workload.LOrderKey).Int64s() {
		m := matches[k]
		a.rows += m
		a.keySum += k * m
	}
	return a
}

// dense returns the result's batches with any selection applied.
func dense(res *core.Result) []*columnar.Batch {
	out := make([]*columnar.Batch, 0, len(res.Batches))
	for _, b := range res.Batches {
		if b.Selection() != nil {
			b = b.Compact()
		}
		out = append(out, b)
	}
	return out
}

// check compares a result with the expected answer.
func check(res *core.Result, want answer) error {
	if res == nil {
		return fmt.Errorf("no result")
	}
	if want.groups != nil {
		return checkGroups(res, want.groups)
	}
	var rows, keySum int64
	for _, b := range dense(res) {
		rows += int64(b.NumRows())
		for _, k := range b.Col(0).Int64s() {
			keySum += k
		}
	}
	if rows != want.rows || keySum != want.keySum {
		return fmt.Errorf("got %d rows with key sum %d, want %d rows with key sum %d", rows, keySum, want.rows, want.keySum)
	}
	return nil
}

// checkGroups checks a Q1-shaped result: columns flag, count,
// sum(quantity), sum(price), avg(discount).
func checkGroups(res *core.Result, want map[string]flagTotals) error {
	got := make(map[string]flagTotals)
	for _, b := range dense(res) {
		if b.NumCols() != 5 {
			return fmt.Errorf("result has %d columns, want 5", b.NumCols())
		}
		for i := 0; i < b.NumRows(); i++ {
			k := b.Col(0).Strings()[i]
			if _, dup := got[k]; dup {
				return fmt.Errorf("group %q appears twice", k)
			}
			got[k] = flagTotals{
				count:    b.Col(1).Int64s()[i],
				sumQty:   b.Col(2).Int64s()[i],
				sumPrice: b.Col(3).Float64s()[i],
				avgDisc:  b.Col(4).Float64s()[i],
			}
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("got %d groups, want %d", len(got), len(want))
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		g, w := got[k], want[k]
		switch {
		case g.count != w.count || g.sumQty != w.sumQty:
			return fmt.Errorf("group %q: count %d sum(qty) %d, want %d and %d", k, g.count, g.sumQty, w.count, w.sumQty)
		case !near(g.sumPrice, w.sumPrice) || !near(g.avgDisc, w.avgDisc):
			return fmt.Errorf("group %q: sum(price) %v avg(disc) %v, want %v and %v", k, g.sumPrice, g.avgDisc, w.sumPrice, w.avgDisc)
		}
	}
	return nil
}

// near reports whether got is within floatTol of want, relatively.
func near(got, want float64) bool {
	return math.Abs(got-want) <= floatTol*math.Max(math.Abs(want), math.SmallestNonzeroFloat64)
}
