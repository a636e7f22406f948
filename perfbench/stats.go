package main

import (
	"math"
	"sort"
)

// tailMinBeyond is how many samples must lie beyond the reported tail
// percentile for it to mean anything.
const tailMinBeyond = 10

// tailLadder lists the percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// rankOf is the 1-based nearest rank of percentile p among n samples.
func rankOf(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	return r
}

// tailPercentile returns the highest ladder percentile that leaves at
// least tailMinBeyond of n samples beyond its nearest rank. ok is false
// when even the median leaves fewer; p is then 50.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if n-rankOf(p, n) >= tailMinBeyond {
			return p, true
		}
	}
	return 50, false
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(p, len(sorted))-1]
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle of xs, averaging the two middles of an even
// count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
