package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 for a root
	Query  int           `json:"query"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory; they are written out once, when the
// run ends.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id.
func (r *recorder) begin(name string, parent, query int) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Query: query, Name: name, Start: time.Since(r.epoch)})
	return id
}

// end closes the span begin returned.
func (r *recorder) end(id int) { r.spans[id-1].End = time.Since(r.epoch) }

// selfTimes returns each span's duration minus the part of its interval
// that its children cover, keyed by span id. Overlapping children count
// once, and a child's time outside its parent counts for nothing.
func selfTimes(spans []span) map[int]time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered measures the union of the children's intervals clipped to the
// parent's.
func covered(parent span, children []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// byName groups span durations (self times when self is set) by name,
// in milliseconds.
func (r *recorder) byName(self bool) map[string][]float64 {
	var st map[int]time.Duration
	if self {
		st = selfTimes(r.spans)
	}
	out := make(map[string][]float64)
	for _, s := range r.spans {
		d := s.dur()
		if self {
			d = st[s.ID]
		}
		out[s.Name] = append(out[s.Name], float64(d)/float64(time.Millisecond))
	}
	return out
}

// write stores every span as JSON at path.
func (r *recorder) write(path string) error {
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
