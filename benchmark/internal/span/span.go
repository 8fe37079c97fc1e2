// Package span is the benchmark's own tracing: spans recorded in memory
// around calls into each layer, written out when the run ends, and
// reduced to per-layer self time.
package span

import (
	"sort"
	"time"
)

// Span is one timed call. Parent is the index of the enclosing span in
// the recorder's slice, or -1 for a root; ID is the sequence number of
// the update the call worked on, shared by all spans of one update.
type Span struct {
	Layer  string `json:"layer"`
	Op     string `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	ID     uint64 `json:"id"`
}

// Recorder collects spans. A nil *Recorder records nothing, so the same
// pipeline code runs traced and untraced. It is not safe for concurrent
// use.
type Recorder struct {
	Spans []Span
	epoch time.Time
}

func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Now is the recorder's clock: nanoseconds since it was created.
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	return time.Since(r.epoch).Nanoseconds()
}

// Begin opens a span and returns its index, to be passed to End and used
// as the parent of nested spans.
func (r *Recorder) Begin(layer, op string, parent int, id uint64) int {
	if r == nil {
		return -1
	}
	r.Spans = append(r.Spans, Span{Layer: layer, Op: op, Start: r.Now(), Parent: parent, ID: id})
	return len(r.Spans) - 1
}

// End closes the span Begin returned.
func (r *Recorder) End(i int) {
	if r != nil {
		r.Spans[i].End = r.Now()
	}
}

// Add records a span whose times were taken elsewhere (another goroutine).
func (r *Recorder) Add(s Span) {
	if r != nil {
		r.Spans = append(r.Spans, s)
	}
}

// SetID stamps a span, and the spans nested under it so far, with the id
// learned while it ran.
func (r *Recorder) SetID(root int, id uint64) {
	if r == nil {
		return
	}
	for i := root; i < len(r.Spans); i++ {
		r.Spans[i].ID = id
	}
}

// SelfTimes returns, per layer, the summed self time of its spans: a
// span's duration minus the part of its interval that its direct children
// cover. Children may overlap one another and may stick out of the parent;
// only the union of their intervals, clipped to the parent, is subtracted.
func SelfTimes(spans []Span) map[string]int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make(map[string]int64)
	for i, s := range spans {
		self[s.Layer] += (s.End - s.Start) - covered(s, children[i], spans)
	}
	return self
}

// covered is the length of the union of the children's intervals inside
// the parent's.
func covered(parent Span, kids []int, spans []Span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		total += v.b - max(v.a, end)
		end = v.b
	}
	return total
}
