package main

import (
	"fmt"
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tailPercentiles are the candidates for "the highest percentile the
// sample supports", lowest first; one sample in oneIn lies beyond each.
var tailPercentiles = []struct {
	p     float64
	oneIn int
}{{90, 10}, {99, 100}, {99.9, 1000}, {99.99, 10000}}

// supports reports whether n samples leave at least ten beyond the p-th
// percentile (p must be one of the candidates).
func supports(n int, p float64) bool {
	for _, c := range tailPercentiles {
		if c.p == p {
			return n >= 10*c.oneIn
		}
	}
	return false
}

// supportedTail returns the highest candidate percentile that has at
// least ten of the n samples beyond it, or ok=false when even p90 does
// not (n < 100).
func supportedTail(n int) (p float64, ok bool) {
	for _, c := range tailPercentiles {
		if supports(n, c.p) {
			p, ok = c.p, true
		}
	}
	return p, ok
}

// summary is a latency distribution reduced by the reporting rule:
// median, plus the highest percentile with at least ten samples beyond it.
type summary struct {
	N      int
	P50    float64
	TailP  float64 // which percentile Tail is; 0 when the sample supports none
	Tail   float64
	sorted []float64
}

func summarize(samples []float64) summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	out := summary{N: len(s), sorted: s, P50: percentile(s, 50)}
	if p, ok := supportedTail(len(s)); ok {
		out.TailP, out.Tail = p, percentile(s, p)
	}
	return out
}

// at returns the p-th percentile and whether the sample supports it.
func (s summary) at(p float64) (float64, bool) {
	return percentile(s.sorted, p), supports(s.N, p)
}

func (s summary) String() string {
	if s.TailP == 0 {
		return fmt.Sprintf("p50=%.4g n=%d", s.P50, s.N)
	}
	return fmt.Sprintf("p50=%.4g p%g=%.4g n=%d", s.P50, s.TailP, s.Tail, s.N)
}

// outcome classifies one budgeted read.
type outcome int

const (
	good   outcome = iota // answered without error inside the budget
	late                  // answered correctly, but after the budget ran out
	failed                // shed, rejected, errored or lost: no usable answer
)

// classify applies the accounting rule: a request that fails or is
// refused misses any latency limit, and so does one answered late; only
// the first kind counts as a failed operation.
func classify(err error, latencyMS, budgetMS float64) outcome {
	switch {
	case err != nil:
		return failed
	case latencyMS > budgetMS:
		return late
	default:
		return good
	}
}

// membership replays changefeed events into per-view member sets.
type membership map[string]map[string]bool

func (m membership) reset(view string, members []string) {
	set := make(map[string]bool, len(members))
	for _, b := range members {
		set[b] = true
	}
	m[view] = set
}

// apply is idempotent, as the protocol requires: events at or below a
// snapshot's cursor may be re-announced.
func (m membership) apply(ev *feedEvent) {
	set := m[ev.View]
	if set == nil {
		set = map[string]bool{}
		m[ev.View] = set
	}
	for _, b := range ev.Delete {
		delete(set, b)
	}
	for _, b := range ev.Insert {
		set[b] = true
	}
}

func (m membership) sorted(view string) []string {
	out := make([]string, 0, len(m[view]))
	for b := range m[view] {
		out = append(out, b)
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
