package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestPercentileRule(t *testing.T) {
	// The reported tail is the highest candidate percentile with at least
	// ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{99, 0, false}, {100, 90, true}, {999, 90, true}, {1000, 99, true},
		{9999, 99, true}, {10000, 99.9, true}, {100000, 99.99, true},
	} {
		got, ok := supportedTail(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("supportedTail(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = float64(1000 - i) // 1..1000, unsorted
	}
	s := summarize(samples)
	if s.N != 1000 || s.P50 != 500 || s.TailP != 99 || s.Tail != 990 {
		t.Errorf("summarize(1..1000) = %+v", s)
	}
	if _, ok := s.at(99.9); ok {
		t.Error("1000 samples must not support p99.9")
	}
	if s := summarize(samples[:50]); s.TailP != 0 {
		t.Errorf("50 samples support no tail percentile, got p%v", s.TailP)
	}
}

func TestFailureAccounting(t *testing.T) {
	shed := errors.New("warehouse: overloaded (retryable)")
	for _, c := range []struct {
		err  error
		ms   float64
		want outcome
	}{
		{nil, 3, good},
		{nil, 25, good},
		{nil, 25.1, late}, // answered, but after the budget ran out
		{shed, 0.2, failed},
		{shed, 40, failed},
	} {
		if got := classify(c.err, c.ms, 25); got != c.want {
			t.Errorf("classify(%v, %vms) = %v, want %v", c.err, c.ms, got, c.want)
		}
	}
	// Neither a shed nor a late answer counts towards goodput; only the
	// shed one is a failed operation.
	rs := reduceReads([]readSample{{ms: 1, what: good}, {ms: 30, what: late}, {ms: 0.1, what: failed}})
	if rs.attempted != 3 || rs.good != 1 || rs.late != 1 || rs.failed != 1 || rs.lat.N != 2 {
		t.Errorf("reduceReads = %+v", rs)
	}
}

func TestProcParsing(t *testing.T) {
	// A command name with spaces and parentheses must not shift the fields.
	stat := []byte("4242 (gsdb (serve) x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 250 150 0 0 20 0 9 0 123456 1000000 2000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n")
	cpu, err := parseProcStat(stat)
	if err != nil || cpu != 4.0 {
		t.Errorf("parseProcStat = %v, %v; want 4.0s (250+150 ticks)", cpu, err)
	}
	if _, err := parseProcStat([]byte("garbage")); err == nil {
		t.Error("parseProcStat accepted garbage")
	}
	status := []byte("Name:\tgsdbserve\nVmPeak:\t  999999 kB\nVmHWM:\t  116736 kB\nVmRSS:\t  100000 kB\n")
	kb, err := parseStatusKB(status, "VmHWM")
	if err != nil || kb != 116736 {
		t.Errorf("parseStatusKB(VmHWM) = %v, %v", kb, err)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Error("parseStatusKB found a missing key")
	}
}

func TestFeedMembershipReplay(t *testing.T) {
	m := membership{}
	m.reset("V", []string{"a", "b"})
	events := []feedEvent{
		{View: "V", Cursor: 1, Insert: []string{"c"}},
		{View: "V", Cursor: 2, Delete: []string{"a"}},
		{View: "V", Cursor: 2, Delete: []string{"a"}},                        // re-announced: idempotent
		{View: "V", Cursor: 3, Insert: []string{"a"}, Delete: []string{"b"}}, // delete applies before insert
		{View: "W", Cursor: 1, Insert: []string{"x"}},                        // a view first seen through an event
	}
	for i := range events {
		m.apply(&events[i])
	}
	if got := m.sorted("V"); !equalStrings(got, []string{"a", "c"}) {
		t.Errorf("V replayed to %v", got)
	}
	if got := m.sorted("W"); !equalStrings(got, []string{"x"}) {
		t.Errorf("W replayed to %v", got)
	}
}

func TestWorsening(t *testing.T) {
	lower := metricDef{Better: "lower"}
	higher := metricDef{Better: "higher"}
	if w := worsening(lower, 10, 12); math.Abs(w-0.2) > 1e-12 {
		t.Errorf("lower-is-better 10 -> 12 worsens by %v", w)
	}
	if w := worsening(higher, 10, 12); math.Abs(w+0.2) > 1e-12 {
		t.Errorf("higher-is-better 10 -> 12 worsens by %v", w)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which the driver
// reads, in step with the tables this program prints from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jm `json:"end_to_end"`
		PerLayer   []jm `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, default -seconds %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v vs %s / %s", i, doc.Workloads[i], w.Name, w.Why)
		}
	}
	check := func(kind string, got []jm, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: %+v vs %+v", kind, i, g, d)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.Bound) {
				t.Errorf("%s %s: bound differs", kind, d.Name)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, d.Name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}

func TestJSONLineHasEveryMetricOfTheMode(t *testing.T) {
	r := &runResult{Workload: "serve", Metrics: map[string]value{}, Correct: true, Attempted: 10}
	for _, d := range endToEnd {
		r.set(d.Name, 1.5, d.Unit, 1)
	}
	type result struct {
		Correct   bool
		Attempted int64
		Failed    int64
		Metrics   map[string]struct {
			Value *float64
			Unit  string
		}
	}
	var line result
	if err := json.Unmarshal([]byte(r.jsonLine("0")), &line); err != nil {
		t.Fatal(err)
	}
	if len(line.Metrics) != len(endToEnd) || !line.Correct || line.Attempted != 10 {
		t.Errorf("trace 0 line: %+v", line)
	}
	// A layer whose probe was unavailable is reported as null, not omitted.
	line = result{}
	if err := json.Unmarshal([]byte(r.jsonLine("1")), &line); err != nil {
		t.Fatal(err)
	}
	if len(line.Metrics) != len(perLayer) {
		t.Errorf("trace 1 line has %d metrics, want %d", len(line.Metrics), len(perLayer))
	}
	if m := line.Metrics["store.commit_ns"]; m.Value != nil || m.Unit != "ns" {
		t.Errorf("unavailable metric = %+v, want null with its unit", m)
	}
}
