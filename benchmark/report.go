package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// header describes the machine and the sizes a result was measured with.
type header struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Tuples     int     `json:"tuples_per_relation"`
	Views      int     `json:"views"`
	BuildS     float64 `json:"build_s"`
}

func (h header) print() {
	fmt.Printf("# gsvbench commit=%s %s nproc=%d GOMAXPROCS=%d seed=%d seconds=%g tuples=%d views=%d build_s=%.2f\n",
		h.Commit, h.Go, h.NProc, h.GOMAXPROCS, h.Seed, h.Seconds, h.Tuples, h.Views, h.BuildS)
	fmt.Println("# fsync cost in the durable workload and the wal probes is this sandbox's filesystem, not a device's")
}

// wanted returns the metric definitions a -trace mode reports.
func wanted(trace string) []metricDef {
	switch trace {
	case "0":
		return endToEnd
	case "1":
		return perLayer
	default:
		return append(append([]metricDef(nil), endToEnd...), perLayer...)
	}
}

// print writes one line per metric: workload name value unit n=samples.
func (r *runResult) print(trace string) {
	for _, d := range wanted(trace) {
		v, ok := r.Metrics[d.Name]
		if !ok {
			fmt.Printf("%-10s %-30s %12s %-6s\n", r.Workload, d.Name, "null", d.Unit)
			continue
		}
		fmt.Printf("%-10s %-30s %12.6g %-6s n=%d\n", r.Workload, d.Name, v.V, d.Unit, v.N)
	}
	fmt.Printf("%-10s attempted=%d failed=%d correct=%v\n", r.Workload, r.Attempted, r.Failed, r.Correct)
	for _, u := range r.Unavailable {
		fmt.Printf("%-10s layers_unavailable: %s\n", r.Workload, u)
	}
	for _, n := range r.Notes {
		fmt.Printf("%-10s note: %s\n", r.Workload, n)
	}
}

// jsonLine is the object the driver reads: exactly correct, attempted,
// failed and metrics, the latter holding every metric of the mode (null
// where a layer probe was unavailable).
func (r *runResult) jsonLine(trace string) string {
	type jv struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	}
	metrics := map[string]jv{}
	for _, d := range wanted(trace) {
		m := jv{Unit: d.Unit}
		if v, ok := r.Metrics[d.Name]; ok && !math.IsNaN(v.V) && !math.IsInf(v.V, 0) {
			x := v.V
			m.Value = &x
		}
		metrics[d.Name] = m
	}
	line, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]jv `json:"metrics"`
	}{r.Correct, max(r.Attempted, 1), r.Failed, metrics})
	return string(line)
}

// resultSet is one pass over the selected workloads.
type resultSet struct {
	Header header
	Runs   []*runResult
}

// write stores the set as result-<seed>.json: per workload a list of
// {name, value, unit, extra} entries, the shape github-action-benchmark's
// data.js uses, so a later change can chart the trajectory.
func (s *resultSet) write(dir string, seed int64) error {
	type benchEntry struct {
		Name  string  `json:"name"`
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
		Extra string  `json:"extra"`
	}
	type wl struct {
		Benches           []benchEntry `json:"benches"`
		Attempted         int64        `json:"attempted"`
		Failed            int64        `json:"failed"`
		Correct           bool         `json:"correct"`
		LayersUnavailable []string     `json:"layers_unavailable"`
		Notes             []string     `json:"notes,omitempty"`
	}
	doc := struct {
		Header    header        `json:"header"`
		Workloads map[string]wl `json:"workloads"`
	}{s.Header, map[string]wl{}}
	for _, r := range s.Runs {
		w := wl{Attempted: r.Attempted, Failed: r.Failed, Correct: r.Correct,
			LayersUnavailable: append([]string{}, r.Unavailable...), Notes: r.Notes}
		names := make([]string, 0, len(r.Metrics))
		for name := range r.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			v := r.Metrics[name]
			if math.IsNaN(v.V) || math.IsInf(v.V, 0) {
				continue
			}
			w.Benches = append(w.Benches, benchEntry{name, v.V, v.Unit, fmt.Sprintf("n=%d", v.N)})
		}
		doc.Workloads[r.Workload] = w
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("result-%d.json", seed)), append(data, '\n'), 0o644)
}

// exactCounts must repeat bit for bit for a given seed.
var exactCounts = []string{"store.commit_allocs", "query.visited_per_result", "core.apply_allocs",
	"core.helper_calls_per_upd", "wal.bytes_per_upd"}

// worsening is by how much of a's value b is worse than a, given the
// metric's direction; negative when b is better.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// compareSets is the -repeat self-check: the same code measured K times
// must agree with itself within each end-to-end metric's bound, and the
// exact counts must be identical. It prints the comparison and reports
// whether it held.
func compareSets(sets []*resultSet) bool {
	ok := true
	fmt.Printf("# repeat self-check over %d sets: first vs worst of the others\n", len(sets))
	for i, first := range sets[0].Runs {
		for _, d := range endToEnd {
			a, have := first.Metrics[d.Name]
			if !have {
				continue
			}
			worst, worstV := math.Inf(-1), 0.0
			for _, s := range sets[1:] {
				if b, ok := s.Runs[i].Metrics[d.Name]; ok {
					for _, w := range []float64{worsening(d, a.V, b.V), worsening(d, b.V, a.V)} {
						if w > worst {
							worst, worstV = w, b.V
						}
					}
				}
			}
			verdict := "ok"
			if worst > d.Bound {
				verdict, ok = "OUT OF BOUND", false
			}
			fmt.Printf("%-10s %-22s %12.6g vs %12.6g %-6s diff=%+.3f bound=%.2f %s\n",
				first.Workload, d.Name, a.V, worstV, d.Unit, worst, d.Bound, verdict)
		}
		for _, name := range exactCounts {
			a, have := first.Metrics[name]
			for _, s := range sets[1:] {
				if b, ok2 := s.Runs[i].Metrics[name]; have && ok2 && a.V != b.V {
					ok = false
					fmt.Printf("%-10s %-22s exact count differs: %v vs %v\n", first.Workload, name, a.V, b.V)
				}
			}
		}
	}
	if !ok {
		fmt.Println("# repeat self-check FAILED: a metric moved by more than its bound between identical runs")
	}
	return ok
}
