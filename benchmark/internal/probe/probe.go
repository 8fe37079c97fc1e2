// Package probe is the small harness the in-process layer probes share:
// the fixture the server processes also use, per-operation timing that
// reports a median, allocation counting and the JSON result line.
package probe

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"gsv/internal/oem"
	"gsv/internal/store"
	"gsv/internal/workload"
)

// Config is the common command line of every probe binary.
type Config struct {
	Seed   int64
	Tuples int
	Tmp    string // scratch directory inside the checkout
}

// Flags registers the common flags; call flag.Parse afterwards.
func Flags() *Config {
	c := &Config{}
	flag.Int64Var(&c.Seed, "seed", 1, "workload seed (as passed to gsdbserve)")
	flag.IntVar(&c.Tuples, "tuples", 2000, "tuples per relation")
	flag.StringVar(&c.Tmp, "tmp", "", "scratch directory")
	return c
}

// TempDir makes a fresh directory under the scratch directory.
func (c *Config) TempDir(pattern string) string {
	dir, err := os.MkdirTemp(c.Tmp, pattern)
	if err != nil {
		Fatal(err)
	}
	return dir
}

// Fixture is the sample base gsdbserve builds for -sample relations.
type Fixture struct {
	Store *store.Store
	DB    *workload.RelationDB
	Sets  []oem.OID
	Atoms []oem.OID
	seed  int64
}

// NewFixture builds the base exactly as cmd/gsdbserve does.
func NewFixture(c *Config) *Fixture {
	s := store.NewDefault()
	db := workload.RelationLike(s, workload.RelationConfig{
		Relations: 2, TuplesPerRelation: c.Tuples, FieldsPerTuple: 3, Seed: c.Seed,
	})
	f := &Fixture{Store: s, DB: db, seed: c.Seed}
	for _, r := range db.Relations {
		f.Sets = append(f.Sets, r.OID)
		f.Sets = append(f.Sets, r.Tuples...)
		for _, tu := range r.Tuples {
			kids, _ := s.Children(tu)
			f.Atoms = append(f.Atoms, kids...)
		}
	}
	return f
}

// Stream is the update stream gsdbserve's drive loop generates.
func (f *Fixture) Stream() *workload.Stream {
	return workload.NewStream(f.Store, workload.StreamConfig{Seed: f.seed + 7, ValueRange: 60}, f.Sets, f.Atoms)
}

// Median returns the median of xs (NaN-free, non-empty).
func Median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// MedianOfMeans splits xs into consecutive groups of size values (a short
// last group is dropped when there are others) and returns the median of
// the groups' means. Unlike a plain median it stays additive when cheap
// and expensive calls alternate, and unlike a plain mean one stall cannot
// move it.
func MedianOfMeans(xs []float64, size int) float64 {
	var means []float64
	for i := 0; i < len(xs); i += size {
		g := xs[i:min(i+size, len(xs))]
		if len(g) < size && len(means) > 0 {
			break
		}
		sum := 0.0
		for _, x := range g {
			sum += x
		}
		means = append(means, sum/float64(len(g)))
	}
	return Median(means)
}

// PerOp calls fn in batches of the given size for about budget (at least
// three batches) and returns the median over batches of the mean
// nanoseconds per call, with the number of calls made.
func PerOp(budget time.Duration, batch int, fn func()) (ns float64, calls int) {
	var per []float64
	for stop := time.Now().Add(budget); len(per) < 3 || time.Now().Before(stop); {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(batch))
	}
	return Median(per), len(per) * batch
}

// Allocs runs fn n times and returns heap allocations and bytes per call.
// The allocation count uses integer division, like testing.AllocsPerRun,
// so that a stray runtime allocation cannot disturb an exact count.
func Allocs(n int, fn func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64((b.Mallocs - a.Mallocs) / uint64(n)), float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

// Result collects a probe's metrics.
type Result struct {
	Metrics map[string]Metric `json:"metrics"`
}

type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

func NewResult() *Result { return &Result{Metrics: map[string]Metric{}} }

func (r *Result) Set(name string, v float64, unit string, n int) {
	r.Metrics[name] = Metric{Value: v, Unit: unit, N: n}
}

// Print writes the result as the last line of standard output.
func (r *Result) Print() {
	line, err := json.Marshal(r)
	if err != nil {
		Fatal(err)
	}
	fmt.Println(string(line))
}

// Fatal reports a probe failure; the runner lists the layer as unavailable.
func Fatal(err error) {
	fmt.Fprintln(os.Stderr, "probe:", err)
	os.Exit(1)
}

// Must is Fatal on a non-nil error.
func Must(err error) {
	if err != nil {
		Fatal(err)
	}
}
