// Command gsvbench is the repository's benchmark: end-to-end metrics from
// real gsdbserve + gsdbreplica processes driven over loopback TCP, and
// per-layer metrics from a traced run plus in-process probes of each
// layer's public functions. See README.md in this directory.
//
//	bash benchmark/run.sh -workload all -seed 1
//	bash benchmark/run.sh --workload serve --seed 7 --seconds 15 --trace 0
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 12

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload to run: propagate|ingest|serve|durable|all")
		seed         = flag.Int64("seed", 1, "seed for the server's sample and update stream and for the read mix")
		seconds      = flag.Float64("seconds", defaultSeconds, "length of the measured window")
		trace        = flag.String("trace", "both", "0 = end-to-end metrics only, 1 = traced run (per-layer metrics) only, both")
		out          = flag.String("out", "benchmark/out", "directory for result-<seed>.json and trace-<workload>.json, relative to the repository root")
		repeat       = flag.Int("repeat", 1, "run the whole set K times and compare the sets' medians against the bounds")
		layersOnly   = flag.Bool("layers-only", false, "run only the in-process layer probes and the traced pipeline")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *trace != "0" && *trace != "1" && *trace != "both" {
		fatalf("-trace wants 0, 1 or both, got %q", *trace)
	}
	var todo []workload
	if *workloadName == "all" {
		todo = workloads
	} else if w, ok := findWorkload(*workloadName); ok {
		todo = []workload{w}
	} else {
		fatalf("unknown workload %q", *workloadName)
	}
	if *seconds < 1 || *repeat < 1 {
		fatalf("-seconds and -repeat must be at least 1")
	}
	if *layersOnly {
		*trace = "1" // the probes' metrics are per-layer metrics
	}

	e, err := newEnv()
	if err != nil {
		fatalf("%v", err)
	}
	exit := func(code int) {
		e.cleanup()
		os.Exit(code)
	}
	die := func(err error) {
		fmt.Fprintf(os.Stderr, "gsvbench: %v\n", err)
		exit(1)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "gsvbench: interrupted, stopping children")
		exit(130)
	}()

	b := &bench{env: e}
	buildS, err := b.build()
	if err != nil {
		die(err)
	}
	outDir, err := b.outDir(*out)
	if err != nil {
		die(err)
	}
	hdr := header{
		Commit: gitCommit(e.root), Go: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: *seed, Seconds: *seconds,
		Tuples: tuples, Views: len(viewNames()), BuildS: buildS,
	}
	hdr.print()

	var sets []*resultSet
	ok := true
	for k := 0; k < *repeat; k++ {
		set := &resultSet{Header: hdr}
		for _, w := range todo {
			res, err := b.runWorkload(w, *seed, *seconds, *trace, *layersOnly, outDir)
			if err != nil {
				die(fmt.Errorf("workload %s: %w", w.Name, err))
			}
			res.print(*trace)
			set.Runs = append(set.Runs, res)
			ok = ok && res.Correct
		}
		sets = append(sets, set)
	}
	if err := sets[len(sets)-1].write(outDir, *seed); err != nil {
		die(err)
	}
	if *repeat > 1 && !compareSets(sets) {
		ok = false
	}
	// The driver reads the last line of standard output.
	for _, res := range sets[len(sets)-1].Runs {
		fmt.Println(res.jsonLine(*trace))
	}
	if !ok {
		exit(1)
	}
	exit(0)
}

// runWorkload runs one workload: the end-to-end run, the traced run, or
// both merged into one result.
func (b *bench) runWorkload(w workload, seed int64, seconds float64, trace string, layersOnly bool, outDir string) (*runResult, error) {
	var res *runResult
	if trace != "1" && !layersOnly {
		var err error
		if res, err = b.run(w, seed, seconds, false); err != nil {
			return nil, err
		}
	}
	if trace == "0" {
		return res, nil
	}
	traced := &runResult{Workload: w.Name, Metrics: map[string]value{}, Correct: true}
	if !layersOnly {
		var err error
		if traced, err = b.run(w, seed, seconds, true); err != nil {
			return nil, err
		}
		for _, name := range demoted {
			if v, ok := traced.Metrics[name]; ok {
				traced.Metrics["e2e."+name] = v
			}
		}
	}
	b.layerProbes(traced, w, seed, outDir)
	if res == nil {
		return traced, nil
	}
	// Tracing-off figures win wherever both runs measured the same thing.
	for name, v := range traced.Metrics {
		if _, ok := res.Metrics[name]; !ok {
			res.Metrics[name] = v
		}
	}
	res.Attempted += traced.Attempted
	res.Failed += traced.Failed
	res.Correct = res.Correct && traced.Correct
	res.Notes = append(res.Notes, traced.Notes...)
	res.Unavailable = traced.Unavailable
	return res, nil
}

func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gsvbench: "+format+"\n", args...)
	os.Exit(2)
}
