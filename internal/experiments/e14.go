package experiments

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"gsv/internal/faults"
	"gsv/internal/feed"
	"gsv/internal/oem"
	"gsv/internal/query"
	"gsv/internal/replica"
	"gsv/internal/warehouse"
	"gsv/internal/workload"
)

// e14ServiceDelay models each replica node's fixed per-I/O service
// latency (a remote node's RTT + request handling), injected on every
// read and write of the node's accepted connections. Without it the
// whole tier shares the benchmark host's CPU and node-count scaling is
// invisible on small hosts; with it, capacity is bound by node count —
// the thing the experiment measures — while the host's cores only set
// the (unsaturated) processing cost per read.
const e14ServiceDelay = 2 * time.Millisecond

// e14Views are the two replicated views: one per relation, on the age
// field the update stream keeps flapping.
var e14Views = []struct{ name, stmt string }{
	{"AGE0", "SELECT REL.r0.tuple X WHERE X.age > 30"},
	{"AGE1", "SELECT REL.r1.tuple X WHERE X.age > 50"},
}

// E14ReplicaScaling measures the read-replica serving tier
// (docs/REPLICA.md): one primary maintains two views under a continuous
// update stream while 1, 2 and 4 replicas follow its changefeed; a fixed
// pool of readers per replica hammers the "members" op over the wire.
// Aggregate read throughput should scale near-linearly with the replica
// count — each replica serves from its own store, and the primary's
// extra cost per replica is one feed subscription, not one reader.
// After the measured window every replica must converge to the
// primary's exact membership.
func E14ReplicaScaling(cfg Config) *Table {
	t := &Table{
		ID:    "E14",
		Title: "read-replica scaling: aggregate read throughput vs replica count",
		Caption: "Read-replica tier (docs/REPLICA.md). One primary maintains 2 views " +
			"under a continuous update stream; N replicas bootstrap from snapshots, " +
			"follow the multi-view changefeed, and serve the members op over the " +
			"wire to 4 readers each. Every replica node models a fixed per-I/O " +
			"service latency (2ms), so capacity is bound by node count rather than " +
			"the shared benchmark host's cores. qps is aggregate successful reads/s " +
			"across all replicas; scaling is qps relative to the 1-replica run; " +
			"p99 prop is the 99th-percentile origin-to-replica-visible propagation " +
			"latency across all stamped updates the replicas applied (the freshness " +
			"the tier actually delivers — gated so staleness regressions fail CI). " +
			"After the window each replica must match the primary member-for-member.",
		Headers: []string{"replicas", "readers", "upds applied", "reads", "qps",
			"scaling", "p99 prop", "members equal"},
	}
	window := 200 * time.Millisecond
	if cfg.Updates >= 200 {
		window = 600 * time.Millisecond
	}
	var baseQPS float64
	for _, n := range []int{1, 2, 4} {
		applied, res, p99, equal := e14Run(cfg, n, window)
		if !equal {
			panic(fmt.Sprintf("E14: replica membership diverged at n=%d", n))
		}
		if n == 1 {
			baseQPS = res.QPS()
		}
		t.AddRow(n, 4*n, applied, res.Reads, res.QPS(), ratio(res.QPS(), baseQPS),
			fmt.Sprintf("%.2fms", p99*1e3), equal)
	}
	return t
}

// p99Of returns the 99th-percentile of latency samples in seconds
// (0 when empty).
func p99Of(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	i := (len(samples)*99 + 99) / 100 // ceil(0.99n)
	if i < 1 {
		i = 1
	}
	if i > len(samples) {
		i = len(samples)
	}
	return samples[i-1]
}

// e14Run measures one replica count: primary + n replicas + 4 readers
// per replica for one window, then a convergence check. p99 is the
// tier's 99th-percentile origin-to-visible propagation latency in
// seconds, pooled across every replica's applied updates.
func e14Run(cfg Config, n int, window time.Duration) (applied int, res workload.ReadLoadResult, p99 float64, equal bool) {
	s, sets, atoms := e12Fixture(50*cfg.Scale, cfg.Seed)
	src := warehouse.NewSource("primary", s, "REL", warehouse.Level2, warehouse.NewTransport(0))
	src.DrainReports()
	w := warehouse.New(src)
	w.Feed = feed.NewHub(feed.Options{RingSize: 8192})
	for _, v := range e14Views {
		if _, err := w.DefineView(v.name, query.MustParse(v.stmt), warehouse.ViewConfig{Screening: true}); err != nil {
			panic(err)
		}
	}
	server := warehouse.NewServer(src, warehouse.ServerConfig{
		Feed:                 w.Feed,
		Members:              w.FreshMembers,
		FeedProgressInterval: 25 * time.Millisecond,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	go func() { _ = server.Serve(ln) }()
	defer server.Close()

	var reps []*replica.Replica
	var rsrvs []*warehouse.Server
	var addrs []string
	defer func() {
		for _, rs := range rsrvs {
			rs.Close()
		}
		for _, r := range reps {
			r.Close()
		}
	}()
	for i := 0; i < n; i++ {
		r, err := replica.New(replica.Options{
			Name: fmt.Sprintf("r%d", i), Primary: ln.Addr().String(),
		})
		if err != nil {
			panic(err)
		}
		reps = append(reps, r)
		if !r.WaitCaughtUp(10 * time.Second) {
			panic("E14: replica never caught up")
		}
		rsrv := r.NewServer(warehouse.ServerConfig{})
		rln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			panic(err)
		}
		// One injector per node: a shared one would serialize all nodes'
		// reads on its mutex, masking exactly the scaling being measured.
		inj := faults.New(faults.Config{DelayProb: 1, Delay: e14ServiceDelay})
		go func() { _ = rsrv.Serve(inj.WrapListener(rln)) }()
		rsrvs = append(rsrvs, rsrv)
		addrs = append(addrs, rln.Addr().String())
	}

	// Continuous maintenance on the primary for the whole window.
	stop := make(chan struct{})
	var driver sync.WaitGroup
	driver.Add(1)
	go func() {
		defer driver.Done()
		stream := workload.NewStream(s, workload.StreamConfig{Seed: cfg.Seed + 7, ValueRange: 60}, sets, atoms)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, ok := stream.Next(); !ok {
				return
			}
			if err := w.ProcessAll(src.DrainReports()); err != nil {
				panic(err)
			}
			applied++
			time.Sleep(500 * time.Microsecond)
		}
	}()

	views := make([]string, 0, len(e14Views))
	for _, v := range e14Views {
		views = append(views, v.name)
	}
	res = workload.RunReadLoad(workload.ReadLoadConfig{
		Addrs: addrs, Clients: 4 * n, Duration: window,
		Views: views, Seed: cfg.Seed,
	})
	close(stop)
	driver.Wait()

	equal = true
	finalSeq := src.Store.Seq()
	for _, r := range reps {
		if !r.WaitSeq(finalSeq, 10*time.Second) {
			equal = false
			continue
		}
		for _, v := range e14Views {
			want, err := w.FreshMembers(v.name)
			if err != nil {
				panic(err)
			}
			got, err := r.Members(v.name)
			if err != nil {
				panic(err)
			}
			if !oem.SameMembers(got, want) {
				equal = false
			}
		}
	}
	var samples []float64
	for _, r := range reps {
		samples = append(samples, r.PropagationSamples()...)
	}
	return applied, res, p99Of(samples), equal
}
