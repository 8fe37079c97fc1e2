// Command store probes internal/store: commit cost through the update
// stream the servers drive, point reads on the live store and on a pinned
// snapshot beside a committing writer, and the heap the version ring
// retains.
package main

import (
	"errors"
	"flag"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"gsv/benchmark/internal/probe"
	"gsv/internal/oem"
)

var sink *oem.Object

func main() {
	cfg := probe.Flags()
	flag.Parse()
	res := probe.NewResult()

	// Heap retained by the base plus 3000 commits — six times the default
	// RetainVersions, so the version ring is full — measured against the
	// heap before the base existed.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fx := probe.NewFixture(cfg)
	stream := fx.Stream()
	next := func() {
		if _, ok := stream.Next(); !ok {
			probe.Fatal(errStream)
		}
	}
	// Exact counts first, on the untouched base, so they repeat.
	const counted, retainedAfter = 2000, 3000
	allocs, bytes := probe.Allocs(counted, next)
	res.Set("store.commit_allocs", allocs, "count", counted)
	res.Set("store.commit_bytes", bytes, "B", counted)
	for i := counted; i < retainedAfter; i++ {
		next()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	res.Set("store.retained_mb", float64(after.HeapAlloc-before.HeapAlloc)/(1<<20), "MB", retainedAfter)

	ns, n := probe.PerOp(400*time.Millisecond, 64, next)
	res.Set("store.commit_ns", ns, "ns", n)

	rng := rand.New(rand.NewSource(cfg.Seed))
	pick := func() oem.OID { return fx.Atoms[rng.Intn(len(fx.Atoms))] }
	ns, n = probe.PerOp(200*time.Millisecond, 1024, func() { sink, _ = fx.Store.Get(pick()) })
	res.Set("store.get_ns", ns, "ns", n)

	// Pinned reads while a writer commits; the snapshot is re-pinned every
	// 1024 reads, the way a short read transaction would be.
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
			next()
		}
	}()
	snap := fx.Store.Snapshot()
	reads := 0
	ns, n = probe.PerOp(300*time.Millisecond, 1024, func() {
		if reads++; reads%1024 == 0 {
			snap.Close()
			snap = fx.Store.Snapshot()
		}
		sink, _ = snap.Get(pick())
	})
	snap.Close()
	stop.Store(true)
	<-done
	res.Set("store.snapshot_get_ns", ns, "ns", n)
	res.Print()
}

var errStream = errors.New("update stream exhausted")
