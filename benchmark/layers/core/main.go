// Command core probes internal/core: the registry's Apply over the eight
// benchmark views with screening on, split into updates some view must
// look at and updates every view screens out; batched Apply; the helper
// calls and useful outcomes per update; and the paper's baseline,
// materializing a view from scratch.
package main

import (
	"flag"
	"fmt"
	"time"

	"gsv/benchmark/internal/probe"
	"gsv/benchmark/internal/views"
	"gsv/internal/core"
	"gsv/internal/oem"
	"gsv/internal/query"
	"gsv/internal/store"
)

// setup builds the base, registers the eight views as materialized views
// with screening on, and returns a function yielding the next stream
// step's base updates.
func setup(cfg *probe.Config) (*probe.Fixture, *core.Registry, func() []store.Update) {
	fx := probe.NewFixture(cfg)
	reg := core.NewRegistry(fx.Store)
	reg.SetScreening(true)
	for _, v := range views.Names() {
		if _, err := reg.Define(fmt.Sprintf("define mview %s as: %s", v, views.Query(v))); err != nil {
			probe.Fatal(err)
		}
	}
	stream := fx.Stream()
	return fx, reg, func() []store.Update {
		us, ok := stream.Next()
		if !ok {
			probe.Fatal(fmt.Errorf("update stream exhausted"))
		}
		return us
	}
}

func main() {
	cfg := probe.Flags()
	flag.Parse()
	res := probe.NewResult()

	// ---- exact counts over a fixed prefix of the stream ----
	const counted = 2000
	fx, reg, next := setup(cfg)
	var stats core.AccessStats
	haveStats := true
	for _, name := range reg.Names() {
		v, _ := reg.Get(name)
		m, ok := v.Maintainer.(*core.SimpleMaintainer)
		if !ok {
			haveStats = false
			break
		}
		m.Access = &core.CentralAccess{S: fx.Store, Stats: &stats}
	}
	applied, withDelta := 0, 0
	sawDelta := false
	reg.SetObserver(func(_ oem.OID, _ store.Update, d core.Deltas) {
		if !d.Empty() {
			sawDelta = true
		}
	})
	prefix := make([][]store.Update, counted)
	for i := range prefix {
		prefix[i] = next()
	}
	i := 0
	allocs, _ := probe.Allocs(counted, func() {
		for _, u := range prefix[i] {
			sawDelta = false
			probe.Must(reg.Apply(u))
			applied++
			if sawDelta {
				withDelta++
			}
		}
		i++
	})
	res.Set("core.apply_allocs", allocs, "count", counted)
	res.Set("core.delta_ratio", float64(withDelta)/float64(applied), "ratio", applied)
	if haveStats {
		calls := stats.PathCalls + stats.AncestorCalls + stats.EvalCalls + stats.FetchCalls + stats.LabelCalls
		res.Set("core.helper_calls_per_upd", float64(calls)/float64(applied), "count", applied)
	}
	reg.SetObserver(nil)

	// ---- timing, one Apply at a time ----
	var all, relevant, screened []float64
	for stop := time.Now().Add(400 * time.Millisecond); time.Now().Before(stop); {
		for _, u := range next() {
			// Screening routes a modify by the atom's label: only "age"
			// ends a view's path. Everything else in the stream (inserts,
			// deletes and creates of age atoms) reaches some maintainer.
			isScreened := false
			if u.Kind == store.UpdateModify {
				l, _ := fx.Store.Label(u.N1)
				isScreened = l != "age"
			}
			t0 := time.Now()
			probe.Must(reg.Apply(u))
			ns := float64(time.Since(t0).Nanoseconds())
			all = append(all, ns)
			if isScreened {
				screened = append(screened, ns)
			} else {
				relevant = append(relevant, ns)
			}
		}
	}
	res.Set("core.apply_ns", probe.MedianOfMeans(all, 50), "ns", len(all))
	res.Set("core.apply_relevant_ns", probe.MedianOfMeans(relevant, 50), "ns", len(relevant))
	res.Set("core.apply_screened_ns", probe.MedianOfMeans(screened, 50), "ns", len(screened))

	// ---- batches of 64 updates ----
	var perUpd []float64
	batched := 0
	for stop := time.Now().Add(300 * time.Millisecond); time.Now().Before(stop); {
		var batch []store.Update
		for len(batch) < 64 {
			batch = append(batch, next()...)
		}
		t0 := time.Now()
		probe.Must(reg.ApplyBatch(batch))
		perUpd = append(perUpd, float64(time.Since(t0).Nanoseconds())/float64(len(batch)))
		batched += len(batch)
	}
	res.Set("core.apply_batch_ns", probe.Median(perUpd), "ns", batched)

	// ---- recomputation from scratch ----
	q := query.MustParse(views.Query("V0_30"))
	ns, n := probe.PerOp(300*time.Millisecond, 1, func() {
		vstore := store.New(store.Options{ParentIndex: true, AllowDangling: true})
		if _, err := core.Materialize("V", q, fx.Store, vstore); err != nil {
			probe.Fatal(err)
		}
	})
	res.Set("core.recompute_ms", ns/1e6, "ms", n)
	res.Print()
}
