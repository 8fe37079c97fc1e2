package replica_test

import (
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gsv/internal/faults"
	"gsv/internal/feed"
	"gsv/internal/obs"
	"gsv/internal/oem"
	"gsv/internal/query"
	"gsv/internal/replica"
	"gsv/internal/store"
	"gsv/internal/warehouse"
	"gsv/internal/workload"
)

// TestPropagationTraceSoak is the observability acceptance drill: a
// durable primary and one replica run a chaotic workload (every
// connection injects seeded errors, delays and drops), after which
//
//   - every update the replica applied carries a COMPLETE span chain —
//     joined on trace ID across both nodes it reads WAL → screen …
//     maintain → apply, ingestion to replica-visible;
//   - propagation histograms and watermark gauges are populated on both
//     nodes' registries;
//   - the primary's /readyz flips unhealthy while a view is quarantined
//     Stale and recovers after RepairAll, and the replica's readiness
//     reflects its lag bounds.
func TestPropagationTraceSoak(t *testing.T) {
	s := store.NewDefault()
	db := workload.RelationLike(s, workload.RelationConfig{
		Relations: 2, TuplesPerRelation: 4, FieldsPerTuple: 2, Seed: 17,
	})
	src := warehouse.NewSource("rel", s, "REL", warehouse.Level2, warehouse.NewTransport(0))
	src.DrainReports()
	w := warehouse.New(src)
	if _, err := w.EnableDurability(t.TempDir(), warehouse.DurabilityOptions{}); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	w.EnableObs(reg)
	w.Feed = feed.NewHub(feed.Options{RingSize: 1024})
	views := []struct {
		name string
		q    string
	}{
		{"TSOAK0", "SELECT REL.r0.tuple X WHERE X.age > 40"},
		{"TSOAK1", "SELECT REL.r1.tuple X WHERE X.age <= 60"},
	}
	for _, sp := range views {
		if _, err := w.DefineView(sp.name, query.MustParse(sp.q), warehouse.ViewConfig{}); err != nil {
			t.Fatal(err)
		}
	}

	inj := faults.New(faults.Config{
		Seed:      42,
		DropProb:  0.01,
		ErrProb:   0.02,
		DelayProb: 0.05,
		Delay:     200 * time.Microsecond,
	})
	server := warehouse.NewServer(src, warehouse.ServerConfig{
		Feed:                 w.Feed,
		Members:              w.FreshMembers,
		Obs:                  reg,
		Traces:               w.Traces,
		Chains:               w.Chains,
		FeedProgressInterval: 15 * time.Millisecond,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = server.Serve(inj.WrapListener(ln)) }()
	t.Cleanup(server.Close)

	dial := warehouse.DialOptions{
		IOTimeout: 2 * time.Second,
		Retry: warehouse.RetryPolicy{
			MaxAttempts: 10, BaseDelay: time.Millisecond,
			MaxDelay: 20 * time.Millisecond, Multiplier: 2, Jitter: 0.2,
		},
		Redial: warehouse.RetryPolicy{
			MaxAttempts: 2000, BaseDelay: time.Millisecond,
			MaxDelay: 10 * time.Millisecond, Multiplier: 2, Jitter: 0.2,
		},
		Seed: 7,
	}
	var r *replica.Replica
	for try := 0; try < 50; try++ { // the injector can kill the first dial
		r, err = replica.New(replica.Options{
			Name: "tsoak", Primary: ln.Addr().String(), Dial: dial,
			RedialBase: 2 * time.Millisecond, RedialMax: 50 * time.Millisecond,
			FeedIdleTimeout: 500 * time.Millisecond,
		})
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	// Wait for the feed subscription to attach before driving updates:
	// anything applied earlier would be absorbed by the bootstrap
	// snapshot instead of arriving as stamped feed events.
	if !r.WaitCaughtUp(10 * time.Second) {
		t.Fatal("replica never attached to the feed")
	}
	rreg := obs.NewRegistry()
	r.RegisterObs(rreg)
	rsrv := r.NewServer(warehouse.ServerConfig{Obs: rreg})
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = rsrv.Serve(rln) }()
	t.Cleanup(rsrv.Close)

	// Modify-only chaos workload: memberships flap, trace stamps flow.
	var sets, atoms []oem.OID
	for _, rel := range db.Relations {
		sets = append(sets, rel.OID)
		sets = append(sets, rel.Tuples...)
		for _, tu := range rel.Tuples {
			kids, _ := s.Children(tu)
			atoms = append(atoms, kids...)
		}
	}
	stream := workload.NewStream(s, workload.StreamConfig{
		Seed: 29, Mix: workload.Mix{Modify: 1}, ValueRange: 90,
	}, sets, atoms)
	for i := 0; i < 60; i++ {
		if _, ok := stream.Next(); !ok {
			t.Fatal("stream exhausted")
		}
		if err := w.ProcessAll(src.DrainReports()); err != nil {
			t.Fatalf("maintenance: %v", err)
		}
	}
	if !r.WaitSeq(src.Store.Seq(), 30*time.Second) {
		lag, age := r.Lag()
		t.Fatalf("replica never caught up: %d behind (%s)", lag, age)
	}

	// --- Chain completeness: join replica apply chains with the
	// primary's ring on trace ID. The replica's half arrives over the
	// wire, exercising the trace op against a replica server (which the
	// read gate must never reject).
	probe, err := warehouse.Dial("probe", rln.Addr().String(), warehouse.NewTransport(0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(probe.Close)
	rpayload, err := probe.FetchTrace("")
	if err != nil {
		t.Fatal(err)
	}
	if rpayload.Node != "tsoak" || len(rpayload.Chains) == 0 {
		t.Fatalf("replica trace payload = %+v", rpayload)
	}

	type half struct{ wal, screen, maintain bool }
	primary := map[string]map[string]*half{} // traceID -> view -> stages
	for _, c := range w.Chains.Snapshot() {
		byView := primary[c.TraceID]
		if byView == nil {
			byView = map[string]*half{}
			primary[c.TraceID] = byView
		}
		h := byView[c.View]
		if h == nil {
			h = &half{}
			byView[c.View] = h
		}
		for _, sp := range c.Spans {
			switch sp.Stage {
			case "wal":
				h.wal = true
			case "screen":
				h.screen = true
			case "maintain":
				h.maintain = true
			}
		}
	}
	applied := 0
	for _, c := range rpayload.Chains {
		if c.TraceID == "" || c.Origin <= 0 || c.Node != "tsoak" {
			t.Fatalf("replica chain missing trace context: %+v", c)
		}
		if len(c.Spans) != 1 || c.Spans[0].Stage != "apply" || c.Spans[0].Nanos < 0 {
			t.Fatalf("replica chain spans = %+v", c.Spans)
		}
		byView, ok := primary[c.TraceID]
		if !ok {
			t.Fatalf("applied update %s has no primary chain", c.TraceID)
		}
		if h := byView[""]; h == nil || !h.wal {
			t.Fatalf("applied update %s has no WAL ingestion span", c.TraceID)
		}
		h := byView[c.View]
		if h == nil || !h.screen || !h.maintain {
			// An applied feed event means the view changed, so the
			// primary must have screened AND maintained this update.
			t.Fatalf("applied update %s view %s: incomplete primary half %+v", c.TraceID, c.View, h)
		}
		applied++
	}
	if applied == 0 {
		t.Fatal("no applied updates to join")
	}

	// --- Histograms and watermarks populated on both nodes.
	psnap, rsnap := reg.Snapshot(), rreg.Snapshot()
	for _, check := range []struct {
		name   string
		snap   obs.Snapshot
		metric string
		labels []obs.Label
	}{
		{"primary wal latency", psnap, "gsv_propagation_seconds",
			[]obs.Label{obs.L("node", "primary"), obs.L("stage", "wal")}},
		{"primary maintain latency", psnap, "gsv_propagation_seconds",
			[]obs.Label{obs.L("node", "primary"), obs.L("stage", "maintain"), obs.L("view", "TSOAK0")}},
		{"replica apply latency", rsnap, "gsv_propagation_seconds",
			[]obs.Label{obs.L("node", "tsoak"), obs.L("stage", "apply"), obs.L("view", "TSOAK0")}},
	} {
		p, ok := check.snap.Get(check.metric, check.labels...)
		if !ok || p.Count == 0 {
			t.Fatalf("%s: %+v, %v", check.name, p, ok)
		}
	}
	for _, check := range []struct {
		name   string
		snap   obs.Snapshot
		metric string
		labels []obs.Label
	}{
		{"primary head watermark", psnap, "gsv_watermark_head_seconds",
			[]obs.Label{obs.L("node", "primary")}},
		{"primary view watermark", psnap, "gsv_view_watermark_seconds",
			[]obs.Label{obs.L("node", "primary"), obs.L("view", "TSOAK0")}},
		{"primary chains total", psnap, "gsv_chains_total",
			[]obs.Label{obs.L("node", "primary")}},
		{"replica head watermark", rsnap, "gsv_watermark_head_seconds",
			[]obs.Label{obs.L("node", "tsoak")}},
		{"replica view watermark", rsnap, "gsv_view_watermark_seconds",
			[]obs.Label{obs.L("node", "tsoak"), obs.L("view", "TSOAK1")}},
		{"replica chains total", rsnap, "gsv_chains_total",
			[]obs.Label{obs.L("node", "tsoak")}},
	} {
		p, ok := check.snap.Get(check.metric, check.labels...)
		if !ok || p.Value <= 0 {
			t.Fatalf("%s: %+v, %v", check.name, p, ok)
		}
	}
	if p, ok := psnap.Get("gsv_view_freshness_lag_seconds", obs.L("node", "primary"), obs.L("view", "TSOAK0")); !ok || p.Value < 0 {
		t.Fatalf("primary freshness lag: %+v, %v", p, ok)
	}
	if len(r.PropagationSamples()) == 0 {
		t.Fatal("replica recorded no propagation samples")
	}

	// --- Readiness. The primary's /readyz flips 503 while a view is
	// quarantined and recovers after RepairAll; the replica's readiness
	// follows its lag bounds (in-bounds here, so healthy).
	mux := obs.DebugMux(reg)
	obs.HealthHandlers(mux, w.Ready)
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)
	get := func(path string) (int, string) {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz = %d", code)
	}
	if code, body := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz before quarantine = %d %q", code, body)
	}
	if err := w.Quarantine("TSOAK0", "soak drill"); err != nil {
		t.Fatal(err)
	}
	code, body := get("/readyz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "TSOAK0") {
		t.Fatalf("/readyz while quarantined = %d %q", code, body)
	}
	if n, err := w.RepairAll(); err != nil || n != 1 {
		t.Fatalf("RepairAll = %d, %v", n, err)
	}
	if code, body := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz after repair = %d %q", code, body)
	}
	if err := r.Ready(); err != nil {
		t.Fatalf("caught-up replica not ready: %v", err)
	}
}
