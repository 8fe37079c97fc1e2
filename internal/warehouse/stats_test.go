package warehouse

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"

	"gsv/internal/obs"
	"gsv/internal/oem"
	"gsv/internal/query"
	"gsv/internal/store"
	"gsv/internal/workload"
)

// obsFixture builds an in-process warehouse with observability enabled
// and a server exposing its registry over the wire.
func obsFixture(t *testing.T) (*Source, *Warehouse, *WView, *Server, *RemoteSource) {
	t.Helper()
	s := store.NewDefault()
	workload.PersonDB(s)
	src := NewSource("persons", s, "ROOT", Level2, NewTransport(0))
	src.DrainReports()
	reg := obs.NewRegistry()
	w := New(src)
	w.EnableObs(reg)
	v, err := w.DefineView("YP", query.MustParse("SELECT ROOT.professor X WHERE X.age <= 45"),
		ViewConfig{Screening: true})
	if err != nil {
		t.Fatal(err)
	}
	server := NewServer(src, ServerConfig{Obs: reg, Traces: w.Traces, Chains: w.Chains})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = server.Serve(ln) }()
	t.Cleanup(server.Close)
	remote, err := Dial("persons", ln.Addr().String(), NewTransport(0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(remote.Close)
	return src, w, v, server, remote
}

// processOne applies one source mutation's reports through the warehouse.
func processOne(t *testing.T, w *Warehouse, reports []*UpdateReport, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.ProcessAll(reports); err != nil {
		t.Fatal(err)
	}
}

func TestStatsRequestRoundTrip(t *testing.T) {
	src, w, v, _, remote := obsFixture(t)

	reports, err := src.Put(oem.NewAtom("A2", "age", oem.Int(40)))
	processOne(t, w, reports, err)
	reports, err = src.Insert("P2", "A2")
	processOne(t, w, reports, err)
	reports, err = src.Modify("A1", oem.Int(50))
	processOne(t, w, reports, err)

	payload, err := remote.FetchStats()
	if err != nil {
		t.Fatal(err)
	}

	// The snapshot crossed the wire as JSON; values must agree with the
	// live counters exactly (nothing is mutating between process and
	// fetch).
	p, ok := payload.Registry.Get("gsv_view_reports_total", obs.L("view", "YP"))
	if !ok {
		t.Fatal("gsv_view_reports_total missing from wire snapshot")
	}
	if want := float64(v.Stats.Reports.Value()); p.Value != want {
		t.Fatalf("reports over the wire = %v, live = %v", p.Value, want)
	}
	if hp, ok := payload.Registry.Get("gsv_view_maintain_seconds", obs.L("view", "YP")); !ok || hp.Count == 0 {
		t.Fatalf("maintain latency histogram = %+v, %v", hp, ok)
	}

	// Traces made the trip too, carrying the per-update journey.
	if len(payload.Traces) == 0 {
		t.Fatal("no traces over the wire")
	}
	last := payload.Traces[len(payload.Traces)-1]
	if last.View != "YP" || last.Kind != "modify" {
		t.Fatalf("last trace = %+v", last)
	}
	switch last.Outcome {
	case obs.OutcomeLocal, obs.OutcomeQueryBack, obs.OutcomeScreened:
	default:
		t.Fatalf("unexpected outcome %q", last.Outcome)
	}
	var names []string
	for _, st := range last.Stages {
		names = append(names, st.Name)
	}
	if got := strings.Join(names, ","); got != "screen,cache,maintain" && got != "screen" {
		t.Fatalf("stages = %v", names)
	}
	if last.Helpers.Total() == 0 && last.Outcome != obs.OutcomeScreened {
		t.Fatalf("maintained trace counted no helper calls: %+v", last)
	}
	for _, tr := range payload.Traces {
		// A screened report applied nothing; its trace must not inherit
		// the previous report's delta sizes.
		if tr.Outcome == obs.OutcomeScreened && (tr.Inserts != 0 || tr.Deletes != 0) {
			t.Fatalf("screened trace carries deltas: %+v", tr)
		}
	}
}

// TestStatsGoldenFrame pins the wire schema of a stats response: the
// exact frame a stats request produces for a hand-built registry and
// trace ring. Field renames break this test on purpose.
func TestStatsGoldenFrame(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("gsv_view_reports_total", obs.L("view", "V1")).Add(3)
	ring := obs.NewTraceRing(4)
	ring.Add(obs.Trace{
		View: "V1", Seq: 7, Kind: "insert", Level: 2,
		Outcome: obs.OutcomeQueryBack, QueryBacks: 1,
		Helpers: obs.HelperCounts{Path: 1, Eval: 1}, Inserts: 1,
		Stages:     []obs.Stage{{Name: "screen", Nanos: 10}, {Name: "cache", Nanos: 5}, {Name: "maintain", Nanos: 85}},
		TotalNanos: 100,
	})
	server := NewServer(nil, ServerConfig{Obs: reg, Traces: ring})

	resp := server.dispatch(netRequest{Op: "stats"})
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	data, err := json.Marshal(resp.Stats)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Registry struct {
			Metrics []map[string]any `json:"metrics"`
		} `json:"registry"`
		Traces []map[string]any `json:"traces"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("stats frame is not the documented shape: %v\n%s", err, data)
	}
	if len(doc.Registry.Metrics) != 1 || len(doc.Traces) != 1 {
		t.Fatalf("frame = %s", data)
	}
	m := doc.Registry.Metrics[0]
	if m["name"] != "gsv_view_reports_total" || m["kind"] != "counter" || m["value"] != float64(3) {
		t.Fatalf("metric point = %v", m)
	}
	if labels, ok := m["labels"].(map[string]any); !ok || labels["view"] != "V1" {
		t.Fatalf("labels = %v", m["labels"])
	}
	tr := doc.Traces[0]
	for _, key := range []string{"view", "seq", "kind", "outcome", "query_backs", "helpers", "stages", "total_nanos"} {
		if _, ok := tr[key]; !ok {
			t.Fatalf("trace frame missing %q: %s", key, data)
		}
	}
}

// TestStatsWhileUpdatesInFlight fetches wire snapshots concurrently with
// maintenance and asserts counter monotonicity across snapshots — the
// read path must never tear or go backwards.
func TestStatsWhileUpdatesInFlight(t *testing.T) {
	src, w, _, _, remote := obsFixture(t)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < 50; i++ {
			reports, err := src.Modify("A1", oem.Int(int64(30+i%40)))
			if err == nil {
				err = w.ProcessAll(reports)
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var last float64
	for {
		payload, err := remote.FetchStats()
		if err != nil {
			t.Fatal(err)
		}
		p, ok := payload.Registry.Get("gsv_view_reports_total", obs.L("view", "YP"))
		if !ok {
			t.Fatal("reports counter missing mid-flight")
		}
		if p.Value < last {
			t.Fatalf("reports went backwards over the wire: %v -> %v", last, p.Value)
		}
		last = p.Value
		select {
		case <-done:
			wg.Wait()
			return
		default:
		}
	}
}

func TestStatsRequestWithoutRegistry(t *testing.T) {
	// A live server with observability off answers stats with a clear
	// error, not a silent empty payload.
	_, _, remote := startNetSource(t, Level2)
	_, err := remote.FetchStats()
	if err == nil {
		t.Fatal("stats against a server with no registry succeeded")
	}
	if errors.Is(err, ErrUnsupportedRequest) {
		t.Fatalf("no-registry error misclassified as unsupported: %v", err)
	}
	if !strings.Contains(err.Error(), "no stats registry") {
		t.Fatalf("error = %v", err)
	}
}

// TestStatsAgainstOldServer simulates a server that predates the stats
// request: it answers with the protocol's unknown-op error, which the
// client must surface as ErrUnsupportedRequest.
func TestStatsAgainstOldServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				br := bufio.NewReader(conn)
				mode, err := br.ReadString('\n')
				if err != nil {
					return
				}
				switch mode {
				case "reports\n":
					_, _ = io.WriteString(conn, "ready\n")
					_, _ = io.Copy(io.Discard, br)
				case "query\n":
					enc := json.NewEncoder(conn)
					sc := frameScanner(br)
					for sc.Scan() {
						var req netRequest
						if err := decodeFrame(sc.Bytes(), &req); err != nil {
							return
						}
						// An old server knows no "stats" op.
						if err := enc.Encode(netResponse{Err: `unknown op "stats"`}); err != nil {
							return
						}
					}
				}
			}(conn)
		}
	}()

	remote, err := Dial("old", ln.Addr().String(), NewTransport(0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(remote.Close)
	_, err = remote.FetchStats()
	if !errors.Is(err, ErrUnsupportedRequest) {
		t.Fatalf("err = %v, want ErrUnsupportedRequest", err)
	}
}
