package warehouse

import (
	"net"
	"sync"
	"testing"

	"gsv/internal/obs"
	"gsv/internal/oem"
	"gsv/internal/query"
	"gsv/internal/store"
	"gsv/internal/workload"
)

// TestConcurrentBroadcastQueryBacksAndStats is the regression test for
// the stats data race: before WrapperStats/ViewStats/RemoteStats moved to
// atomic counters, the server's query goroutines incremented plain ints
// (src.Stats.Queries++) while broadcasts, maintenance and stats reads ran
// on other goroutines. Run under -race (the tier-1 suite does), this
// hammers all three paths at once:
//
//   - a mutator applies source updates and broadcasts the reports,
//   - a warehouse client issues query backs (FetchObject/FetchEval),
//   - readers poll the wrapper/view counters and the stats wire request.
func TestConcurrentBroadcastQueryBacksAndStats(t *testing.T) {
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

	server := NewServer(src, ServerConfig{Obs: reg, Traces: w.Traces})
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

	const rounds = 40
	done := make(chan struct{})
	var wg sync.WaitGroup

	// Mutator: source updates, local maintenance, broadcast to streams.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < rounds; i++ {
			reports, err := src.Modify("A1", oem.Int(int64(30+i%40)))
			if err == nil {
				err = w.ProcessAll(reports)
			}
			if err == nil {
				err = server.Broadcast(reports)
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Query-back client: drives the server's wrapper concurrently.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := remote.FetchObject("P1"); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Stats readers: raw counters and the wire request.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			_ = src.Stats.Queries.Value()
			_ = src.Stats.ObjectsTouched.Value()
			_ = v.Stats.Reports.Value()
			_ = v.Stats.QueryBacks.Value()
			_ = reg.Snapshot()
			if _, err := remote.FetchStats(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	wg.Wait()
	if got := v.Stats.Reports.Value(); got != rounds {
		t.Fatalf("view processed %d reports, want %d", got, rounds)
	}
	if src.Stats.Queries.Value() == 0 {
		t.Fatal("wrapper answered no queries")
	}
}
