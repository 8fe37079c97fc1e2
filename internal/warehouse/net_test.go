package warehouse

import (
	"fmt"
	"net"
	"testing"

	"gsv/internal/oem"
	"gsv/internal/pathexpr"
	"gsv/internal/query"
	"gsv/internal/store"
	"gsv/internal/workload"
)

// startNetSource serves a PERSON source on a loopback listener and returns
// a connected RemoteSource plus the server-side Source.
func startNetSource(t *testing.T, level ReportLevel) (*Source, *Server, *RemoteSource) {
	t.Helper()
	s := store.NewDefault()
	workload.PersonDB(s)
	srcTr := NewTransport(0)
	src := NewSource("persons", s, "ROOT", level, srcTr)
	src.DrainReports()
	server := NewServer(src, ServerConfig{})
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
	return src, server, remote
}

func TestNetFetchOps(t *testing.T) {
	_, _, remote := startNetSource(t, Level2)

	o, err := remote.FetchObject("P1")
	if err != nil {
		t.Fatal(err)
	}
	if o.Label != "professor" || !oem.SameMembers(o.Set, []oem.OID{"N1", "A1", "S1", "P3"}) {
		t.Fatalf("FetchObject = %v", o)
	}
	if _, err := remote.FetchObject("missing"); err == nil {
		t.Fatal("missing fetch succeeded over the wire")
	}

	info, ok, err := remote.FetchPath("A1")
	if err != nil || !ok {
		t.Fatalf("FetchPath: %v %v", ok, err)
	}
	if info.Labels.String() != "professor.age" || info.OIDs[1] != "A1" {
		t.Fatalf("path info = %+v", info)
	}

	y, ok, err := remote.FetchAncestor("A1", pathexpr.MustParsePath("age"))
	if err != nil || !ok || y != "P1" {
		t.Fatalf("FetchAncestor = %v %v %v", y, ok, err)
	}

	objs, err := remote.FetchEval("P1", pathexpr.MustParsePath("age"))
	if err != nil || len(objs) != 1 || !objs[0].Atom.Equal(oem.Int(45)) {
		t.Fatalf("FetchEval = %v %v", objs, err)
	}

	objs, err = remote.FetchSubtree("P1", 1)
	if err != nil || len(objs) != 5 {
		t.Fatalf("FetchSubtree = %d objects, %v", len(objs), err)
	}

	objs, err = remote.FetchQuery(query.MustParse("SELECT ROOT.professor X WHERE X.age <= 45"))
	if err != nil || len(objs) != 1 || objs[0].OID != "P1" {
		t.Fatalf("FetchQuery = %v %v", objs, err)
	}

	// Real byte accounting on the client transport.
	tr := remote.TransportRef()
	if tr.QueryBacks < 6 || tr.Bytes == 0 {
		t.Fatalf("client transport = %+v", tr)
	}
}

func TestNetReportsStream(t *testing.T) {
	src, server, remote := startNetSource(t, Level2)
	reports, err := src.Modify("A1", oem.Int(50))
	if err != nil {
		t.Fatal(err)
	}
	if err := server.Broadcast(reports); err != nil {
		t.Fatal(err)
	}
	got := remote.WaitReports(1)
	if len(got) != 1 {
		t.Fatalf("received %d reports", len(got))
	}
	r := got[0]
	if r.Update.Kind != store.UpdateModify || r.Update.N1 != "A1" {
		t.Fatalf("report update = %+v", r.Update)
	}
	if r.Objects["A1"] == nil || !r.Objects["A1"].Atom.Equal(oem.Int(50)) {
		t.Fatalf("report objects = %v", r.Objects)
	}
	if remote.LastKnownSeq() < r.Update.Seq {
		t.Fatalf("LastKnownSeq = %d < %d", remote.LastKnownSeq(), r.Update.Seq)
	}
}

// TestNetWarehouseEndToEnd runs the full warehouse protocol over real TCP:
// define a view against the remote source, stream updates, and verify the
// view tracks the source exactly — at every reporting level.
func TestNetWarehouseEndToEnd(t *testing.T) {
	for _, level := range []ReportLevel{Level1, Level2, Level3} {
		t.Run(level.String(), func(t *testing.T) {
			src, server, remote := startNetSource(t, level)
			w := New(remote)
			v, err := w.DefineView("YP", query.MustParse("SELECT ROOT.professor X WHERE X.age <= 45"),
				ViewConfig{Screening: level >= Level2})
			if err != nil {
				t.Fatal(err)
			}
			got, _ := v.MV.Members()
			if !oem.SameMembers(got, []oem.OID{"P1"}) {
				t.Fatalf("initial members = %v", got)
			}

			apply := func(reports []*UpdateReport, err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
				if err := server.Broadcast(reports); err != nil {
					t.Fatal(err)
				}
				if err := w.ProcessAll(remote.WaitReports(len(reports))); err != nil {
					t.Fatal(err)
				}
			}

			// The Example 5 sequence, across the wire.
			apply(src.Put(oem.NewAtom("A2", "age", oem.Int(40))))
			apply(src.Insert("P2", "A2"))
			got, _ = v.MV.Members()
			if !oem.SameMembers(got, []oem.OID{"P1", "P2"}) {
				t.Fatalf("after insert = %v", got)
			}

			apply(src.Modify("A1", oem.Int(50)))
			got, _ = v.MV.Members()
			if !oem.SameMembers(got, []oem.OID{"P2"}) {
				t.Fatalf("after modify = %v", got)
			}

			apply(src.Delete("ROOT", "P2"))
			got, _ = v.MV.Members()
			if len(got) != 0 {
				t.Fatalf("after delete = %v", got)
			}

			// Cross-check against the source's actual state.
			fresh, err := query.NewEvaluator(src.Store).Eval(v.MV.Query)
			if err != nil {
				t.Fatal(err)
			}
			if !oem.SameMembers(got, fresh) {
				t.Fatalf("diverged: view %v != source %v", got, fresh)
			}
		})
	}
}

func TestNetWarehouseWithCacheOverTCP(t *testing.T) {
	src, server, remote := startNetSource(t, Level2)
	w := New(remote)
	v, err := w.DefineView("YP", query.MustParse("SELECT ROOT.professor X WHERE X.age <= 45"),
		ViewConfig{Screening: true, Cache: CacheFull})
	if err != nil {
		t.Fatal(err)
	}
	setup := remote.TransportRef().Snapshot()
	apply := func(reports []*UpdateReport, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if err := server.Broadcast(reports); err != nil {
			t.Fatal(err)
		}
		if err := w.ProcessAll(remote.WaitReports(len(reports))); err != nil {
			t.Fatal(err)
		}
	}
	apply(src.Put(oem.NewAtom("A2", "age", oem.Int(40))))
	apply(src.Insert("P2", "A2"))
	apply(src.Modify("A1", oem.Int(50)))
	got, _ := v.MV.Members()
	if !oem.SameMembers(got, []oem.OID{"P2"}) {
		t.Fatalf("members = %v", got)
	}
	// The full cache answers everything locally: zero query backs over the
	// wire after setup.
	used := remote.TransportRef().Sub(setup)
	if used.QueryBacks != 0 {
		t.Fatalf("full cache still issued %d TCP query backs", used.QueryBacks)
	}
}

func TestNetSourceAPISurface(t *testing.T) {
	src, server, remote := startNetSource(t, Level2)
	if remote.ID() != "persons" {
		t.Fatalf("ID = %q", remote.ID())
	}
	// DrainReports without traffic is empty and non-blocking.
	if got := remote.DrainReports(); len(got) != 0 {
		t.Fatalf("unexpected reports: %v", got)
	}
	reports, err := src.Modify("A1", oem.Int(48))
	if err != nil {
		t.Fatal(err)
	}
	if err := server.Broadcast(reports); err != nil {
		t.Fatal(err)
	}
	got := remote.WaitReports(1)
	if len(got) != 1 || got[0].Source != "persons" {
		t.Fatalf("reports = %v", got)
	}
	// A second drain is empty again.
	if got := remote.DrainReports(); len(got) != 0 {
		t.Fatalf("drain not empty: %v", got)
	}
}

func TestNetConcurrentQueries(t *testing.T) {
	_, _, remote := startNetSource(t, Level2)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 25; i++ {
				o, err := remote.FetchObject("P1")
				if err != nil {
					done <- err
					return
				}
				if o.Label != "professor" {
					done <- errWrongLabel
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errWrongLabel = fmt.Errorf("wrong label")

func TestNetDialFailure(t *testing.T) {
	if _, err := Dial("x", "127.0.0.1:1", NewTransport(0)); err == nil {
		t.Fatal("dialing a closed port succeeded")
	}
}
