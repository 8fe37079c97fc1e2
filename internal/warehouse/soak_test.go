package warehouse

import (
	"net"
	"testing"
	"time"

	"gsv/internal/faults"
	"gsv/internal/oem"
	"gsv/internal/query"
	"gsv/internal/store"
	"gsv/internal/workload"
)

// TestChaosSoakKillRestartUnderFaults is the fault-injection soak drill
// (run in CI's chaos-smoke job under -race): a warehouse maintains two
// views over the wire while
//
//   - every connection injects seeded errors, delays and drops
//     (faults.WrapListener),
//   - the server is killed mid-workload and restarted on the same
//     address, with source updates continuing while it is down (those
//     reports are lost for good — the server never replays),
//
// and at the end every view must be Fresh (repaired if needed) with
// membership equal to a from-scratch recompute at the source. This is
// the end-to-end claim of the failure model: transient faults are
// absorbed by retries/redial, unrecoverable loss becomes staleness, and
// repair restores correctness.
func TestChaosSoakKillRestartUnderFaults(t *testing.T) {
	s := store.NewDefault()
	db := workload.RelationLike(s, workload.RelationConfig{
		Relations: 2, TuplesPerRelation: 5, FieldsPerTuple: 2, Seed: 11,
	})
	src := NewSource("rel", s, "REL", Level2, NewTransport(0))
	src.DrainReports()

	inj := faults.New(faults.Config{
		Seed:      99,
		DropProb:  0.01,
		ErrProb:   0.03,
		DelayProb: 0.05,
		Delay:     200 * time.Microsecond,
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	server := NewServer(src, ServerConfig{})
	go func() { _ = server.Serve(inj.WrapListener(ln)) }()
	defer func() { server.Close() }()

	remote, err := DialWithOptions("rel", addr, NewTransport(0), DialOptions{
		IOTimeout: 2 * time.Second,
		Retry: RetryPolicy{
			MaxAttempts: 10, BaseDelay: time.Millisecond,
			MaxDelay: 20 * time.Millisecond, Multiplier: 2, Jitter: 0.2,
		},
		Redial: RetryPolicy{
			MaxAttempts: 2000, BaseDelay: time.Millisecond,
			MaxDelay: 10 * time.Millisecond, Multiplier: 2, Jitter: 0.2,
		},
		Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	w := New(remote)
	v1, err := w.DefineView("soak-r0",
		query.MustParse("SELECT REL.r0.tuple X WHERE X.age > 40"),
		ViewConfig{Cache: CacheNone})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := w.DefineView("soak-r1",
		query.MustParse("SELECT REL.r1.tuple X WHERE X.age <= 60"),
		ViewConfig{Cache: CacheFull})
	if err != nil {
		t.Fatal(err)
	}
	views := []*WView{v1, v2}

	var sets, atoms []oem.OID
	for _, r := range db.Relations {
		sets = append(sets, r.OID)
		sets = append(sets, r.Tuples...)
		for _, tu := range r.Tuples {
			kids, _ := s.Children(tu)
			atoms = append(atoms, kids...)
		}
	}
	stream := workload.NewStream(s, workload.StreamConfig{
		Seed: 23, Mix: workload.Mix{Insert: 3, Delete: 2, Modify: 5}, ValueRange: 90,
	}, sets, atoms)

	// step applies one source update and broadcasts its reports through
	// whatever server is currently alive.
	step := func() {
		if _, ok := stream.Next(); !ok {
			t.Fatal("stream exhausted")
		}
		if err := server.Broadcast(src.DrainReports()); err != nil {
			t.Fatalf("broadcast: %v", err)
		}
	}
	// drain pulls whatever reports arrived into the warehouse; errors
	// quarantine views rather than failing the test.
	drain := func() {
		reports, _ := remote.WaitReportsTimeout(1, 20*time.Millisecond)
		_ = w.ProcessAll(reports)
	}

	for i := 0; i < 40; i++ {
		step()
		drain()
	}

	// Kill the server mid-workload. Updates keep flowing at the source
	// while it is down; their reports are lost (Broadcast on a closed
	// server is a no-op), which the client must detect as a gap.
	server.Close()
	for i := 0; i < 10; i++ {
		step()
	}

	// Restart on the same address (SO_REUSEADDR allows immediate rebind)
	// behind the same injector.
	var ln2 net.Listener
	for try := 0; ; try++ {
		ln2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if try > 100 {
			t.Fatalf("rebinding %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	server = NewServer(src, ServerConfig{})
	go func() { _ = server.Serve(inj.WrapListener(ln2)) }()

	for i := 0; i < 40; i++ {
		step()
		drain()
	}

	// Quiesce: keep draining reports and repairing until every view is
	// Fresh and matches a from-scratch recompute at the source.
	deadline := time.Now().Add(20 * time.Second)
	for {
		drain()
		_, _ = w.RepairAll()
		converged := len(w.StaleViews()) == 0
		if converged {
			for _, v := range views {
				fresh, err := query.NewEvaluator(s).Eval(v.MV.Query)
				if err != nil {
					t.Fatal(err)
				}
				got, err := v.MV.Members()
				if err != nil {
					t.Fatal(err)
				}
				if !oem.SameMembers(got, fresh) {
					converged = false
					break
				}
			}
		}
		if converged {
			break
		}
		if time.Now().After(deadline) {
			for _, v := range views {
				reason, since := v.StaleReason()
				fresh, _ := query.NewEvaluator(s).Eval(v.MV.Query)
				got, _ := v.MV.Members()
				t.Logf("%s: state=%v reason=%q since=%v got=%v want=%v",
					v.Name, v.State(), reason, since, got, fresh)
			}
			t.Fatalf("views did not converge; wire=%+v", remote.WireStats())
		}
	}

	// The drill must have actually exercised the machinery: at least one
	// reconnect of the report stream (the restart guarantees it).
	ws := remote.WireStats()
	if ws.ReportReconnects == 0 {
		t.Fatalf("no report reconnect recorded: %+v", ws)
	}
	if ws.Gaps == 0 {
		t.Fatalf("no gap recorded despite server restart: %+v", ws)
	}
}
