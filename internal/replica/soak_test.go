package replica_test

import (
	"net"
	"reflect"
	"testing"
	"time"

	"gsv/internal/faults"
	"gsv/internal/feed"
	"gsv/internal/oem"
	"gsv/internal/query"
	"gsv/internal/replica"
	"gsv/internal/store"
	"gsv/internal/warehouse"
	"gsv/internal/workload"
)

// TestReplicaChaosSoak is the replica tier's fault drill (run in CI's
// chaos-smoke job under -race): two replicas follow a primary whose
// every connection injects seeded errors, delays and drops, while the
// primary's server is killed and restarted repeatedly mid-workload with
// maintenance continuing during the outages. At the end every replica
// must converge to exactly the state a from-scratch recompute produces
// at the source: membership per view, and delegate objects identical to
// the primary's. Transient faults are absorbed by query retries and
// feed redial; missed events are recovered by ring replay or snapshot
// reconcile — either way, convergence is exact.
func TestReplicaChaosSoak(t *testing.T) {
	s := store.NewDefault()
	db := workload.RelationLike(s, workload.RelationConfig{
		Relations: 2, TuplesPerRelation: 5, FieldsPerTuple: 2, Seed: 11,
	})
	src := warehouse.NewSource("rel", s, "REL", warehouse.Level2, warehouse.NewTransport(0))
	src.DrainReports()
	w := warehouse.New(src)
	w.Feed = feed.NewHub(feed.Options{RingSize: 64})
	specs := []struct {
		name string
		q    string
	}{
		{"SOAK0", "SELECT REL.r0.tuple X WHERE X.age > 40"},
		{"SOAK1", "SELECT REL.r1.tuple X WHERE X.age <= 60"},
	}
	for _, sp := range specs {
		if _, err := w.DefineView(sp.name, query.MustParse(sp.q), warehouse.ViewConfig{}); err != nil {
			t.Fatal(err)
		}
	}

	inj := faults.New(faults.Config{
		Seed:      99,
		DropProb:  0.01,
		ErrProb:   0.03,
		DelayProb: 0.05,
		Delay:     200 * time.Microsecond,
	})
	newServer := func() *warehouse.Server {
		return warehouse.NewServer(src, warehouse.ServerConfig{
			Feed:                 w.Feed,
			Members:              w.FreshMembers,
			FeedProgressInterval: 15 * time.Millisecond,
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	server := newServer()
	go func() { _ = server.Serve(inj.WrapListener(ln)) }()
	defer func() { server.Close() }()

	// Modify-only mix: memberships flap while every object's value stays
	// derivable, so the final comparison can demand exact equality.
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
		Seed: 23, Mix: workload.Mix{Modify: 1}, ValueRange: 90,
	}, sets, atoms)
	step := func() {
		if _, ok := stream.Next(); !ok {
			t.Fatal("stream exhausted")
		}
		if err := w.ProcessAll(src.DrainReports()); err != nil {
			t.Fatalf("maintenance: %v", err)
		}
	}

	// Two replicas behind the same fault injector, with retry policies
	// tight enough to keep the soak fast.
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
	var reps []*replica.Replica
	for i := 0; i < 2; i++ {
		var r *replica.Replica
		var err error
		for try := 0; try < 50; try++ { // the injector can kill the first dial
			r, err = replica.New(replica.Options{
				Name: "soak", Primary: addr, Dial: dial,
				RedialBase: 2 * time.Millisecond, RedialMax: 50 * time.Millisecond,
				FeedIdleTimeout: 500 * time.Millisecond,
				Seed:            int64(i + 1),
			})
			if err == nil {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		reps = append(reps, r)
	}

	// Three kill/restart rounds; updates keep flowing while the server is
	// down, so replicas fall behind and must recover by ring replay or —
	// when the 64-slot ring has already evicted their cursor — snapshot.
	for round := 0; round < 3; round++ {
		for i := 0; i < 30; i++ {
			step()
		}
		// Each kill only exercises a real reconnect if the replicas were
		// demonstrably following beforehand.
		for ri, r := range reps {
			if !r.WaitSeq(src.Store.Seq(), 20*time.Second) {
				lag, age := r.Lag()
				t.Fatalf("round %d: replica %d never caught up: %d behind (%s)", round, ri, lag, age)
			}
		}
		server.Close()
		for i := 0; i < 25; i++ {
			step() // invisible to the replicas until the restart
		}
		var ln2 net.Listener
		for try := 0; ; try++ {
			ln2, err = net.Listen("tcp", addr)
			if err == nil {
				break
			}
			if try > 100 {
				t.Fatalf("rebinding %s (round %d): %v", addr, round, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
		server = newServer()
		go func(sv *warehouse.Server, l net.Listener) { _ = sv.Serve(l) }(server, inj.WrapListener(ln2))
	}

	// Convergence: every replica must reach the primary's final sequence
	// and match a from-scratch recompute exactly — membership and
	// delegate objects.
	finalSeq := src.Store.Seq()
	for ri, r := range reps {
		if !r.WaitSeq(finalSeq, 30*time.Second) {
			lag, age := r.Lag()
			t.Fatalf("replica %d stuck %d behind (%s)", ri, lag, age)
		}
		for _, sp := range specs {
			oracle, err := query.NewEvaluator(s).Eval(query.MustParse(sp.q))
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.Members(sp.name)
			if err != nil {
				t.Fatal(err)
			}
			if !oem.SameMembers(got, oracle) {
				t.Fatalf("replica %d view %s: got %v, recompute %v", ri, sp.name, got, oracle)
			}
			for _, b := range got {
				d := string(sp.name) + "." + string(b)
				want, err := w.Store.Get(oem.OID(d))
				if err != nil {
					t.Fatal(err)
				}
				have, err := r.Store().Get(oem.OID(d))
				if err != nil {
					t.Fatalf("replica %d missing delegate %s: %v", ri, d, err)
				}
				if !reflect.DeepEqual(have, want) {
					t.Fatalf("replica %d delegate %s: %+v != primary %+v", ri, d, have, want)
				}
			}
		}
		if r.FeedRedials() == 0 {
			t.Fatalf("replica %d survived three restarts without a feed redial", ri)
		}
	}
}
