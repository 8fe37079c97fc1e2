package warehouse

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"gsv/internal/faults"
	"gsv/internal/oem"
	"gsv/internal/query"
	"gsv/internal/store"
	"gsv/internal/workload"
)

// TestShardChaosSoak is the federation's fault drill (CI's shard-chaos
// job, under -race): a 4-shard federation maintains spanning views over
// the wire while every connection injects seeded faults and one source
// server is killed mid-workload. The claims under test:
//
//   - the dead source trips its circuit breaker and only the member
//     views on its partition are quarantined — views on the three
//     healthy partitions stay Fresh and keep serving reads,
//   - spanning reads degrade to the healthy union plus a typed
//     *PartialResultError naming exactly the missing partition,
//   - the federation stays Ready at 3/4 sources (quorum 3),
//   - after the source restarts on the same address, repair re-admits
//     it through the half-open probe and converges every view
//     byte-identically to the all-healthy oracle.
func TestShardChaosSoak(t *testing.T) {
	const nShards = 4
	base, db := relationBase(t, 2, 8)
	p := NewPartitioner(nShards)
	stores, err := PartitionStore(base, p, PartitionConfig{Affinity: true})
	if err != nil {
		t.Fatal(err)
	}

	// One Source+Server per shard behind a fault injector, one
	// RemoteSource per shard with aggressive test retry policies.
	srcs := make([]*Source, nShards)
	servers := make([]*Server, nShards)
	injs := make([]*faults.Injector, nShards)
	addrs := make([]string, nShards)
	remotes := make([]SourceAPI, nShards)
	shardInfo := func(k int) func() *ShardPayload {
		return func() *ShardPayload {
			return &ShardPayload{
				Source: srcs[k].ID(), Shard: k, Shards: nShards,
				Seq: srcs[k].Store.Seq(),
			}
		}
	}
	for k := 0; k < nShards; k++ {
		srcs[k] = NewSource(fmt.Sprintf("source%d", k), stores[k], db.Root, Level3, NewTransport(0))
		srcs[k].DrainReports()
		injs[k] = faults.New(faults.Config{
			Seed:      int64(100 + k),
			DropProb:  0.01,
			ErrProb:   0.03,
			DelayProb: 0.05,
			Delay:     200 * time.Microsecond,
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[k] = ln.Addr().String()
		servers[k] = NewServer(srcs[k], ServerConfig{ShardInfo: shardInfo(k)})
		srv := servers[k]
		go func() { _ = srv.Serve(injs[k].WrapListener(ln)) }()

		remote, err := DialWithOptions(srcs[k].ID(), addrs[k], NewTransport(0), DialOptions{
			IOTimeout: 2 * time.Second,
			Retry: RetryPolicy{
				MaxAttempts: 10, BaseDelay: time.Millisecond,
				MaxDelay: 20 * time.Millisecond, Multiplier: 2, Jitter: 0.2,
			},
			Redial: RetryPolicy{
				MaxAttempts: 5000, BaseDelay: time.Millisecond,
				MaxDelay: 10 * time.Millisecond, Multiplier: 2, Jitter: 0.2,
			},
			Seed: int64(7 + k),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { remote.Close() })
		remotes[k] = remote
	}
	t.Cleanup(func() {
		for _, srv := range servers {
			srv.Close()
		}
	})

	fed, err := NewFederation(remotes, FederationConfig{
		Supervisor:  SupervisorConfig{TripThreshold: 3, CoolDown: 50 * time.Millisecond},
		Quorum:      3,
		Partitioner: p,
	})
	if err != nil {
		t.Fatal(err)
	}
	q1 := query.MustParse("SELECT REL.r0.tuple X WHERE X.age > 40")
	q2 := query.MustParse("SELECT REL.r1.tuple X WHERE X.age <= 60")
	if err := fed.DefineView("SPAN", q1, ViewConfig{Cache: CacheFull, Screening: true}); err != nil {
		t.Fatal(err)
	}
	if err := fed.DefineView("SPAN2", q2, ViewConfig{Cache: CacheNone}); err != nil {
		t.Fatal(err)
	}
	if err := fed.DefineViewAt("rooted0", "source0", q1, ViewConfig{Cache: CacheFull}); err != nil {
		t.Fatal(err)
	}

	// Per-shard update streams over each shard's owned tuples (interior
	// relation sets are replicated; mutating them on one shard keeps
	// that membership shard-local, exactly the ownership model).
	streams := make([]*workload.Stream, nShards)
	for k := 0; k < nShards; k++ {
		var sets, atoms []oem.OID
		for _, r := range db.Relations {
			sets = append(sets, r.OID)
			for _, tu := range r.Tuples {
				if !stores[k].Has(tu) {
					continue
				}
				sets = append(sets, tu)
				kids, _ := stores[k].Children(tu)
				atoms = append(atoms, kids...)
			}
		}
		streams[k] = workload.NewStream(stores[k], workload.StreamConfig{
			Seed: int64(23 + k), Mix: workload.Mix{Insert: 2, Delete: 1, Modify: 7}, ValueRange: 90,
		}, sets, atoms)
	}
	// step applies one update at every shard's store and broadcasts the
	// reports through whatever server is currently alive (a closed
	// server drops them — the client must detect that as a gap).
	step := func() {
		for k := 0; k < nShards; k++ {
			if _, ok := streams[k].Next(); !ok {
				t.Fatalf("stream %d exhausted", k)
			}
			if err := servers[k].Broadcast(srcs[k].DrainReports()); err != nil {
				t.Fatalf("broadcast %d: %v", k, err)
			}
		}
	}
	// quiesce pumps until cond holds (the async report tail drains
	// round by round) or the deadline passes.
	quiesce := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		for {
			_, _ = fed.Pump()
			if cond() {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s; stale=%v", what, fed.StaleViews())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	sameAs := func(name string, want []oem.OID) bool {
		got, err := fed.Members(name)
		return err == nil && oem.SameMembers(got, want)
	}

	// Phase 1: all-healthy workload; the federation must track the
	// oracle through the faults.
	for i := 0; i < 30; i++ {
		step()
		_, _ = fed.Pump()
	}
	quiesce("all-healthy convergence", func() bool {
		return len(fed.StaleViews()) == 0 &&
			sameAs("SPAN", fedOracle(t, stores, q1)) &&
			sameAs("SPAN2", fedOracle(t, stores, q2))
	})

	// Phase 2: kill source1's server mid-workload. Updates keep flowing
	// at every store; the dead shard's broadcasts are lost for good.
	const dead = 1
	servers[dead].Close()
	for i := 0; i < 10; i++ {
		step()
		_, _ = fed.Pump()
	}
	sup, _ := fed.Supervisor("source1")

	healthyStores := make([]*store.Store, 0, nShards-1)
	for k, st := range stores {
		if k != dead {
			healthyStores = append(healthyStores, st)
		}
	}
	partialOK := func(name string, q *query.Query) bool {
		got, err := fed.Members(name)
		var pe *PartialResultError
		if !errors.Is(err, ErrPartialResult) || !errors.As(err, &pe) {
			return false
		}
		if len(pe.Missing) != 1 || pe.Missing[0] != "source1" {
			t.Fatalf("partial %s missing = %v, want [source1]", name, pe.Missing)
		}
		return oem.SameMembers(got, fedOracle(t, healthyStores, q))
	}
	quiesce("breaker trip and degraded reads", func() bool {
		return sup.State() == SourceDown &&
			partialOK("SPAN", q1) && partialOK("SPAN2", q2) &&
			sameAs("rooted0", fedOracle(t, []*store.Store{stores[0]}, q1))
	})
	if sup.Trips() == 0 {
		t.Fatalf("supervisor trips = %d, want > 0", sup.Trips())
	}
	if sup.DegradedReads() == 0 {
		t.Fatal("no degraded reads recorded")
	}
	// Only source1's member views are quarantined.
	for _, name := range fed.StaleViews() {
		if name != MemberViewName("SPAN", "source1") && name != MemberViewName("SPAN2", "source1") {
			t.Fatalf("healthy-partition view %s went stale", name)
		}
	}
	// An ad-hoc federated query degrades the same way.
	if _, err := fed.Query(q1); !errors.Is(err, ErrPartialResult) {
		t.Fatalf("federated query error = %v, want ErrPartialResult", err)
	}
	// 3/4 sources up meets quorum 3.
	if err := fed.Ready(); err != nil {
		t.Fatalf("federation not ready at 3/4 sources: %v", err)
	}

	// Phase 3: restart source1 on the same address behind the same
	// injector and keep the workload running.
	var ln2 net.Listener
	for try := 0; ; try++ {
		ln2, err = net.Listen("tcp", addrs[dead])
		if err == nil {
			break
		}
		if try > 100 {
			t.Fatalf("rebinding %s: %v", addrs[dead], err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	servers[dead] = NewServer(srcs[dead], ServerConfig{ShardInfo: shardInfo(dead)})
	srv := servers[dead]
	go func() { _ = srv.Serve(injs[dead].WrapListener(ln2)) }()

	for i := 0; i < 30; i++ {
		step()
		_, _ = fed.Pump()
	}

	// Phase 4: quiesce to the all-healthy oracle, byte-identically.
	quiesce("post-restart convergence", func() bool {
		if sup.State() != SourceUp || len(fed.StaleViews()) != 0 {
			return false
		}
		return sameAs("SPAN", fedOracle(t, stores, q1)) &&
			sameAs("SPAN2", fedOracle(t, stores, q2)) &&
			sameAs("rooted0", fedOracle(t, []*store.Store{stores[0]}, q1))
	})
	if err := fed.Ready(); err != nil {
		t.Fatalf("federation not ready after recovery: %v", err)
	}
	// Recovery can only have happened through an admitted half-open
	// probe (a liveness call or a repair query-back).
	if sup.Probes() == 0 {
		t.Fatal("breaker closed without a half-open probe")
	}
}
