package warehouse

import (
	"context"
	"math/rand"
	"net"
	"testing"
	"time"

	"gsv/internal/oem"
	"gsv/internal/workload"
)

// TestOverloadDrainSoak is the overload half of the chaos drill (run in
// CI under -race): a durable warehouse maintains a view while
//
//   - a flood of budget-stamped readers (4x the admission capacity)
//     hammers the co-located server, so admission control is shedding
//     throughout,
//   - source updates churn the view under the flood,
//
// and then the server drains mid-flood. The claims: maintenance is
// never starved by overload (the view stays Fresh through the churn),
// Drain completes despite the flood, and the checkpointed state reopens
// byte-identically — overload protection sheds work, never correctness.
func TestOverloadDrainSoak(t *testing.T) {
	dir := t.TempDir()
	src, w, v := durableFixture(t, dir, ViewConfig{}, DurabilityOptions{CheckpointEvery: 8})
	reports := mustReports(t)

	ac := NewAdmissionController(AdmissionConfig{
		MaxConns:    64,
		MaxInflight: 4,
		MaxQueue:    4,
		QueueWait:   5 * time.Millisecond,
	})
	server := NewServer(src, ServerConfig{
		Admission:   ac,
		IdleTimeout: 2 * time.Second,
		DrainGrace:  10 * time.Millisecond,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = server.Serve(ln) }()
	defer server.Close()

	// Flood: closed-loop budgeted readers, far beyond MaxInflight.
	floodDone := make(chan workload.BudgetedReadResult, 1)
	go func() {
		floodDone <- workload.RunBudgetedReadLoad(workload.BudgetedReadConfig{
			Addrs:    []string{ln.Addr().String()},
			Clients:  16,
			Duration: 2 * time.Second,
			Queries:  []string{"SELECT ROOT.professor X WHERE X.age <= 45"},
			Budget:   20 * time.Millisecond,
			Seed:     5,
		})
	}()

	// Update churn under the flood: maintenance runs in this goroutine
	// (the co-located gsdbserve arrangement) and must never be starved
	// into staleness by the readers.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 60; i++ {
		age := int64(20 + rng.Intn(50))
		if err := w.ProcessAll(reports(src.Modify("A1", oem.Int(age)))); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		if got := w.StaleViews(); len(got) != 0 {
			t.Fatalf("views went stale under overload: %v", got)
		}
		time.Sleep(2 * time.Millisecond)
	}
	want := oracleMembers(t, src, v.MV.Query)

	// Drain mid-flood: it must complete (the flood's in-flight requests
	// finish or shed) and flip the server to refusing data reads.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := server.Drain(ctx); err != nil {
		t.Fatalf("Drain under flood: %v", err)
	}
	if !server.Draining() {
		t.Fatal("Draining() = false after Drain")
	}

	res := <-floodDone
	if res.Good == 0 {
		t.Fatalf("flood recorded no goodput: %s", res.String())
	}
	if res.Sheds == 0 {
		t.Fatalf("admission control shed nothing under 4x overload: %s", res.String())
	}

	// Checkpoint and reopen: the drained warehouse's durable state must
	// reproduce the exact membership.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2 := reopenWarehouse(t, src, dir, DurabilityOptions{CheckpointEvery: 8})
	defer w2.Close()
	got, err := w2.FreshMembers("YP")
	if err != nil {
		t.Fatal(err)
	}
	if !oem.SameMembers(got, want) {
		t.Fatalf("reopened members %v != pre-drain %v", got, want)
	}
}
