package replica_test

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"gsv/internal/obs"
	"gsv/internal/replica"
	"gsv/internal/warehouse"
)

// TestReplicaDrainShedsDataReads pins the serving-tier drain contract
// on a replica (the ReadGate x drain composition): while the replica's
// server drains, data reads are refused with the typed retryable
// overload error — so load balancers retry against a sibling — while
// stats and trace still answer, so operators can watch the drain. The
// drain itself must complete cleanly.
func TestReplicaDrainShedsDataReads(t *testing.T) {
	p := startPrimary(t, 64)
	r, err := replica.New(replica.Options{Name: "r1", Primary: p.addr})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	waitSynced(t, p, r)

	reg := obs.NewRegistry()
	r.RegisterObs(reg)
	ac := warehouse.NewAdmissionController(warehouse.AdmissionConfig{})
	ac.RegisterObs(reg, obs.L("node", "r1"))
	// The grace window keeps the server answering established
	// connections long enough for the assertions below.
	rsrv := r.NewServer(warehouse.ServerConfig{Obs: reg, Admission: ac, DrainGrace: time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = rsrv.Serve(ln) }()
	defer rsrv.Close()

	rc, err := warehouse.Dial("r1", ln.Addr().String(), warehouse.NewTransport(0))
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, err := rc.FetchMembers("YP"); err != nil {
		t.Fatalf("baseline members: %v", err)
	}

	drained := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() { drained <- rsrv.Drain(ctx) }()
	deadline := time.Now().Add(2 * time.Second)
	for !rsrv.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}

	// Data reads: typed, retryable, recognizably a drain.
	_, err = rc.FetchMembers("YP")
	if !errors.Is(err, warehouse.ErrOverloaded) || !strings.Contains(err.Error(), "draining") {
		t.Fatalf("members while draining = %v, want draining ErrOverloaded", err)
	}
	if _, err := rc.FetchObject("P1"); !errors.Is(err, warehouse.ErrOverloaded) {
		t.Fatalf("object while draining = %v, want ErrOverloaded", err)
	}
	// Health ops keep answering: the drain is observable, not a blackout.
	stats, err := rc.FetchStats()
	if err != nil {
		t.Fatalf("stats while draining: %v", err)
	}
	if stats == nil {
		t.Fatal("nil stats payload")
	}
	if _, err := rc.FetchTrace(""); err != nil {
		t.Fatalf("trace while draining: %v", err)
	}
	if ac.ShedReads.Value() == 0 {
		t.Fatal("draining sheds not counted")
	}

	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	// The replica itself is untouched by its server's drain: local reads
	// still work (only the serving tier went away).
	if _, err := r.Members("YP"); err != nil {
		t.Fatalf("local members after drain: %v", err)
	}
}
