package experiments

import (
	"fmt"
	"net"
	"sort"
	"time"

	"gsv/internal/oem"
	"gsv/internal/query"
	"gsv/internal/warehouse"
	"gsv/internal/workload"
)

// e17Query is the CPU-bound read the overload experiment drives: a full
// SELECT evaluated against the base store on every request, so offered
// load beyond the host's cores queues real work rather than sleeping.
// The predicate never matches, so the whole cost is the server-side
// scan — response frames stay tiny and the clients' decode cost cannot
// become the bottleneck being measured.
const e17Query = "SELECT REL.r0.tuple X WHERE X.age > 100000"

// e17VerifyQuery is the selective query the post-run correctness check
// compares against a local evaluation (a never-matching answer would
// prove nothing).
const e17VerifyQuery = "SELECT REL.r0.tuple X WHERE X.age > 30"

// e17Loads are the offered-load multipliers: clients = multiplier x
// e17BaseClients, each keeping one request in flight (closed loop).
var e17Loads = []int{1, 4, 16}

const e17BaseClients = 4

// E17OverloadShedding measures what admission control buys a server
// under overload (docs/WAREHOUSE.md "Overload & graceful drain"): the
// same budgeted read workload is driven at 1x/4x/16x offered load
// against an unprotected server (raw) and one with the weighted
// admission semaphore (shed). Goodput counts only answers that arrived
// within the client's stamped deadline budget — an unprotected server
// still answers everything under overload, but late, so its goodput
// collapses while the protected server sheds the excess cheaply and
// keeps admitted reads fast.
func E17OverloadShedding(cfg Config) *Table {
	t := &Table{
		ID:    "E17",
		Title: "overload shedding: goodput and p99 vs offered load, raw vs admission-controlled",
		Caption: "Overload protection (docs/WAREHOUSE.md). Closed-loop clients drive " +
			"budget-stamped CPU-bound queries at 1x/4x/16x offered load against an " +
			"unprotected server (raw) and one with the weighted admission semaphore " +
			"(shed). good/s counts answers within the budget (goodput); p99 is over " +
			"all answers that arrived. The budget is calibrated to 8x the measured " +
			"solo query latency, so the numbers transfer across hosts. speedup is " +
			"shed goodput over raw goodput at the same load (raw clamped to >=1/s " +
			"so a fully-collapsed baseline stays finite) — the 16x row is the " +
			"benchgate-enforced claim, alongside a ceiling on the shed p99.",
		Headers: []string{"run", "clients", "budget", "good/s", "p99 ms", "sheds", "speedup"},
	}
	tuples := 600 * cfg.Scale
	if cfg.Updates < 200 {
		tuples = 150 * cfg.Scale
	}
	s, _, _ := e12Fixture(tuples, cfg.Seed)
	src := warehouse.NewSource("primary", s, "REL", warehouse.Level2, warehouse.NewTransport(0))
	src.DrainReports()

	solo := e17Calibrate(src)
	budget := time.Duration(8 * float64(solo))
	if budget < 5*time.Millisecond {
		budget = 5 * time.Millisecond
	}
	if budget > 80*time.Millisecond {
		budget = 80 * time.Millisecond
	}
	window := 300 * time.Millisecond
	if cfg.Updates >= 200 {
		window = 700 * time.Millisecond
	}

	for _, load := range e17Loads {
		clients := e17BaseClients * load
		raw := e17Run(cfg, src, nil, clients, budget, window)
		// One weight-4 query admitted at a time: the strictest policy
		// keeps an admitted read's latency near solo on any core count
		// (extra cores only help the shed/queue machinery), so the
		// within-budget claim transfers across hosts.
		admission := warehouse.NewAdmissionController(warehouse.AdmissionConfig{
			MaxInflight: 4,
			MaxQueue:    8,
			QueueWait:   budget / 2,
			MinSlack:    budget / 2,
		})
		shed := e17Run(cfg, src, admission, clients, budget, window)
		if load == 16 && shed.Sheds == 0 {
			panic("E17: admission-controlled server shed nothing at 16x load")
		}
		budgetCell := fmt.Sprintf("%.1fms", float64(budget.Microseconds())/1e3)
		t.AddRow(fmt.Sprintf("%dx-raw", load), clients, budgetCell,
			fmt.Sprintf("%.0f", raw.Goodput()), fmt.Sprintf("%.2fms", raw.P99()*1e3),
			raw.Sheds, "-")
		rawGood := raw.Goodput()
		if rawGood < 1 {
			rawGood = 1
		}
		t.AddRow(fmt.Sprintf("%dx-shed", load), clients, budgetCell,
			fmt.Sprintf("%.0f", shed.Goodput()), fmt.Sprintf("%.2fms", shed.P99()*1e3),
			shed.Sheds, ratio(shed.Goodput(), rawGood))
	}

	// Correctness: an idle protected server answers the experiment's
	// query exactly like a local evaluation.
	e17Verify(src)
	return t
}

// e17Calibrate measures the solo (uncontended) latency of the
// experiment's query over the wire: the median of 15 runs against a
// dedicated server with one client.
func e17Calibrate(src *warehouse.Source) time.Duration {
	server := warehouse.NewServer(src, warehouse.ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	go func() { _ = server.Serve(ln) }()
	defer server.Close()
	remote, err := warehouse.Dial("primary", ln.Addr().String(), warehouse.NewTransport(0))
	if err != nil {
		panic(err)
	}
	defer remote.Close()
	q := query.MustParse(e17Query)
	var samples []time.Duration
	for i := 0; i < 15; i++ {
		start := time.Now()
		if _, err := remote.FetchQuery(q); err != nil {
			panic(err)
		}
		samples = append(samples, time.Since(start))
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[len(samples)/2]
}

// e17Run drives one leg: a fresh server over src (with or without
// admission control) under clients closed-loop budgeted readers.
func e17Run(cfg Config, src *warehouse.Source, admission *warehouse.AdmissionController,
	clients int, budget time.Duration, window time.Duration) workload.BudgetedReadResult {
	server := warehouse.NewServer(src, warehouse.ServerConfig{Admission: admission})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	go func() { _ = server.Serve(ln) }()
	defer server.Close()
	return workload.RunBudgetedReadLoad(workload.BudgetedReadConfig{
		Addrs:       []string{ln.Addr().String()},
		Clients:     clients,
		Duration:    window,
		Warmup:      150 * time.Millisecond,
		Queries:     []string{e17Query},
		Budget:      budget,
		ShedBackoff: 4 * budget,
		Seed:        cfg.Seed,
	})
}

// e17Verify cross-checks the wire answer of a protected idle server
// against a local evaluation, and that the typed shed error never
// leaks into a normal answer path.
func e17Verify(src *warehouse.Source) {
	server := warehouse.NewServer(src, warehouse.ServerConfig{
		Admission: warehouse.NewAdmissionController(warehouse.AdmissionConfig{
			MaxInflight: 16, MaxQueue: 16,
		}),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	go func() { _ = server.Serve(ln) }()
	defer server.Close()
	remote, err := warehouse.Dial("primary", ln.Addr().String(), warehouse.NewTransport(0))
	if err != nil {
		panic(err)
	}
	defer remote.Close()
	got, err := remote.FetchQuery(query.MustParse(e17VerifyQuery))
	if err != nil {
		panic(fmt.Sprintf("E17: verify query failed: %v", err))
	}
	want, err := src.FetchQuery(query.MustParse(e17VerifyQuery))
	if err != nil {
		panic(err)
	}
	gotOIDs := make([]oem.OID, 0, len(got))
	for _, o := range got {
		gotOIDs = append(gotOIDs, o.OID)
	}
	wantOIDs := make([]oem.OID, 0, len(want))
	for _, o := range want {
		wantOIDs = append(wantOIDs, o.OID)
	}
	if !oem.SameMembers(gotOIDs, wantOIDs) {
		panic(fmt.Sprintf("E17: wire answer diverged: %v != %v", gotOIDs, wantOIDs))
	}
}
