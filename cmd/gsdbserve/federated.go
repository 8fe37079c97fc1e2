// Federated serving mode (-sources N, N > 1): the sample database is
// hash-partitioned with subtree affinity across N autonomous sources
// (docs/WAREHOUSE.md, "Multi-source federation & failure model"). Each
// source gets its own wire listener — shard k serves on the -addr port
// plus k — answering the full query-mode protocol including the "shard"
// federation handshake, so a federated client can discover which
// partition it reached and how healthy that source is. A Federation
// co-located with the sources consumes every shard's report stream over
// the loopback wire, maintains the -feed views as spanning member
// views, and supervises each source with the circuit-breaker state
// machine; -debugaddr's /readyz gates on its quorum (losing a minority
// of partitions degrades reads, it does not unready the service) and
// /metrics carries the gsv_source_* and gsv_federation_* series
// (gsdbwatch -stats renders them as the per-source section).
package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"log/slog"
	"net/http"
	"strings"

	"gsv/internal/faults"
	"gsv/internal/obs"
	"gsv/internal/oem"
	"gsv/internal/query"
	"gsv/internal/store"
	"gsv/internal/warehouse"
	"gsv/internal/workload"
)

// fedParams carries the subset of gsdbserve's flags the federated mode
// consumes.
type fedParams struct {
	addr     string
	sources  int
	tuples   int
	level    int
	updates  int
	interval time.Duration
	seed     int64
	feeds    []string
	debug    string

	admission   warehouse.AdmissionConfig
	idleTimeout time.Duration
	drainWait   time.Duration

	chaos      bool
	chaosSeed  int64
	chaosDrop  float64
	chaosErr   float64
	chaosDelay float64
	chaosLag   time.Duration
}

// runFederated hosts the N-source federation until interrupted, then
// drains every shard and returns (main exits).
func runFederated(p fedParams) {
	host, portStr, err := net.SplitHostPort(p.addr)
	if err != nil {
		fatal("-sources needs -addr as host:port (shard k listens on port+k)", "addr", p.addr, "err", err)
	}
	basePort, err := strconv.Atoi(portStr)
	if err != nil {
		fatal("-sources needs a numeric -addr port (shard k listens on port+k)", "addr", p.addr, "err", err)
	}

	base := store.NewDefault()
	db := workload.RelationLike(base, workload.RelationConfig{
		Relations: 2, TuplesPerRelation: p.tuples, FieldsPerTuple: 3, Seed: p.seed,
	})
	part := warehouse.NewPartitioner(p.sources)
	stores, err := warehouse.PartitionStore(base, part, warehouse.PartitionConfig{Affinity: true})
	if err != nil {
		fatal("partitioning the sample database failed", "err", err)
	}

	reg := obs.NewRegistry()
	n := p.sources
	srcs := make([]*warehouse.Source, n)
	servers := make([]*warehouse.Server, n)
	listeners := make([]net.Listener, n)
	remotes := make([]warehouse.SourceAPI, n)
	// The ShardInfo hooks and the Federation reference each other (the
	// hook reports the supervisor's health, the supervisor lives in the
	// federation, and the federation dials the servers the hooks serve
	// on); the atomic pointer breaks the cycle — hooks answer with an
	// empty health state until the federation is up.
	var fedRef atomic.Pointer[warehouse.Federation]
	shardInfo := func(k int) func() *warehouse.ShardPayload {
		return func() *warehouse.ShardPayload {
			info := &warehouse.ShardPayload{
				Source: srcs[k].ID(), Shard: k, Shards: n,
				Seq: srcs[k].Store.Seq(),
			}
			if fed := fedRef.Load(); fed != nil {
				if sup, ok := fed.Supervisor(srcs[k].ID()); ok {
					info.State = sup.State().String()
					info.Watermark = sup.Watermark()
				}
			}
			return info
		}
	}
	for k := 0; k < n; k++ {
		name := fmt.Sprintf("source%d", k)
		srcs[k] = warehouse.NewSource(name, stores[k], db.Root,
			warehouse.ReportLevel(p.level), warehouse.NewTransport(0))
		srcs[k].DrainReports()
		srcs[k].RegisterObs(reg)

		shardAddr := net.JoinHostPort(host, strconv.Itoa(basePort+k))
		ln, err := net.Listen("tcp", shardAddr)
		if err != nil {
			fatal("listen failed", "source", name, "addr", shardAddr, "err", err)
		}
		listeners[k] = ln
		if p.chaos {
			inj := faults.New(faults.Config{
				Seed:      p.chaosSeed + int64(k),
				DropProb:  p.chaosDrop,
				ErrProb:   p.chaosErr,
				DelayProb: p.chaosDelay,
				Delay:     p.chaosLag,
			})
			inj.RegisterObs(reg, name)
			listeners[k] = inj.WrapListener(ln)
		}
		// Every shard gets its own admission controller: overload on one
		// partition sheds there without starving its siblings, and the
		// per-source label keeps the gsv_overload_* series separable.
		ac := warehouse.NewAdmissionController(p.admission)
		ac.RegisterObs(reg, obs.L("source", name))
		servers[k] = warehouse.NewServer(srcs[k], warehouse.ServerConfig{
			ShardInfo:   shardInfo(k),
			Obs:         reg,
			Admission:   ac,
			IdleTimeout: p.idleTimeout,
		})
		srv, lnk := servers[k], listeners[k]
		go func() {
			if err := srv.Serve(lnk); err != nil {
				slog.Info("shard server stopped", "source", name, "err", err)
			}
		}()
		slog.Info("shard serving", "source", name, "addr", ln.Addr().String(),
			"objects", stores[k].Len(), "level", p.level)

		remote, err := warehouse.Dial(name, ln.Addr().String(), warehouse.NewTransport(0))
		if err != nil {
			fatal("dialing own shard failed", "source", name, "err", err)
		}
		remotes[k] = remote
	}

	fed, err := warehouse.NewFederation(remotes, warehouse.FederationConfig{Partitioner: part})
	if err != nil {
		fatal("building federation failed", "err", err)
	}
	fed.EnableObs(reg)
	fedRef.Store(fed)

	for _, spec := range p.feeds {
		name, qs, ok := strings.Cut(spec, "=")
		if !ok {
			fatal("-feed wants NAME=QUERY", "got", spec)
		}
		q, err := query.Parse(qs)
		if err != nil {
			fatal("parsing -feed query failed", "view", name, "err", err)
		}
		if err := fed.DefineView(name, q, warehouse.ViewConfig{Screening: p.level >= 2}); err != nil {
			fatal("defining federated view failed", "view", name, "err", err)
		}
		slog.Info("federated view defined (spanning all sources)", "view", name, "query", qs)
	}

	if p.debug != "" {
		reg.PublishExpvar("gsv")
		mux := obs.DebugMux(reg)
		// Readiness gates on source quorum, not per-view freshness: a
		// minority of dead partitions quarantines only their member views
		// and reads degrade to typed partial results; below quorum the
		// service is not ready. A drain in progress on any shard unreadies
		// the whole process — the federation is going away as a unit.
		obs.HealthHandlers(mux, func() error {
			for _, srv := range servers {
				if srv.Draining() {
					return fmt.Errorf("draining")
				}
			}
			return fed.Ready()
		})
		go func() {
			slog.Info("debug http listening", "addr", p.debug,
				"endpoints", "/metrics /healthz /readyz /debug/vars /debug/pprof")
			if err := http.ListenAndServe(p.debug, mux); err != nil {
				slog.Error("debug http stopped", "err", err)
			}
		}()
	}

	slog.Info("federation serving", "sources", n,
		"ports", fmt.Sprintf("%d-%d", basePort, basePort+n-1),
		"root", string(db.Root), "affinity_pins", part.Pinned())

	// The pump loop is the federation's single maintenance driver: every
	// tick it drains all shards' report streams concurrently, maintains
	// the member views, probes Down sources and repairs quarantined
	// views. Pump errors are degradation signals (a source tripping its
	// breaker), not fatal.
	go func() {
		for range time.Tick(p.interval) {
			if _, err := fed.Pump(); err != nil {
				slog.Warn("federation pump degraded", "err", err)
			}
		}
	}()

	if p.updates > 0 {
		go driveFederated(fed, srcs, servers, stores, db, p)
	}

	// SIGINT/SIGTERM drains every shard concurrently under one shared
	// timeout, then exits: each shard stops accepting, finishes its
	// in-flight reads, and the process leaves cleanly.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	slog.Info("draining federation", "shards", n, "timeout", p.drainWait)
	ctx, cancel := context.WithTimeout(context.Background(), p.drainWait)
	defer cancel()
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			if err := servers[k].Drain(ctx); err != nil {
				slog.Warn("shard drain did not complete; closing anyway",
					"source", srcs[k].ID(), "err", err)
			}
		}(k)
	}
	wg.Wait()
	slog.Info("federation drained")
}

// driveFederated spreads the -updates mix round-robin across the
// shards' own update streams, broadcasting every shard's reports to its
// connected report streams (the federation consumes them through its
// loopback clients like any other subscriber).
func driveFederated(fed *warehouse.Federation, srcs []*warehouse.Source,
	servers []*warehouse.Server, stores []*store.Store, db *workload.RelationDB, p fedParams) {
	n := len(srcs)
	streams := make([]*workload.Stream, n)
	for k := 0; k < n; k++ {
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
			Seed: p.seed + 7 + int64(k), ValueRange: 60,
		}, sets, atoms)
	}
	for i := 0; i < p.updates; i++ {
		time.Sleep(p.interval)
		k := i % n
		if _, ok := streams[k].Next(); !ok {
			slog.Info("update stream exhausted", "source", srcs[k].ID())
			return
		}
		reports := srcs[k].DrainReports()
		if err := servers[k].Broadcast(reports); err != nil {
			slog.Warn("broadcast failed", "source", srcs[k].ID(), "err", err)
			continue
		}
		for _, r := range reports {
			slog.Debug("update applied", "source", srcs[k].ID(),
				"update", r.Update.String(), "seq", r.Update.Seq)
		}
	}
	slog.Info("update streams finished", "updates", p.updates)
	for _, v := range fed.ViewNames() {
		if members, err := fed.Members(v); err == nil {
			slog.Info("federated view converged", "view", v, "members", len(members))
		}
	}
}
