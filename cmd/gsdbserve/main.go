// Command gsdbserve exposes a GSDB source over TCP using the warehouse
// wire protocol (see docs/WAREHOUSE.md), optionally driving a seeded
// update stream against it so connected warehouses have something to
// maintain.
//
// With one or more -feed NAME=QUERY flags it additionally hosts a
// warehouse co-located with the source, maintains the named views against
// every driven update, and exposes their delta changefeeds through the
// "subscribe" connection mode (see docs/CHANGEFEED.md); gsdbwatch -follow
// tails them.
//
// Usage:
//
//	gsdbserve -addr :7070 -sample relations -tuples 50 \
//	          -level 2 -updates 100 -interval 200ms
//	gsdbserve -addr :7070 -snapshot db.gsv -root ROOT
//	gsdbserve -addr :7070 -sample relations -updates 200 \
//	          -feed 'HOT=SELECT REL.r0.tuple X WHERE X.age > 30'
//	gsdbserve -addr :7070 -sample relations -updates 200 \
//	          -feed 'HOT=...' -debugaddr 127.0.0.1:8080
//	gsdbserve -addr :7070 -sample relations -updates 500 \
//	          -chaos -chaos-err 0.05 -chaos-drop 0.02 -chaos-seed 42
//
// With -debugaddr the server additionally serves /metrics (Prometheus
// text format), /healthz and /readyz (readiness gates on view
// staleness), /debug/vars (expvar) and /debug/pprof over HTTP, and the
// same registry is available to remote clients through the "stats" wire
// request (gsdbwatch -stats); recent propagation span chains answer the
// "trace" request (gsdbwatch -trace). See docs/OBSERVABILITY.md.
//
// With -data DIR the -feed warehouse is durable (docs/DURABILITY.md): a
// write-ahead log of update reports plus periodic checkpoints land in
// DIR, and a restarted server recovers its views from the newest
// checkpoint and the WAL tail instead of re-materializing them. Reports
// the source emitted while the server was down are detected as a
// sequence gap; the affected views come back quarantined (stale) and the
// background repair loop resyncs them. -fsync picks the WAL fsync
// policy, -checkpoint-every and -checkpoint-interval the checkpoint
// cadence; SIGINT/SIGTERM checkpoints before exiting so the next start
// recovers instantly:
//
//	gsdbserve -addr :7070 -sample relations -updates 500 \
//	          -feed 'HOT=...' -data /var/lib/gsdb -fsync always
//
// With -chaos every accepted connection is wrapped in the deterministic
// fault injector (internal/faults): reads and writes fail, stall or drop
// the connection with the configured probabilities, seeded by
// -chaos-seed so a run is reproducible. This exercises client-side
// retries, redial and staleness repair (docs/WAREHOUSE.md, "Failure
// model") without any external tooling. Injected faults are counted in
// the metrics registry (gsv_faults_injected_total).
//
// Every applied update is broadcast to connected report streams;
// progress is logged to stderr via log/slog (-log-level picks the
// verbosity; per-update lines log at debug with their trace IDs).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gsv/internal/faults"
	"gsv/internal/feed"
	"gsv/internal/obs"
	"gsv/internal/oem"
	"gsv/internal/query"
	"gsv/internal/store"
	"gsv/internal/wal"
	"gsv/internal/warehouse"
	"gsv/internal/workload"
)

// feedSpecs collects repeated -feed NAME=QUERY flags.
type feedSpecs []string

func (f *feedSpecs) String() string { return strings.Join(*f, ", ") }

func (f *feedSpecs) Set(v string) error {
	*f = append(*f, v)
	return nil
}

// fatal logs at error level and exits — the slog analogue of log.Fatalf.
func fatal(msg string, args ...any) {
	slog.Error(msg, args...)
	os.Exit(1)
}

// setupLogging installs the process-wide slog handler.
func setupLogging(level string) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		fmt.Fprintf(os.Stderr, "-log-level %q: %v\n", level, err)
		os.Exit(2)
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})))
}

func main() {
	var feeds feedSpecs
	var (
		addr     = flag.String("addr", "127.0.0.1:7070", "listen address")
		sources  = flag.Int("sources", 1, "serve the database partitioned across N federated sources, shard k on the -addr port plus k (requires -sample relations)")
		sample   = flag.String("sample", "relations", "sample database: person|figure1|relations")
		tuples   = flag.Int("tuples", 50, "tuples per relation for -sample relations")
		snapshot = flag.String("snapshot", "", "serve a snapshot file instead of a sample")
		root     = flag.String("root", "", "root OID (defaults per sample; required with -snapshot)")
		level    = flag.Int("level", 2, "update report level (1..3)")
		updates  = flag.Int("updates", 0, "updates to drive (0 = serve statically)")
		interval = flag.Duration("interval", 250*time.Millisecond, "delay between driven updates")
		seed     = flag.Int64("seed", 1, "workload seed")
		feedRing = flag.Int("feedring", 1024, "changefeed replay ring size per view")
		debug    = flag.String("debugaddr", "", "HTTP introspection address serving /metrics, /healthz, /readyz, /debug/vars and /debug/pprof (empty = off)")
		logLevel = flag.String("log-level", "info", "log verbosity: debug|info|warn|error")

		dataDir  = flag.String("data", "", "durability directory for the -feed warehouse: WAL + checkpoints, recovered on restart (empty = in-memory)")
		fsync    = flag.String("fsync", "interval", "WAL fsync policy with -data: always|interval|never")
		ckptN    = flag.Int("checkpoint-every", 1024, "checkpoint after this many logged reports with -data")
		ckptWait = flag.Duration("checkpoint-interval", 30*time.Second, "background checkpoint period with -data (0 = only count-triggered)")

		maxConns    = flag.Int("max-conns", 0, "overload protection: cap on concurrently open connections (0 = unlimited)")
		maxStreams  = flag.Int("max-streams", 0, "overload protection: cap on attached report/feed streams (0 = unlimited)")
		maxInflight = flag.Int("max-inflight", 0, "overload protection: cap on admitted weighted read concurrency (0 = unlimited; scans weigh 4, lookups 1)")
		maxQueue    = flag.Int("max-queue", 0, "overload protection: admission queue depth; arrivals beyond it shed (0 = no queue)")
		queueWait   = flag.Duration("queue-timeout", 100*time.Millisecond, "overload protection: longest a read may wait for admission before shedding")
		minSlack    = flag.Duration("min-slack", 0, "overload protection: shed deadline-carrying reads with less than this budget remaining (0 = serve until expiry)")
		idleTimeout = flag.Duration("idle-timeout", 0, "hang up query connections idle this long (0 = never; report/feed streams are exempt)")
		drainWait   = flag.Duration("drain-timeout", 10*time.Second, "SIGTERM: how long a graceful drain waits for in-flight requests")

		chaos      = flag.Bool("chaos", false, "inject deterministic faults into every connection (see internal/faults)")
		chaosSeed  = flag.Int64("chaos-seed", 1, "fault injector seed (same seed = same fault schedule)")
		chaosDrop  = flag.Float64("chaos-drop", 0.01, "probability a read/write drops the connection")
		chaosErr   = flag.Float64("chaos-err", 0.03, "probability a read/write fails with an injected error")
		chaosDelay = flag.Float64("chaos-delay", 0.05, "probability a read/write is delayed")
		chaosLag   = flag.Duration("chaos-lag", 2*time.Millisecond, "injected delay duration")
	)
	flag.Var(&feeds, "feed", "host a warehouse view NAME=QUERY and expose its changefeed (repeatable)")
	flag.Parse()
	setupLogging(*logLevel)

	if *sources > 1 {
		// Federated mode: N autonomous sources over a partitioned sample,
		// supervised by a co-located Federation (federated.go). Modes that
		// assume exactly one source stay single-source-only.
		if *sample != "relations" || *snapshot != "" {
			fatal("-sources requires -sample relations (partitioning needs the relational sample)")
		}
		if *dataDir != "" {
			fatal("-data is not supported with -sources (per-shard durability is not wired yet)")
		}
		runFederated(fedParams{
			addr: *addr, sources: *sources, tuples: *tuples, level: *level,
			updates: *updates, interval: *interval, seed: *seed,
			feeds: feeds, debug: *debug,
			admission: warehouse.AdmissionConfig{
				MaxConns: *maxConns, MaxStreams: *maxStreams,
				MaxInflight: int64(*maxInflight), MaxQueue: *maxQueue,
				QueueWait: *queueWait, MinSlack: *minSlack,
			},
			idleTimeout: *idleTimeout, drainWait: *drainWait,
			chaos: *chaos, chaosSeed: *chaosSeed, chaosDrop: *chaosDrop,
			chaosErr: *chaosErr, chaosDelay: *chaosDelay, chaosLag: *chaosLag,
		})
		return
	}

	s := store.NewDefault()
	var sets, atoms []oem.OID
	rootOID := oem.OID(*root)
	switch {
	case *snapshot != "":
		if _, err := openSnapshot(*snapshot, s); err != nil {
			fatal("opening snapshot failed", "path", *snapshot, "err", err)
		}
		if rootOID == "" {
			fatal("-root is required with -snapshot")
		}
	case *sample == "person":
		workload.PersonDB(s)
		if rootOID == "" {
			rootOID = "ROOT"
		}
	case *sample == "figure1":
		workload.FigureOneDB(s)
		if rootOID == "" {
			rootOID = "A"
		}
	case *sample == "relations":
		db := workload.RelationLike(s, workload.RelationConfig{
			Relations: 2, TuplesPerRelation: *tuples, FieldsPerTuple: 3, Seed: *seed,
		})
		if rootOID == "" {
			rootOID = "REL"
		}
		for _, r := range db.Relations {
			sets = append(sets, r.OID)
			sets = append(sets, r.Tuples...)
			for _, tu := range r.Tuples {
				kids, _ := s.Children(tu)
				atoms = append(atoms, kids...)
			}
		}
	default:
		fatal("unknown sample", "sample", *sample)
	}

	tr := warehouse.NewTransport(0)
	src := warehouse.NewSource("gsdbserve", s, rootOID, warehouse.ReportLevel(*level), tr)
	src.DrainReports()

	// The metrics registry is always live (atomic counters cost nothing to
	// keep); -debugaddr and the stats wire request expose it.
	reg := obs.NewRegistry()
	src.RegisterObs(reg)
	tr.RegisterObs(reg, "source")
	cfg := warehouse.ServerConfig{Obs: reg, IdleTimeout: *idleTimeout}

	// Overload protection is always on (a zero config admits everything
	// but still counts), so gsv_overload_* is always scrapeable and the
	// SIGTERM drain below is uniform.
	admission := warehouse.NewAdmissionController(warehouse.AdmissionConfig{
		MaxConns: *maxConns, MaxStreams: *maxStreams,
		MaxInflight: int64(*maxInflight), MaxQueue: *maxQueue,
		QueueWait: *queueWait, MinSlack: *minSlack,
	})
	admission.RegisterObs(reg)
	cfg.Admission = admission

	// -feed views live in a warehouse co-located with the source; their
	// maintenance publishes into the hub the server exposes in subscribe
	// mode. The hub must be sized before the first DefineView registers
	// with it, and observability enabled before views register their
	// instruments.
	var lw *warehouse.Warehouse
	if *dataDir != "" && len(feeds) == 0 {
		fatal("-data needs at least one -feed view to make durable")
	}
	if len(feeds) > 0 {
		lw = warehouse.New(src)
		lw.Feed = feed.NewHub(feed.Options{RingSize: *feedRing})
		lw.Feed.RegisterObs(reg)
		lw.EnableObs(reg)
		cfg.Traces = lw.Traces
		cfg.Chains = lw.Chains

		// With -data the warehouse recovers from its last checkpoint plus
		// the WAL tail before any view definition runs: recovered views
		// resume incrementally (no re-materialization), and DefineView
		// below only fills in views the directory did not know about.
		if *dataDir != "" {
			policy, err := warehouse.ParseSyncPolicy(*fsync)
			if err != nil {
				fatal("bad -fsync policy", "err", err)
			}
			wm := wal.NewMetrics()
			wm.Register(reg, "warehouse")
			recovered, err := lw.EnableDurability(*dataDir, warehouse.DurabilityOptions{
				Policy:          policy,
				Metrics:         wm,
				CheckpointEvery: *ckptN,
			})
			if err != nil {
				fatal("enabling durability failed", "dir", *dataDir, "err", err)
			}
			if recovered {
				slog.Info("recovered warehouse state", "dir", *dataDir, "views", strings.Join(lw.ViewNames(), ","))
			} else {
				slog.Info("durable warehouse in fresh directory", "dir", *dataDir, "fsync", *fsync)
			}
			if *ckptWait > 0 {
				lw.StartCheckpointLoop(*ckptWait)
			}
		}

		for _, spec := range feeds {
			name, qs, ok := strings.Cut(spec, "=")
			if !ok {
				fatal("-feed wants NAME=QUERY", "got", spec)
			}
			if _, ok := lw.View(name); ok {
				slog.Info("feed view recovered from checkpoint", "view", name, "dir", *dataDir)
				continue
			}
			q, err := query.Parse(qs)
			if err != nil {
				fatal("parsing -feed query failed", "view", name, "err", err)
			}
			if _, err := lw.DefineView(name, q, warehouse.ViewConfig{Screening: *level >= 2}); err != nil {
				fatal("defining feed view failed", "view", name, "err", err)
			}
			slog.Info("feed view defined", "view", name, "query", qs)
		}
		cfg.Feed = lw.Feed
		// Replicas (gsdbreplica) and other strict readers resolve view
		// membership through the "members" wire op.
		cfg.Members = lw.FreshMembers
		// Views quarantined by a failed maintenance step (or a report gap)
		// are resynced in the background instead of staying stale forever.
		lw.StartRepairLoop(5 * time.Second)
	}
	server := warehouse.NewServer(src, cfg)

	if *debug != "" {
		reg.PublishExpvar("gsv")
		mux := obs.DebugMux(reg)
		// Readiness gates on view staleness: a quarantined view flips
		// /readyz to 503 until the repair loop resyncs it. Without -feed
		// views there is nothing to go stale and the server is always
		// ready.
		viewReady := func() error { return nil }
		if lw != nil {
			viewReady = lw.Ready
		}
		// A draining server answers 503 immediately so load balancers
		// stop routing to it before the listener disappears.
		obs.HealthHandlers(mux, func() error {
			if server.Draining() {
				return errDraining
			}
			return viewReady()
		})
		go func() {
			slog.Info("debug http listening", "addr", *debug,
				"endpoints", "/metrics /healthz /readyz /debug/vars /debug/pprof")
			if err := http.ListenAndServe(*debug, mux); err != nil {
				slog.Error("debug http stopped", "err", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("listen failed", "addr", *addr, "err", err)
	}
	// SIGINT/SIGTERM shuts down gracefully: stop accepting, flip /readyz
	// to 503, let in-flight requests finish within -drain-timeout, then
	// (when durable) checkpoint and release the WAL so the next start
	// recovers instantly instead of replaying the tail.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		slog.Info("draining", "timeout", *drainWait, "inflight_conns", server.ConnCount())
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := server.Drain(ctx); err != nil {
			slog.Warn("drain did not complete; closing anyway", "err", err)
		} else {
			slog.Info("drain complete")
		}
		if lw != nil && lw.Durable() {
			if err := lw.Close(); err != nil {
				slog.Error("shutdown checkpoint failed", "err", err)
			}
		}
		os.Exit(0)
	}()
	if *chaos {
		inj := faults.New(faults.Config{
			Seed:      *chaosSeed,
			DropProb:  *chaosDrop,
			ErrProb:   *chaosErr,
			DelayProb: *chaosDelay,
			Delay:     *chaosLag,
		})
		inj.RegisterObs(reg, "listener")
		ln = inj.WrapListener(ln)
		slog.Info("chaos fault injection on", "seed", *chaosSeed, "drop", *chaosDrop,
			"err_prob", *chaosErr, "delay", *chaosDelay, "lag", *chaosLag)
	}
	slog.Info("serving", "objects", s.Len(), "addr", ln.Addr().String(),
		"root", string(rootOID), "level", *level)

	if *updates > 0 && len(sets) > 0 {
		go drive(src, server, lw, sets, atoms, *updates, *interval, *seed)
	}
	if err := server.Serve(ln); err != nil {
		slog.Info("server stopped", "err", err)
	}
	if server.Draining() {
		// Serve returned because Drain closed the listener; the signal
		// goroutine finishes the shutdown and exits the process.
		select {}
	}
}

// errDraining answers /readyz while a graceful drain is in progress.
var errDraining = errors.New("draining")

func drive(src *warehouse.Source, server *warehouse.Server, lw *warehouse.Warehouse,
	sets, atoms []oem.OID, n int, interval time.Duration, seed int64) {
	stream := workload.NewStream(src.Store, workload.StreamConfig{Seed: seed + 7, ValueRange: 60}, sets, atoms)
	for i := 0; i < n; i++ {
		time.Sleep(interval)
		if _, ok := stream.Next(); !ok {
			return
		}
		reports := src.DrainReports()
		if lw != nil {
			// Maintain the feed views first so subscribe-mode events are
			// published no later than the corresponding report broadcast. A
			// failure quarantines the affected view (the repair loop resyncs
			// it); the stream and the other views keep going.
			if err := lw.ProcessAll(reports); err != nil {
				slog.Warn("feed maintenance failed; view quarantined for repair", "err", err)
			}
		}
		if err := server.Broadcast(reports); err != nil {
			slog.Warn("broadcast failed", "err", err)
			continue
		}
		for _, r := range reports {
			slog.Debug("update applied", "update", r.Update.String(),
				"seq", r.Update.Seq, "trace_id", r.Update.TraceID)
		}
	}
	slog.Info("update stream finished", "updates", n)
}

func openSnapshot(path string, s *store.Store) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	return path, s.Load(f)
}
