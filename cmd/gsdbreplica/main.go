// Command gsdbreplica runs one read-replica node (docs/REPLICA.md): it
// bootstraps the primary's materialized views — from a checkpoint
// directory when one is given, from live snapshots otherwise — tails the
// primary's changefeed for every view over one multi-view subscription,
// and serves the read side of the warehouse wire protocol (query,
// members, stats, trace, subscribe) with a bounded-staleness guarantee.
//
// Usage:
//
//	gsdbreplica -primary 127.0.0.1:7070 -addr 127.0.0.1:7171
//	gsdbreplica -primary 127.0.0.1:7070 -addr :7171 \
//	            -bootstrap /var/lib/gsdb -max-lag 1000 -max-lag-age 5s
//	gsdbreplica -primary 127.0.0.1:7070 -addr :7171 \
//	            -debugaddr 127.0.0.1:8181
//
// The replica survives primary restarts: the feed connection redials
// with exponential backoff and resumes from the last applied cursor,
// falling back to a fresh snapshot when the primary's replay ring has
// already evicted it. While lag exceeds -max-lag (sequence distance) or
// -max-lag-age (time since last caught up — which includes being
// disconnected), data reads are rejected; stats and trace always answer,
// so operators can see how sick the node is (gsdbwatch -stats, -trace).
// With -debugaddr the same bounds gate /readyz (503 while lag exceeds
// them); /healthz, /metrics, /debug/vars and /debug/pprof are served
// alongside. Logging goes to stderr via log/slog; -log-level picks the
// verbosity.
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
	"syscall"
	"time"

	"gsv/internal/obs"
	"gsv/internal/replica"
	"gsv/internal/warehouse"
)

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
	var (
		primaryAddr = flag.String("primary", "127.0.0.1:7070", "primary server address")
		addr        = flag.String("addr", "127.0.0.1:7171", "listen address for read traffic")
		name        = flag.String("name", "replica", "replica name (metrics label, client ID)")
		bootstrap   = flag.String("bootstrap", "", "primary checkpoint directory to bootstrap from (empty = live snapshot)")
		maxLag      = flag.Uint64("max-lag", 0, "reject reads when this many base updates behind the primary (0 = unbounded)")
		maxLagAge   = flag.Duration("max-lag-age", 0, "reject reads when not caught up for this long (0 = unbounded)")
		ring        = flag.Int("feedring", 1024, "replay ring size per view of the replica's republished changefeed")
		debug       = flag.String("debugaddr", "", "HTTP introspection address serving /metrics, /healthz, /readyz, /debug/vars and /debug/pprof (empty = off)")
		dialWait    = flag.Duration("dial-timeout", 30*time.Second, "how long to keep retrying the initial primary dial")
		maxConns    = flag.Int("max-conns", 0, "overload protection: cap on concurrently open connections (0 = unlimited)")
		maxStreams  = flag.Int("max-streams", 0, "overload protection: cap on attached feed subscribers (0 = unlimited)")
		maxInflight = flag.Int("max-inflight", 0, "overload protection: cap on admitted weighted read concurrency (0 = unlimited; scans weigh 4, lookups 1)")
		maxQueue    = flag.Int("max-queue", 0, "overload protection: admission queue depth; arrivals beyond it shed (0 = no queue)")
		queueWait   = flag.Duration("queue-timeout", 100*time.Millisecond, "overload protection: longest a read may wait for admission before shedding")
		minSlack    = flag.Duration("min-slack", 0, "overload protection: shed deadline-carrying reads with less than this budget remaining (0 = serve until expiry)")
		idleTimeout = flag.Duration("idle-timeout", 0, "hang up query connections idle this long (0 = never; feed streams are exempt)")
		drainWait   = flag.Duration("drain-timeout", 10*time.Second, "SIGTERM: how long a graceful drain waits for in-flight requests")
		logLevel    = flag.String("log-level", "info", "log verbosity: debug|info|warn|error")
	)
	flag.Parse()
	setupLogging(*logLevel)

	opts := replica.Options{
		Name:         *name,
		Primary:      *primaryAddr,
		BootstrapDir: *bootstrap,
		MaxLagSeq:    *maxLag,
		MaxLagAge:    *maxLagAge,
		RingSize:     *ring,
	}
	// The tail loop redials forever once attached, but the very first
	// dial fails fast so a typo'd -primary is visible; retry it here so
	// "replica starts before primary" works in scripts and demos.
	var r *replica.Replica
	var err error
	deadline := time.Now().Add(*dialWait)
	for {
		r, err = replica.New(opts)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			fatal("primary unreachable", "primary", *primaryAddr, "err", err)
		}
		slog.Info("waiting for primary", "primary", *primaryAddr, "err", err)
		time.Sleep(500 * time.Millisecond)
	}
	if *bootstrap != "" {
		slog.Info("bootstrapped from checkpoint", "dir", *bootstrap, "views", fmt.Sprint(r.Views()))
	}

	reg := obs.NewRegistry()
	r.RegisterObs(reg)
	// Overload protection is always on (a zero config admits everything
	// but still counts), so gsv_overload_* is always scrapeable and the
	// SIGTERM drain below is uniform.
	admission := warehouse.NewAdmissionController(warehouse.AdmissionConfig{
		MaxConns: *maxConns, MaxStreams: *maxStreams,
		MaxInflight: int64(*maxInflight), MaxQueue: *maxQueue,
		QueueWait: *queueWait, MinSlack: *minSlack,
	})
	admission.RegisterObs(reg, obs.L("node", *name))
	server := r.NewServer(warehouse.ServerConfig{Obs: reg, Admission: admission, IdleTimeout: *idleTimeout})

	if *debug != "" {
		reg.PublishExpvar("gsv")
		mux := obs.DebugMux(reg)
		// Readiness gates on the same staleness bounds as the read gate
		// (/readyz answers 503 while lag exceeds -max-lag/-max-lag-age)
		// plus drain state, so load balancers stop routing here the moment
		// a shutdown begins.
		obs.HealthHandlers(mux, func() error {
			if server.Draining() {
				return errors.New("draining")
			}
			return r.Ready()
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
	// SIGINT/SIGTERM drains gracefully: stop accepting, flip /readyz to
	// 503, shed new data reads with the typed retryable error (clients
	// fail over to a sibling replica), finish in-flight requests within
	// -drain-timeout, then detach from the primary and exit.
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
		r.Close()
		os.Exit(0)
	}()

	if r.WaitCaughtUp(10 * time.Second) {
		seq, _ := r.Lag()
		slog.Info("caught up with primary, serving",
			"primary", *primaryAddr, "lag", seq, "views", fmt.Sprint(r.Views()), "addr", ln.Addr().String())
	} else {
		slog.Info("still catching up, serving",
			"primary", *primaryAddr, "views", fmt.Sprint(r.Views()), "addr", ln.Addr().String())
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
