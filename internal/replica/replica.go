// Package replica implements the read-replica serving tier: a node that
// bootstraps its materialized views from a primary's checkpoint (or a
// live snapshot when no checkpoint is available), tails the primary's
// changefeed for every view over one multi-view subscription, applies
// the deltas in cursor order, and serves the read side of the warehouse
// wire protocol with a bounded-staleness guarantee.
//
// The replica holds the same representation as the primary's warehouse:
// one view object <V, mview, set, {delegates}> per view plus one
// delegate clone per member, in a store with parent and label indexes.
// Because feed events carry membership deltas keyed by base OID, apply
// is idempotent — inserting a member that is already present refreshes
// its delegate, deleting an absent member is a no-op — which is what
// makes snapshot bootstrap race-free (events racing the snapshot are
// duplicates, never losses) and redial replay safe.
//
// Staleness accounting rides on the multi-view stream's progress frames
// (warehouse.FeedProgress): the primary periodically announces its base
// sequence number together with every view's feed cursor. The replica is
// caught up with announced sequence S once it has applied every cursor
// announced alongside S — even when the base updates between the two
// frames were screened out of every view and produced no events at all.
// Lag is then both a sequence distance (gsv_replica_lag_seq) and the age
// of the last caught-up instant (gsv_replica_lag_seconds); ReadGate
// rejects data reads when either exceeds its configured bound, while
// always letting "stats" through so operators can inspect a sick node.
// See docs/REPLICA.md.
package replica

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gsv/internal/core"
	"gsv/internal/feed"
	"gsv/internal/obs"
	"gsv/internal/oem"
	"gsv/internal/store"
	"gsv/internal/warehouse"
)

// Options configures New.
type Options struct {
	// Name identifies the replica in metrics and serving.
	Name string
	// Primary is the primary server's address (host:port).
	Primary string
	// BootstrapDir, when non-empty, names a warehouse checkpoint
	// directory to bootstrap from: the view store and per-view feed
	// cursors are restored without fetching a single object, and the
	// changefeed is resumed from the checkpointed cursors. When empty
	// (or the directory holds no valid checkpoint), every view is
	// bootstrapped from a live snapshot instead.
	BootstrapDir string
	// MaxLagSeq bounds staleness by sequence distance: data reads are
	// rejected while the primary is known to be more than this many base
	// updates ahead. 0 means no sequence bound.
	MaxLagSeq uint64
	// MaxLagAge bounds staleness by time: data reads are rejected when
	// the replica has not been fully caught up within this duration —
	// which also covers being disconnected from the primary, when the
	// sequence distance cannot be known. 0 means no age bound.
	MaxLagAge time.Duration
	// Dial configures the fault tolerance of the query connection to the
	// primary (object fetches during apply and reconcile). The zero
	// value means warehouse.DefaultDialOptions.
	Dial warehouse.DialOptions
	// RedialBase and RedialMax bound the exponential backoff between
	// feed reconnect attempts (defaults 50ms and 2s). Redial never gives
	// up; Close stops it.
	RedialBase time.Duration
	RedialMax  time.Duration
	// FeedIdleTimeout declares the subscription dead when no frame — not
	// even a progress heartbeat (FeedProgressInterval, 500ms by default
	// on the server) — arrives for this long, forcing a redial. It also
	// bounds the feed handshake, so a half-open or blackholed connection
	// can never wedge the tail loop. Default 30s; negative disables.
	FeedIdleTimeout time.Duration
	// RingSize sizes the replica's own republished feed rings (0 means
	// the feed default), so downstream consumers can follow a replica
	// exactly like a primary.
	RingSize int
	// Seed seeds the redial jitter (0 means a fixed default).
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Name == "" {
		o.Name = "replica"
	}
	if o.RedialBase <= 0 {
		o.RedialBase = 50 * time.Millisecond
	}
	if o.RedialMax <= 0 {
		o.RedialMax = 2 * time.Second
	}
	if o.FeedIdleTimeout == 0 {
		o.FeedIdleTimeout = 30 * time.Second
	} else if o.FeedIdleTimeout < 0 {
		o.FeedIdleTimeout = 0
	}
	if o.Dial.IOTimeout == 0 && o.Dial.Retry.MaxAttempts == 0 && o.Dial.Redial.MaxAttempts == 0 {
		o.Dial = warehouse.DefaultDialOptions()
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// errCursorGap forces a feed reconnect when an in-stream cursor jump is
// observed (only possible under lossy slow-consumer policies).
var errCursorGap = errors.New("replica: feed cursor gap")

// rview is one replicated view.
type rview struct {
	name  string
	query string // definition text when known (checkpoint); informational
	mv    *core.MaterializedView
	// applied is the last feed cursor applied to this view.
	applied atomic.Uint64
	// snapWanted forces a snapshot reconcile on the next connect (set at
	// bootstrap for stale checkpoint views and on cursor gaps).
	snapWanted atomic.Bool
	// booted distinguishes the first bootstrap from later resyncs.
	booted bool
	// watermark is the newest origin stamp (Unix nanos) applied to this
	// view; prop, once RegisterObs ran, observes origin→replica-visible
	// propagation latency (docs/OBSERVABILITY.md).
	watermark atomic.Int64
	prop      atomic.Pointer[obs.Histogram]
}

// Replica is one read-replica node.
type Replica struct {
	opts Options

	store *store.Store
	hub   *feed.Hub
	src   *warehouse.RemoteSource

	mu    sync.Mutex
	views map[string]*rview

	// lagMu guards the staleness bookkeeping. Lock order: never take mu
	// while holding lagMu.
	lagMu       sync.Mutex
	primarySeq  uint64            // highest announced primary sequence
	caughtUpSeq uint64            // highest sequence fully applied
	caughtUpAt  time.Time         // when the replica was last caught up
	lastSeq     uint64            // sequence of the latest progress frame
	lastCursors map[string]uint64 // cursors of the latest progress frame

	// connMu guards the live feed connection so Close and Bounce can
	// break a blocked Next.
	connMu   sync.Mutex
	feedConn *warehouse.FeedStream

	// waitMu/waitCond park Wait* callers until progress is made
	// (checkCaughtUp, reconcileView, Close all broadcast) instead of
	// polling. Lock order: waitMu may be held while taking mu or lagMu,
	// never the reverse — broadcasters call notifyWaiters with no other
	// lock held.
	waitMu   sync.Mutex
	waitCond *sync.Cond

	rngMu sync.Mutex
	rng   *rand.Rand

	startedAt time.Time
	closed    atomic.Bool
	closeCh   chan struct{}
	wg        sync.WaitGroup

	// Instruments; RegisterObs exposes them.
	events   obs.Counter // applied feed events
	inserts  obs.Counter // applied member inserts
	deletes  obs.Counter // applied member deletes
	redials  obs.Counter // feed reconnects after a break
	resyncs  obs.Counter // snapshot reconciles after the first bootstrap
	rejected obs.Counter // reads rejected by the staleness gate

	// Propagation tracing (docs/OBSERVABILITY.md): chains records one
	// apply-side span chain per stamped feed event; headOrigin is the
	// newest origin stamp this node has applied to any view; obsReg,
	// once RegisterObs ran, lets views discovered later register their
	// propagation instruments lazily.
	chains     *obs.ChainRing
	headOrigin atomic.Int64
	obsReg     atomic.Pointer[obs.Registry]

	// sampMu guards samples, a bounded ring of recent origin→visible
	// latencies (seconds) for offline percentiles (the E14 p99 column).
	sampMu   sync.Mutex
	samples  []float64
	sampNext int
}

// maxPropagationSamples bounds the latency sample ring.
const maxPropagationSamples = 8192

// New builds a replica: restores the checkpoint when given one, dials
// the primary, and starts the feed tail loop. The initial dial is not
// retried — callers distinguish "primary never reachable" from "failed
// mid-stream" (which redials forever).
func New(o Options) (*Replica, error) {
	o = o.withDefaults()
	r := &Replica{
		opts:      o,
		views:     make(map[string]*rview),
		closeCh:   make(chan struct{}),
		rng:       rand.New(rand.NewSource(o.Seed)),
		startedAt: time.Now(),
		chains:    obs.NewChainRing(512),
	}
	r.waitCond = sync.NewCond(&r.waitMu)
	r.store = store.New(store.Options{ParentIndex: true, LabelIndex: true, AllowDangling: true})
	r.hub = feed.NewHub(feed.Options{RingSize: o.RingSize})

	if o.BootstrapDir != "" {
		bs, err := warehouse.ReadBootstrapState(o.BootstrapDir)
		if err != nil {
			return nil, fmt.Errorf("replica: bootstrap from %s: %w", o.BootstrapDir, err)
		}
		if bs != nil {
			st, err := bs.LoadStore()
			if err != nil {
				return nil, err
			}
			r.store = st
			r.store.AdvanceSeq(bs.Seq)
			for _, bv := range bs.Views {
				v := r.newRView(bv.Name, bv.Query)
				v.applied.Store(bv.FeedCursor)
				v.booted = true
				if bv.Stale {
					v.snapWanted.Store(true)
				}
				r.views[bv.Name] = v
				r.hub.RegisterView(bv.Name, v.mv.Members)
				r.hub.RestoreCursor(bv.Name, bv.FeedCursor)
			}
		}
	}

	src, err := warehouse.DialWithOptions(o.Name, o.Primary, warehouse.NewTransport(0), o.Dial)
	if err != nil {
		return nil, fmt.Errorf("replica: dialing primary %s: %w", o.Primary, err)
	}
	r.src = src

	r.wg.Add(1)
	go r.run()
	return r, nil
}

// newRView builds the in-memory handle for one view (no store changes).
func (r *Replica) newRView(name, query string) *rview {
	return &rview{
		name: name, query: query,
		mv: &core.MaterializedView{OID: oem.OID(name), ViewStore: r.store},
	}
}

// Close stops the tail loop and disconnects from the primary.
func (r *Replica) Close() {
	if r.closed.Swap(true) {
		return
	}
	close(r.closeCh)
	r.notifyWaiters()
	r.connMu.Lock()
	if r.feedConn != nil {
		r.feedConn.Close()
	}
	r.connMu.Unlock()
	r.src.Close()
	r.wg.Wait()
}

// Store exposes the replica's view store (read-only by convention).
func (r *Replica) Store() *store.Store { return r.store }

// Hub exposes the replica's republished changefeed: every applied event
// is re-published under the primary's cursor numbering, so consumers can
// follow a replica exactly like a primary (and keep their cursors when
// moving between the two).
func (r *Replica) Hub() *feed.Hub { return r.hub }

// Views returns the replicated view names, sorted.
func (r *Replica) Views() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.views))
	for name := range r.views {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Members answers a view's current membership from replica state.
func (r *Replica) Members(view string) ([]oem.OID, error) {
	r.mu.Lock()
	v := r.views[view]
	r.mu.Unlock()
	if v == nil {
		return nil, fmt.Errorf("replica: unknown view %s", view)
	}
	return v.mv.Members()
}

// Applied returns a view's last applied feed cursor (0 for unknown).
func (r *Replica) Applied(view string) uint64 {
	r.mu.Lock()
	v := r.views[view]
	r.mu.Unlock()
	if v == nil {
		return 0
	}
	return v.applied.Load()
}

// Lag reports the replica's staleness: how many base updates behind the
// primary is known to be, and how long ago the replica was last fully
// caught up (which keeps growing while disconnected, when the sequence
// distance cannot be known).
func (r *Replica) Lag() (seq uint64, age time.Duration) {
	r.lagMu.Lock()
	defer r.lagMu.Unlock()
	if r.primarySeq > r.caughtUpSeq {
		seq = r.primarySeq - r.caughtUpSeq
	}
	if r.caughtUpAt.IsZero() {
		age = time.Since(r.startedAt)
	} else {
		age = time.Since(r.caughtUpAt)
	}
	return seq, age
}

// CaughtUpSeq returns the highest primary sequence the replica has fully
// applied.
func (r *Replica) CaughtUpSeq() uint64 {
	r.lagMu.Lock()
	defer r.lagMu.Unlock()
	return r.caughtUpSeq
}

// notifyWaiters wakes every Wait*/Reconcile caller to re-check its
// condition. The empty waitMu critical section orders the caller's
// state change before a parked waiter's re-check (a waiter holds
// waitMu from check to Wait, so the broadcast cannot slip between).
func (r *Replica) notifyWaiters() {
	r.waitMu.Lock()
	//lint:ignore SA2001 ordering-only critical section, see comment
	r.waitMu.Unlock()
	r.waitCond.Broadcast()
}

// waitUntil parks the caller until pred holds, the timeout elapses, or
// the replica closes, and reports pred's final value. pred may take mu
// or lagMu (waitMu is ordered before both).
func (r *Replica) waitUntil(timeout time.Duration, pred func() bool) bool {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, r.notifyWaiters)
	defer timer.Stop()
	r.waitMu.Lock()
	defer r.waitMu.Unlock()
	for !pred() {
		if r.closed.Load() || !time.Now().Before(deadline) {
			return pred()
		}
		r.waitCond.Wait()
	}
	return true
}

// WaitSeq blocks until the replica has fully caught up with primary
// sequence seq, or the timeout elapses; it reports success.
func (r *Replica) WaitSeq(seq uint64, timeout time.Duration) bool {
	return r.waitUntil(timeout, func() bool { return r.CaughtUpSeq() >= seq })
}

// WaitCaughtUp blocks until the replica has heard from the primary and
// has zero sequence lag, or the timeout elapses; it reports success.
func (r *Replica) WaitCaughtUp(timeout time.Duration) bool {
	return r.waitUntil(timeout, func() bool {
		r.lagMu.Lock()
		defer r.lagMu.Unlock()
		return r.primarySeq > 0 && r.caughtUpSeq >= r.primarySeq
	})
}

// Reconcile forces a full snapshot reconcile of every view: the feed
// connection is bounced and re-established without resume cursors, so
// every view is re-fetched from a fresh primary snapshot. This also
// refreshes delegate values that changed without a membership event
// (value-only base modifies publish none). It blocks until every view
// has reconciled or a timeout elapses.
func (r *Replica) Reconcile() error {
	r.mu.Lock()
	for _, v := range r.views {
		v.snapWanted.Store(true)
	}
	r.mu.Unlock()
	r.connMu.Lock()
	if r.feedConn != nil {
		r.feedConn.Close()
	}
	r.connMu.Unlock()
	done := r.waitUntil(10*time.Second, func() bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		for _, v := range r.views {
			if v.snapWanted.Load() {
				return false
			}
		}
		return true
	})
	if done {
		return nil
	}
	if r.closed.Load() {
		return errors.New("replica: closed")
	}
	return errors.New("replica: reconcile timed out")
}

// ReadGate enforces the bounded-staleness guarantee for the wire
// protocol: data reads fail while lag exceeds a configured bound, stats
// always pass. Wire it as warehouse.Server.ReadGate.
func (r *Replica) ReadGate(op string) error {
	if op == "stats" || op == "trace" {
		return nil
	}
	if err := r.lagExceeded(); err != nil {
		r.rejected.Inc()
		return err
	}
	return nil
}

// lagExceeded reports whether staleness currently exceeds a configured
// bound (nil when within bounds or unbounded).
func (r *Replica) lagExceeded() error {
	lagSeq, lagAge := r.Lag()
	if r.opts.MaxLagSeq > 0 && lagSeq > r.opts.MaxLagSeq {
		return fmt.Errorf("replica: %d updates behind primary (bound %d); read rejected", lagSeq, r.opts.MaxLagSeq)
	}
	if r.opts.MaxLagAge > 0 && lagAge > r.opts.MaxLagAge {
		return fmt.Errorf("replica: not caught up for %s (bound %s); read rejected", lagAge.Round(time.Millisecond), r.opts.MaxLagAge)
	}
	return nil
}

// Ready answers the replica's readiness probe (the /readyz handler,
// docs/OBSERVABILITY.md "Health endpoints"): nil while staleness is
// within the configured lag bounds — the same criterion the read gate
// enforces per request, without counting a rejection.
func (r *Replica) Ready() error { return r.lagExceeded() }

// NewServer wires a warehouse.Server that serves this replica's state
// read-only: queries and stats answer from the replica store, "members"
// from the replicated views, the feed from the republished hub, and
// every data read passes the staleness gate. The replica sets cfg's
// Feed, Members, ReadGate, Chains and Node; the caller supplies the
// rest (Obs, Admission, IdleTimeout, DrainGrace, ...).
func (r *Replica) NewServer(cfg warehouse.ServerConfig) *warehouse.Server {
	src := warehouse.NewSource(r.opts.Name, r.store, oem.NoOID, warehouse.Level1, warehouse.NewTransport(0))
	cfg.Feed = r.hub
	cfg.Members = r.Members
	cfg.ReadGate = r.ReadGate
	cfg.Chains = r.chains
	cfg.Node = r.opts.Name
	return warehouse.NewServer(src, cfg)
}

// RegisterObs exposes the replica's instruments on reg.
func (r *Replica) RegisterObs(reg *obs.Registry) {
	reg.Help("gsv_replica_lag_seq", "base updates the primary is known to be ahead of the replica")
	reg.Help("gsv_replica_lag_seconds", "seconds since the replica was last fully caught up")
	reg.Help("gsv_replica_primary_seq", "highest base sequence announced by the primary")
	reg.Help("gsv_replica_applied_seq", "highest base sequence fully applied by the replica")
	reg.Help("gsv_replica_applied_events_total", "feed events applied to replicated views")
	reg.Help("gsv_replica_applied_deltas_total", "membership deltas applied, by op")
	reg.Help("gsv_replica_feed_redials_total", "feed connections re-established after a break")
	reg.Help("gsv_replica_resyncs_total", "snapshot reconciles after the initial bootstrap")
	reg.Help("gsv_replica_rejected_reads_total", "reads rejected by the bounded-staleness gate")
	lr := obs.L("replica", r.opts.Name)
	reg.GaugeFunc("gsv_replica_lag_seq", func() float64 {
		s, _ := r.Lag()
		return float64(s)
	}, lr)
	reg.GaugeFunc("gsv_replica_lag_seconds", func() float64 {
		_, a := r.Lag()
		return a.Seconds()
	}, lr)
	reg.GaugeFunc("gsv_replica_primary_seq", func() float64 {
		r.lagMu.Lock()
		defer r.lagMu.Unlock()
		return float64(r.primarySeq)
	}, lr)
	reg.GaugeFunc("gsv_replica_applied_seq", func() float64 {
		return float64(r.CaughtUpSeq())
	}, lr)
	reg.RegisterCounter("gsv_replica_applied_events_total", &r.events, lr)
	reg.RegisterCounter("gsv_replica_applied_deltas_total", &r.inserts, lr, obs.L("op", "insert"))
	reg.RegisterCounter("gsv_replica_applied_deltas_total", &r.deletes, lr, obs.L("op", "delete"))
	reg.RegisterCounter("gsv_replica_feed_redials_total", &r.redials, lr)
	reg.RegisterCounter("gsv_replica_resyncs_total", &r.resyncs, lr)
	reg.RegisterCounter("gsv_replica_rejected_reads_total", &r.rejected, lr)
	// Propagation tracing: the replica's half of the metrics the primary
	// registers in Warehouse.EnableObs, under this node's name.
	ln := obs.L("node", r.opts.Name)
	reg.Help("gsv_propagation_seconds", "origin-to-stage propagation latency, by stage/view/node")
	reg.Help("gsv_watermark_head_seconds", "newest origin stamp applied on this node, as Unix seconds")
	reg.Help("gsv_view_watermark_seconds", "newest origin stamp visible in the view, as Unix seconds")
	reg.Help("gsv_view_freshness_lag_seconds", "how far the view's watermark trails this node's head")
	reg.Help("gsv_chains_total", "propagation span chains recorded since startup")
	reg.GaugeFunc("gsv_chains_total", func() float64 { return float64(r.chains.Total()) }, ln)
	reg.GaugeFunc("gsv_watermark_head_seconds", func() float64 {
		return float64(r.headOrigin.Load()) / 1e9
	}, ln)
	r.obsReg.Store(reg)
	r.mu.Lock()
	views := make([]*rview, 0, len(r.views))
	for _, v := range r.views {
		views = append(views, v)
	}
	r.mu.Unlock()
	for _, v := range views {
		r.registerViewProp(v)
	}
	// The replica's serving store exports its MVCC gauges too — pinned
	// snapshots here are reconcile diff bases and in-flight reads.
	warehouse.RegisterStoreObs(reg, r.store, obs.L("store", "replica:"+r.opts.Name))
	r.src.RegisterObs(reg)
}

// registerViewProp attaches one view's propagation instruments to the
// registry: the origin→visible histogram and the watermark gauges.
// No-op until RegisterObs ran; idempotent per view.
func (r *Replica) registerViewProp(v *rview) {
	reg := r.obsReg.Load()
	if reg == nil || v.prop.Load() != nil {
		return
	}
	ln := obs.L("node", r.opts.Name)
	lv := obs.L("view", v.name)
	reg.GaugeFunc("gsv_view_watermark_seconds", func() float64 {
		return float64(v.watermark.Load()) / 1e9
	}, ln, lv)
	reg.GaugeFunc("gsv_view_freshness_lag_seconds", func() float64 {
		head, seen := r.headOrigin.Load(), v.watermark.Load()
		if head <= seen {
			return 0
		}
		return float64(head-seen) / 1e9
	}, ln, lv)
	v.prop.Store(reg.Histogram("gsv_propagation_seconds", nil, ln, obs.L("stage", "apply"), lv))
}

// PropagationSamples returns a copy of the recent origin→replica-visible
// latencies, in seconds (bounded ring, newest overwrite oldest). The
// benchmark harness derives its p99 from this.
func (r *Replica) PropagationSamples() []float64 {
	r.sampMu.Lock()
	defer r.sampMu.Unlock()
	return append([]float64(nil), r.samples...)
}

// FeedRedials returns how many times the feed connection was
// re-established after a break.
func (r *Replica) FeedRedials() uint64 { return r.redials.Value() }

// Resyncs returns how many snapshot reconciles ran after the initial
// bootstrap.
func (r *Replica) Resyncs() uint64 { return r.resyncs.Value() }

// --- feed tail loop -------------------------------------------------------

// run is the tail loop: (re)connect the multi-view subscription, apply
// frames until the stream breaks, repeat until Close.
func (r *Replica) run() {
	defer r.wg.Done()
	connected := false
	attempt := 0
	for {
		if r.closed.Load() {
			return
		}
		req := warehouse.SubscribeRequest{
			Views: []string{"*"}, Snapshot: true, Froms: map[string]uint64{},
			IOTimeout:   r.opts.FeedIdleTimeout,
			ReadTimeout: r.opts.FeedIdleTimeout,
		}
		r.mu.Lock()
		for name, v := range r.views {
			if !v.snapWanted.Load() {
				req.Froms[name] = v.applied.Load()
			}
		}
		r.mu.Unlock()
		mfc, err := warehouse.DialMultiFeed(r.opts.Primary, req)
		if err != nil {
			if strings.Contains(err.Error(), "cursor in the future") {
				// The primary regressed past our cursors (e.g. a fresh
				// data directory): re-bootstrap everything from snapshots.
				r.mu.Lock()
				for _, v := range r.views {
					v.snapWanted.Store(true)
				}
				r.mu.Unlock()
				continue
			}
			attempt++
			if !r.sleep(r.backoff(attempt)) {
				return
			}
			continue
		}
		attempt = 0
		if connected {
			r.redials.Inc()
		}
		connected = true
		r.handleStream(mfc)
		mfc.Close()
		if r.closed.Load() {
			return
		}
		if !r.sleep(r.backoff(1)) {
			return
		}
	}
}

// handleStream consumes one multi-view connection: reconcile per-view
// handshake state, then apply events and progress frames until the
// stream breaks.
func (r *Replica) handleStream(mfc *warehouse.FeedStream) {
	r.connMu.Lock()
	if r.closed.Load() {
		r.connMu.Unlock()
		return
	}
	r.feedConn = mfc
	r.connMu.Unlock()
	defer func() {
		r.connMu.Lock()
		if r.feedConn == mfc {
			r.feedConn = nil
		}
		r.connMu.Unlock()
	}()

	cursors := make(map[string]uint64, len(mfc.Views))
	for _, vh := range mfc.Views {
		v := r.ensureView(vh.View)
		if vh.Snapshot != nil {
			if err := r.reconcileView(v, vh.Snapshot); err != nil {
				// A degraded primary (e.g. transient fetch faults at one
				// shard of a federation) must not stall every view: this
				// one stays marked for snapshot (snapWanted survives the
				// failure) and re-reconciles on the next handshake, while
				// the remaining views reconcile and stream now.
				continue
			}
		}
		cursors[vh.View] = vh.Cursor
	}
	if mfc.Seq > 0 {
		r.store.AdvanceSeq(mfc.Seq)
	}
	r.noteProgress(mfc.Seq, cursors)
	for {
		fr, err := mfc.Next()
		if err != nil {
			return
		}
		switch {
		case fr.Event != nil:
			if err := r.applyEvent(*fr.Event); err != nil {
				return
			}
			r.checkCaughtUp()
		case fr.Progress != nil:
			r.noteProgress(fr.Progress.Seq, fr.Progress.Cursors)
			// The query connection's report stream is unused on a
			// replica (deltas arrive via the feed); keep its buffer
			// empty.
			r.src.DrainReports()
		}
	}
}

// ensureView returns the view's handle, creating the empty view object
// on first sight of a name discovered from the primary.
func (r *Replica) ensureView(name string) *rview {
	r.mu.Lock()
	v := r.views[name]
	if v == nil {
		v = r.newRView(name, "")
		r.views[name] = v
	}
	r.mu.Unlock()
	if !r.store.Has(oem.OID(name)) {
		_ = r.store.Put(oem.NewSet(oem.OID(name), core.ViewLabel))
	}
	r.hub.RegisterView(name, v.mv.Members)
	r.registerViewProp(v)
	return v
}

// applyEvent applies one feed event to its view: duplicates (cursor at
// or below applied) are skipped, the next cursor is applied, and a jump
// forces a snapshot reconcile on reconnect.
func (r *Replica) applyEvent(ev feed.Event) error {
	r.mu.Lock()
	v := r.views[ev.View]
	r.mu.Unlock()
	if v == nil {
		return nil // view subscribed by an older connection; ignore
	}
	applied := v.applied.Load()
	if ev.Cursor <= applied {
		return nil // idempotent duplicate (snapshot race or replay)
	}
	if ev.Cursor != applied+1 {
		v.snapWanted.Store(true)
		return errCursorGap
	}
	var applyStart time.Time
	if ev.Origin > 0 {
		applyStart = time.Now()
	}
	for _, b := range ev.Delete {
		d := core.DelegateOID(v.mv.OID, b)
		if r.store.HasChild(v.mv.OID, d) {
			if err := r.store.Delete(v.mv.OID, d); err != nil {
				v.snapWanted.Store(true)
				return err
			}
			if err := r.store.Remove(d); err != nil {
				v.snapWanted.Store(true)
				return err
			}
			r.deletes.Inc()
		}
	}
	for _, b := range ev.Insert {
		if err := r.insertMember(v, b); err != nil {
			// Half-applied event: the cursor was not advanced, so a
			// resume from here would replay it — but the fetch may keep
			// failing while the stream outruns the replay ring, and a
			// later cursor resume would then lose the members for good.
			// Force a snapshot reconcile on the next handshake instead.
			v.snapWanted.Store(true)
			return err
		}
		r.inserts.Inc()
	}
	v.applied.Store(ev.Cursor)
	if ev.Seq > 0 {
		r.store.AdvanceSeq(ev.Seq)
	}
	r.events.Inc()
	if ev.Origin > 0 {
		r.noteApplied(v, ev, applyStart)
	}
	// Republish under the primary's cursor numbering so downstream
	// consumers can follow this replica like a primary.
	r.hub.RestoreCursor(ev.View, ev.Cursor-1)
	r.hub.PublishEvent(ev)
	return nil
}

// noteApplied records the apply side of one stamped event's
// propagation: the node and view watermarks advance to the event's
// origin, the origin→visible latency lands in the histogram and the
// sample ring, and the event's span chain gains this node's link.
func (r *Replica) noteApplied(v *rview, ev feed.Event, t0 time.Time) {
	now := time.Now()
	obs.AdvanceWatermark(&r.headOrigin, ev.Origin)
	obs.AdvanceWatermark(&v.watermark, ev.Origin)
	lat := float64(now.UnixNano()-ev.Origin) / 1e9
	if h := v.prop.Load(); h != nil {
		h.Observe(lat)
	}
	r.sampMu.Lock()
	if len(r.samples) < maxPropagationSamples {
		r.samples = append(r.samples, lat)
	} else {
		r.samples[r.sampNext] = lat
		r.sampNext = (r.sampNext + 1) % maxPropagationSamples
	}
	r.sampMu.Unlock()
	if ev.TraceID == "" {
		return
	}
	r.chains.Add(obs.SpanChain{
		TraceID: ev.TraceID, Seq: ev.Seq, Kind: ev.Kind, View: ev.View,
		Origin: ev.Origin, Node: r.opts.Name,
		Spans: []obs.Span{{
			Node: r.opts.Name, View: ev.View, Stage: "apply",
			Start: t0.UnixNano() - ev.Origin,
			Nanos: now.Sub(t0).Nanoseconds(),
		}},
	})
}

// insertMember fetches base object b from the primary and installs (or
// refreshes) its delegate in the view — idempotent.
func (r *Replica) insertMember(v *rview, b oem.OID) error {
	o, err := r.src.FetchObject(b)
	if err != nil {
		return err
	}
	d := o.Clone()
	d.OID = core.DelegateOID(v.mv.OID, b)
	if r.store.Has(d.OID) {
		if err := v.mv.RefreshDelegateFrom(o); err != nil {
			return err
		}
	} else if err := r.store.Put(d); err != nil {
		return err
	}
	if !r.store.HasChild(v.mv.OID, d.OID) {
		if err := r.store.Insert(v.mv.OID, d.OID); err != nil {
			return err
		}
	}
	return nil
}

// reconcileView reconciles one view against a full snapshot: departed
// members are dropped, every snapshot member is fetched fresh (which
// also refreshes delegate values), and the applied cursor jumps to the
// snapshot's.
func (r *Replica) reconcileView(v *rview, snap *warehouse.FeedSnapshot) error {
	if v.booted {
		r.resyncs.Inc()
	}
	want := make(map[oem.OID]bool, len(snap.Members))
	for _, b := range snap.Members {
		want[b] = true
	}
	// Diff against a pinned version of the replica store: the membership
	// this reconcile subtracts from stays frozen while the loop below
	// mutates the store, and concurrent serving reads are undisturbed.
	pin := r.store.Snapshot()
	cur, err := v.mv.MembersAt(pin)
	pin.Close()
	if err != nil {
		return err
	}
	for _, b := range cur {
		if want[b] {
			continue
		}
		d := core.DelegateOID(v.mv.OID, b)
		if err := r.store.Delete(v.mv.OID, d); err != nil {
			return err
		}
		if err := r.store.Remove(d); err != nil {
			return err
		}
	}
	for _, b := range snap.Members {
		if err := r.insertMember(v, b); err != nil {
			return err
		}
	}
	v.applied.Store(snap.Cursor)
	v.snapWanted.Store(false)
	v.booted = true
	r.hub.RestoreCursor(v.name, snap.Cursor)
	r.notifyWaiters()
	return nil
}

// noteProgress records a progress announcement and re-evaluates whether
// the replica is caught up with it.
func (r *Replica) noteProgress(seq uint64, cursors map[string]uint64) {
	c := make(map[string]uint64, len(cursors))
	for k, v := range cursors {
		c[k] = v
	}
	r.lagMu.Lock()
	if seq > r.primarySeq {
		r.primarySeq = seq
	}
	r.lastSeq = seq
	r.lastCursors = c
	r.lagMu.Unlock()
	r.checkCaughtUp()
}

// checkCaughtUp marks the replica caught up with the latest progress
// announcement once every announced cursor has been applied.
func (r *Replica) checkCaughtUp() {
	r.lagMu.Lock()
	seq, cursors := r.lastSeq, r.lastCursors
	r.lagMu.Unlock()
	if cursors == nil {
		return
	}
	r.mu.Lock()
	ok := true
	for view, c := range cursors {
		v := r.views[view]
		if v == nil || v.applied.Load() < c {
			ok = false
			break
		}
	}
	r.mu.Unlock()
	if !ok {
		return
	}
	r.lagMu.Lock()
	if seq > r.caughtUpSeq {
		r.caughtUpSeq = seq
	}
	r.caughtUpAt = time.Now()
	r.lagMu.Unlock()
	r.notifyWaiters()
}

// backoff computes the jittered exponential redial delay.
func (r *Replica) backoff(attempt int) time.Duration {
	d := r.opts.RedialBase
	for i := 1; i < attempt && d < r.opts.RedialMax; i++ {
		d *= 2
	}
	if d > r.opts.RedialMax {
		d = r.opts.RedialMax
	}
	r.rngMu.Lock()
	j := time.Duration(r.rng.Int63n(int64(d)/2 + 1))
	r.rngMu.Unlock()
	return d/2 + j
}

// sleep waits d, interruptibly; false means the replica closed.
func (r *Replica) sleep(d time.Duration) bool {
	select {
	case <-r.closeCh:
		return false
	case <-time.After(d):
		return true
	}
}
