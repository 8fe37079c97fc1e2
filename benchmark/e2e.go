package main

// One end-to-end run: spawn gsdbserve + gsdbreplica, let the server's
// drive loop stream updates, observe them on the replica's changefeed,
// read over the wire, check the oracle, kill and restart the primary.

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// value is one measured metric.
type value struct {
	V    float64
	Unit string
	N    int // samples behind V (0 = a single measurement)
}

// runResult is what one run of one workload produced.
type runResult struct {
	Workload  string
	Metrics   map[string]value
	Attempted int64
	Failed    int64
	Correct   bool
	Notes     []string
	// Unavailable lists layer probes that failed to build or run; their
	// metrics are reported as null.
	Unavailable []string
}

func (r *runResult) set(name string, v float64, unit string, n int) {
	r.Metrics[name] = value{V: v, Unit: unit, N: n}
}

func (r *runResult) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// mismatch records one failed correctness check.
func (r *runResult) mismatch(format string, args ...any) {
	r.Correct = false
	r.Failed++
	r.note("ORACLE MISMATCH: "+format, args...)
}

// cluster is one live primary + replica pair.
type cluster struct {
	primary     *child
	replica     *child
	primaryAddr string
	replicaAddr string
	dataDir     string
	setupS      float64 // spawn of gsdbserve -> first members from the replica
	bootstrapMS float64 // spawn of gsdbreplica -> first members from it
}

func (c *cluster) stop() {
	if c.replica != nil {
		c.replica.kill()
	}
	if c.primary != nil {
		c.primary.kill()
	}
}

type bench struct {
	env        *env
	serveBin   string
	replicaBin string
}

const phaseTimeout = 60 * time.Second

// startCluster spawns the pair and returns once the replica has caught up
// and answered its first members request.
func (b *bench) startCluster(w workload, seed int64, updates int) (*cluster, error) {
	pp, err := freePort()
	if err != nil {
		return nil, err
	}
	rp, err := freePort()
	if err != nil {
		return nil, err
	}
	c := &cluster{
		primaryAddr: fmt.Sprintf("127.0.0.1:%d", pp),
		replicaAddr: fmt.Sprintf("127.0.0.1:%d", rp),
	}
	if w.Durable {
		if c.dataDir, err = os.MkdirTemp(b.env.tmpDir, "data-"); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	if c.primary, err = b.env.spawn("gsdbserve", b.serveBin, w.primaryArgs(c.primaryAddr, seed, updates, c.dataDir)...); err != nil {
		return nil, err
	}
	if err := waitListening(c.primary, c.primaryAddr, phaseTimeout); err != nil {
		c.stop()
		return nil, err
	}
	t1 := time.Now()
	c.replica, err = b.env.spawn("gsdbreplica", b.replicaBin,
		"-primary", c.primaryAddr, "-addr", c.replicaAddr, "-log-level", "warn")
	if err != nil {
		c.stop()
		return nil, err
	}
	// gsdbreplica listens only once it has caught up with the primary.
	if err := waitListening(c.replica, c.replicaAddr, phaseTimeout); err != nil {
		c.stop()
		return nil, err
	}
	if _, err := membersOf(c.replicaAddr, viewNames()[0]); err != nil {
		c.stop()
		return nil, fmt.Errorf("first members request on the replica: %w", err)
	}
	now := time.Now()
	c.setupS = now.Sub(t0).Seconds()
	c.bootstrapMS = now.Sub(t1).Seconds() * 1e3
	return c, nil
}

func membersOf(addr, view string) ([]string, error) {
	qc, err := dialQuery(addr)
	if err != nil {
		return nil, err
	}
	defer qc.Close()
	resp, _, err := qc.do(request{Op: "members", View: view}, 10*time.Second)
	if err != nil {
		return nil, err
	}
	sort.Strings(resp.Members)
	return resp.Members, nil
}

// queryOIDs evaluates q on the server's base and returns the sorted OIDs.
func queryOIDs(addr, q string) ([]string, error) {
	qc, err := dialQuery(addr)
	if err != nil {
		return nil, err
	}
	defer qc.Close()
	resp, _, err := qc.do(request{Op: "query", Query: q}, 30*time.Second)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(resp.Objects))
	for _, o := range resp.Objects {
		out = append(out, o.OID)
	}
	sort.Strings(out)
	return out, nil
}

// replicaGauges reads the replica's staleness gauges through the stats op.
func replicaGauges(qc *queryConn) (map[string]float64, error) {
	resp, _, err := qc.do(request{Op: "stats"}, 10*time.Second)
	if err != nil {
		return nil, err
	}
	if resp.Stats == nil {
		return nil, errors.New("stats response without payload")
	}
	out := map[string]float64{}
	for _, m := range resp.Stats.Registry.Metrics {
		switch {
		case strings.HasPrefix(m.Name, "gsv_replica_") && m.Labels["op"] == "":
			out[m.Name] = m.Value
		case m.Name == "gsv_overload_shed_total" && m.Labels["class"] == "read":
			out[m.Name] = m.Value
		case m.Name == "gsv_overload_expired_total":
			out[m.Name] = m.Value
		}
	}
	return out, nil
}

// tick is one poll of the primary's sequence number and both CPU clocks.
type tick struct {
	at         time.Time
	seq        uint64
	cpuPrimary float64
	cpuReplica float64
	lagSeq     float64 // replica's gsv_replica_lag_seq (trace runs only)
}

const (
	// repeats is how often set-up and (in memory) restart are measured in
	// one run; the run reports the median.
	repeats = 3
	// On the write workloads the readers run for this long after the
	// update stream has ended, the first part discarded.
	quietReadWarm = 200 * time.Millisecond
	quietReads    = 2 * time.Second

	pollEvery = 50 * time.Millisecond
	// The stream has ended when the primary's sequence number has not
	// moved for this long; the slowest workload advances it every ~10ms.
	quietFor = 500 * time.Millisecond
)

// startReaders starts connection A (replica) and connection B (primary).
// A's transaction lists a view and then fetches one of the delegates just
// listed; B's is one scan of a view definition. Views are taken
// round-robin so that every window holds the same mix.
func startReaders(c *cluster, seed int64, gone *atomic.Int64) (a, b *reader) {
	views := viewNames()
	rng := rand.New(rand.NewSource(seed))
	ia, ib := 0, 0
	a = startReader(c.replicaAddr, budgetA, periodA, func(do func(request) (response, error)) error {
		v := views[ia%len(views)]
		ia++
		resp, err := do(request{Op: "members", View: v})
		if err != nil {
			return err
		}
		if len(resp.Members) == 0 {
			return fmt.Errorf("view %s is empty", v)
		}
		_, err = do(request{Op: "object", OID: v + "." + resp.Members[rng.Intn(len(resp.Members))]})
		if err != nil && strings.Contains(err.Error(), "object not found") {
			// The delegate left its view between the two requests: a
			// correct and timely answer, not a failure.
			gone.Add(1)
			return nil
		}
		return err
	})
	b = startReader(c.primaryAddr, budgetB, periodB, func(do func(request) (response, error)) error {
		v := views[ib%len(views)]
		ib++
		_, err := do(request{Op: "query", Query: viewQuery(v)})
		return err
	})
	return a, b
}

// run executes one workload once. With trace set it adds a second feed
// client on the primary and the per-process accounting, skips the repeated
// set-ups and restarts, and measures the wire round trips against the
// restarted server.
func (b *bench) run(w workload, seed int64, seconds float64, trace bool) (*runResult, error) {
	res := &runResult{Workload: w.Name, Metrics: map[string]value{}, Correct: true}
	updates := w.updates(seconds)
	reps := repeats
	if trace {
		reps = 1
	}

	// Set-up, several times over for a steady median; the last one stays.
	var c *cluster
	var setupS, bootMS []float64
	for i := 0; i < reps; i++ {
		if c != nil {
			c.stop()
			if c.dataDir != "" {
				os.RemoveAll(c.dataDir)
			}
		}
		var err error
		if c, err = b.startCluster(w, seed, updates); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setupS = append(setupS, c.setupS)
		bootMS = append(bootMS, c.bootstrapMS)
	}
	defer c.stop()
	res.set("setup_s", median(setupS), "s", len(setupS))
	res.set("replica.bootstrap_ms", median(bootMS), "ms", len(bootMS))
	views := viewNames()

	replicaFeed, err := startFeedTail(c.replicaAddr)
	if err != nil {
		return nil, err
	}
	defer replicaFeed.stop()
	var primaryFeed *feedTail
	if trace {
		if primaryFeed, err = startFeedTail(c.primaryAddr); err != nil {
			return nil, err
		}
		defer primaryFeed.stop()
	}
	// On serve the readers run beside the update stream; the write
	// workloads leave the stream alone and offer the same read load for a
	// moment once it has ended (below), which gives the read metrics of an
	// otherwise idle pair.
	var readA, readB *reader
	var gone atomic.Int64
	if w.ReadsDuringStream {
		readA, readB = startReaders(c, seed, &gone)
		defer readA.stop()
		defer readB.stop()
	}

	// ---- the measured window: from the end of warm-up until the
	// primary's sequence number stops moving ----
	poll, err := dialQuery(c.primaryAddr)
	if err != nil {
		return nil, err
	}
	defer poll.Close()
	gauges, err := dialQuery(c.replicaAddr)
	if err != nil {
		return nil, err
	}
	defer gauges.Close()
	var gaugesStart map[string]float64
	tStart := time.Now().Add(warmup)
	var ticks []tick
	deadline := time.Now().Add(phaseTimeout + time.Duration(3*seconds*float64(time.Second)))
	for {
		time.Sleep(pollEvery)
		if err := c.primary.exitErr(); err != nil {
			return nil, err
		}
		if err := c.replica.exitErr(); err != nil {
			return nil, err
		}
		resp, _, err := poll.do(request{Op: "object", OID: "REL"}, 10*time.Second)
		if err != nil {
			return nil, fmt.Errorf("polling the primary: %w", err)
		}
		tk := tick{at: time.Now(), seq: resp.Seq}
		if tk.cpuPrimary, err = c.primary.cpuSeconds(); err != nil {
			return nil, err
		}
		if tk.cpuReplica, err = c.replica.cpuSeconds(); err != nil {
			return nil, err
		}
		if tk.at.Before(tStart) {
			continue
		}
		if trace && len(ticks)%5 == 0 {
			g, err := replicaGauges(gauges)
			if err != nil {
				return nil, fmt.Errorf("replica stats: %w", err)
			}
			if gaugesStart == nil {
				gaugesStart = g
			}
			tk.lagSeq = g["gsv_replica_lag_seq"]
		}
		ticks = append(ticks, tk)
		quiet := int(quietFor / pollEvery)
		if n := len(ticks); n > quiet && ticks[n-1-quiet].seq == tk.seq {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("update stream still running %v after the measured window should have ended", time.Since(tStart))
		}
	}
	// The window ends at the first poll that saw the final sequence number.
	first, end := ticks[0], ticks[len(ticks)-1]
	for _, tk := range ticks {
		if tk.seq == end.seq {
			end = tk
			break
		}
	}
	if end.seq == first.seq {
		return nil, fmt.Errorf("update stream ended before the measured window began (seq %d): -updates %d is too small for this machine", end.seq, updates)
	}
	window := end.at.Sub(first.at).Seconds()
	res.note("measured window %.2fs, %d updates (seq %d..%d), server drove -updates %d", window, end.seq-first.seq, first.seq, end.seq, updates)
	readFrom, readTo := first.at, end.at
	if w.ReadsDuringStream {
		readA.stop()
		readB.stop()
	}

	// Wait until the replica has applied everything the primary emitted.
	var gaugesEnd map[string]float64
	caughtUp := false
	for wait := time.Now().Add(phaseTimeout); time.Now().Before(wait); time.Sleep(20 * time.Millisecond) {
		if gaugesEnd, err = replicaGauges(gauges); err != nil {
			return nil, fmt.Errorf("replica stats: %w", err)
		}
		if gaugesEnd["gsv_replica_applied_seq"] >= float64(end.seq) {
			caughtUp = true
			break
		}
	}
	res.Attempted++
	if !caughtUp {
		res.mismatch("replica never caught up with seq %d (applied %v)", end.seq, gaugesEnd["gsv_replica_applied_seq"])
	}

	// ---- update side ----
	evs := replicaFeed.window(first.at, end.at.Add(quietFor))
	if len(evs) < 2 {
		return nil, fmt.Errorf("only %d feed events in the measured window", len(evs))
	}
	var lags []float64
	for _, s := range evs {
		if s.lagMS > 0 {
			lags = append(lags, s.lagMS)
		}
	}
	vis := summarize(lags)
	res.note("update -> replica-visible latency, ms: %s", vis)
	res.set("visible_p50_ms", vis.P50, "ms", vis.N)
	p99, _ := vis.at(99)
	res.set("visible_p99_ms", p99, "ms", vis.N)
	firstEv, lastEv := evs[0], evs[len(evs)-1]
	visibleUpd := float64(lastEv.seq - firstEv.seq)
	res.set("ingest_upd_per_s", visibleUpd/lastEv.at.Sub(firstEv.at).Seconds(), "upd/s", int(visibleUpd))
	upd := float64(end.seq - first.seq)
	cpuP, cpuR := end.cpuPrimary-first.cpuPrimary, end.cpuReplica-first.cpuReplica
	res.set("cpu_s_per_kupd", (cpuP+cpuR)/(upd/1000), "s", int(upd))
	res.Attempted += int64(len(evs))
	res.Failed += replicaFeed.gaps

	// ---- oracle: replica == primary == recomputation == feed replay ----
	for _, v := range views {
		fromReplica, err := membersOf(c.replicaAddr, v)
		if err != nil {
			return nil, err
		}
		fromPrimary, err := membersOf(c.primaryAddr, v)
		if err != nil {
			return nil, err
		}
		recomputed, err := queryOIDs(c.primaryAddr, viewQuery(v))
		if err != nil {
			return nil, err
		}
		replicaFeed.mu.Lock()
		replayed := replicaFeed.members.sorted(v)
		replicaFeed.mu.Unlock()
		res.Attempted += 3
		if !equalStrings(fromPrimary, recomputed) {
			res.mismatch("%s: primary members (%d) != fresh query (%d)", v, len(fromPrimary), len(recomputed))
		}
		if !equalStrings(fromReplica, fromPrimary) {
			res.mismatch("%s: replica members (%d) != primary members (%d)", v, len(fromReplica), len(fromPrimary))
		}
		if !equalStrings(replayed, fromReplica) {
			res.mismatch("%s: feed replay (%d) != replica members (%d)", v, len(replayed), len(fromReplica))
		}
	}

	// ---- read side ----
	if !w.ReadsDuringStream {
		readA, readB = startReaders(c, seed, &gone)
		time.Sleep(quietReadWarm)
		readFrom = time.Now()
		time.Sleep(quietReads)
		readTo = time.Now()
		readA.stop()
		readB.stop()
	}
	ra := reduceReads(readA.window(readFrom, readTo))
	rb := reduceReads(readB.window(readFrom, readTo))
	if ra.lat.N == 0 || rb.lat.N == 0 {
		return nil, fmt.Errorf("no answered reads in the measured window (A %d, B %d; last errors: %v, %v)", ra.lat.N, rb.lat.N, readA.lastErr, readB.lastErr)
	}
	res.note("connection A latency, ms: %s; connection B latency, ms: %s", ra.lat, rb.lat)
	res.set("read_goodput_per_s", float64(ra.good)/readTo.Sub(readFrom).Seconds(), "1/s", ra.attempted)
	res.set("read_p50_ms", ra.lat.P50, "ms", ra.lat.N)
	p99, _ = ra.lat.at(99)
	res.set("read_p99_ms", p99, "ms", ra.lat.N)
	res.set("scan_p50_ms", rb.lat.P50, "ms", rb.lat.N)
	p99, _ = rb.lat.at(99)
	res.set("scan_p99_ms", p99, "ms", rb.lat.N)
	res.Attempted += int64(ra.attempted + rb.attempted)
	res.Failed += int64(ra.failed + rb.failed)
	if n := gone.Load(); n*100 > int64(ra.attempted) {
		res.mismatch("%d of %d delegate lookups on the replica answered \"object not found\"", n, ra.attempted)
	}
	if ra.failed+rb.failed > 0 {
		res.note("failed reads: A %d (last: %v), B %d (last: %v)", ra.failed, readA.lastErr, rb.failed, readB.lastErr)
	}

	// ---- memory and per-process accounting ----
	rssP, err := c.primary.peakRSSMB()
	if err != nil {
		return nil, err
	}
	rssR, err := c.replica.peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.set("rss_peak_mb", rssP, "MB", 0)
	if trace {
		res.set("proc.primary_cpu_s", cpuP, "s", 0)
		res.set("proc.replica_cpu_s", cpuR, "s", 0)
		res.set("proc.primary_rss_mb", rssP, "MB", 0)
		res.set("proc.replica_rss_mb", rssR, "MB", 0)
		res.set("proc.driver_upd_per_s", upd/window, "upd/s", int(upd))
		applied := gaugesEnd["gsv_replica_applied_events_total"] - gaugesStart["gsv_replica_applied_events_total"]
		if applied > 0 {
			res.set("replica.cpu_us_per_event", cpuR/applied*1e6, "us", int(applied))
		}
		lagMax := 0.0
		for _, tk := range ticks {
			lagMax = max(lagMax, tk.lagSeq)
		}
		res.set("replica.lag_seq_max", lagMax, "count", (len(ticks)+4)/5)
		g, err := replicaGauges(gauges)
		if err != nil {
			return nil, fmt.Errorf("replica stats: %w", err)
		}
		shed := g["gsv_overload_shed_total"] + g["gsv_overload_expired_total"]
		res.set("warehouse.shed_share", shed/float64(2*ra.attempted), "ratio", 2*ra.attempted)
		feedDecomposition(res, primaryFeed, evs, first.at, end.at)
	}

	// ---- crash and restart ----
	replicaFeed.stop()
	if primaryFeed != nil {
		primaryFeed.stop()
	}
	c.replica.kill()
	// A durable restart can be timed once only: it ends with a checkpoint
	// that collapses the WAL tail it has just replayed.
	if w.Durable {
		reps = 1
	}
	var recoverS []float64
	for i := 0; i < reps; i++ {
		s, err := b.restart(c, w, seed, res)
		if err != nil {
			return nil, err
		}
		recoverS = append(recoverS, s)
	}
	res.set("recover_s", median(recoverS), "s", len(recoverS))

	late := float64(ra.late + rb.late)
	res.set("e2e.fail_share", (float64(res.Failed)+late)/float64(res.Attempted), "ratio", int(res.Attempted))
	if trace {
		if err := wireRoundTrips(res, c.primaryAddr, seed); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// restart SIGKILLs the primary, starts it again on the same port (and data
// directory) with no update stream, and returns the time from the spawn
// until every view has answered a members request.
func (b *bench) restart(c *cluster, w workload, seed int64, res *runResult) (float64, error) {
	c.primary.kill()
	t0 := time.Now()
	var err error
	c.primary, err = b.env.spawn("gsdbserve (restarted)", b.serveBin, w.primaryArgs(c.primaryAddr, seed, 0, c.dataDir)...)
	if err != nil {
		return 0, err
	}
	if err := waitListening(c.primary, c.primaryAddr, phaseTimeout); err != nil {
		return 0, err
	}
	// A durable restart replays its WAL tail against the regenerated
	// base, which quarantines the views until the repair loop has
	// resynced them one by one: recovery ends when every view answers.
	views := viewNames()
	recovered := map[string][]string{}
	wait := time.Now().Add(phaseTimeout)
	for _, v := range views {
		for {
			if recovered[v], err = membersOf(c.primaryAddr, v); err == nil {
				break
			}
			if exited := c.primary.exitErr(); exited != nil {
				return 0, exited
			}
			if time.Now().After(wait) {
				return 0, fmt.Errorf("no members answer for %s %v after restart: %w", v, phaseTimeout, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	seconds := time.Since(t0).Seconds()
	// Only the warehouse is durable: gsdbserve regenerates its sample base
	// on every start and the restarted server drives no updates, so the
	// recovered views must equal a fresh evaluation over that base — not
	// the pre-kill membership, which the regenerated base no longer backs.
	for _, v := range views {
		want, err := queryOIDs(c.primaryAddr, viewQuery(v))
		if err != nil {
			return 0, err
		}
		res.Attempted++
		if !equalStrings(recovered[v], want) {
			res.mismatch("%s: %d members after restart, fresh query gives %d", v, len(recovered[v]), len(want))
		}
	}
	return seconds, nil
}

// feedDecomposition splits update -> replica-visible latency at the
// primary's own feed: events are matched by (view, cursor).
func feedDecomposition(res *runResult, primaryFeed *feedTail, replicaEvs []feedSample, from, to time.Time) {
	type key struct {
		view   string
		cursor uint64
	}
	atPrimary := map[key]feedSample{}
	pevs := primaryFeed.window(from, to.Add(quietFor))
	var feedLag []float64
	for _, s := range pevs {
		atPrimary[key{s.view, s.cursor}] = s
		if s.lagMS > 0 {
			feedLag = append(feedLag, s.lagMS)
		}
	}
	var hops []float64
	for _, s := range replicaEvs {
		if p, ok := atPrimary[key{s.view, s.cursor}]; ok {
			hops = append(hops, float64(s.at.Sub(p.at))/1e6)
		}
	}
	fl, hl := summarize(feedLag), summarize(hops)
	res.set("warehouse.feed_p50_ms", fl.P50, "ms", fl.N)
	res.set("replica.hop_p50_ms", hl.P50, "ms", hl.N)
	primaryFeed.mu.Lock()
	if n := len(primaryFeed.samples); n > 0 {
		res.set("warehouse.event_bytes", float64(primaryFeed.bytes)/float64(n), "B", n)
	}
	primaryFeed.mu.Unlock()
}

// wireRoundTrips times each request type on one closed-loop connection
// against a static server (the restarted primary drives no updates).
func wireRoundTrips(res *runResult, addr string, seed int64) error {
	qc, err := dialQuery(addr)
	if err != nil {
		return err
	}
	defer qc.Close()
	views := viewNames()
	rng := rand.New(rand.NewSource(seed + 2))
	members := map[string][]string{}
	for _, v := range views {
		resp, _, err := qc.do(request{Op: "members", View: v}, 10*time.Second)
		if err != nil {
			return err
		}
		members[v] = resp.Members
	}
	anyView := func() string { return views[rng.Intn(len(views))] }
	steps := []struct {
		name, unit string
		scale      float64 // nanoseconds per unit
		sizeMetric string  // where to report the mean response size, if anywhere
		next       func() request
	}{
		{"warehouse.rt_object_us", "us", 1e3, "", func() request {
			v := anyView()
			return request{Op: "object", OID: members[v][rng.Intn(len(members[v]))]}
		}},
		{"warehouse.rt_members_us", "us", 1e3, "warehouse.members_resp_bytes", func() request {
			return request{Op: "members", View: anyView()}
		}},
		{"warehouse.rt_query_ms", "ms", 1e6, "", func() request { return request{Op: "query", Query: viewQuery(anyView())} }},
		{"warehouse.rt_stats_us", "us", 1e3, "", func() request { return request{Op: "stats"} }},
	}
	for _, s := range steps {
		var lats []float64
		var size int64
		for stop := time.Now().Add(400 * time.Millisecond); time.Now().Before(stop); {
			req := s.next()
			t0 := time.Now()
			_, n, err := qc.do(req, 10*time.Second)
			if err != nil {
				return fmt.Errorf("%s: %w", s.name, err)
			}
			lats = append(lats, float64(time.Since(t0))/s.scale)
			size += int64(n)
		}
		res.set(s.name, median(lats), s.unit, len(lats))
		if s.sizeMetric != "" {
			res.set(s.sizeMetric, float64(size)/float64(len(lats)), "B", len(lats))
		}
	}
	return nil
}

func (b *bench) build() (float64, error) {
	t0 := time.Now()
	var err error
	if b.serveBin, err = b.env.goBuild(b.env.root, "./cmd/gsdbserve", "gsdbserve"); err != nil {
		return 0, err
	}
	if b.replicaBin, err = b.env.goBuild(b.env.root, "./cmd/gsdbreplica", "gsdbreplica"); err != nil {
		return 0, err
	}
	return time.Since(t0).Seconds(), nil
}

// outDir is where traces and result files go.
func (b *bench) outDir(out string) (string, error) {
	if !filepath.IsAbs(out) {
		out = filepath.Join(b.env.root, out)
	}
	return out, os.MkdirAll(out, 0o755)
}
