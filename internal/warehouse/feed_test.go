package warehouse

import (
	"bufio"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"gsv/internal/feed"
	"gsv/internal/oem"
	"gsv/internal/query"
	"gsv/internal/store"
	"gsv/internal/workload"
)

// drainNow empties everything a subscription has buffered right now.
// Publishes are synchronous, so after ProcessAll returns every event it
// caused is already in the channel.
func drainNow(sub *feed.Subscription) []feed.Event {
	var out []feed.Event
	for {
		select {
		case ev, ok := <-sub.Events():
			if !ok {
				return out
			}
			out = append(out, ev)
		default:
			return out
		}
	}
}

// drainAll reads a closed subscription to exhaustion.
func drainAll(sub *feed.Subscription) []feed.Event {
	var out []feed.Event
	for ev := range sub.Events() {
		out = append(out, ev)
	}
	return out
}

func sameEvent(a, b feed.Event) bool {
	return a.View == b.View && a.Cursor == b.Cursor && a.Seq == b.Seq &&
		a.Kind == b.Kind && a.N1 == b.N1 && a.N2 == b.N2 &&
		oem.SameMembers(a.Insert, b.Insert) && oem.SameMembers(a.Delete, b.Delete)
}

// applyEvents replays a delta sequence over a starting membership.
func applyEvents(members []oem.OID, evs []feed.Event) []oem.OID {
	set := make(map[oem.OID]bool)
	for _, m := range members {
		set[m] = true
	}
	for _, ev := range evs {
		for _, y := range ev.Insert {
			set[y] = true
		}
		for _, y := range ev.Delete {
			delete(set, y)
		}
	}
	out := make([]oem.OID, 0, len(set))
	for m := range set {
		out = append(out, m)
	}
	return oem.SortOIDs(out)
}

// TestFeedResumeMatchesContinuous is the changefeed acceptance test: a
// subscriber that connects, disconnects mid-stream, and resumes from its
// last cursor must observe exactly the same delta sequence as an
// always-connected subscriber — no gaps, no duplicates — across ≥100
// deterministic updates driven through a warehouse-maintained view, for
// every cache mode.
func TestFeedResumeMatchesContinuous(t *testing.T) {
	for _, cache := range []CacheMode{CacheNone, CachePartial, CacheFull} {
		t.Run(cache.String(), func(t *testing.T) {
			src, w, v := fixture(t, Level2, ViewConfig{Cache: cache})

			cont, err := w.Feed.Subscribe("YP", feed.SubOptions{Buffer: 4096})
			if err != nil {
				t.Fatal(err)
			}
			inter, err := w.Feed.Subscribe("YP", feed.SubOptions{Buffer: 4096})
			if err != nil {
				t.Fatal(err)
			}

			st := workload.NewStream(src.Store, workload.StreamConfig{Seed: 7, ValueRange: 90},
				[]oem.OID{"P1", "P2"}, []oem.OID{"A1", "A4"})
			driven := 0
			drive := func(n int) {
				t.Helper()
				for i := 0; i < n; i++ {
					if _, ok := st.Next(); !ok {
						t.Fatal("update stream dried up")
					}
					driven++
					if err := w.ProcessAll(src.DrainReports()); err != nil {
						t.Fatal(err)
					}
				}
			}

			// Phase 1: both subscribers connected.
			drive(50)
			part1 := drainNow(inter)
			var last uint64
			if len(part1) > 0 {
				last = part1[len(part1)-1].Cursor
			}
			inter.Close()

			// Phase 2: the interrupted subscriber is away.
			drive(50)

			// Phase 3: resume from the last consumed cursor, keep driving.
			resumed, err := w.Feed.Subscribe("YP", feed.SubOptions{Resume: true, From: last, Buffer: 4096})
			if err != nil {
				t.Fatal(err)
			}
			drive(20)
			if driven < 100 {
				t.Fatalf("drove only %d updates", driven)
			}
			part2 := drainNow(resumed)
			resumed.Close()
			cont.Close()
			contEvs := drainAll(cont)

			if len(contEvs) == 0 {
				t.Fatal("stream produced no view deltas — fixture too static")
			}
			got := append(append([]feed.Event(nil), part1...), part2...)
			if len(got) != len(contEvs) {
				t.Fatalf("interrupted subscriber saw %d events, continuous saw %d", len(got), len(contEvs))
			}
			for i := range got {
				if !sameEvent(got[i], contEvs[i]) {
					t.Fatalf("event %d: interrupted %+v != continuous %+v", i, got[i], contEvs[i])
				}
			}
			// Cursors must be exactly 1..N: no gaps, no duplicates.
			for i, ev := range contEvs {
				if ev.Cursor != uint64(i+1) {
					t.Fatalf("cursor %d at position %d", ev.Cursor, i)
				}
			}
			// Replaying the deltas over the initial membership must land on
			// the view's current membership.
			members, err := v.MV.Members()
			if err != nil {
				t.Fatal(err)
			}
			if got := applyEvents([]oem.OID{"P1"}, contEvs); !oem.SameMembers(got, members) {
				t.Fatalf("replayed membership %v != view %v", got, members)
			}
		})
	}
}

// TestFeedClusterViewsPublish verifies cluster member views publish their
// deltas under each reporting level, including the Level-1 recheck path.
func TestFeedClusterViewsPublish(t *testing.T) {
	for _, level := range []ReportLevel{Level1, Level2, Level3} {
		t.Run(level.String(), func(t *testing.T) {
			src, w, wc := newWCluster(t, level)
			young, err := w.Feed.Subscribe("YOUNG", feed.SubOptions{Buffer: 64})
			if err != nil {
				t.Fatal(err)
			}
			named, err := w.Feed.Subscribe("NAMED", feed.SubOptions{Buffer: 64})
			if err != nil {
				t.Fatal(err)
			}
			process := func(rs []*UpdateReport, err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range rs {
					if err := wc.ProcessReport(r); err != nil {
						t.Fatal(err)
					}
				}
			}
			// P1 ages out of YOUNG, stays in NAMED.
			process(src.Modify("A1", oem.Int(60)))
			evs := drainNow(young)
			if len(evs) != 1 || len(evs[0].Delete) != 1 || evs[0].Delete[0] != "P1" {
				t.Fatalf("YOUNG events = %+v", evs)
			}
			if evs := drainNow(named); len(evs) != 0 {
				t.Fatalf("NAMED got spurious events %+v", evs)
			}
			// Back under the threshold: P1 re-enters YOUNG.
			process(src.Modify("A1", oem.Int(30)))
			evs = drainNow(young)
			if len(evs) != 1 || len(evs[0].Insert) != 1 || evs[0].Insert[0] != "P1" {
				t.Fatalf("YOUNG re-entry events = %+v", evs)
			}
			young.Close()
			named.Close()
		})
	}
}

// TestFeedLevel1ModifyPublishes pins the WView recheck path: Level-1
// modify reports bypass the maintainer, so the view must publish its own
// synthesized deltas — once per membership change, never for no-ops.
func TestFeedLevel1ModifyPublishes(t *testing.T) {
	src, w, _ := fixture(t, Level1, ViewConfig{})
	sub, err := w.Feed.Subscribe("YP", feed.SubOptions{Buffer: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	process := func(rs []*UpdateReport, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if err := w.ProcessAll(rs); err != nil {
			t.Fatal(err)
		}
	}
	process(src.Modify("A1", oem.Int(60))) // P1 leaves
	process(src.Modify("A1", oem.Int(55))) // still out: no event
	process(src.Modify("A1", oem.Int(40))) // P1 returns
	evs := drainNow(sub)
	if len(evs) != 2 {
		t.Fatalf("events = %+v", evs)
	}
	if len(evs[0].Delete) != 1 || evs[0].Delete[0] != "P1" {
		t.Fatalf("first event = %+v", evs[0])
	}
	if len(evs[1].Insert) != 1 || evs[1].Insert[0] != "P1" {
		t.Fatalf("second event = %+v", evs[1])
	}
}

// startFeedServer builds a source served over TCP whose server exposes the
// changefeed of a warehouse maintaining views co-located with the source
// (the gsdbserve arrangement).
func startFeedServer(t *testing.T, ring int) (*Source, *Warehouse, *Server, string) {
	t.Helper()
	s := store.NewDefault()
	workload.PersonDB(s)
	src := NewSource("persons", s, "ROOT", Level2, NewTransport(0))
	src.DrainReports()
	w := New(src)
	w.Feed = feed.NewHub(feed.Options{RingSize: ring})
	if _, err := w.DefineView("YP", query.MustParse("SELECT ROOT.professor X WHERE X.age <= 45"), ViewConfig{}); err != nil {
		t.Fatal(err)
	}
	server := NewServer(src, ServerConfig{Feed: w.Feed})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = server.Serve(ln) }()
	t.Cleanup(server.Close)
	return src, w, server, ln.Addr().String()
}

// toggleA1 flips P1 in and out of the view n times, producing n feed
// events.
func toggleA1(t *testing.T, src *Source, w *Warehouse, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		val := int64(60) // leaves
		if i%2 == 1 {
			val = 30 // returns
		}
		rs, err := src.Modify("A1", oem.Int(val))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.ProcessAll(rs); err != nil {
			t.Fatal(err)
		}
	}
}

// dialYP subscribes to the YP feed alone, resuming after from when it
// is non-negative.
func dialYP(addr string, from int64, snapshot bool) (*FeedStream, error) {
	req := SubscribeRequest{Views: []string{"YP"}, Snapshot: snapshot, IOTimeout: 2 * time.Second}
	if from >= 0 {
		req.Froms = map[string]uint64{"YP": uint64(from)}
	}
	return DialMultiFeed(addr, req)
}

// nextEvent returns the next event on mc, skipping progress frames.
func nextEvent(mc *FeedStream) (feed.Event, error) {
	for {
		fr, err := mc.Next()
		if err != nil {
			return feed.Event{}, err
		}
		if fr.Event != nil {
			return *fr.Event, nil
		}
	}
}

// TestFeedOverTCP drives the subscribe connection mode end to end for a
// single view: handshake, live tailing, resume after disconnect, and
// the expired-cursor snapshot fallback.
func TestFeedOverTCP(t *testing.T) {
	src, w, _, addr := startFeedServer(t, 4)

	if _, err := DialMultiFeed(addr, SubscribeRequest{Views: []string{"NOPE"}}); err == nil {
		t.Fatal("subscribing to an unknown view succeeded")
	}

	fc, err := dialYP(addr, -1, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(fc.Views) != 1 || fc.Views[0].View != "YP" || fc.Views[0].Cursor != 0 || fc.Views[0].Snapshot != nil {
		t.Fatalf("hello = %+v", fc.Views)
	}
	toggleA1(t, src, w, 2)
	ev, err := nextEvent(fc)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Cursor != 1 || len(ev.Delete) != 1 || ev.Delete[0] != "P1" {
		t.Fatalf("event 1 = %+v", ev)
	}
	ev, err = nextEvent(fc)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Cursor != 2 || len(ev.Insert) != 1 || ev.Insert[0] != "P1" {
		t.Fatalf("event 2 = %+v", ev)
	}
	fc.Close()

	// Resume within the ring: no gaps, no duplicates.
	toggleA1(t, src, w, 2) // cursors 3, 4
	fc, err = dialYP(addr, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	for want := uint64(3); want <= 4; want++ {
		ev, err := nextEvent(fc)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Cursor != want {
			t.Fatalf("resumed cursor = %d, want %d", ev.Cursor, want)
		}
	}
	fc.Close()

	// Overflow the 4-slot ring while disconnected: plain resume must fail
	// with a cursor-expired error the client can distinguish.
	toggleA1(t, src, w, 8) // cursors 5..12; ring holds 9..12
	_, err = dialYP(addr, 4, false)
	if !errors.Is(err, feed.ErrCursorExpired) {
		t.Fatalf("expired resume error = %v", err)
	}

	// Snapshot fallback: full membership plus a tail from the snapshot
	// cursor.
	fc, err = dialYP(addr, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	snap := fc.Views[0].Snapshot
	if snap == nil {
		t.Fatal("no snapshot in fallback hello")
	}
	if snap.Cursor != 12 {
		t.Fatalf("snapshot cursor = %d", snap.Cursor)
	}
	// After an even number of toggles P1 is back in the view.
	if !oem.SameMembers(snap.Members, []oem.OID{"P1"}) {
		t.Fatalf("snapshot members = %v", snap.Members)
	}
	toggleA1(t, src, w, 1)
	ev, err = nextEvent(fc)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Cursor != 13 || len(ev.Delete) != 1 {
		t.Fatalf("post-snapshot event = %+v", ev)
	}
}

// TestFeedTCPFutureCursor pins the wire error for a cursor beyond the
// feed's head.
func TestFeedTCPFutureCursor(t *testing.T) {
	_, _, _, addr := startFeedServer(t, 16)
	_, err := dialYP(addr, 99, false)
	if err == nil || errors.Is(err, feed.ErrCursorExpired) {
		t.Fatalf("future resume error = %v", err)
	}
}

// TestFeedTCPNoViews pins the answer to a subscribe request that names
// no view: an error hello, then the server closes the connection.
func TestFeedTCPNoViews(t *testing.T) {
	_, _, _, addr := startFeedServer(t, 16)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write([]byte("subscribe\n{\"view\":\"YP\"}\n")); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	line, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	var hello feedHello
	if err := decodeFrame(line, &hello); err != nil {
		t.Fatal(err)
	}
	if hello.Err != errNoViews.Error() || len(hello.Views) != 0 {
		t.Fatalf("hello = %+v, want the no-views error", hello)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("read after error hello = %v, want io.EOF", err)
	}
}

// TestFeedTCPServerClose verifies closing the server terminates live
// subscribe streams rather than leaving clients hanging.
func TestFeedTCPServerClose(t *testing.T) {
	_, _, server, addr := startFeedServer(t, 16)
	fc, err := dialYP(addr, -1, false)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	server.Close()
	if _, err := nextEvent(fc); err == nil {
		t.Fatal("Next succeeded after server close")
	} else if err != io.EOF {
		// A reset is also acceptable; just require termination.
		t.Logf("stream ended with %v", err)
	}
}
