package warehouse

import (
	"bufio"
	"encoding/json"
	"io"
	"net"
	"testing"
	"time"

	"gsv/internal/oem"
	"gsv/internal/query"
	"gsv/internal/store"
)

// fastOptions are DialOptions tuned for tests: real retries and redial
// but with millisecond backoffs so failures resolve quickly.
func fastOptions() DialOptions {
	return DialOptions{
		IOTimeout: 2 * time.Second,
		Retry: RetryPolicy{
			MaxAttempts: 10, BaseDelay: time.Millisecond,
			MaxDelay: 20 * time.Millisecond, Multiplier: 2, Jitter: 0.2,
		},
		Redial: RetryPolicy{
			MaxAttempts: 500, BaseDelay: time.Millisecond,
			MaxDelay: 10 * time.Millisecond, Multiplier: 2, Jitter: 0.2,
		},
		Seed: 7,
	}
}

// restartServer rebinds addr (retrying through TIME_WAIT) and serves src
// on a fresh Server.
func restartServer(t *testing.T, src *Source, addr string) *Server {
	t.Helper()
	var ln net.Listener
	var err error
	for try := 0; ; try++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if try > 100 {
			t.Fatalf("rebinding %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	server := NewServer(src, ServerConfig{})
	go func() { _ = server.Serve(ln) }()
	t.Cleanup(server.Close)
	return server
}

// TestNetQuerySurvivesServerRestart is the "one failure must not poison
// the connection" regression test: a fetch that dies mid-exchange (the
// server went away) is retried on a fresh connection, and after the
// server returns, the same RemoteSource keeps answering — no desynced
// encoder/decoder, no manual re-dial.
func TestNetQuerySurvivesServerRestart(t *testing.T) {
	s := store.NewDefault()
	s.MustPut(oem.NewAtom("A1", "age", oem.Int(45)))
	src := NewSource("persons", s, "ROOT", Level2, NewTransport(0))
	src.DrainReports()
	server := NewServer(src, ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	go func() { _ = server.Serve(ln) }()

	remote, err := DialWithOptions("persons", addr, NewTransport(0), fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	if _, err := remote.FetchObject("A1"); err != nil {
		t.Fatalf("fetch before restart: %v", err)
	}

	server.Close()
	restartServer(t, src, addr)

	// The query connection is dead; the retry loop must redial and
	// answer this from the restarted server.
	o, err := remote.FetchObject("A1")
	if err != nil {
		t.Fatalf("fetch after restart: %v", err)
	}
	if o.Label != "age" {
		t.Fatalf("fetched %v", o)
	}
	ws := remote.WireStats()
	if ws.QueryReconnects == 0 {
		t.Fatalf("no query reconnect recorded: %+v", ws)
	}
}

// TestNetReportStreamReconnectRecordsGap: a server restart while the
// report stream is up must (a) redial the stream automatically and (b)
// flag the outage as a gap — broadcasts during the outage are
// unrecoverable.
func TestNetReportStreamReconnectRecordsGap(t *testing.T) {
	s := store.NewDefault()
	s.MustPut(oem.NewSet("ROOT", "root"))
	src := NewSource("persons", s, "ROOT", Level2, NewTransport(0))
	src.DrainReports()
	server := NewServer(src, ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	go func() { _ = server.Serve(ln) }()

	remote, err := DialWithOptions("persons", addr, NewTransport(0), fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	// One report through the first server incarnation.
	s.MustPut(oem.NewAtom("X1", "x", oem.Int(1)))
	if err := server.Broadcast(src.DrainReports()); err != nil {
		t.Fatal(err)
	}
	if got, ok := remote.WaitReportsTimeout(1, 5*time.Second); !ok {
		t.Fatalf("first report missing: %v", got)
	}

	server.Close()
	// Updates while down: their reports are lost.
	s.MustPut(oem.NewAtom("X2", "x", oem.Int(2)))
	src.DrainReports()
	server2 := restartServer(t, src, addr)

	// Wait for the client to re-register, then broadcast through the new
	// incarnation.
	deadline := time.Now().Add(10 * time.Second)
	for remote.WireStats().ReportReconnects == 0 {
		if time.Now().After(deadline) {
			t.Fatal("report stream never reconnected")
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.MustPut(oem.NewAtom("X3", "x", oem.Int(3)))
	if err := server2.Broadcast(src.DrainReports()); err != nil {
		t.Fatal(err)
	}
	if _, ok := remote.WaitReportsTimeout(1, 5*time.Second); !ok {
		t.Fatal("report after reconnect missing")
	}
	if seq, gapped := remote.TakeGap(); !gapped {
		t.Fatal("no gap recorded across restart")
	} else if seq == 0 {
		t.Fatal("gap recorded with zero last-seq")
	}
	// The gap is consumed exactly once.
	if _, gapped := remote.TakeGap(); gapped {
		t.Fatal("gap not cleared by TakeGap")
	}
}

// TestWaitReportsTimeoutExpires: the timeout variant returns (empty,
// false) instead of blocking forever when no reports arrive.
func TestWaitReportsTimeoutExpires(t *testing.T) {
	_, _, remote := startNetSource(t, Level2)
	start := time.Now()
	got, ok := remote.WaitReportsTimeout(1, 50*time.Millisecond)
	if ok || len(got) != 0 {
		t.Fatalf("WaitReportsTimeout = %v, %v", got, ok)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
}

// fakeReportServer speaks just enough of the protocol to feed the client
// hand-crafted report frames: it accepts the query connection silently
// and serves the given raw lines on the reports connection.
func fakeReportServer(t *testing.T, lines [][]byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				br := bufio.NewReader(conn)
				mode, err := br.ReadString('\n')
				if err != nil {
					conn.Close()
					return
				}
				if mode != "reports\n" {
					// Hold the query connection open, answering nothing.
					_, _ = io.Copy(io.Discard, br)
					conn.Close()
					return
				}
				_, _ = io.WriteString(conn, "ready\n")
				for _, l := range lines {
					_, _ = conn.Write(append(l, '\n'))
				}
				// Keep the stream open so the client does not redial.
				buf := make([]byte, 1)
				_, _ = conn.Read(buf)
				conn.Close()
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// TestNetBadReportFramesCounted: malformed report frames are skipped but
// counted, with the last decode error retained — they are no longer
// silently dropped.
func TestNetBadReportFramesCounted(t *testing.T) {
	good, err := json.Marshal(&UpdateReport{
		Source: "persons", Level: Level2,
		Update: store.Update{Seq: 1, Kind: store.UpdateModify, N1: "A1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := fakeReportServer(t, [][]byte{
		[]byte("this is not json"),
		[]byte(`{"truncated":`),
		good,
	})
	remote, err := DialWithOptions("persons", addr, NewTransport(0), fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	reports, ok := remote.WaitReportsTimeout(1, 5*time.Second)
	if !ok || len(reports) != 1 || reports[0].Update.Seq != 1 {
		t.Fatalf("reports = %v, ok=%v", reports, ok)
	}
	ws := remote.WireStats()
	if ws.BadFrames != 2 {
		t.Fatalf("bad frames = %d, want 2", ws.BadFrames)
	}
	if ws.LastDecodeErr == "" {
		t.Fatal("last decode error not retained")
	}
}

// TestCheckTailFlagsLostTrailingReport: the in-stream discontinuity
// check can never see a dropped *final* report — no later report
// arrives to reveal the jump. CheckTail closes that hole by comparing
// the stream position against the sequence query responses prove the
// source reached, with one check of grace for frames still in flight.
func TestCheckTailFlagsLostTrailingReport(t *testing.T) {
	src, server, remote := startNetSource(t, Level2)

	// Establish a stream position.
	reports, err := src.Modify("A1", oem.Int(50))
	if err != nil {
		t.Fatal(err)
	}
	if err := server.Broadcast(reports); err != nil {
		t.Fatal(err)
	}
	if _, ok := remote.WaitReportsTimeout(1, 5*time.Second); !ok {
		t.Fatal("first report missing")
	}

	// A delayed (not lost) frame must not flag: raise suspicion, then
	// let the report arrive before the confirming check.
	if reports, err = src.Modify("A1", oem.Int(40)); err != nil {
		t.Fatal(err)
	}
	if _, err := remote.FetchObject("P1"); err != nil { // lastSeq runs ahead
		t.Fatal(err)
	}
	remote.CheckTail()
	if err := server.Broadcast(reports); err != nil {
		t.Fatal(err)
	}
	if _, ok := remote.WaitReportsTimeout(1, 5*time.Second); !ok {
		t.Fatal("delayed report missing")
	}
	remote.CheckTail()
	if _, gapped := remote.TakeGap(); gapped {
		t.Fatal("gap flagged for a frame that was merely delayed")
	}

	// Now actually lose the trailing report.
	if _, err := src.Modify("A1", oem.Int(45)); err != nil {
		t.Fatal(err)
	}
	src.DrainReports() // never broadcast: the frame is dropped
	if _, err := remote.FetchObject("P1"); err != nil {
		t.Fatal(err)
	}
	remote.CheckTail() // suspicion
	if _, gapped := remote.TakeGap(); gapped {
		t.Fatal("gap flagged without the grace check")
	}
	remote.CheckTail() // confirmation
	seq, gapped := remote.TakeGap()
	if !gapped {
		t.Fatal("lost trailing report not flagged as a gap")
	}
	if seq == 0 {
		t.Fatal("tail gap recorded with zero last-seq")
	}
	if remote.wire.Gaps.Value() == 0 {
		t.Fatal("tail gap not counted in gsv_remote_gaps_total")
	}
	// The report cursor jumped forward, so the same lost tail is not
	// re-flagged forever.
	remote.CheckTail()
	remote.CheckTail()
	if _, gapped := remote.TakeGap(); gapped {
		t.Fatal("same lost tail flagged twice")
	}
}

// TestWarehouseQuarantinesLostTrailingReport drills the full repair
// path the shard soak depends on: a view silently missing the last
// update (its report was dropped in flight) must go Stale once the
// tail check fires — even on an empty maintenance round — and a resync
// must restore the true membership.
func TestWarehouseQuarantinesLostTrailingReport(t *testing.T) {
	src, server, remote := startNetSource(t, Level2)
	w := New(remote)
	v, err := w.DefineView("YP", query.MustParse("SELECT ROOT.professor X WHERE X.age <= 45"),
		ViewConfig{Screening: true})
	if err != nil {
		t.Fatal(err)
	}

	// One maintained round so the stream has a position: P1 leaves.
	reports, err := src.Modify("A1", oem.Int(50))
	if err != nil {
		t.Fatal(err)
	}
	if err := server.Broadcast(reports); err != nil {
		t.Fatal(err)
	}
	got, ok := remote.WaitReportsTimeout(len(reports), 5*time.Second)
	if !ok {
		t.Fatal("report missing")
	}
	if err := w.ProcessBatch(got); err != nil {
		t.Fatal(err)
	}
	if members, _ := v.MV.Members(); len(members) != 0 {
		t.Fatalf("after modify = %v", members)
	}

	// P1 rejoins, but the report is lost in flight: the view is wrong
	// and Fresh — the silent miss.
	if _, err := src.Modify("A1", oem.Int(45)); err != nil {
		t.Fatal(err)
	}
	src.DrainReports()
	if members, _ := v.MV.Members(); len(members) != 0 {
		t.Fatalf("view saw the dropped report? %v", members)
	}

	// Quiet maintenance rounds: a probe teaches the client the true
	// sequence, the tail check confirms the loss, and even an empty
	// batch must absorb the gap into staleness.
	for i := 0; i < 2 && len(w.StaleViews()) == 0; i++ {
		if _, err := remote.FetchObject("P1"); err != nil {
			t.Fatal(err)
		}
		remote.CheckTail()
		if err := w.ProcessBatch(remote.DrainReports()); err != nil {
			t.Fatal(err)
		}
	}
	if stale := w.StaleViews(); len(stale) != 1 || stale[0] != "YP" {
		t.Fatalf("StaleViews = %v, want [YP]", stale)
	}
	if n, err := w.RepairAll(); err != nil || n != 1 {
		t.Fatalf("RepairAll = %d, %v", n, err)
	}
	if members, _ := v.MV.Members(); !oem.SameMembers(members, []oem.OID{"P1"}) {
		t.Fatalf("after repair = %v, want [P1]", members)
	}
}
