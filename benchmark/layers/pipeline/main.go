// Command pipeline is the traced run: it replays a workload's update
// stream in this process as one pipeline — stream step (store commit),
// report enrichment, WAL append (durable workload only),
// Warehouse.ProcessReport, and then, separately on the same update,
// Registry.Apply, Hub.Publish, JSON encoding of the feed frame, a loopback
// socket and decoding — with a span around every call. Every other update
// is traced, so that traced and untraced time are compared on the same warm
// process and the same stretch of the stream (whole passes, and even blocks
// of a hundred updates, differed by more than tracing costs); it prints
// per-layer self time per update and writes the spans to a file.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"gsv/benchmark/internal/probe"
	"gsv/benchmark/internal/span"
	"gsv/benchmark/internal/views"
	"gsv/internal/core"
	"gsv/internal/feed"
	"gsv/internal/oem"
	"gsv/internal/query"
	"gsv/internal/store"
	"gsv/internal/wal"
	"gsv/internal/warehouse"
)

// steps is how many stream steps are replayed, every other one traced.
const steps = 2400

type published struct {
	view oem.OID
	u    store.Update
	d    core.Deltas
}

// echo is the far end of the loopback socket: it reads one frame, decodes
// it and reports when each of the two finished.
type echo struct {
	readAt, decodedAt int64
}

// tally is the time per update of every stream step run one way, and the
// number of updates those steps made.
type tally struct {
	nsPerUpdate []float64
	updates     int
}

// perUpdate is robust against the odd stalled step (a collection, a slow
// flush), which would otherwise decide the comparison of the two tallies.
func (t tally) perUpdate() float64 { return probe.MedianOfMeans(t.nsPerUpdate, 50) }

// replay runs the pipeline over the stream, recording spans into recorder
// for every other update, and returns the traced and untraced tallies.
func replay(cfg *probe.Config, durable bool, recorder *span.Recorder) (traced, untraced tally) {
	// Primary side: base store, source, warehouse with the eight views.
	fx := probe.NewFixture(cfg)
	src := warehouse.NewSource("pipeline", fx.Store, fx.DB.Root, warehouse.Level2, warehouse.NewTransport(0))
	src.DrainReports()
	w := warehouse.New(src)
	for _, v := range views.Names() {
		_, err := w.DefineView(v, query.MustParse(views.Query(v)), warehouse.ViewConfig{Screening: true})
		probe.Must(err)
	}
	var log *wal.Log
	if durable {
		var err error
		log, err = wal.OpenLog(cfg.TempDir("pipeline-wal-"), wal.Options{Policy: wal.SyncAlways})
		probe.Must(err)
		defer log.Close()
	}
	stream := fx.Stream()

	// The same updates again, for the layers ProcessReport calls inside
	// itself: a registry over a second copy of the base, and a hub with
	// one draining subscriber.
	fx2 := probe.NewFixture(cfg)
	reg := core.NewRegistry(fx2.Store)
	reg.SetScreening(true)
	for _, v := range views.Names() {
		_, err := reg.Define(fmt.Sprintf("define mview %s as: %s", v, views.Query(v)))
		probe.Must(err)
	}
	var deltas []published
	reg.SetObserver(func(view oem.OID, u store.Update, d core.Deltas) {
		if !d.Empty() {
			deltas = append(deltas, published{view, u, d})
		}
	})
	stream2 := fx2.Stream()
	hub := feed.NewHub(feed.Options{RingSize: 1024})
	var wg sync.WaitGroup
	for _, v := range views.Names() {
		hub.RegisterView(v, nil)
		sub, err := hub.Subscribe(v, feed.SubOptions{})
		probe.Must(err)
		defer sub.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range sub.Events() {
			}
		}()
	}

	// Loopback socket with a decoding reader on the far end; it reads the
	// recorder's clock whether or not the update is traced.
	clock := recorder
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	probe.Must(err)
	defer ln.Close()
	echoes := make(chan echo, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		for {
			line, err := br.ReadBytes('\n')
			if err != nil {
				return
			}
			e := echo{readAt: clock.Now()}
			var fr warehouse.FeedFrame
			probe.Must(json.Unmarshal(line, &fr))
			e.decodedAt = clock.Now()
			echoes <- e
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	probe.Must(err)
	defer conn.Close()

	for i := 0; i < steps; i++ {
		// The second copy's commit is not part of the pipeline: take it
		// before the clock starts and the update's root span opens.
		us2, _ := stream2.Next()
		// Every other update is traced; a nil recorder makes every
		// Begin/End below a no-op.
		var rec *span.Recorder
		mine := &untraced
		if i%2 == 1 {
			rec, mine = recorder, &traced
		}
		t0 := time.Now()
		root := rec.Begin("pipeline", "update", -1, 0)

		s := rec.Begin("store", "commit", root, 0)
		us, ok := stream.Next()
		rec.End(s)
		if !ok {
			probe.Fatal(fmt.Errorf("update stream exhausted"))
		}
		id := us[len(us)-1].Seq
		mine.updates += len(us)

		s = rec.Begin("warehouse", "enrich", root, 0)
		reports := src.DrainReports()
		rec.End(s)

		if log != nil {
			s = rec.Begin("wal", "append", root, 0)
			probe.Must(log.Append(us...))
			rec.End(s)
		}
		for _, r := range reports {
			s = rec.Begin("warehouse", "process_report", root, 0)
			probe.Must(w.ProcessReport(r))
			rec.End(s)
		}

		deltas = deltas[:0]
		for _, u := range us2 {
			s = rec.Begin("core", "apply", root, 0)
			probe.Must(reg.Apply(u))
			rec.End(s)
		}
		for _, p := range deltas {
			s = rec.Begin("feed", "publish", root, 0)
			cursor := hub.Publish(string(p.view), p.u, p.d)
			rec.End(s)

			ev := feed.Event{View: string(p.view), Cursor: cursor, Seq: p.u.Seq, Kind: p.u.Kind.String(),
				N1: p.u.N1, N2: p.u.N2, Insert: p.d.Insert, Delete: p.d.Delete,
				Origin: time.Now().UnixNano(), TraceID: fmt.Sprintf("pipeline-%d", p.u.Seq)}
			s = rec.Begin("codec", "encode", root, 0)
			frame, err := json.Marshal(warehouse.FeedFrame{Event: &ev})
			rec.End(s)
			probe.Must(err)

			sent := rec.Now()
			_, err = conn.Write(append(frame, '\n'))
			probe.Must(err)
			e := <-echoes
			rec.Add(span.Span{Layer: "socket", Op: "loopback", Start: sent, End: e.readAt, Parent: root})
			rec.Add(span.Span{Layer: "codec", Op: "decode", Start: e.readAt, End: e.decodedAt, Parent: root})
		}
		rec.End(root)
		rec.SetID(root, id)
		mine.nsPerUpdate = append(mine.nsPerUpdate, float64(time.Since(t0).Nanoseconds())/float64(len(us)))
	}
	return traced, untraced
}

func main() {
	cfg := probe.Flags()
	name := flag.String("workload", "propagate", "workload whose stream is replayed (names the trace)")
	durable := flag.Bool("durable", false, "append every update to a WAL with fsync, as the durable workload does")
	out := flag.String("out", "", "file to write the spans to")
	flag.Parse()
	res := probe.NewResult()

	rec := span.NewRecorder()
	traced, untraced := replay(cfg, *durable, rec)
	updates := traced.updates

	self := span.SelfTimes(rec.Spans)
	var total int64
	for _, s := range rec.Spans {
		if s.Parent < 0 {
			total += s.End - s.Start
		}
	}
	perUpdUS := func(ns int64) float64 { return float64(ns) / float64(updates) / 1e3 }
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Printf("# trace %s: %d updates, %d spans; self time per update\n", *name, updates, len(rec.Spans))
	var sum int64
	for _, l := range layers {
		fmt.Printf("#   %-10s %9.2f us  %5.1f%%\n", l, perUpdUS(self[l]), 100*float64(self[l])/float64(total))
		sum += self[l]
	}
	fmt.Printf("#   %-10s %9.2f us  (pipeline total %.2f us)\n", "sum", perUpdUS(sum), perUpdUS(total))
	fmt.Printf("# wall clock per update: traced %.2f us, untraced %.2f us\n", traced.perUpdate()/1e3, untraced.perUpdate()/1e3)

	res.Set("trace.total_us", perUpdUS(total), "us", updates)
	for _, l := range []string{"store", "wal", "warehouse", "core", "feed", "codec", "socket", "pipeline"} {
		res.Set("trace."+l+"_self_us", perUpdUS(self[l]), "us", updates)
	}
	res.Set("trace.overhead_share", (traced.perUpdate()-untraced.perUpdate())/untraced.perUpdate(), "ratio", updates)

	if *out != "" {
		f, err := os.Create(*out)
		probe.Must(err)
		enc := json.NewEncoder(f)
		probe.Must(enc.Encode(struct {
			Workload string      `json:"workload"`
			Updates  int         `json:"updates"`
			Spans    []span.Span `json:"spans"`
		}{*name, updates, rec.Spans}))
		probe.Must(f.Close())
	}
	res.Print()
}
