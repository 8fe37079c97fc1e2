// Command warehouse probes the in-process part of internal/warehouse:
// Warehouse.ProcessReport for Level 2 reports from a local Source, over
// the eight benchmark views with one draining subscriber per view — what
// gsdbserve's drive loop does per update, minus the wire.
package main

import (
	"flag"
	"fmt"
	"sync"
	"time"

	"gsv/benchmark/internal/probe"
	"gsv/benchmark/internal/views"
	"gsv/internal/feed"
	"gsv/internal/query"
	"gsv/internal/warehouse"
)

func main() {
	cfg := probe.Flags()
	flag.Parse()
	res := probe.NewResult()
	fx := probe.NewFixture(cfg)
	src := warehouse.NewSource("probe", fx.Store, fx.DB.Root, warehouse.Level2, warehouse.NewTransport(0))
	src.DrainReports()
	w := warehouse.New(src)
	w.Feed = feed.NewHub(feed.Options{RingSize: 1024})
	var wg sync.WaitGroup
	for _, v := range views.Names() {
		_, err := w.DefineView(v, query.MustParse(views.Query(v)), warehouse.ViewConfig{Screening: true})
		probe.Must(err)
		sub, err := w.Feed.Subscribe(v, feed.SubOptions{})
		probe.Must(err)
		defer sub.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range sub.Events() {
			}
		}()
	}
	stream := fx.Stream()
	var per []float64
	for stop := time.Now().Add(500 * time.Millisecond); time.Now().Before(stop); {
		if _, ok := stream.Next(); !ok {
			probe.Fatal(fmt.Errorf("update stream exhausted"))
		}
		for _, r := range src.DrainReports() {
			t0 := time.Now()
			probe.Must(w.ProcessReport(r))
			per = append(per, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	res.Set("warehouse.process_report_us", probe.MedianOfMeans(per, 50), "us", len(per))
	res.Print()
}
