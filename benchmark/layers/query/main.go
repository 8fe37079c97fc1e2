// Command query probes internal/query: parsing a view definition and
// scanning it over the sample base, with the work the scan did per result.
package main

import (
	"flag"
	"time"

	"gsv/benchmark/internal/probe"
	"gsv/benchmark/internal/views"
	"gsv/internal/oem"
	"gsv/internal/query"
)

var (
	sinkQuery *query.Query
	sinkOIDs  []oem.OID
)

func main() {
	cfg := probe.Flags()
	flag.Parse()
	res := probe.NewResult()
	fx := probe.NewFixture(cfg)
	def := views.Query("V0_30")

	ns, n := probe.PerOp(100*time.Millisecond, 64, func() {
		var err error
		sinkQuery, err = query.Parse(def)
		probe.Must(err)
	})
	res.Set("query.parse_us", ns/1e3, "us", n)

	q := query.MustParse(def)
	ev := query.NewEvaluator(fx.Store)
	ns, n = probe.PerOp(500*time.Millisecond, 1, func() {
		var err error
		sinkOIDs, err = ev.Eval(q)
		probe.Must(err)
	})
	res.Set("query.scan_ms", ns/1e6, "ms", n)

	stats := &query.Stats{}
	counted := &query.Evaluator{Store: fx.Store, Stats: stats}
	results, err := counted.Eval(q)
	probe.Must(err)
	res.Set("query.visited_per_result", float64(stats.ObjectsVisited)/float64(len(results)), "count", len(results))
	res.Print()
}
