// Command pathexpr probes internal/pathexpr: parsing, and evaluation of a
// constant path and of a wildcard path over the sample base.
package main

import (
	"flag"
	"fmt"
	"time"

	"gsv/benchmark/internal/probe"
	"gsv/internal/oem"
	"gsv/internal/pathexpr"
	"gsv/internal/store"
)

var (
	sinkExpr pathexpr.Expr
	sinkOIDs []oem.OID
)

// graph adapts a store to pathexpr.Graph the way query.Evaluator does.
func graph(s *store.Store) pathexpr.Graph {
	return pathexpr.GraphFunc(func(oid oem.OID) []pathexpr.Neighbor {
		kids, err := s.Children(oid)
		if err != nil {
			return nil
		}
		nbs := make([]pathexpr.Neighbor, 0, len(kids))
		for _, c := range kids {
			if l, err := s.Label(c); err == nil {
				nbs = append(nbs, pathexpr.Neighbor{Label: l, To: c})
			}
		}
		return nbs
	})
}

func main() {
	cfg := probe.Flags()
	flag.Parse()
	res := probe.NewResult()
	fx := probe.NewFixture(cfg)
	g := graph(fx.Store)
	root := []oem.OID{fx.DB.Root}

	ns, n := probe.PerOp(100*time.Millisecond, 256, func() { sinkExpr, _ = pathexpr.Parse("?.tuple.age") })
	res.Set("pathexpr.parse_ns", ns, "ns", n)

	constPath := pathexpr.MustParsePath("r0.tuple")
	ns, n = probe.PerOp(200*time.Millisecond, 1, func() { sinkOIDs = pathexpr.EvalPath(g, root, constPath) })
	if len(sinkOIDs) != cfg.Tuples {
		probe.Fatal(fmt.Errorf("REL.r0.tuple reached %d objects, want %d", len(sinkOIDs), cfg.Tuples))
	}
	res.Set("pathexpr.eval_const_us", ns/1e3, "us", n)

	wild := pathexpr.MustParse("?.tuple.age")
	ns, n = probe.PerOp(300*time.Millisecond, 1, func() { sinkOIDs = pathexpr.Eval(g, root, wild) })
	if len(sinkOIDs) != 2*cfg.Tuples {
		probe.Fatal(fmt.Errorf("REL.?.tuple.age reached %d objects, want %d", len(sinkOIDs), 2*cfg.Tuples))
	}
	res.Set("pathexpr.eval_wild_us", ns/1e3, "us", n)
	res.Print()
}
