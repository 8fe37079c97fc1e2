package gsv_test

// The capstone cross-strategy consistency test: every maintenance
// implementation in the repository — Algorithm 1, the generalized
// maintainer, the DAG variant, full recomputation, the relational
// counting baseline, a view cluster member, a partial view, a count
// aggregate, and the warehouse at every (report level × cache) setting
// including over real TCP — observes the same update stream, and all of
// them must agree on the view membership at every checkpoint.

import (
	"fmt"
	"net"
	"testing"

	"gsv/internal/core"
	"gsv/internal/oem"
	"gsv/internal/query"
	"gsv/internal/relstore"
	"gsv/internal/store"
	"gsv/internal/warehouse"
	"gsv/internal/workload"
)

const consistencyView = "SELECT REL.r0.tuple X WHERE X.age > 40"

// strategy is one maintained implementation under test.
type strategy struct {
	name    string
	apply   func(u store.Update) error
	members func() ([]oem.OID, error)
}

func TestAllStrategiesAgree(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			base := store.NewDefault()
			db := workload.RelationLike(base, workload.RelationConfig{
				Relations: 2, TuplesPerRelation: 5, FieldsPerTuple: 2, Seed: seed,
			})
			def, ok := core.Simplify(query.MustParse(consistencyView))
			if !ok {
				t.Fatal("not simple")
			}

			var strategies []strategy
			addMV := func(name string, mk func(mv *core.MaterializedView) (core.Maintainer, error)) {
				vstore := store.New(store.Options{ParentIndex: true, LabelIndex: true, AllowDangling: true})
				mv, err := core.Materialize(oem.OID(name), query.MustParse(consistencyView), base, vstore)
				if err != nil {
					t.Fatal(err)
				}
				m, err := mk(mv)
				if err != nil {
					t.Fatal(err)
				}
				strategies = append(strategies, strategy{
					name:    name,
					apply:   m.Apply,
					members: mv.Members,
				})
			}
			addMV("simple", func(mv *core.MaterializedView) (core.Maintainer, error) {
				return core.NewSimpleMaintainer(mv, core.NewCentralAccess(base))
			})
			addMV("general", func(mv *core.MaterializedView) (core.Maintainer, error) {
				mv.Base = base
				return core.NewGeneralMaintainer(mv)
			})
			addMV("dag", func(mv *core.MaterializedView) (core.Maintainer, error) {
				return core.NewDagMaintainer(mv, core.NewCentralAccess(base))
			})
			addMV("recompute", func(mv *core.MaterializedView) (core.Maintainer, error) {
				mv.Base = base
				return recomputeAdapter{mv}, nil
			})

			// Relational counting baseline.
			rel, err := relstore.NewGSDBView(base, def)
			if err != nil {
				t.Fatal(err)
			}
			strategies = append(strategies, strategy{
				name:    "relational",
				apply:   func(u store.Update) error { rel.Apply(u); return nil },
				members: func() ([]oem.OID, error) { return rel.MemberOIDs(), nil },
			})

			// Cluster member (shares delegates with a second view).
			clStore := store.New(store.Options{ParentIndex: true, LabelIndex: true, AllowDangling: true})
			cl := core.NewClusterWith("CL", clStore, core.ClusterBackend{
				Evaluate: func(q *query.Query) ([]oem.OID, error) {
					return query.NewEvaluator(base).Eval(q)
				},
				Fetch:  base.Get,
				Access: core.NewCentralAccess(base),
			})
			if err := cl.AddView("CV", query.MustParse(consistencyView)); err != nil {
				t.Fatal(err)
			}
			if err := cl.AddView("CV2", query.MustParse("SELECT REL.r0.tuple X WHERE X.age > 10")); err != nil {
				t.Fatal(err)
			}
			strategies = append(strategies, strategy{
				name:    "cluster",
				apply:   cl.Apply,
				members: func() ([]oem.OID, error) { return cl.Members("CV") },
			})

			// Partial view (depth 1): membership must match.
			pvStore := store.New(store.Options{ParentIndex: true, LabelIndex: true, AllowDangling: true})
			pv, err := core.NewPartialView("PV", def, 1, base, pvStore)
			if err != nil {
				t.Fatal(err)
			}
			strategies = append(strategies, strategy{
				name:    "partial",
				apply:   pv.Apply,
				members: pv.Members,
			})

			// Warehouse configurations over the simulated transport.
			var warehouses []*warehouse.Warehouse
			var sources []*warehouse.Source
			for _, level := range []warehouse.ReportLevel{warehouse.Level1, warehouse.Level2, warehouse.Level3} {
				for _, mode := range []warehouse.CacheMode{warehouse.CacheNone, warehouse.CacheFull} {
					name := fmt.Sprintf("wh-%s-%s", level, mode)
					src := warehouse.NewSource(name, base, "REL", level, warehouse.NewTransport(0))
					src.DrainReports()
					w := warehouse.New(src)
					v, err := w.DefineView("WV", query.MustParse(consistencyView),
						warehouse.ViewConfig{Screening: level >= warehouse.Level2, Cache: mode})
					if err != nil {
						t.Fatal(err)
					}
					warehouses = append(warehouses, w)
					sources = append(sources, src)
					strategies = append(strategies, strategy{
						name:    name,
						apply:   nil, // fed via reports below
						members: v.MV.Members,
					})
				}
			}

			// Warehouse over real TCP.
			tcpSrc := warehouse.NewSource("tcp", base, "REL", warehouse.Level2, warehouse.NewTransport(0))
			tcpSrc.DrainReports()
			server := warehouse.NewServer(tcpSrc, warehouse.ServerConfig{})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go func() { _ = server.Serve(ln) }()
			defer server.Close()
			remote, err := warehouse.Dial("tcp", ln.Addr().String(), warehouse.NewTransport(0))
			if err != nil {
				t.Fatal(err)
			}
			defer remote.Close()
			tcpW := warehouse.New(remote)
			tcpV, err := tcpW.DefineView("WV", query.MustParse(consistencyView),
				warehouse.ViewConfig{Screening: true})
			if err != nil {
				t.Fatal(err)
			}
			strategies = append(strategies, strategy{
				name:    "wh-tcp",
				members: tcpV.MV.Members,
			})

			// Aggregate count: must equal the membership cardinality.
			aggStore := store.New(store.Options{ParentIndex: true, AllowDangling: true})
			agg, err := core.NewAggregateView("AGG",
				core.AggDef{Base: def, Op: core.AggCount}, base, aggStore)
			if err != nil {
				t.Fatal(err)
			}

			var sets, atoms []oem.OID
			for _, r := range db.Relations {
				sets = append(sets, r.OID)
				sets = append(sets, r.Tuples...)
				for _, tu := range r.Tuples {
					kids, _ := base.Children(tu)
					atoms = append(atoms, kids...)
				}
			}
			stream := workload.NewStream(base, workload.StreamConfig{
				Seed: seed + 13, Mix: workload.Mix{Insert: 3, Delete: 2, Modify: 5}, ValueRange: 90,
			}, sets, atoms)

			for step := 0; step < 60; step++ {
				before := base.Seq()
				if _, ok := stream.Next(); !ok {
					break
				}
				updates := base.LogSince(before)
				for _, u := range updates {
					for _, st := range strategies {
						if st.apply == nil {
							continue
						}
						if err := st.apply(u); err != nil {
							t.Fatalf("step %d %s %s: %v", step, st.name, u, err)
						}
					}
					if err := agg.Apply(u); err != nil {
						t.Fatalf("step %d aggregate: %v", step, err)
					}
				}
				for i, w := range warehouses {
					if err := w.ProcessAll(sources[i].DrainReports()); err != nil {
						t.Fatalf("step %d %v: %v", step, sources[i].ID(), err)
					}
				}
				raw := tcpSrc.DrainReports()
				if err := server.Broadcast(raw); err != nil {
					t.Fatal(err)
				}
				if err := tcpW.ProcessAll(remote.WaitReports(len(raw))); err != nil {
					t.Fatalf("step %d tcp warehouse: %v", step, err)
				}

				if step%6 != 0 && step != 59 {
					continue
				}
				want, err := query.NewEvaluator(base).Eval(query.MustParse(consistencyView))
				if err != nil {
					t.Fatal(err)
				}
				for _, st := range strategies {
					got, err := st.members()
					if err != nil {
						t.Fatalf("step %d %s members: %v", step, st.name, err)
					}
					if !oem.SameMembers(got, want) {
						t.Fatalf("step %d: strategy %s diverged:\n got %v\nwant %v",
							step, st.name, got, want)
					}
				}
				count, err := agg.Value()
				if err != nil {
					t.Fatal(err)
				}
				if !count.Equal(oem.Int(int64(len(want)))) {
					t.Fatalf("step %d: aggregate count %v != |view| %d", step, count, len(want))
				}
			}
		})
	}
}

type recomputeAdapter struct{ mv *core.MaterializedView }

func (r recomputeAdapter) Apply(store.Update) error { return r.mv.Recompute() }
