package experiments

import (
	"net"

	"gsv/internal/oem"
	"gsv/internal/query"
	"gsv/internal/store"
	"gsv/internal/warehouse"
	"gsv/internal/workload"
)

// E11WireValidation replays the same update stream through the in-process
// simulated transport and through the real TCP protocol, and compares the
// communication counts. The query-back counts must match exactly — the
// maintenance logic is identical — which validates that every simulated
// number in E4/E5 corresponds one-for-one to a real message; byte counts
// differ by the JSON framing factor, reported for calibration.
func E11WireValidation(cfg Config) *Table {
	t := &Table{
		ID:    "E11",
		Title: "simulated transport vs real TCP wire (validation)",
		Caption: "The same stream maintained through the in-process transport and " +
			"through Server/Dial over a loopback socket. Identical query-back " +
			"counts validate the simulation; the byte ratio calibrates the " +
			"simulator's size estimates against JSON framing.",
		Headers: []string{"mode", "updates", "queries/upd", "objects/upd", "bytes/upd"},
	}
	tuples := 60 * cfg.Scale
	updates := max(30, cfg.Updates/4)

	type result struct {
		updates                 int
		queries, objects, bytes float64
	}

	run := func(overTCP bool) result {
		s := store.NewDefault()
		db := workload.RelationLike(s, workload.RelationConfig{
			Relations: 2, TuplesPerRelation: tuples, FieldsPerTuple: 3, Seed: cfg.Seed,
		})
		srcTr := warehouse.NewTransport(0)
		src := warehouse.NewSource("rel", s, "REL", warehouse.Level2, srcTr)
		src.DrainReports()

		var api warehouse.SourceAPI = src
		var tr *warehouse.Transport = srcTr
		var server *warehouse.Server
		if overTCP {
			server = warehouse.NewServer(src, warehouse.ServerConfig{})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				panic(err)
			}
			go func() { _ = server.Serve(ln) }()
			defer server.Close()
			tr = warehouse.NewTransport(0)
			remote, err := warehouse.Dial("rel", ln.Addr().String(), tr)
			if err != nil {
				panic(err)
			}
			defer remote.Close()
			api = remote
		}

		w := warehouse.New(api)
		if _, err := w.DefineView("SEL", query.MustParse(relViewQuery),
			warehouse.ViewConfig{Screening: true}); err != nil {
			panic(err)
		}
		var sets, atoms []oem.OID
		for _, r := range db.Relations {
			sets = append(sets, r.OID)
			sets = append(sets, r.Tuples...)
			for _, tu := range r.Tuples {
				kids, _ := s.Children(tu)
				atoms = append(atoms, kids...)
			}
		}
		stream := workload.NewStream(s, workload.StreamConfig{Seed: cfg.Seed + 1, ValueRange: 60}, sets, atoms)
		before := tr.Snapshot()
		applied := 0
		for i := 0; i < updates; i++ {
			if _, ok := stream.Next(); !ok {
				break
			}
			var reports []*warehouse.UpdateReport
			if overTCP {
				raw := src.DrainReports()
				if err := server.Broadcast(raw); err != nil {
					panic(err)
				}
				remote := api.(*warehouse.RemoteSource)
				reports = remote.WaitReports(len(raw))
			} else {
				reports = src.DrainReports()
			}
			if err := w.ProcessAll(reports); err != nil {
				panic(err)
			}
			applied += len(reports)
		}
		used := tr.Sub(before)
		n := float64(max(1, applied))
		return result{
			updates: applied,
			queries: float64(used.QueryBacks) / n,
			objects: float64(used.ObjectsShipped) / n,
			bytes:   float64(used.Bytes) / n,
		}
	}

	sim := run(false)
	tcp := run(true)
	t.AddRow("simulated", sim.updates, sim.queries, sim.objects, sim.bytes)
	t.AddRow("real TCP", tcp.updates, tcp.queries, tcp.objects, tcp.bytes)
	if sim.queries != tcp.queries {
		t.AddRow("MISMATCH", "-", "query counts differ!", "-", "-")
	}
	return t
}
