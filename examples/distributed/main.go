// Distributed runs the Figure 6 warehouse architecture over real TCP: the
// source is served on a loopback listener, the warehouse connects through
// the wire protocol, update reports stream across the socket, and the
// warehouse maintains its materialized view with genuine query-backs —
// every byte counted on the client's transport.
package main

import (
	"fmt"
	"net"

	"gsv/internal/oem"
	"gsv/internal/query"
	"gsv/internal/store"
	"gsv/internal/warehouse"
	"gsv/internal/workload"
)

func main() {
	// ---- Source site -----------------------------------------------------
	base := store.NewDefault()
	workload.PersonDB(base)
	src := warehouse.NewSource("persons", base, "ROOT", warehouse.Level2, warehouse.NewTransport(0))
	src.DrainReports()
	server := warehouse.NewServer(src, warehouse.ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	must(err)
	go func() { _ = server.Serve(ln) }()
	defer server.Close()
	fmt.Printf("source 'persons' serving on %s (level 2 reports)\n", ln.Addr())

	// ---- Warehouse site --------------------------------------------------
	tr := warehouse.NewTransport(0)
	remote, err := warehouse.Dial("persons", ln.Addr().String(), tr)
	must(err)
	defer remote.Close()
	w := warehouse.New(remote)
	v, err := w.DefineView("YP",
		query.MustParse("SELECT ROOT.professor X WHERE X.age <= 45"),
		warehouse.ViewConfig{Screening: true})
	must(err)
	printMembers(v, "initial materialization over TCP")

	// ---- Updates happen at the source; reports stream to the warehouse ---
	apply := func(what string, mutate func() ([]*warehouse.UpdateReport, error)) {
		reports, err := mutate()
		must(err)
		must(server.Broadcast(reports))
		must(w.ProcessAll(remote.WaitReports(len(reports))))
		if what != "" {
			printMembers(v, what)
		}
	}

	apply("", func() ([]*warehouse.UpdateReport, error) {
		return src.Put(oem.NewAtom("A2", "age", oem.Int(40)))
	})
	apply("insert(P2, A2) — Example 5", func() ([]*warehouse.UpdateReport, error) {
		return src.Insert("P2", "A2")
	})
	apply("modify(A1, 50) — P1 ages out", func() ([]*warehouse.UpdateReport, error) {
		return src.Modify("A1", oem.Int(50))
	})
	apply("delete(ROOT, P2)", func() ([]*warehouse.UpdateReport, error) {
		return src.Delete("ROOT", "P2")
	})

	fmt.Println()
	fmt.Printf("client-side wire traffic: %s\n", tr)
	fmt.Println("(queries, objects and bytes are actual JSON payload sizes,")
	fmt.Println("not simulation estimates — compare with examples/warehouse)")
}

func printMembers(v *warehouse.WView, when string) {
	members, err := v.MV.Members()
	must(err)
	fmt.Printf("%-32s value(YP) = %v\n", when+":", members)
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
