package warehouse

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"net"
	"testing"

	"gsv/internal/obs"
	"gsv/internal/oem"
)

func TestTraceRequestRoundTrip(t *testing.T) {
	src, w, _, _, remote := obsFixture(t)

	reports, err := src.Put(oem.NewAtom("A2", "age", oem.Int(40)))
	processOne(t, w, reports, err)
	reports, err = src.Insert("P2", "A2")
	processOne(t, w, reports, err)
	reports, err = src.Modify("A1", oem.Int(50))
	processOne(t, w, reports, err)

	payload, err := remote.FetchTrace("")
	if err != nil {
		t.Fatal(err)
	}
	if payload.Node != "primary" {
		t.Fatalf("node = %q", payload.Node)
	}
	if len(payload.Chains) == 0 || payload.Total == 0 {
		t.Fatalf("no chains over the wire: %+v", payload)
	}
	var sawView bool
	for _, c := range payload.Chains {
		if c.TraceID == "" || c.Origin <= 0 || c.Node != "primary" {
			t.Fatalf("chain missing trace context: %+v", c)
		}
		if c.View != "YP" {
			continue
		}
		sawView = true
		if len(c.Spans) == 0 {
			t.Fatalf("view chain has no spans: %+v", c)
		}
		if c.Spans[0].Stage != "screen" {
			t.Fatalf("first view span = %+v", c.Spans[0])
		}
		if c.EndNanos() <= 0 {
			t.Fatalf("chain end = %d", c.EndNanos())
		}
	}
	if !sawView {
		t.Fatalf("no YP chain in %+v", payload.Chains)
	}

	// The view filter keeps matching chains (plus view-less WAL chains);
	// a view nobody maintains yields an empty set, not an error.
	filtered, err := remote.FetchTrace("YP")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range filtered.Chains {
		if c.View != "" && c.View != "YP" {
			t.Fatalf("filter leaked chain %+v", c)
		}
	}
	none, err := remote.FetchTrace("NO-SUCH-VIEW")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range none.Chains {
		if c.View != "" {
			t.Fatalf("filter leaked chain %+v", c)
		}
	}
	if none.Total == 0 {
		t.Fatal("total lost by filtering")
	}
}

// TestTraceGoldenFrame pins the wire schema of a trace response: the
// exact frame a trace request produces for a hand-built chain ring.
// Field renames break this test on purpose.
func TestTraceGoldenFrame(t *testing.T) {
	ring := obs.NewChainRing(4)
	ring.Add(obs.SpanChain{
		TraceID: "persons-7", Seq: 7, Kind: "insert", View: "V1",
		Origin: 1000, Node: "primary",
		Spans: []obs.Span{
			{Node: "primary", View: "V1", Stage: "screen", Start: 10, Nanos: 5},
			{Node: "primary", View: "V1", Stage: "maintain", Start: 15, Nanos: 85},
		},
	})
	server := NewServer(nil, ServerConfig{Chains: ring})

	resp := server.dispatch(netRequest{Op: "trace"})
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	data, err := json.Marshal(resp.Trace)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Node   string           `json:"node"`
		Chains []map[string]any `json:"chains"`
		Total  float64          `json:"total"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace frame is not the documented shape: %v\n%s", err, data)
	}
	if doc.Node != "primary" || len(doc.Chains) != 1 || doc.Total != 1 {
		t.Fatalf("frame = %s", data)
	}
	c := doc.Chains[0]
	for _, key := range []string{"trace_id", "seq", "kind", "view", "origin_nanos", "node", "spans"} {
		if _, ok := c[key]; !ok {
			t.Fatalf("chain frame missing %q: %s", key, data)
		}
	}
	spans, ok := c["spans"].([]any)
	if !ok || len(spans) != 2 {
		t.Fatalf("spans = %v", c["spans"])
	}
	sp, ok := spans[0].(map[string]any)
	if !ok {
		t.Fatalf("span frame = %v", spans[0])
	}
	for _, key := range []string{"node", "view", "stage", "start_nanos", "nanos"} {
		if _, ok := sp[key]; !ok {
			t.Fatalf("span frame missing %q: %s", key, data)
		}
	}
}

// TestTraceViewFilterKeepsWALChains pins that chains with no view —
// the WAL ingestion span the warehouse records once per stamped
// report — pass every view filter, since they belong to every view's
// timeline.
func TestTraceViewFilterKeepsWALChains(t *testing.T) {
	ring := obs.NewChainRing(8)
	ring.Add(obs.SpanChain{TraceID: "t-1", Origin: 1, Node: "primary",
		Spans: []obs.Span{{Node: "primary", Stage: "wal", Nanos: 3}}})
	ring.Add(obs.SpanChain{TraceID: "t-1", View: "V1", Origin: 1, Node: "primary"})
	ring.Add(obs.SpanChain{TraceID: "t-1", View: "V2", Origin: 1, Node: "primary"})
	server := NewServer(nil, ServerConfig{Chains: ring, Node: "p0"})

	p := server.tracePayload("V1")
	if p.Node != "p0" {
		t.Fatalf("node = %q", p.Node)
	}
	if len(p.Chains) != 2 {
		t.Fatalf("chains = %+v", p.Chains)
	}
	if p.Chains[0].Spans[0].Stage != "wal" || p.Chains[1].View != "V1" {
		t.Fatalf("filter kept the wrong chains: %+v", p.Chains)
	}
	if p.Total != 3 {
		t.Fatalf("total = %d", p.Total)
	}
}

// TestTraceRequestWithoutRing pins the compatibility contract: a server
// running without propagation tracing answers exactly like an old
// binary, so clients see ErrUnsupportedRequest either way.
func TestTraceRequestWithoutRing(t *testing.T) {
	_, _, remote := startNetSource(t, Level2)
	_, err := remote.FetchTrace("")
	if !errors.Is(err, ErrUnsupportedRequest) {
		t.Fatalf("err = %v, want ErrUnsupportedRequest", err)
	}
}

// TestTraceAgainstOldServer simulates a server binary that predates the
// trace request: it answers with the protocol's unknown-op error, which
// the client must surface as ErrUnsupportedRequest.
func TestTraceAgainstOldServer(t *testing.T) {
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
				defer conn.Close()
				br := bufio.NewReader(conn)
				mode, err := br.ReadString('\n')
				if err != nil {
					return
				}
				switch mode {
				case "reports\n":
					_, _ = io.WriteString(conn, "ready\n")
					_, _ = io.Copy(io.Discard, br)
				case "query\n":
					enc := json.NewEncoder(conn)
					sc := frameScanner(br)
					for sc.Scan() {
						var req netRequest
						if err := decodeFrame(sc.Bytes(), &req); err != nil {
							return
						}
						// An old server knows no "trace" op.
						if err := enc.Encode(netResponse{Err: `unknown op "trace"`}); err != nil {
							return
						}
					}
				}
			}(conn)
		}
	}()

	remote, err := Dial("old", ln.Addr().String(), NewTransport(0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(remote.Close)
	_, err = remote.FetchTrace("YP")
	if !errors.Is(err, ErrUnsupportedRequest) {
		t.Fatalf("err = %v, want ErrUnsupportedRequest", err)
	}
}
