package warehouse

import (
	"encoding/json"
	"errors"
	"net"
	"testing"

	"gsv/internal/store"
	"gsv/internal/workload"
)

// TestShardGoldenFrame pins the wire schema of a shard response: the
// exact frame a shard request produces. Field renames break this test
// on purpose.
func TestShardGoldenFrame(t *testing.T) {
	server := NewServer(nil, ServerConfig{ShardInfo: func() *ShardPayload {
		return &ShardPayload{
			Node: "primary", Source: "source2", Shard: 2, Shards: 4,
			Seq: 41, State: "up", Watermark: 1700000000000000000,
		}
	}})
	resp := server.dispatch(netRequest{Op: "shard"})
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	data, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"found":true,"shard":{"node":"primary","source":"source2","shard":2,"shards":4,"seq":41,"state":"up","watermark":1700000000000000000},"seq":0}`
	if string(data) != want {
		t.Fatalf("shard frame changed:\n got %s\nwant %s", data, want)
	}
}

// TestShardRoundTrip exercises the shard handshake over a real
// connection, including zero-valued shard/watermark fields staying on
// the wire.
func TestShardRoundTrip(t *testing.T) {
	s := store.NewDefault()
	workload.PersonDB(s)
	src := NewSource("source0", s, "ROOT", Level2, NewTransport(0))
	src.DrainReports()
	server := NewServer(src, ServerConfig{ShardInfo: func() *ShardPayload {
		return &ShardPayload{
			Node: "node0", Source: "source0", Shard: 0, Shards: 8,
			Seq: src.Store.Seq(), State: SourceUp.String(),
		}
	}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = server.Serve(ln) }()
	t.Cleanup(server.Close)
	remote, err := Dial("source0", ln.Addr().String(), NewTransport(0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(remote.Close)

	info, err := remote.FetchShardInfo()
	if err != nil {
		t.Fatal(err)
	}
	if info.Source != "source0" || info.Shard != 0 || info.Shards != 8 || info.State != "up" || info.Node != "node0" {
		t.Fatalf("shard info = %+v", info)
	}
}

// TestShardUnsupportedOnOldServer maps the unknown-op answer of a
// pre-federation server to ErrUnsupportedRequest.
func TestShardUnsupportedOnOldServer(t *testing.T) {
	_, _, remote := startNetSource(t, Level2)
	if _, err := remote.FetchShardInfo(); !errors.Is(err, ErrUnsupportedRequest) {
		t.Fatalf("old server shard error = %v, want ErrUnsupportedRequest", err)
	}
}
