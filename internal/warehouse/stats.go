package warehouse

import (
	"errors"
	"fmt"
	"strings"

	"gsv/internal/obs"
)

// This file adds the "stats" request to the query-mode wire protocol:
// the client asks the server for its observability state and receives a
// registry snapshot plus the most recent maintenance traces as one JSON
// frame. The request is answered from atomic instrument reads, so it can
// run while updates are in flight; see docs/OBSERVABILITY.md.

// StatsPayload is the body of a stats response: a point-in-time snapshot
// of the server's metrics registry and the recent maintenance traces.
type StatsPayload struct {
	Registry obs.Snapshot `json:"registry"`
	Traces   []obs.Trace  `json:"traces,omitempty"`
	// RemoteWire is filled in client-side by FetchStats: the local
	// RemoteSource's failure counters (reconnects, retries, gaps, bad
	// frames and the last report decode error). It never travels on the
	// wire — the server knows nothing about this client's failures.
	RemoteWire *WireSnapshot `json:"-"`
}

// ErrUnsupportedRequest marks a request the connected server does not
// implement — e.g. a stats request against a server that predates the
// stats protocol. Detect it with errors.Is.
var ErrUnsupportedRequest = errors.New("warehouse: server does not support this request")

// errNoStatsRegistry answers stats requests on a server that was never
// given a registry (observability off).
const errNoStatsRegistry = "warehouse: server has no stats registry"

// statsPayload builds the stats response body from the server's registry
// and trace ring. It returns an error string for the wire when the
// server has no registry.
func (s *Server) statsPayload() (*StatsPayload, string) {
	if s.cfg.Obs == nil {
		return nil, errNoStatsRegistry
	}
	return &StatsPayload{
		Registry: s.cfg.Obs.Snapshot(),
		Traces:   s.cfg.Traces.Snapshot(),
	}, ""
}

// FetchStats asks the connected server for its metrics snapshot and
// recent maintenance traces. A server that predates the stats protocol
// answers with its unknown-op error; that is surfaced as
// ErrUnsupportedRequest so callers can degrade gracefully.
func (rs *RemoteSource) FetchStats() (*StatsPayload, error) {
	resp, err := rs.roundTrip(netRequest{Op: "stats"})
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		if strings.Contains(resp.Err, "unknown op") {
			return nil, fmt.Errorf("%w: %s", ErrUnsupportedRequest, resp.Err)
		}
		return nil, fmt.Errorf("warehouse: remote: %s", resp.Err)
	}
	if resp.Stats == nil {
		return nil, errors.New("warehouse: stats response carried no payload")
	}
	wire := rs.wire.snapshot()
	resp.Stats.RemoteWire = &wire
	return resp.Stats, nil
}
