package warehouse

import (
	"errors"
	"fmt"
	"strings"

	"gsv/internal/obs"
)

// This file adds the "trace" request to the query-mode wire protocol:
// the client asks a node for its recent propagation span chains — where
// each stamped update's time went between ingestion at the source and
// visibility on that node — and receives them as one JSON frame.
// Chains from the primary and its replicas joined on trace_id
// reconstruct the full cross-node timeline; gsdbwatch -trace renders
// the join as a waterfall. See docs/OBSERVABILITY.md, "Propagation
// tracing".

// TracePayload is the body of a trace response.
type TracePayload struct {
	// Node names the answering node ("primary" or a replica name).
	Node string `json:"node"`
	// Chains are the retained span chains, oldest first, optionally
	// filtered to one view (a chain with an empty View — e.g. the WAL
	// ingestion span — always passes the filter, since it belongs to
	// every view's timeline).
	Chains []obs.SpanChain `json:"chains,omitempty"`
	// Total counts all chains ever recorded, including evicted ones.
	Total uint64 `json:"total"`
}

// tracePayload builds the trace response body, filtered to one view
// when view is non-empty.
func (s *Server) tracePayload(view string) *TracePayload {
	chains := s.cfg.Chains.Snapshot()
	if view != "" {
		kept := chains[:0]
		for _, c := range chains {
			if c.View == "" || c.View == view {
				kept = append(kept, c)
			}
		}
		chains = kept
	}
	return &TracePayload{Node: s.cfg.Node, Chains: chains, Total: s.cfg.Chains.Total()}
}

// FetchTrace asks the connected node for its recent propagation span
// chains, filtered to one view when view is non-empty. A server that
// predates the trace protocol (or runs with tracing off) answers with
// its unknown-op error; that is surfaced as ErrUnsupportedRequest so
// callers can degrade gracefully.
func (rs *RemoteSource) FetchTrace(view string) (*TracePayload, error) {
	resp, err := rs.roundTrip(netRequest{Op: "trace", View: view})
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		if strings.Contains(resp.Err, "unknown op") {
			return nil, fmt.Errorf("%w: %s", ErrUnsupportedRequest, resp.Err)
		}
		return nil, fmt.Errorf("warehouse: remote: %s", resp.Err)
	}
	if resp.Trace == nil {
		return nil, errors.New("warehouse: trace response carried no payload")
	}
	return resp.Trace, nil
}
