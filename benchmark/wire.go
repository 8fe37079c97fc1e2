package main

// A minimal client for the JSON-lines wire protocol documented in
// docs/WAREHOUSE.md. The end-to-end runner speaks the protocol itself so
// that refactors of internal/warehouse and internal/replica cannot break
// the benchmark that measures them.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"time"
)

type request struct {
	Op       string `json:"op"`
	OID      string `json:"oid,omitempty"`
	Query    string `json:"query,omitempty"`
	View     string `json:"view,omitempty"`
	BudgetMS int64  `json:"budget_ms,omitempty"`
}

type response struct {
	Err     string `json:"err,omitempty"`
	Objects []struct {
		OID string `json:"oid"`
	} `json:"objects,omitempty"`
	Members []string `json:"members,omitempty"`
	Stats   *struct {
		Registry struct {
			Metrics []metricPoint `json:"metrics"`
		} `json:"registry"`
	} `json:"stats,omitempty"`
	Seq uint64 `json:"seq"`
}

type metricPoint struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
}

// queryConn is one connection in "query" mode: strict request/response.
type queryConn struct {
	conn net.Conn
	br   *bufio.Reader
}

func dialMode(addr, mode string) (net.Conn, *bufio.Reader, error) {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, nil, err
	}
	if _, err := conn.Write([]byte(mode + "\n")); err != nil {
		conn.Close()
		return nil, nil, err
	}
	return conn, bufio.NewReaderSize(conn, 64<<10), nil
}

func dialQuery(addr string) (*queryConn, error) {
	conn, br, err := dialMode(addr, "query")
	if err != nil {
		return nil, err
	}
	return &queryConn{conn: conn, br: br}, nil
}

func (c *queryConn) Close() { c.conn.Close() }

// do sends one request and waits for its response. It returns the
// response size in bytes; a response carrying "err" is returned as an
// error alongside the decoded frame.
func (c *queryConn) do(req request, timeout time.Duration) (response, int, error) {
	var resp response
	frame, err := json.Marshal(req)
	if err != nil {
		return resp, 0, err
	}
	_ = c.conn.SetDeadline(time.Now().Add(timeout))
	if _, err := c.conn.Write(append(frame, '\n')); err != nil {
		return resp, 0, err
	}
	line, err := c.br.ReadBytes('\n')
	if err != nil {
		return resp, 0, err
	}
	if err := json.Unmarshal(line, &resp); err != nil {
		return resp, len(line), fmt.Errorf("bad response frame: %w", err)
	}
	if resp.Err != "" {
		return resp, len(line), errors.New(resp.Err)
	}
	return resp, len(line), nil
}

// feedEvent is one changefeed event (feed.Event on the wire).
type feedEvent struct {
	View   string   `json:"view"`
	Cursor uint64   `json:"cursor"`
	Seq    uint64   `json:"seq"`
	Insert []string `json:"insert,omitempty"`
	Delete []string `json:"delete,omitempty"`
	Origin int64    `json:"origin,omitempty"`
}

type feedSnapshot struct {
	Cursor  uint64   `json:"cursor"`
	Members []string `json:"members"`
}

// feedFrame is one frame of a multi-view stream; progress heartbeats
// decode to a nil Event.
type feedFrame struct {
	Event *feedEvent `json:"event,omitempty"`
}

type feedHello struct {
	Err   string `json:"err,omitempty"`
	Views []struct {
		View     string        `json:"view"`
		Cursor   uint64        `json:"cursor"`
		Snapshot *feedSnapshot `json:"snapshot,omitempty"`
	} `json:"views,omitempty"`
}

// feedConn is one multi-view "subscribe" connection tailing every view
// from a membership snapshot taken at subscribe time.
type feedConn struct {
	conn  net.Conn
	br    *bufio.Reader
	hello feedHello
}

func dialFeed(addr string) (*feedConn, error) {
	conn, br, err := dialMode(addr, "subscribe")
	if err != nil {
		return nil, err
	}
	fc := &feedConn{conn: conn, br: br}
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write([]byte(`{"views":["*"],"snapshot":true}` + "\n")); err != nil {
		conn.Close()
		return nil, err
	}
	line, err := br.ReadBytes('\n')
	if err == nil {
		err = json.Unmarshal(line, &fc.hello)
	}
	if err == nil && fc.hello.Err != "" {
		err = errors.New(fc.hello.Err)
	}
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("feed handshake with %s: %w", addr, err)
	}
	_ = conn.SetDeadline(time.Time{})
	return fc, nil
}

func (f *feedConn) Close() { f.conn.Close() }

// next blocks for the next frame and returns it with its receive time
// (taken before decoding) and its size on the wire.
func (f *feedConn) next() (feedFrame, time.Time, int, error) {
	var fr feedFrame
	line, err := f.br.ReadBytes('\n')
	at := time.Now()
	if err != nil {
		return fr, at, 0, err
	}
	return fr, at, len(line), json.Unmarshal(line, &fr)
}
