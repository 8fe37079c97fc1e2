package warehouse

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"gsv/internal/feed"
	"gsv/internal/oem"
)

// This file is the "subscribe" connection mode. The client sends one
// feedRequest naming the views to follow (["*"] = every view the hub
// knows; a single view is a one-element list) on one connection. The
// server answers one feedHello carrying per-view state, then streams
// FeedFrame envelopes — either one feed.Event or one FeedProgress
// heartbeat carrying the primary's base sequence number and per-view
// feed cursors. Progress frames are what let a replica measure its lag
// even when base updates are screened out of every view (no events flow,
// but Seq advances); see docs/REPLICA.md.
//
// Version mismatch: a server that predates multi-view subscriptions
// ignores the Views field and subscribes to the empty single-view name,
// which fails with the hub's unknown-view error for ""; DialMultiFeed
// maps exactly that shape to ErrUnsupportedRequest.

// defaultFeedProgressInterval paces progress frames on subscriptions.
const defaultFeedProgressInterval = 500 * time.Millisecond

// errNoFeed answers a subscription on a server configured without a hub.
var errNoFeed = errors.New("warehouse: server has no feed")

// errNoViews rejects a subscribe request that names no view.
var errNoViews = errors.New("warehouse: subscribe request names no views")

// feedRequest is the first (and only) frame a subscribe-mode client
// sends: which views to follow and how.
type feedRequest struct {
	// View is never set. The key stays on the wire so the request bytes
	// are unchanged across versions, and a server that predates the
	// Views field answers its unknown-view error for "" — the
	// version-mismatch signal DialMultiFeed detects.
	View string `json:"view"`
	// Snapshot requests a full membership snapshot for every view without
	// a resume cursor, and snapshot fallback (instead of an error) for
	// every view whose resume cursor was evicted from the replay ring.
	Snapshot bool `json:"snapshot,omitempty"`
	// Policy selects the slow-consumer policy ("block", "drop-oldest",
	// "disconnect"); empty means the hub default.
	Policy string `json:"policy,omitempty"`
	// Buffer sizes the per-subscriber channel; 0 means the hub default.
	Buffer int `json:"buffer,omitempty"`
	// Views names the views to follow; ["*"] subscribes to every view the
	// hub knows. A request without views is rejected.
	Views []string `json:"views,omitempty"`
	// Froms maps view name to the last cursor the client consumed; a
	// view listed in Views but absent here tails from the current cursor
	// (with a full snapshot when Snapshot is set).
	Froms map[string]uint64 `json:"froms,omitempty"`
}

// FeedSnapshot carries a full view membership: a snapshot bootstrap, or
// the fallback when a resume cursor has expired and the client asked for
// it.
type FeedSnapshot struct {
	// Cursor is the feed position the membership corresponds to; resume
	// from it after applying Members.
	Cursor uint64 `json:"cursor"`
	// Members is the complete view membership at Cursor.
	Members []oem.OID `json:"members"`
}

// feedHello is the server's first frame in subscribe mode. Either Err is
// set (and the connection closes), or the subscription is live.
type feedHello struct {
	Err string `json:"err,omitempty"`
	// Expired marks Err as a cursor-expiry (feed.ErrCursorExpired), so
	// clients can distinguish "resubscribe with snapshot" from fatal
	// errors.
	Expired bool `json:"expired,omitempty"`
	// Cursor and Oldest are always zero: per-view positions travel in
	// Views. The keys stay on the wire so the hello bytes are unchanged
	// across versions.
	Cursor uint64 `json:"cursor"`
	Oldest uint64 `json:"oldest"`
	// Seq is the primary's base sequence number at subscribe time.
	Seq uint64 `json:"seq,omitempty"`
	// Views holds one handshake entry per subscribed view.
	Views []FeedViewHello `json:"views,omitempty"`
}

// feedExpiredError carries the server's expired-cursor message while
// keeping errors.Is(err, feed.ErrCursorExpired) true across the wire,
// without repeating the sentinel's text in the rendered message.
type feedExpiredError struct{ msg string }

func (e *feedExpiredError) Error() string { return e.msg }
func (e *feedExpiredError) Unwrap() error { return feed.ErrCursorExpired }

// FeedProgress is the heartbeat frame: where the primary is.
type FeedProgress struct {
	// Seq is the primary's base-store sequence number at send time.
	Seq uint64 `json:"seq"`
	// Cursors maps each subscribed view to its current feed cursor. A
	// consumer that has applied every cursor here has fully caught up
	// with Seq, even if some base updates published no events.
	Cursors map[string]uint64 `json:"cursors,omitempty"`
}

// FeedFrame is one subscribe-mode stream frame: exactly one field is set.
type FeedFrame struct {
	Event    *feed.Event   `json:"event,omitempty"`
	Progress *FeedProgress `json:"progress,omitempty"`
}

// FeedViewHello is one view's slice of the subscribe handshake.
type FeedViewHello struct {
	View string `json:"view"`
	// Cursor is the view's feed position at subscribe time.
	Cursor uint64 `json:"cursor"`
	// Oldest is the oldest cursor still in the replay ring.
	Oldest uint64 `json:"oldest"`
	// Snapshot is present when the client requested snapshot bootstrap
	// (no resume cursor for this view) or its resume cursor had expired.
	Snapshot *FeedSnapshot `json:"snapshot,omitempty"`
}

// handleSubscribe serves one subscription: subscribe to every requested
// view, answer one hello carrying per-view state, then interleave events
// from all views with periodic progress frames on a single writer.
func (s *Server) handleSubscribe(conn net.Conn, br *bufio.Reader) {
	enc := json.NewEncoder(conn)
	fail := func(err error) {
		_ = enc.Encode(feedHello{Err: err.Error(), Expired: errors.Is(err, feed.ErrCursorExpired)})
	}
	hub := s.cfg.Feed
	if hub == nil {
		fail(errNoFeed)
		return
	}
	sc := frameScanner(br)
	s.armRead(conn)
	if !sc.Scan() {
		return
	}
	_ = conn.SetReadDeadline(time.Time{})
	var req feedRequest
	if err := decodeFrame(sc.Bytes(), &req); err != nil {
		fail(err)
		return
	}
	if len(req.Views) == 0 {
		fail(errNoViews)
		return
	}
	if ac := s.cfg.Admission; ac != nil {
		if !ac.AdmitStream() {
			fail(ErrOverloaded)
			return
		}
		defer ac.ReleaseStream()
	}
	policy, err := feed.ParsePolicy(req.Policy)
	if err != nil {
		fail(err)
		return
	}
	views := req.Views
	if len(views) == 1 && views[0] == "*" {
		views = hub.Views()
		sort.Strings(views)
	}
	var subs []*feed.Subscription
	closeAll := func() {
		for _, sub := range subs {
			sub.Close()
		}
	}
	hello := feedHello{Seq: s.src.Store.Seq()}
	seen := make(map[string]bool, len(views))
	for _, view := range views {
		if seen[view] {
			continue
		}
		seen[view] = true
		o := feed.SubOptions{Buffer: req.Buffer, Policy: policy, HasPolicy: req.Policy != ""}
		from, resuming := req.Froms[view]
		if resuming {
			o.Resume, o.From, o.SnapshotOnExpire = true, from, req.Snapshot
		}
		sub, err := hub.Subscribe(view, o)
		if err != nil {
			closeAll()
			fail(err)
			return
		}
		subs = append(subs, sub)
		vh := FeedViewHello{View: view}
		vh.Cursor, _ = hub.Cursor(view)
		vh.Oldest = hub.OldestRetained(view)
		if snap := sub.Snapshot(); snap != nil {
			vh.Snapshot = &FeedSnapshot{Cursor: snap.Cursor, Members: snap.Members}
		} else if !resuming && req.Snapshot {
			// Snapshot bootstrap. The tail subscription is already
			// attached, so an event racing this snapshot re-announces
			// membership the snapshot reflects — an idempotent duplicate,
			// never a loss.
			snap, err := hub.Snapshot(view)
			if err != nil {
				closeAll()
				fail(err)
				return
			}
			vh.Snapshot = &FeedSnapshot{Cursor: snap.Cursor, Members: snap.Members}
		}
		hello.Views = append(hello.Views, vh)
	}
	s.mu.Lock()
	select {
	case <-s.done:
		s.mu.Unlock()
		closeAll()
		return
	default:
	}
	s.feedSubs = append(s.feedSubs, subs...)
	s.mu.Unlock()

	if err := enc.Encode(hello); err != nil {
		closeAll()
		return
	}

	// Tear every subscription down when the peer disconnects, even while
	// the writer is idle.
	go func() {
		_, _ = io.Copy(io.Discard, br)
		closeAll()
	}()

	frames := make(chan FeedFrame, 64)
	writerDone := make(chan struct{})
	var fwdWG sync.WaitGroup
	for _, sub := range subs {
		fwdWG.Add(1)
		go func(sub *feed.Subscription) {
			defer fwdWG.Done()
			for ev := range sub.Events() {
				ev := ev
				select {
				case frames <- FeedFrame{Event: &ev}:
				case <-writerDone:
					return
				}
			}
		}(sub)
	}
	// subsDone fires once every subscription's event channel has closed
	// (peer disconnect or server shutdown): the stream is over.
	subsDone := make(chan struct{})
	go func() {
		fwdWG.Wait()
		close(subsDone)
	}()
	var tickWG sync.WaitGroup
	tickWG.Add(1)
	go func() {
		defer tickWG.Done()
		t := time.NewTicker(s.cfg.FeedProgressInterval)
		defer t.Stop()
		for {
			select {
			case <-writerDone:
				return
			case <-t.C:
				p := &FeedProgress{Seq: s.src.Store.Seq(), Cursors: make(map[string]uint64, len(hello.Views))}
				for _, vh := range hello.Views {
					c, _ := hub.Cursor(vh.View)
					p.Cursors[vh.View] = c
				}
				select {
				case frames <- FeedFrame{Progress: p}:
				case <-writerDone:
					return
				}
			}
		}
	}()
	defer func() {
		close(writerDone)
		closeAll()
		fwdWG.Wait()
		tickWG.Wait()
	}()
	for {
		select {
		case <-subsDone:
			// Every forwarder has exited; flush what they queued, then
			// end the stream.
			for {
				select {
				case fr := <-frames:
					if err := enc.Encode(fr); err != nil {
						return
					}
				default:
					return
				}
			}
		case fr := <-frames:
			if err := enc.Encode(fr); err != nil {
				return
			}
		}
	}
}

// SubscribeRequest configures DialMultiFeed.
type SubscribeRequest struct {
	// Views names the feeds to follow; ["*"] follows every view the
	// server's hub knows. Names must be non-empty.
	Views []string
	// Froms maps view name to the last cursor consumed; a view without
	// an entry tails from the current cursor.
	Froms map[string]uint64
	// Snapshot requests a full membership snapshot for every view
	// without a resume cursor, and snapshot fallback (instead of an
	// expired-cursor error) for every view whose cursor was evicted.
	Snapshot bool
	// Policy selects the server-side slow-consumer policy; empty means
	// the server default.
	Policy string
	// Buffer sizes the server-side subscriber channels; 0 means default.
	Buffer int
	// IOTimeout bounds the dial and handshake; 0 means no bound. It is
	// client-side state, never sent on the wire.
	IOTimeout time.Duration
	// ReadTimeout bounds each wait for the next frame. The server's
	// progress heartbeats (FeedProgressInterval, 500ms by default) make a
	// silent stream distinguishable from an idle one, so any value
	// comfortably above the heartbeat interval detects a dead peer. 0
	// means block forever.
	ReadTimeout time.Duration
}

// FeedStream follows one or more views' changefeeds over one TCP
// connection.
type FeedStream struct {
	// Seq was the primary's base sequence number at subscribe time.
	Seq uint64
	// Views holds the per-view handshake state, in server order.
	Views []FeedViewHello

	conn        net.Conn
	sc          *bufio.Scanner
	readTimeout time.Duration
}

// DialMultiFeed opens a subscribe-mode connection. Error mapping: an
// expired resume cursor (without Snapshot) wraps feed.ErrCursorExpired;
// a stream-cap or drain refusal wraps ErrOverloaded (retry later); a
// server that predates the multi-view protocol is surfaced as
// ErrUnsupportedRequest.
func DialMultiFeed(addr string, req SubscribeRequest) (*FeedStream, error) {
	d := net.Dialer{Timeout: req.IOTimeout}
	conn, err := d.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if conn.LocalAddr().String() == conn.RemoteAddr().String() {
		// TCP simultaneous-open self-connection: dialing a loopback port
		// with no listener can land on an ephemeral source port equal to
		// the destination, yielding a socket connected to itself. It
		// echoes our own handshake back and squats on the server's port,
		// blocking a restart from rebinding — so close abortively:
		// a graceful close would park the port in TIME_WAIT, and a dialed
		// socket carries no SO_REUSEADDR, which blocks the rebind just as
		// effectively for a minute.
		abortConn(conn)
		return nil, fmt.Errorf("warehouse: feed dial %s: self-connection", addr)
	}
	if req.IOTimeout > 0 {
		_ = conn.SetDeadline(time.Now().Add(req.IOTimeout))
	}
	if _, err := io.WriteString(conn, "subscribe\n"); err != nil {
		conn.Close()
		return nil, err
	}
	frame, err := json.Marshal(feedRequest{
		Views:    req.Views,
		Froms:    req.Froms,
		Snapshot: req.Snapshot,
		Policy:   req.Policy,
		Buffer:   req.Buffer,
	})
	if err != nil {
		conn.Close()
		return nil, err
	}
	if _, err := conn.Write(append(frame, '\n')); err != nil {
		conn.Close()
		return nil, err
	}
	sc := frameScanner(conn)
	if !sc.Scan() {
		conn.Close()
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("warehouse: feed handshake: %w", err)
		}
		return nil, errors.New("warehouse: feed handshake: connection closed")
	}
	var hello feedHello
	if err := decodeFrame(sc.Bytes(), &hello); err != nil {
		conn.Close()
		return nil, err
	}
	if hello.Err != "" {
		conn.Close()
		// An old server ignored the Views field entirely and tried the
		// empty single-view name: its unknown-view error names no view.
		if strings.TrimSpace(hello.Err) == strings.TrimSpace(feed.ErrUnknownView.Error()+":") {
			return nil, fmt.Errorf("%w: server predates multi-view subscriptions", ErrUnsupportedRequest)
		}
		if hello.Expired {
			return nil, &feedExpiredError{msg: "warehouse: " + hello.Err}
		}
		if strings.Contains(hello.Err, overloadMarker) {
			return nil, &overloadedError{msg: "warehouse: " + hello.Err}
		}
		return nil, fmt.Errorf("warehouse: %s", hello.Err)
	}
	if len(hello.Views) == 0 {
		// An old server can also answer a live single-view hello for a
		// view literally named "" if one exists; either way the absence
		// of per-view state marks the protocol gap.
		conn.Close()
		return nil, fmt.Errorf("%w: server predates multi-view subscriptions", ErrUnsupportedRequest)
	}
	_ = conn.SetDeadline(time.Time{})
	return &FeedStream{Seq: hello.Seq, Views: hello.Views, conn: conn, sc: sc, readTimeout: req.ReadTimeout}, nil
}

// Next blocks for the next frame: exactly one of the event and progress
// pointers is non-nil. It returns io.EOF when the server closes the
// stream.
func (mc *FeedStream) Next() (FeedFrame, error) {
	if mc.readTimeout > 0 {
		_ = mc.conn.SetReadDeadline(time.Now().Add(mc.readTimeout))
	}
	for mc.sc.Scan() {
		line := mc.sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var fr FeedFrame
		if err := decodeFrame(line, &fr); err != nil {
			return FeedFrame{}, err
		}
		if fr.Event == nil && fr.Progress == nil {
			continue // unknown future frame kind; skip
		}
		return fr, nil
	}
	if err := mc.sc.Err(); err != nil {
		return FeedFrame{}, err
	}
	return FeedFrame{}, io.EOF
}

// Close disconnects the feed.
func (mc *FeedStream) Close() { _ = mc.conn.Close() }
