package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// feedSample is one event seen on a changefeed.
type feedSample struct {
	view   string
	cursor uint64
	seq    uint64
	at     time.Time
	lagMS  float64 // receive time - origin
}

// feedTail reads one changefeed until it is closed, replaying events
// into a membership and recording one sample per event.
type feedTail struct {
	fc      *feedConn
	mu      sync.Mutex
	samples []feedSample
	members membership
	bytes   int64 // event frames only
	gaps    int64 // cursors skipped in-stream: events that were never visible
	last    map[string]uint64
	done    chan struct{}
}

func startFeedTail(addr string) (*feedTail, error) {
	fc, err := dialFeed(addr)
	if err != nil {
		return nil, err
	}
	t := &feedTail{fc: fc, members: membership{}, last: map[string]uint64{}, done: make(chan struct{})}
	for _, vh := range fc.hello.Views {
		if vh.Snapshot == nil {
			fc.Close()
			return nil, fmt.Errorf("feed hello for %s carries no snapshot", vh.View)
		}
		t.members.reset(vh.View, vh.Snapshot.Members)
		t.last[vh.View] = vh.Snapshot.Cursor
	}
	go t.run()
	return t, nil
}

func (t *feedTail) run() {
	defer close(t.done)
	// The receive stamp is the measurement: keep this goroutine on its own
	// thread so that the kernel wakes it when a frame arrives, instead of
	// it queueing behind the read loops in the Go scheduler.
	runtime.LockOSThread()
	for {
		fr, at, n, err := t.fc.next()
		if err != nil {
			return // closed by stop(), or the peer died (the caller notices)
		}
		ev := fr.Event
		if ev == nil {
			continue
		}
		t.mu.Lock()
		if last := t.last[ev.View]; ev.Cursor > last {
			t.gaps += int64(ev.Cursor - last - 1)
			t.last[ev.View] = ev.Cursor
			t.bytes += int64(n)
			s := feedSample{view: ev.View, cursor: ev.Cursor, seq: ev.Seq, at: at}
			if ev.Origin > 0 {
				s.lagMS = float64(at.UnixNano()-ev.Origin) / 1e6
			}
			t.samples = append(t.samples, s)
		}
		t.members.apply(ev)
		t.mu.Unlock()
	}
}

func (t *feedTail) stop() {
	t.fc.Close()
	<-t.done
}

// window returns the samples received in [from, to].
func (t *feedTail) window(from, to time.Time) []feedSample {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []feedSample
	for _, s := range t.samples {
		if !s.at.Before(from) && !s.at.After(to) {
			out = append(out, s)
		}
	}
	return out
}
