package main

import (
	"sync"
	"time"
)

// readSample is one budgeted read transaction.
type readSample struct {
	at   time.Time // when its latency started counting
	ms   float64
	what outcome
}

// reader drives one query connection open-loop: one transaction is due
// every period. A transaction that finds the connection still busy with
// its predecessor is timed from the instant it was due, so a stall is
// charged to every transaction it delays; one that finds it free is timed
// from when it is sent, so the generator's own timer lateness is not. A
// transaction is whatever txn does with the connection — one request or
// several — against one budget.
type reader struct {
	addr   string
	budget time.Duration
	period time.Duration
	txn    func(do func(request) (response, error)) error

	mu       sync.Mutex
	samples  []readSample
	lastErr  error
	stopOnce sync.Once
	stopCh   chan struct{}
	done     chan struct{}
}

func startReader(addr string, budget, period time.Duration, txn func(do func(request) (response, error)) error) *reader {
	r := &reader{addr: addr, budget: budget, period: period, txn: txn, stopCh: make(chan struct{}), done: make(chan struct{})}
	go r.run()
	return r
}

func (r *reader) run() {
	defer close(r.done)
	var qc *queryConn
	defer func() {
		if qc != nil {
			qc.Close()
		}
	}()
	due := time.Now()
	var prevDone time.Time
	for {
		due = due.Add(r.period)
		select {
		case <-r.stopCh:
			return
		case <-time.After(time.Until(due)):
		}
		at := time.Now()
		if prevDone.After(due) {
			at = due
		}
		var err error
		if qc == nil {
			qc, err = dialQuery(r.addr)
		}
		broken := false
		if err == nil {
			err = r.txn(func(req request) (response, error) {
				// Every request carries what is left of the transaction's
				// budget, so the server can shed what it cannot answer in time.
				req.BudgetMS = max(1, (r.budget - time.Since(at)).Milliseconds())
				resp, n, err := qc.do(req, 4*r.budget+time.Second)
				broken = broken || (err != nil && n == 0)
				return resp, err
			})
		}
		prevDone = time.Now()
		ms := float64(prevDone.Sub(at)) / 1e6
		r.mu.Lock()
		r.samples = append(r.samples, readSample{at: at, ms: ms, what: classify(err, ms, float64(r.budget)/1e6)})
		if err != nil {
			r.lastErr = err
		}
		r.mu.Unlock()
		if err != nil && (qc == nil || broken) {
			// Transport error: the framing is gone, start a fresh connection.
			if qc != nil {
				qc.Close()
				qc = nil
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

func (r *reader) stop() {
	r.stopOnce.Do(func() { close(r.stopCh) })
	<-r.done
}

// window returns the transactions issued in [from, to].
func (r *reader) window(from, to time.Time) []readSample {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []readSample
	for _, s := range r.samples {
		if !s.at.Before(from) && !s.at.After(to) {
			out = append(out, s)
		}
	}
	return out
}

// readStats reduces a window of reads.
type readStats struct {
	attempted, good, late, failed int
	lat                           summary // answered transactions only
}

func reduceReads(samples []readSample) readStats {
	var rs readStats
	var lats []float64
	for _, s := range samples {
		rs.attempted++
		switch s.what {
		case good:
			rs.good++
			lats = append(lats, s.ms)
		case late:
			rs.late++
			lats = append(lats, s.ms)
		default:
			rs.failed++
		}
	}
	rs.lat = summarize(lats)
	return rs
}
