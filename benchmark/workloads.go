package main

import (
	"fmt"
	"time"

	"gsv/benchmark/internal/views"
)

// workload is one traffic mix run against a real gsdbserve + gsdbreplica
// pair. Every workload has the same parts — an update stream generated
// by the server's own seeded drive loop, open-loop budgeted reads against
// the replica (connection A) and scans against the primary (connection
// B), and a SIGKILL + restart at the end — and differs in which of them
// carries the load.
type workload struct {
	Name string
	Why  string // one line, also in BENCHMARK.json

	// Interval is gsdbserve's -interval; 0 saturates the primary.
	Interval time.Duration
	// DriveRate is how many drive-loop iterations per second the server
	// sustains on the reference 2-core box. It only sizes -updates so
	// that the stream outlasts set-up + warm-up + the measured window by
	// little; the measured rate is what the run reports.
	DriveRate float64
	// Durable runs the primary with -data DIR -fsync always and no
	// checkpoints, so the whole stream is WAL tail at the SIGKILL.
	Durable bool
	// ReadsDuringStream runs connections A and B beside the update stream
	// for the whole measured window. The write workloads leave the stream
	// alone and offer the same read load for two seconds once it has
	// ended, which gives the read metrics of an otherwise idle pair.
	ReadsDuringStream bool
}

const (
	tuples = 2000 // per relation: 2 relations x 2000 tuples x 3 fields = 16 004 objects

	budgetA = 25 * time.Millisecond  // members + object on the replica
	budgetB = 250 * time.Millisecond // one query scan on the primary
	// The read load is open-loop and leaves the two-core box headroom: with
	// nothing left idle, scheduling noise swamps every latency.
	periodA = 2500 * time.Microsecond // 400 read transactions/s
	periodB = 50 * time.Millisecond   // 20 scans/s

	warmup = time.Second
	// bootstrapAllowance is the part of set-up during which the drive
	// loop already runs (replica bootstrap after the primary listens).
	bootstrapAllowance = 2 * time.Second
)

var workloads = []workload{
	{
		Name:     "propagate",
		Why:      "paced updates (2ms apart, far below saturation) and no reads beside them: write-path latency with no queueing",
		Interval: 2 * time.Millisecond, DriveRate: 315,
	},
	{
		Name:     "ingest",
		Why:      "unpaced updates in memory: the primary is CPU-bound, so throughput and CPU per update show and the WAL is bypassed",
		Interval: 0, DriveRate: 1450,
	},
	{
		Name:     "serve",
		Why:      "400 read transactions/s on the replica and 20 scans/s on the primary beside 100 upd/s: the read side of the trade",
		Interval: 10 * time.Millisecond, DriveRate: 80, ReadsDuringStream: true,
	},
	{
		Name:     "durable",
		Why:      "unpaced updates with fsync on every append and no checkpoint: WAL-bound ingest, then recovery by tail replay",
		Interval: 0, DriveRate: 1050, Durable: true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// updates sizes the server's -updates for a measured window of the given
// length.
func (w workload) updates(seconds float64) int {
	total := bootstrapAllowance.Seconds() + warmup.Seconds() + seconds
	return int(w.DriveRate * total)
}

func viewNames() []string          { return views.Names() }
func viewQuery(name string) string { return views.Query(name) }

// primaryArgs builds gsdbserve's command line.
func (w workload) primaryArgs(addr string, seed int64, updates int, dataDir string) []string {
	args := []string{
		"-addr", addr, "-sample", "relations", "-tuples", fmt.Sprint(tuples),
		"-level", "2", "-seed", fmt.Sprint(seed), "-log-level", "warn",
		"-updates", fmt.Sprint(updates), "-interval", w.Interval.String(),
	}
	if w.Durable {
		args = append(args, "-data", dataDir, "-fsync", "always",
			"-checkpoint-every", "1000000000", "-checkpoint-interval", "0")
	}
	for _, v := range viewNames() {
		args = append(args, "-feed", v+"="+viewQuery(v))
	}
	return args
}
