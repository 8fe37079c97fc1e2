// Command wal probes internal/wal and the durable restart path of the gsv
// facade: append with and without fsync, bytes logged per update, raw
// replay, checkpointing, and recovery of a WAL tail through maintenance.
// Flush cost is this sandbox's filesystem, not a device's.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"time"

	"gsv"
	"gsv/benchmark/internal/probe"
	"gsv/benchmark/internal/views"
	"gsv/internal/store"
	"gsv/internal/wal"
	"gsv/internal/workload"
)

const (
	logged = 4000 // updates appended without fsync, then replayed
	tail   = 1500 // stream steps left in the WAL for the recovery probe
)

func dirBytes(dir string) int64 {
	var total int64
	entries, err := os.ReadDir(dir)
	probe.Must(err)
	for _, e := range entries {
		info, err := e.Info()
		probe.Must(err)
		total += info.Size()
	}
	return total
}

func main() {
	cfg := probe.Flags()
	flag.Parse()
	res := probe.NewResult()
	fx := probe.NewFixture(cfg)
	var base bytes.Buffer
	probe.Must(fx.Store.Save(&base))
	stream := fx.Stream()
	take := func(n int) []store.Update {
		var out []store.Update
		for len(out) < n {
			us, ok := stream.Next()
			if !ok {
				probe.Fatal(fmt.Errorf("update stream exhausted"))
			}
			out = append(out, us...)
		}
		return out[:n]
	}

	// ---- append without fsync, bytes per update, replay ----
	dir := cfg.TempDir("wal-nosync-")
	log, err := wal.OpenLog(dir, wal.Options{Policy: wal.SyncNever})
	probe.Must(err)
	us := take(logged)
	var per []float64
	for i := 0; i < len(us); i += 50 {
		t0 := time.Now()
		for _, u := range us[i : i+50] {
			probe.Must(log.Append(u))
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/50)
	}
	res.Set("wal.append_nosync_ns", probe.Median(per), "ns", len(us))
	probe.Must(log.Sync())
	res.Set("wal.bytes_per_upd", float64(dirBytes(dir))/float64(len(us)), "B", len(us))
	replayed := 0
	t0 := time.Now()
	probe.Must(log.Replay(0, func(store.Update) error { replayed++; return nil }))
	if replayed != len(us) {
		probe.Fatal(fmt.Errorf("replayed %d of %d updates", replayed, len(us)))
	}
	res.Set("wal.replay_us_per_upd", float64(time.Since(t0).Microseconds())/float64(replayed), "us", replayed)
	probe.Must(log.Close())

	// ---- append with fsync on every call ----
	dir = cfg.TempDir("wal-sync-")
	log, err = wal.OpenLog(dir, wal.Options{Policy: wal.SyncAlways})
	probe.Must(err)
	per = per[:0]
	for stop := time.Now().Add(300 * time.Millisecond); time.Now().Before(stop); {
		u := take(1)[0]
		t0 := time.Now()
		probe.Must(log.Append(u))
		per = append(per, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	res.Set("wal.append_sync_us", probe.Median(per), "us", len(per))
	probe.Must(log.Close())

	// ---- checkpoint, then recovery of a WAL tail ----
	// 128 KiB segments let the checkpoint truncate the base-load history,
	// so recovery scans only the tail.
	dir = cfg.TempDir("wal-recover-")
	open := func() *gsv.DB {
		db, err := gsv.TryOpen(gsv.WithDurability(dir, gsv.SyncNever),
			gsv.WithSegmentBytes(128<<10), gsv.WithCheckpointEvery(1<<30))
		probe.Must(err)
		return db
	}
	db := open()
	probe.Must(db.Store.Load(bytes.NewReader(base.Bytes())))
	db.Sync()
	for _, v := range views.Names() {
		_, err := db.Define(fmt.Sprintf("define mview %s as: %s", v, views.Query(v)))
		probe.Must(err)
	}
	t0 = time.Now()
	probe.Must(db.Checkpoint())
	res.Set("wal.checkpoint_ms", float64(time.Since(t0).Microseconds())/1e3, "ms", 1)
	before := db.Store.Seq()
	fresh := probe.NewFixture(cfg) // only for the stream's target lists
	tailStream := workload.NewStream(db.Store, workload.StreamConfig{Seed: cfg.Seed + 7, ValueRange: 60}, fresh.Sets, fresh.Atoms)
	for i := 1; i <= tail; i++ {
		if _, ok := tailStream.Next(); !ok {
			probe.Fatal(fmt.Errorf("update stream exhausted"))
		}
		if i%32 == 0 {
			db.Sync()
		}
	}
	db.Sync()
	tailUpdates := int(db.Store.Seq() - before)
	want, err := db.ViewMembers("V0_30")
	probe.Must(err)
	// Crash: the database is abandoned without Close or a final checkpoint.
	t0 = time.Now()
	rdb := open()
	res.Set("wal.recover_us_per_upd", float64(time.Since(t0).Microseconds())/float64(tailUpdates), "us", tailUpdates)
	got, err := rdb.ViewMembers("V0_30")
	probe.Must(err)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		probe.Fatal(fmt.Errorf("recovered view has %d members, want %d", len(got), len(want)))
	}
	probe.Must(rdb.Close())
	res.Print()
}
