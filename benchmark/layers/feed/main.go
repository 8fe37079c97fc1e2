// Command feed probes internal/feed: Publish with zero, one and four
// draining subscribers, resume-with-replay from a full ring, and the
// events a drop-oldest subscriber loses while it is not reading.
package main

import (
	"flag"
	"sync"
	"time"

	"gsv/benchmark/internal/probe"
	"gsv/internal/core"
	"gsv/internal/feed"
	"gsv/internal/oem"
	"gsv/internal/store"
)

const ring = 1024

var (
	update = store.Update{Kind: store.UpdateInsert, N1: "T0_1", N2: "F0_1_age", Seq: 1}
	delta  = core.Deltas{Insert: []oem.OID{"T0_1"}}
)

// publish times Hub.Publish with n subscribers draining concurrently
// under the default block policy.
func publish(n int) (float64, int) {
	h := feed.NewHub(feed.Options{RingSize: ring})
	h.RegisterView("V", nil)
	var wg sync.WaitGroup
	subs := make([]*feed.Subscription, n)
	for i := range subs {
		sub, err := h.Subscribe("V", feed.SubOptions{})
		probe.Must(err)
		subs[i] = sub
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range sub.Events() {
			}
		}()
	}
	ns, calls := probe.PerOp(200*time.Millisecond, 256, func() { h.Publish("V", update, delta) })
	for _, sub := range subs {
		sub.Close()
	}
	wg.Wait()
	return ns, calls
}

func main() {
	probe.Flags()
	flag.Parse()
	res := probe.NewResult()

	ns, n := publish(0)
	res.Set("feed.publish_ns", ns, "ns", n)
	ns, n = publish(1)
	res.Set("feed.publish_sub1_ns", ns, "ns", n)
	ns, n = publish(4)
	res.Set("feed.publish_sub4_ns", ns, "ns", n)

	h := feed.NewHub(feed.Options{RingSize: ring})
	h.RegisterView("V", nil)
	for i := 0; i < ring; i++ {
		h.Publish("V", update, delta)
	}
	from := h.OldestRetained("V") - 1
	ns, n = probe.PerOp(200*time.Millisecond, 1, func() {
		sub, err := h.Subscribe("V", feed.SubOptions{Resume: true, From: from})
		probe.Must(err)
		sub.Close()
	})
	res.Set("feed.replay_us", ns/1e3, "us", n)

	// A subscriber with a 64-event buffer that reads nothing while a full
	// ring's worth of events is published must lose exactly ring-64.
	sub, err := h.Subscribe("V", feed.SubOptions{Buffer: 64, Policy: feed.PolicyDropOldest, HasPolicy: true})
	probe.Must(err)
	for i := 0; i < ring; i++ {
		h.Publish("V", update, delta)
	}
	res.Set("feed.drops", float64(sub.Dropped()), "count", ring)
	sub.Close()
	res.Print()
}
