package cluster

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"tdp/internal/ingest"
	"tdp/internal/wire"
)

// BenchmarkRingOwner measures the hot placement lookup the router runs
// once per report.
func BenchmarkRingOwner(b *testing.B) {
	for _, n := range []int{3, 16} {
		b.Run(fmt.Sprintf("members=%d", n), func(b *testing.B) {
			ring, err := Build(Config{Version: 1, Members: testMembers(n)})
			if err != nil {
				b.Fatal(err)
			}
			keys := testKeys(1024)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ring.OwnerID(keys[i&1023])
			}
		})
	}
}

// BenchmarkRouterSend drives the full data path minus the network:
// partition by owner, encode per-owner wire frames, decode and admit on
// in-process nodes. This is the per-batch cluster overhead on top of
// the raw engine. The batch=256 cases send 64 users four reports each,
// the same batch every time, so every name is in cache; nodes=4/
// batch=1024 sends 1024 distinct users per Send drawn from a pool of
// 1M names, so, like a real ingest stream over many users, nearly
// every name is a cache miss.
func BenchmarkRouterSend(b *testing.B) {
	for _, c := range []struct {
		nodes, batch int
		pool         bool
	}{{1, 256, false}, {3, 256, false}, {4, 1024, true}} {
		b.Run(fmt.Sprintf("nodes=%d/batch=%d", c.nodes, c.batch), func(b *testing.B) {
			tab, err := wire.NewClassTable(routerClasses)
			if err != nil {
				b.Fatal(err)
			}
			ring, err := Build(Config{Version: 1, Members: testMembers(c.nodes)})
			if err != nil {
				b.Fatal(err)
			}
			sender := &memSender{nodes: make(map[string]*memNode)}
			for _, m := range ring.Members() {
				sender.nodes[m.ID] = newMemNode(b, m.ID, ring, tab)
			}
			rt, err := NewRouter(tab, ring, sender)
			if err != nil {
				b.Fatal(err)
			}
			batches := [][]ingest.Report{routerReports(c.batch/4, 4)[:c.batch]}
			if c.pool {
				batches = poolBatches()
			}
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rt.Send(ctx, batches[i%len(batches)]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(c.batch)*float64(b.N)/b.Elapsed().Seconds(), "reports/s")
		})
	}
}

// poolBatches returns 256 batches of 1024 reports, each naming 1024
// distinct users drawn without replacement from a seeded permutation
// of 1M names. Built once per process: the names alone take a second.
var poolBatches = sync.OnceValue(func() [][]ingest.Report {
	const pool, batch, nBatches = 1 << 20, 1024, 256
	names := make([]string, pool)
	for u := range names {
		names[u] = fmt.Sprintf("u%07d", u)
	}
	rng := rand.New(rand.NewPCG(1024, 4))
	perm := rng.Perm(pool)
	out := make([][]ingest.Report, nBatches)
	for k := range out {
		out[k] = make([]ingest.Report, batch)
		for i := range out[k] {
			out[k][i] = ingest.Report{
				User:     names[perm[k*batch+i]],
				Class:    routerClasses[rng.IntN(len(routerClasses))],
				VolumeMB: 1.0 / 1024,
			}
		}
	}
	return out
})

// latencySender models a real network hop: each frame costs ~1ms of
// wire time before the in-process node applies it. Pipelining overlaps
// those hops; this is the number the inflight knob exists for.
type latencySender struct {
	inner Sender
	delay time.Duration
}

func (s *latencySender) SendWire(ctx context.Context, node Member, body []byte) (WireAck, error) {
	time.Sleep(s.delay)
	return s.inner.SendWire(ctx, node, body)
}

// BenchmarkRouterPipeline measures Send over a simulated 1ms-RTT
// network at inflight 1 (strictly serial frames) vs the pipelined
// default: same partition, same frames, overlapped wire time.
func BenchmarkRouterPipeline(b *testing.B) {
	const nNodes, batch, frameLimit = 3, 512, 64
	for _, inflight := range []int{1, 4} {
		b.Run(fmt.Sprintf("inflight=%d", inflight), func(b *testing.B) {
			tab, err := wire.NewClassTable(routerClasses)
			if err != nil {
				b.Fatal(err)
			}
			ring, err := Build(Config{Version: 1, Members: testMembers(nNodes)})
			if err != nil {
				b.Fatal(err)
			}
			mem := &memSender{nodes: make(map[string]*memNode)}
			for _, m := range ring.Members() {
				mem.nodes[m.ID] = newMemNode(b, m.ID, ring, tab)
			}
			rt, err := NewRouter(tab, ring, &latencySender{inner: mem, delay: time.Millisecond})
			if err != nil {
				b.Fatal(err)
			}
			if err := rt.SetInflight(inflight); err != nil {
				b.Fatal(err)
			}
			if err := rt.SetMaxFrameReports(frameLimit); err != nil {
				b.Fatal(err)
			}
			reps := routerReports(batch/4, 4)[:batch]
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rt.Send(ctx, reps); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "reports/s")
		})
	}
}

// BenchmarkReplicateTree measures the per-pull cost of deriving a
// follower's fan-out parent from the ring — it runs on every pull, so
// it has to stay trivial next to the HTTP round trip it steers.
func BenchmarkReplicateTree(b *testing.B) {
	for _, n := range []int{8, 64} {
		b.Run(fmt.Sprintf("members=%d", n), func(b *testing.B) {
			ring, err := Build(Config{Version: 1, Members: testMembers(n)})
			if err != nil {
				b.Fatal(err)
			}
			members := ring.Members()
			leaderID := members[0].ID
			selfID := members[n-1].ID
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := TreeParent(ring, leaderID, selfID, 2); !ok {
					b.Fatal("no parent")
				}
			}
		})
	}
}
