package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tdp/internal/ingest"
)

// TestShedQueueSustainedOverloadConservation soaks the queue with many
// concurrent producers pushing far past the drain rate, and pins the conservation invariant that makes shed
// accounting trustworthy: every report pushed is either applied or
// counted shed — applied + shed == pushed, with the per-class split
// summing to the shed total.
func TestShedQueueSustainedOverloadConservation(t *testing.T) {
	classes := []string{"web", "ftp", "video"}
	q, err := NewShedQueue(classes, 4)
	if err != nil {
		t.Fatal(err)
	}
	var applied atomic.Int64
	appliedByClass := make([]int64, len(classes))
	var abcMu sync.Mutex
	q.Start(func(b Batch) {
		// A slow consumer: the producers outrun this by construction.
		time.Sleep(200 * time.Microsecond)
		applied.Add(int64(len(b.Recs)))
		abcMu.Lock()
		for i := range b.Recs {
			appliedByClass[b.Recs[i].Class]++
		}
		abcMu.Unlock()
	})

	const producers, batchesPer, perBatch = 8, 50, 16
	var pushed, shedAtPush atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for b := 0; b < batchesPer; b++ {
				users := make([]string, perBatch)
				hashes := make([]uint32, perBatch)
				recs := make([]ingest.WireRecord, perBatch)
				for i := range recs {
					users[i] = fmt.Sprintf("w%d-%d", p, i)
					hashes[i] = ingest.UserHash(users[i])
					recs[i] = ingest.WireRecord{
						User:     int32(i),
						Class:    int32((p + b + i) % len(classes)),
						VolumeMB: 1,
					}
				}
				shedAtPush.Add(int64(q.PushWire(users, hashes, recs)))
				pushed.Add(perBatch)
			}
		}(p)
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := q.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	q.Close()

	shedTot, byClass := q.ShedTotals()
	if shedTot == 0 {
		t.Fatal("soak never overloaded the queue — the test proves nothing")
	}
	if got := shedAtPush.Load(); got != shedTot {
		t.Fatalf("PushWire return values counted %d shed, ShedTotals says %d", got, shedTot)
	}
	var classSum int64
	for _, n := range byClass {
		classSum += n
	}
	if classSum != shedTot {
		t.Fatalf("per-class shed %v sums to %d, total says %d", byClass, classSum, shedTot)
	}
	if got, want := applied.Load()+shedTot, pushed.Load(); got != want {
		t.Fatalf("conservation broken: applied %d + shed %d = %d, pushed %d",
			applied.Load(), shedTot, got, want)
	}
	// Cross-check the applied per-class tally too: applied + shed per
	// class must equal what the producers generated per class.
	abcMu.Lock()
	defer abcMu.Unlock()
	for ci := range classes {
		if got := appliedByClass[ci] + byClass[ci]; got == 0 {
			t.Fatalf("class %s never saw traffic", classes[ci])
		}
	}
}

// TestShedQueueShedsOldestNeverNewest: under overload the queue drops
// from the head, so the most recent batch always survives to be
// applied — the freshest usage is never the victim.
func TestShedQueueShedsOldestNeverNewest(t *testing.T) {
	classes := []string{"web"}
	q, err := NewShedQueue(classes, 2)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	var appliedSeq []string
	var mu sync.Mutex
	q.Start(func(b Batch) {
		<-gate // hold the worker so pushes pile up deterministically
		mu.Lock()
		appliedSeq = append(appliedSeq, firstUser(b))
		mu.Unlock()
	})

	// b0 is grabbed by the (blocked) worker; b1, b2 fill the queue.
	if shed := qPush(q, "b0", 0, 1); shed != 0 {
		t.Fatalf("push b0 shed %d", shed)
	}
	// Wait for the worker to take b0 off the queue.
	deadline := time.Now().Add(2 * time.Second)
	for q.Depth() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	for _, tag := range []string{"b1", "b2"} {
		if shed := qPush(q, tag, 0, 1); shed != 0 {
			t.Fatalf("push %s shed %d with queue not yet full", tag, shed)
		}
	}
	// Queue full: each further push sheds exactly the current oldest.
	for _, tag := range []string{"b3", "b4", "b5"} {
		if shed := qPush(q, tag, 0, 1); shed != 1 {
			t.Fatalf("push %s on a full queue shed %d reports, want 1", tag, shed)
		}
	}
	close(gate)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := q.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	q.Close()

	mu.Lock()
	defer mu.Unlock()
	// b0 was in flight; b1/b2/b3 were shed oldest-first; b4/b5 survive.
	want := []string{"b0", "b4", "b5"}
	if len(appliedSeq) != len(want) {
		t.Fatalf("applied %v, want %v", appliedSeq, want)
	}
	for i := range want {
		if appliedSeq[i] != want[i] {
			t.Fatalf("applied %v, want %v — shed-oldest starved the newest", appliedSeq, want)
		}
	}
	shedTot, _ := q.ShedTotals()
	if shedTot != 3 {
		t.Fatalf("shed %d reports, want 3 (b1, b2, b3)", shedTot)
	}
}
