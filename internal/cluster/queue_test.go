package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tdp/internal/ingest"
	"tdp/internal/obs"
)

var queueClasses = []string{"web", "ftp", "video"}

// qPush pushes one wire batch of n 1-MB records for user in class
// (an index into queueClasses) and returns the reports shed.
func qPush(q *ShedQueue, user string, class, n int) int {
	recs := make([]ingest.WireRecord, n)
	for i := range recs {
		recs[i] = ingest.WireRecord{User: 0, Class: int32(class), VolumeMB: 1}
	}
	return q.PushWire([]string{user}, []uint32{ingest.UserHash(user)}, recs)
}

// firstUser names the user of a queued batch's first record.
func firstUser(b Batch) string { return b.Users[b.Recs[0].User] }

func TestShedQueueValidation(t *testing.T) {
	if _, err := NewShedQueue(queueClasses, 0); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("depth 0: %v, want ErrBadConfig", err)
	}
	if _, err := NewShedQueue(nil, 4); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("no classes: %v, want ErrBadConfig", err)
	}
}

func TestShedQueueFIFOAndDrain(t *testing.T) {
	q, err := NewShedQueue(queueClasses, 16)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var applied []string
	q.Start(func(b Batch) {
		mu.Lock()
		applied = append(applied, firstUser(b))
		mu.Unlock()
	})
	for i := 0; i < 10; i++ {
		if shed := qPush(q, fmt.Sprintf("u%02d", i), 0, 3); shed != 0 {
			t.Fatalf("push %d shed %d reports below capacity", i, shed)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := q.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(applied) != 10 {
		t.Fatalf("applied %d batches, want 10", len(applied))
	}
	for i, u := range applied {
		if want := fmt.Sprintf("u%02d", i); u != want {
			t.Fatalf("batch %d applied out of order: %s, want %s", i, u, want)
		}
	}
	total, _ := q.ShedTotals()
	if total != 0 {
		t.Fatalf("shed %d reports in an underloaded run", total)
	}
	q.Close()
}

func TestShedOldest(t *testing.T) {
	q, err := NewShedQueue(queueClasses, 2)
	if err != nil {
		t.Fatal(err)
	}
	// No worker started: pushes pile up and the third must shed the first.
	if shed := qPush(q, "old", 0, 5); shed != 0 {
		t.Fatalf("first push shed %d", shed)
	}
	if shed := qPush(q, "mid", 1, 3); shed != 0 {
		t.Fatalf("second push shed %d", shed)
	}
	if shed := qPush(q, "new", 2, 2); shed != 5 {
		t.Fatalf("overflow push shed %d reports, want the oldest batch's 5", shed)
	}
	total, byClass := q.ShedTotals()
	if total != 5 || byClass[0] != 5 || byClass[1] != 0 || byClass[2] != 0 {
		t.Fatalf("shed accounting: total %d, byClass %v", total, byClass)
	}
	if q.Depth() != 2 || q.QueuedReports() != 5 {
		t.Fatalf("queue holds %d batches / %d reports, want 2 / 5", q.Depth(), q.QueuedReports())
	}
	// The survivors drain in order: mid then new.
	var mu sync.Mutex
	var order []string
	q.Start(func(b Batch) {
		mu.Lock()
		order = append(order, firstUser(b))
		mu.Unlock()
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := q.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	q.Close()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "mid" || order[1] != "new" {
		t.Fatalf("drained %v, want [mid new]", order)
	}
}

func TestShedQueueInstrument(t *testing.T) {
	q, err := NewShedQueue(queueClasses, 1)
	if err != nil {
		t.Fatal(err)
	}
	qPush(q, "a", 1, 4)
	qPush(q, "b", 0, 1) // sheds the ftp batch pre-instrumentation
	reg := obs.NewRegistry()
	q.Instrument(reg, queueClasses)
	qPush(q, "c", 0, 1) // sheds the web batch post-instrumentation
	if got := reg.Counter("cluster_shed_reports_total", "", obs.Labels{"class": "ftp"}).Value(); got != 4 {
		t.Fatalf("ftp shed counter %d, want 4 (back-filled)", got)
	}
	if got := reg.Counter("cluster_shed_reports_total", "", obs.Labels{"class": "web"}).Value(); got != 1 {
		t.Fatalf("web shed counter %d, want 1", got)
	}
}

func TestShedQueueCloseShedsLatePushes(t *testing.T) {
	q, err := NewShedQueue(queueClasses, 4)
	if err != nil {
		t.Fatal(err)
	}
	q.Start(func(Batch) {})
	q.Close()
	if shed := qPush(q, "late", 0, 3); shed != 3 {
		t.Fatalf("push after close shed %d, want 3", shed)
	}
}

func TestShedQueueConcurrentPush(t *testing.T) {
	q, err := NewShedQueue(queueClasses, 64)
	if err != nil {
		t.Fatal(err)
	}
	var applied, shedTotal atomic.Int64
	q.Start(func(b Batch) { applied.Add(int64(len(b.Recs))) })
	var wg sync.WaitGroup
	const workers, pushes, per = 8, 50, 4
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < pushes; i++ {
				shed := qPush(q, fmt.Sprintf("w%d-%d", w, i), i%3, per)
				shedTotal.Add(int64(shed))
			}
		}(w)
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := q.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	q.Close()
	// Conservation: everything pushed was either applied or shed.
	const want = workers * pushes * per
	counted, _ := q.ShedTotals()
	if applied.Load()+counted != want {
		t.Fatalf("applied %d + shed %d != pushed %d", applied.Load(), counted, want)
	}
	if shedTotal.Load() != counted {
		t.Fatalf("PushWire-returned sheds %d, counters say %d", shedTotal.Load(), counted)
	}
}
