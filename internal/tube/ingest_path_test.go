package tube

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"tdp/internal/cluster"
	"tdp/internal/wire"
)

func TestUsageBatchEndpoint(t *testing.T) {
	opt, err := NewOptimizer(OptimizerConfig{Scenario: testScenario(), Classes: testClasses()})
	if err != nil {
		t.Fatal(err)
	}
	srv, _ := NewServer(opt)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	gui := wireGUI(t, ts.URL)
	ctx := context.Background()

	batch := []UsageReport{
		{User: "user1", Class: "web", VolumeMB: 3},
		{User: "user1", Class: "web", VolumeMB: 4},
		{User: "user2", Class: "video", VolumeMB: 50},
	}
	if err := gui.ReportUsageWire(ctx, batch); err != nil {
		t.Fatalf("ReportUsageWire: %v", err)
	}
	ct := opt.Measurement().ClassTotals()
	if ct[0] != 7 || ct[2] != 50 {
		t.Errorf("ClassTotals after batch = %v", ct)
	}

	// A batch with one bad report is rejected atomically.
	bad := []UsageReport{
		{User: "user3", Class: "web", VolumeMB: 1},
		{User: "user3", Class: "ftp", VolumeMB: -1},
	}
	if err := gui.ReportUsageWire(ctx, bad); !errors.Is(err, ErrRemote) {
		t.Fatalf("bad batch: err = %v, want ErrRemote", err)
	}
	if got := opt.Measurement().ClassTotals(); !slices.Equal(got, ct) {
		t.Errorf("rejected batch left residue: class totals %v, were %v", got, ct)
	}

	// A body that is not a wire frame → 400.
	resp, err := http.Post(ts.URL+"/usage/wire", cluster.WireContentType, strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed batch: status %d, want 400", resp.StatusCode)
	}
}

func TestServerRequestCounters(t *testing.T) {
	opt, err := NewOptimizer(OptimizerConfig{Scenario: testScenario(), Classes: testClasses()})
	if err != nil {
		t.Fatal(err)
	}
	srv, _ := NewServer(opt)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	gui := wireGUI(t, ts.URL)
	ctx := context.Background()

	if _, err := gui.PullPrice(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := gui.PullPrice(ctx); err != nil {
		t.Fatal(err)
	}
	if err := gui.ReportUsageWire(ctx, []UsageReport{{User: "u", Class: "web", VolumeMB: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := gui.ReportUsageWire(ctx, []UsageReport{{User: "u", Class: "ftp", VolumeMB: 1}}); err != nil {
		t.Fatal(err)
	}

	counts := srv.RequestCounts()
	if counts["price"] != 2 || counts["usage_wire"] != 2 {
		t.Errorf("RequestCounts = %v", counts)
	}
}

func TestServerServeShutdown(t *testing.T) {
	opt, err := NewOptimizer(OptimizerConfig{Scenario: testScenario(), Classes: testClasses()})
	if err != nil {
		t.Fatal(err)
	}
	srv, _ := NewServer(opt)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	gui, _ := NewGUI("http://" + ln.Addr().String())
	if _, err := gui.PullPrice(context.Background()); err != nil {
		t.Fatalf("PullPrice over Serve: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("Serve returned %v after graceful shutdown, want nil", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
	if _, err := gui.PullPrice(context.Background()); err == nil {
		t.Error("server still accepting connections after Shutdown")
	}

	// Shutdown on a never-started server is a no-op.
	srv2, _ := NewServer(opt)
	if err := srv2.Shutdown(context.Background()); err != nil {
		t.Errorf("Shutdown before Serve: %v", err)
	}
}

// TestUsageWireAllocsFlat: POST /usage/wire reuses its request scratch
// (body, decoder, frame arenas, ownership flags), so a warm request on
// a one-node cluster allocates the same with 16 and with 1024 reports
// in its frame, and with its 1024 reports split over four frames.
func TestUsageWireAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	opt, err := NewOptimizer(OptimizerConfig{Scenario: testScenario(), Classes: testClasses()})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(opt)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Config{Version: 1, Members: []cluster.Member{{ID: "n0", Addr: "http://local"}}}
	if err := srv.EnableCluster(ClusterOptions{SelfID: "n0", Ring: cfg}); err != nil {
		t.Fatal(err)
	}
	tab, err := wire.NewClassTable(testClasses())
	if err != nil {
		t.Fatal(err)
	}
	allocs := make(map[string]float64)
	for _, c := range []struct{ frames, reports int }{{1, 16}, {1, 1024}, {4, 256}} {
		var body []byte
		for f := 0; f < c.frames; f++ {
			batch := make([]UsageReport, c.reports)
			for i := range batch {
				batch[i] = UsageReport{User: fmt.Sprintf("user%d-%04d", f, i/4), Class: testClasses()[i%3], VolumeMB: 1}
			}
			if body, err = wire.NewEncoder(tab).AppendFrame(body, batch); err != nil {
				t.Fatal(err)
			}
		}
		name := fmt.Sprintf("%d×%d", c.frames, c.reports)
		post := func() {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/usage/wire", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s reports: status %d: %s", name, rec.Code, rec.Body)
			}
		}
		post() // warm: the users join the engine, the scratch grows
		allocs[name] = testing.AllocsPerRun(50, post)
	}
	t.Logf("allocs per request, by frames×reports: %v", allocs)
	for _, n := range allocs {
		if n != allocs["1×16"] {
			t.Fatalf("allocs per request %v: the handler allocates per report or per frame", allocs)
		}
	}
}
