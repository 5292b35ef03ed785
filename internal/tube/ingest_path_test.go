package tube

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestUsageBatchEndpoint(t *testing.T) {
	opt, err := NewOptimizer(OptimizerConfig{Scenario: testScenario(), Classes: testClasses()})
	if err != nil {
		t.Fatal(err)
	}
	srv, _ := NewServer(opt)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	gui, _ := NewGUI(ts.URL)
	ctx := context.Background()

	batch := []UsageReport{
		{User: "user1", Class: "web", VolumeMB: 3},
		{User: "user1", Class: "web", VolumeMB: 4},
		{User: "user2", Class: "video", VolumeMB: 50},
	}
	if err := gui.ReportUsageBatch(ctx, batch); err != nil {
		t.Fatalf("ReportUsageBatch: %v", err)
	}
	ct := opt.Measurement().ClassTotals()
	if ct[0] != 7 || ct[2] != 50 {
		t.Errorf("ClassTotals after batch = %v", ct)
	}

	// A batch with one bad report is rejected atomically.
	bad := []UsageReport{
		{User: "user3", Class: "web", VolumeMB: 1},
		{User: "user3", Class: "smtp", VolumeMB: 1},
	}
	if err := gui.ReportUsageBatch(ctx, bad); err == nil {
		t.Fatal("bad batch accepted over the wire")
	}
	if ut := opt.Measurement().UserTotals(); ut["user3"] != 0 {
		t.Errorf("rejected batch left residue: %v", ut)
	}

	// Malformed JSON → 400.
	resp, err := http.Post(ts.URL+"/usage/batch", "application/json", strings.NewReader("{not json"))
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
	gui, _ := NewGUI(ts.URL)
	ctx := context.Background()

	if _, err := gui.PullPrice(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := gui.PullPrice(ctx); err != nil {
		t.Fatal(err)
	}
	if err := gui.ReportUsage(ctx, UsageReport{User: "u", Class: "web", VolumeMB: 1}); err != nil {
		t.Fatal(err)
	}
	if err := gui.ReportUsageBatch(ctx, []UsageReport{{User: "u", Class: "ftp", VolumeMB: 1}}); err != nil {
		t.Fatal(err)
	}

	counts := srv.RequestCounts()
	if counts["price"] != 2 || counts["usage"] != 1 || counts["usage_batch"] != 1 {
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
