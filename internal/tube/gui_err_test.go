package tube

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestGUIRemoteErrorsWrapSentinel pins the client half of the error
// contract: every GUI entry point that fails on a server status or a
// contradictory ack classifies the failure under tube.ErrRemote, so
// callers separate protocol failures from transport errors with
// errors.Is instead of string matching.
func TestGUIRemoteErrorsWrapSentinel(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()

	g, err := NewGUI(srv.URL)
	if err != nil {
		t.Fatalf("NewGUI: %v", err)
	}
	if err := g.EnableWire(testClasses()); err != nil {
		t.Fatalf("EnableWire: %v", err)
	}
	ctx := context.Background()
	rep := UsageReport{User: "u", Class: "web", VolumeMB: 1}

	if _, err := g.PullPrice(ctx); !errors.Is(err, ErrRemote) {
		t.Errorf("PullPrice on 500: %v, want tube.ErrRemote", err)
	}
	if err := g.ReportUsageWire(ctx, []UsageReport{rep}); !errors.Is(err, ErrRemote) {
		t.Errorf("ReportUsageWire on 500: %v, want tube.ErrRemote", err)
	}
	if _, err := g.FetchBill(ctx, "u"); !errors.Is(err, ErrRemote) {
		t.Errorf("FetchBill on 500: %v, want tube.ErrRemote", err)
	}

	// A 2xx whose ack contradicts the request is the same class of
	// failure: the remote side did not do what was asked.
	ackSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(`{"accepted":0}`))
	}))
	defer ackSrv.Close()
	g2 := wireGUI(t, ackSrv.URL)
	if err := g2.ReportUsageWire(ctx, []UsageReport{rep}); !errors.Is(err, ErrRemote) {
		t.Errorf("ReportUsageWire short ack: %v, want tube.ErrRemote", err)
	}
}
