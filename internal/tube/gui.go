package tube

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"tdp/internal/cluster"
	"tdp/internal/rrd"
	"tdp/internal/wire"
)

// GUI is the user-side TUBE client: it pulls the price exactly once per
// period (the paper's §VI-B scalability rule), keeps a local RRD history
// of offered prices, and exposes the current reward to the user's
// applications (or to an Autopilot).
type GUI struct {
	base    string
	client  *http.Client
	history *rrd.DB
	pulls   int
	last    PriceInfo
	havePri bool
	enc     *wire.Encoder // non-nil once EnableWire has run
}

// NewGUI builds a client for the optimizer at baseURL (no trailing slash).
func NewGUI(baseURL string) (*GUI, error) {
	if baseURL == "" {
		return nil, fmt.Errorf("empty base URL: %w", ErrBadInput)
	}
	hist, err := rrd.New(1, rrd.ArchiveSpec{Func: rrd.Last, Steps: 1, Rows: 1024})
	if err != nil {
		return nil, err
	}
	return &GUI{
		base:    baseURL,
		client:  &http.Client{Timeout: 10 * time.Second},
		history: hist,
		last:    PriceInfo{Period: -1},
	}, nil
}

// PullPrice fetches the current price from the optimizer. TUBE GUIs call
// this once at each period boundary.
func (g *GUI) PullPrice(ctx context.Context) (PriceInfo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.base+"/price", nil)
	if err != nil {
		return PriceInfo{}, fmt.Errorf("build request: %w", err)
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return PriceInfo{}, fmt.Errorf("pull price: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return PriceInfo{}, fmt.Errorf("%w: pull price: status %d", ErrRemote, resp.StatusCode)
	}
	var info PriceInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return PriceInfo{}, fmt.Errorf("decode price: %w", err)
	}
	g.pulls++
	// Record one history point per period; the server may be asked twice
	// for the same period (e.g. on reconnect) — keep the latest only.
	if !g.havePri || info.Period > g.last.Period {
		if err := g.history.Update(int64(info.Period+1), info.Reward); err == nil {
			g.havePri = true
		}
	}
	g.last = info
	return info, nil
}

// EnableWire builds the wire encoder ReportUsageWire needs. The class
// list must match the server's ingest configuration exactly — the wire
// frames carry a hash of it and the server rejects frames built against
// a different table.
func (g *GUI) EnableWire(classes []string) error {
	tab, err := wire.NewClassTable(classes)
	if err != nil {
		return err
	}
	g.enc = wire.NewEncoder(tab)
	return nil
}

// PartialAckError is a wire batch a cluster node applied only in part:
// it applied the records of the users it owns and rejected the rest by
// index. The accepted records are billed, so a retry must resend only
// the Rejected ones, to their owner. It wraps ErrRemote.
type PartialAckError struct {
	Accepted int   // records applied
	Rejected []int // indexes into the batch of the records not applied
}

func (e *PartialAckError) Error() string {
	return fmt.Sprintf("%v: wire ack accepted %d of %d (%d rejected as not owned)",
		ErrRemote, e.Accepted, e.Accepted+len(e.Rejected), len(e.Rejected))
}

func (e *PartialAckError) Unwrap() error { return ErrRemote }

// ReportUsageWire posts a batch of usage records to POST /usage/wire,
// the server's one usage endpoint (EnableWire first). The server
// applies the batch before it answers, so on success every record is in
// the period in progress, and a batch it rejects as invalid leaves
// nothing behind. A cluster node applies only the records of users it
// owns and disowns the rest, which fails the call with a
// *PartialAckError naming the records to resend; cluster.Router does
// that rerouting itself.
func (g *GUI) ReportUsageWire(ctx context.Context, reps []UsageReport) error {
	if g.enc == nil {
		return fmt.Errorf("wire format not enabled: %w", ErrBadInput)
	}
	frame, err := g.enc.Encode(reps)
	if err != nil {
		return fmt.Errorf("encode wire batch: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.base+"/usage/wire",
		bytes.NewReader(frame))
	if err != nil {
		return fmt.Errorf("build request: %w", err)
	}
	req.Header.Set("Content-Type", cluster.WireContentType)
	resp, err := g.client.Do(req)
	if err != nil {
		return fmt.Errorf("report usage wire: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%w: report usage wire: status %d", ErrRemote, resp.StatusCode)
	}
	var ack cluster.WireAck
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		return fmt.Errorf("decode wire ack: %w", err)
	}
	if ack.Accepted+len(ack.Rejected) != len(reps) {
		return fmt.Errorf("%w: wire ack accounts for %d+%d of %d reports",
			ErrRemote, ack.Accepted, len(ack.Rejected), len(reps))
	}
	for i, r := range ack.Rejected {
		if r < 0 || r >= len(reps) || (i > 0 && r <= ack.Rejected[i-1]) {
			return fmt.Errorf("%w: wire ack rejects index %d of %d reports, out of range or order", ErrRemote, r, len(reps))
		}
	}
	if len(ack.Rejected) > 0 {
		return &PartialAckError{Accepted: ack.Accepted, Rejected: ack.Rejected}
	}
	return nil
}

// FetchBill retrieves the user's accrued charge and reward credit for the
// current billing cycle.
func (g *GUI) FetchBill(ctx context.Context, user string) (Statement, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		g.base+"/bill?user="+user, nil)
	if err != nil {
		return Statement{}, fmt.Errorf("build request: %w", err)
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return Statement{}, fmt.Errorf("fetch bill: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Statement{}, fmt.Errorf("%w: fetch bill: status %d", ErrRemote, resp.StatusCode)
	}
	var st Statement
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return Statement{}, fmt.Errorf("decode bill: %w", err)
	}
	return st, nil
}

// CurrentReward returns the most recently pulled reward (0 before the
// first successful pull).
func (g *GUI) CurrentReward() float64 {
	if !g.havePri {
		return 0
	}
	return g.last.Reward
}

// Pulls returns how many price pulls this GUI has made (tests assert the
// once-per-period discipline).
func (g *GUI) Pulls() int { return g.pulls }

// PriceHistory returns the locally archived price points.
func (g *GUI) PriceHistory() ([]rrd.Point, error) {
	return g.history.Fetch(0)
}

// SaveHistory snapshots the local price history (the RRDtool file the
// paper's GUI keeps) so it survives restarts.
func (g *GUI) SaveHistory(w io.Writer) error {
	return g.history.Save(w)
}

// LoadHistory restores a history snapshot written by SaveHistory.
func (g *GUI) LoadHistory(r io.Reader) error {
	db, err := rrd.Load(r)
	if err != nil {
		return err
	}
	g.history = db
	return nil
}

// SaveHistoryFile persists the price history to path via the RRD
// package's crash-safe write-temp + fsync + rename path, so a crash
// mid-save cannot truncate the archive.
func (g *GUI) SaveHistoryFile(path string) error {
	return g.history.SaveFile(path)
}

// LoadHistoryFile restores a history snapshot written by
// SaveHistoryFile; partial or corrupt files are rejected.
func (g *GUI) LoadHistoryFile(path string) error {
	db, err := rrd.LoadFile(path)
	if err != nil {
		return err
	}
	g.history = db
	return nil
}
