package tube

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"sync"
	"testing"

	"tdp/internal/ingest"
)

// newTestBilling returns a billing engine over a fresh measurement
// engine.
func newTestBilling(t *testing.T, basePrice float64) (*Billing, *ingest.Engine) {
	t.Helper()
	eng, err := ingest.NewEngine(testClasses(), 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBilling(eng, basePrice)
	if err != nil {
		t.Fatalf("NewBilling: %v", err)
	}
	return b, eng
}

// usageCut closes one period of eng in which each user used the given
// volume.
func usageCut(t *testing.T, eng *ingest.Engine, usage map[string]float64) *ingest.Cut {
	t.Helper()
	for user, mb := range usage {
		if err := eng.Record(user, testClasses()[0], mb); err != nil {
			t.Fatal(err)
		}
	}
	return eng.Rollover()
}

func TestNewBillingValidation(t *testing.T) {
	eng, err := ingest.NewEngine(testClasses(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewBilling(eng, 0); !errors.Is(err, ErrBadInput) {
		t.Errorf("zero price: err = %v, want ErrBadInput", err)
	}
	if _, err := NewBilling(eng, -1); !errors.Is(err, ErrBadInput) {
		t.Errorf("negative price: err = %v, want ErrBadInput", err)
	}
	if _, err := NewBilling(nil, 1); !errors.Is(err, ErrBadInput) {
		t.Errorf("no engine: err = %v, want ErrBadInput", err)
	}
}

func TestBillingAccrual(t *testing.T) {
	b, eng := newTestBilling(t, 1) // $0.10 per MB
	// Period 1: no reward — full price.
	if err := b.AddPeriod(usageCut(t, eng, map[string]float64{"alice": 10, "bob": 4}), 0); err != nil {
		t.Fatalf("AddPeriod: %v", err)
	}
	// Period 2: reward 0.3 — price 0.7.
	if err := b.AddPeriod(usageCut(t, eng, map[string]float64{"alice": 10}), 0.3); err != nil {
		t.Fatalf("AddPeriod: %v", err)
	}
	if got := b.Bill("alice"); math.Abs(got-17) > 1e-12 {
		t.Errorf("alice bill = %v, want 17", got)
	}
	if got := b.Bill("bob"); got != 4 {
		t.Errorf("bob bill = %v, want 4", got)
	}
	if got := b.RewardCredit("alice"); math.Abs(got-3) > 1e-12 {
		t.Errorf("alice credit = %v, want 3", got)
	}
	if got := b.Bill("nobody"); got != 0 {
		t.Errorf("unknown user bill = %v, want 0", got)
	}
	if b.Periods() != 2 {
		t.Errorf("Periods = %d, want 2", b.Periods())
	}
	if b.Users() != 2 {
		t.Errorf("Users = %d, want 2", b.Users())
	}
}

func TestBillingPriceFloor(t *testing.T) {
	// A reward above the base price floors the effective price at zero —
	// the ISP never pays users to consume.
	b, eng := newTestBilling(t, 1)
	if err := b.AddPeriod(usageCut(t, eng, map[string]float64{"u": 5}), 2.5); err != nil {
		t.Fatalf("AddPeriod: %v", err)
	}
	if got := b.Bill("u"); got != 0 {
		t.Errorf("bill = %v, want 0 (floored)", got)
	}
	if got := b.RewardCredit("u"); got != 5 {
		t.Errorf("credit = %v, want 5 (capped at base price × usage)", got)
	}
}

// TestBillingErrors: a bad reward or a cut of another engine is
// refused. Negative usage cannot reach billing at all: the measurement
// engine rejects it, and its counters are unsigned.
func TestBillingErrors(t *testing.T) {
	b, eng := newTestBilling(t, 1)
	if err := eng.Record("u", testClasses()[0], -1); !errors.Is(err, ingest.ErrBadReport) {
		t.Errorf("negative usage: err = %v, want ingest.ErrBadReport", err)
	}
	if err := b.AddPeriod(usageCut(t, eng, map[string]float64{"u": 1}), -0.1); !errors.Is(err, ErrBadInput) {
		t.Errorf("negative reward: err = %v, want ErrBadInput", err)
	}
	if err := b.AddPeriod(usageCut(t, eng, map[string]float64{"u": 1}), math.NaN()); !errors.Is(err, ErrBadInput) {
		t.Errorf("NaN reward: err = %v, want ErrBadInput", err)
	}
	_, other := newTestBilling(t, 1)
	if err := b.AddPeriod(usageCut(t, other, map[string]float64{"u": 1}), 0); !errors.Is(err, ErrBadInput) {
		t.Errorf("cut of another engine: err = %v, want ErrBadInput", err)
	}
	if b.Periods() != 0 || b.Bill("u") != 0 {
		t.Errorf("refused periods accrued: %d periods, bill %v", b.Periods(), b.Bill("u"))
	}
}

func TestBillingStatementsAndCycle(t *testing.T) {
	b, eng := newTestBilling(t, 2)
	_ = b.AddPeriod(usageCut(t, eng, map[string]float64{"carol": 3, "alice": 1}), 0.5)
	stmts := b.Statements()
	if len(stmts) != 2 || stmts[0].User != "alice" || stmts[1].User != "carol" {
		t.Fatalf("Statements = %+v, want sorted [alice carol]", stmts)
	}
	if math.Abs(stmts[1].Charge-4.5) > 1e-12 {
		t.Errorf("carol charge = %v, want 4.5", stmts[1].Charge)
	}
	closed := b.CloseCycle()
	if len(closed) != 2 {
		t.Fatal("CloseCycle lost statements")
	}
	if len(b.Statements()) != 0 || b.Periods() != 0 || b.Users() != 0 || b.Bill("carol") != 0 {
		t.Error("cycle not reset")
	}
	_ = b.AddPeriod(usageCut(t, eng, map[string]float64{"carol": 1}), 0)
	if stmts := b.Statements(); len(stmts) != 1 || stmts[0].Charge != 2 {
		t.Errorf("next cycle statements = %+v, want carol alone at 2", stmts)
	}
}

// TestBillSurvivesRollovers: a user's bill accrues across many
// periods, each closed through the engine's rollover, under the one id
// the user table gave the user.
func TestBillSurvivesRollovers(t *testing.T) {
	b, eng := newTestBilling(t, 1)
	const periods = 500
	for p := 0; p < periods; p++ {
		usage := map[string]float64{"alice": 0.25, fmt.Sprintf("passer%d", p): 1}
		cut := usageCut(t, eng, usage)
		if err := b.AddPeriod(cut, 0.5); err != nil {
			t.Fatal(err)
		}
		cut.Release()
	}
	//lint:allow floateq dyadic charges sum exactly
	if got, want := b.Bill("alice"), periods*0.25*0.5; got != want {
		t.Fatalf("alice bill after %d periods = %v, want %v", periods, got, want)
	}
	if got := b.Users(); got != periods+1 {
		t.Fatalf("%d users billed, want %d", got, periods+1)
	}
}

// TestBillingUserHashCollision: two distinct users whose FNV-1a
// UserHash is equal (found by brute force) share a shard of the user
// table but keep separate bills and separate statement lines.
func TestBillingUserHashCollision(t *testing.T) {
	byHash := make(map[uint32]string, 1<<18)
	var a, c string
	for k := 0; a == ""; k++ {
		name := fmt.Sprintf("c%d", k)
		h := ingest.UserHash(name)
		if other, ok := byHash[h]; ok {
			a, c = other, name
		}
		byHash[h] = name
	}
	b, eng := newTestBilling(t, 2)
	if err := b.AddPeriod(usageCut(t, eng, map[string]float64{a: 3, c: 1}), 0.5); err != nil {
		t.Fatal(err)
	}
	//lint:allow floateq dyadic charges are exact
	if b.Bill(a) != 4.5 || b.Bill(c) != 1.5 {
		t.Fatalf("bills %s: %v, %s: %v; want 4.5 and 1.5", a, b.Bill(a), c, b.Bill(c))
	}
	stmts := b.Statements()
	if len(stmts) != 2 || stmts[0].User == stmts[1].User {
		t.Fatalf("statements %+v, want one line per user", stmts)
	}
}

func TestOptimizerBillingIntegration(t *testing.T) {
	opt, err := NewOptimizer(OptimizerConfig{
		Scenario: testScenario(),
		Classes:  testClasses(),
	})
	if err != nil {
		t.Fatalf("NewOptimizer: %v", err)
	}
	reward := opt.CurrentReward()
	if err := opt.Measurement().Record("user9", "video", 100); err != nil {
		t.Fatal(err)
	}
	if _, err := opt.ClosePeriod(); err != nil {
		t.Fatalf("ClosePeriod: %v", err)
	}
	want := (1 - reward) * 100
	if want < 0 {
		want = 0
	}
	if got := opt.Billing().Bill("user9"); math.Abs(got-want) > 1e-9 {
		t.Errorf("bill = %v, want %v (base 1, reward %v)", got, want, reward)
	}
}

func TestBillOverHTTP(t *testing.T) {
	opt, err := NewOptimizer(OptimizerConfig{
		Scenario:  testScenario(),
		Classes:   testClasses(),
		BasePrice: 2,
	})
	if err != nil {
		t.Fatalf("NewOptimizer: %v", err)
	}
	srv, _ := NewServer(opt)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	gui := wireGUI(t, ts.URL)
	ctx := context.Background()

	if err := gui.ReportUsageWire(ctx, []UsageReport{{User: "dave", Class: "web", VolumeMB: 50}}); err != nil {
		t.Fatal(err)
	}
	reward := opt.CurrentReward()
	if _, err := opt.ClosePeriod(); err != nil {
		t.Fatal(err)
	}
	st, err := gui.FetchBill(ctx, "dave")
	if err != nil {
		t.Fatalf("FetchBill: %v", err)
	}
	price := 2 - reward
	if price < 0 {
		price = 0
	}
	if math.Abs(st.Charge-price*50) > 1e-9 {
		t.Errorf("charge = %v, want %v", st.Charge, price*50)
	}
	if st.User != "dave" {
		t.Errorf("user = %q", st.User)
	}
}

func TestCloseCycleAtomicNoLostAccruals(t *testing.T) {
	// Regression for the split-critical-section CloseCycle: it used to
	// snapshot statements under one hold of mu and reset the maps under a
	// second, so an AddPeriod landing in the gap was charged to the user
	// and then wiped before appearing on any statement. With snapshot and
	// reset in one critical section, every accrued unit must show up on
	// exactly one cycle's statements. (Run under -race in CI.)
	b, eng := newTestBilling(t, 1)
	const (
		writers = 4
		adds    = 200
	)
	// Each writer accrues its own closed periods of one MB for its user.
	cuts := make([][]*ingest.Cut, writers)
	for w := range cuts {
		for i := 0; i < adds; i++ {
			cuts[w] = append(cuts[w], usageCut(t, eng, map[string]float64{fmt.Sprintf("u%d", w): 1}))
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, cut := range cuts[w] {
				// reward 0 → price 1 → each call accrues exactly 1.
				if err := b.AddPeriod(cut, 0); err != nil {
					t.Errorf("AddPeriod: %v", err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	var closed []Statement
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			closed = append(closed, b.CloseCycle()...)
		}
	}()
	wg.Wait()
	<-done
	closed = append(closed, b.CloseCycle()...)

	var total float64
	for _, s := range closed {
		total += s.Charge
	}
	if want := float64(writers * adds); total != want {
		t.Fatalf("accrued %v across cycles, want %v: CloseCycle lost updates", total, want)
	}
}
