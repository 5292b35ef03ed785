package tube

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"sync"
	"testing"
)

func TestNewBillingValidation(t *testing.T) {
	if _, err := NewBilling(0); !errors.Is(err, ErrBadInput) {
		t.Errorf("zero price: err = %v, want ErrBadInput", err)
	}
	if _, err := NewBilling(-1); !errors.Is(err, ErrBadInput) {
		t.Errorf("negative price: err = %v, want ErrBadInput", err)
	}
}

func TestBillingAccrual(t *testing.T) {
	b, err := NewBilling(1) // $0.10 per MB
	if err != nil {
		t.Fatalf("NewBilling: %v", err)
	}
	// Period 1: no reward — full price.
	if err := b.AddPeriod(map[string]float64{"alice": 10, "bob": 4}, 0); err != nil {
		t.Fatalf("AddPeriod: %v", err)
	}
	// Period 2: reward 0.3 — price 0.7.
	if err := b.AddPeriod(map[string]float64{"alice": 10}, 0.3); err != nil {
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
}

func TestBillingPriceFloor(t *testing.T) {
	// A reward above the base price floors the effective price at zero —
	// the ISP never pays users to consume.
	b, _ := NewBilling(1)
	if err := b.AddPeriod(map[string]float64{"u": 5}, 2.5); err != nil {
		t.Fatalf("AddPeriod: %v", err)
	}
	if got := b.Bill("u"); got != 0 {
		t.Errorf("bill = %v, want 0 (floored)", got)
	}
	if got := b.RewardCredit("u"); got != 5 {
		t.Errorf("credit = %v, want 5 (capped at base price × usage)", got)
	}
}

func TestBillingErrors(t *testing.T) {
	b, _ := NewBilling(1)
	if err := b.AddPeriod(map[string]float64{"u": -1}, 0); !errors.Is(err, ErrBadInput) {
		t.Errorf("negative usage: err = %v, want ErrBadInput", err)
	}
	if err := b.AddPeriod(map[string]float64{"u": 1}, -0.1); !errors.Is(err, ErrBadInput) {
		t.Errorf("negative reward: err = %v, want ErrBadInput", err)
	}
}

func TestBillingStatementsAndCycle(t *testing.T) {
	b, _ := NewBilling(2)
	_ = b.AddPeriod(map[string]float64{"carol": 3, "alice": 1}, 0.5)
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
	if len(b.Statements()) != 0 || b.Periods() != 0 {
		t.Error("cycle not reset")
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
	b, err := NewBilling(1)
	if err != nil {
		t.Fatalf("NewBilling: %v", err)
	}
	const (
		writers = 4
		adds    = 200
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			user := fmt.Sprintf("u%d", w)
			for i := 0; i < adds; i++ {
				// reward 0 → price 1 → each call accrues exactly 1.
				if err := b.AddPeriod(map[string]float64{user: 1}, 0); err != nil {
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
