package tube

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"tdp/internal/ingest"
)

// Billing accrues each user's bill under time-dependent usage pricing.
// The paper's §IV observation is that correct billing needs only the
// per-user usage in each period and that period's published reward: the
// effective price is the baseline usage price minus the reward (rewards
// "move the baseline usage price", §I-C), floored at zero.
//
// Accounts live in slices indexed by the measurement engine's (shard,
// user id), so a period close accrues the rollover cut directly, with
// no per-user map work; names come from the engine's user table.
type Billing struct {
	mu        sync.Mutex
	basePrice float64        // $0.10 per volume unit; immutable after New
	users     *ingest.Engine // the user table accounts are indexed by; immutable after New
	accts     [][]account    // guarded by mu: per shard, by user id
	billed    int            // guarded by mu: accounts with an accrual this cycle
	periods   int            // guarded by mu
}

// account is one user's accruals in the open cycle.
type account struct {
	charge float64 // $0.10 units
	reward float64 // value of rewards credited
	billed bool    // accrued at least one period this cycle
}

// NewBilling creates a billing engine over the users of a measurement
// engine, with the given baseline usage price per volume unit ($0.10
// units).
func NewBilling(users *ingest.Engine, basePrice float64) (*Billing, error) {
	if users == nil {
		return nil, fmt.Errorf("nil measurement engine: %w", ErrBadInput)
	}
	if basePrice <= 0 || math.IsNaN(basePrice) {
		return nil, fmt.Errorf("base price %v: %w", basePrice, ErrBadInput)
	}
	return &Billing{
		basePrice: basePrice,
		users:     users,
		accts:     make([][]account, users.NumShards()),
	}, nil
}

// BasePrice returns the baseline usage price.
func (b *Billing) BasePrice() float64 { return b.basePrice }

// AddPeriod accrues one closed period, taken from the engine's
// Rollover: each user's usage is charged at max(basePrice − reward, 0).
func (b *Billing) AddPeriod(cut *ingest.Cut, reward float64) error {
	if reward < 0 || math.IsNaN(reward) {
		return fmt.Errorf("reward %v: %w", reward, ErrBadInput)
	}
	if cut.Engine() != b.users {
		return fmt.Errorf("cut of another measurement engine: %w", ErrBadInput)
	}
	price := b.basePrice - reward
	if price < 0 {
		price = 0
	}
	credit := b.basePrice - price
	b.mu.Lock()
	defer b.mu.Unlock()
	cut.EachUser(func(shard int, id int32, usage float64) {
		accts := b.accts[shard]
		if n := int(id) + 1; n > len(accts) {
			accts = slices.Grow(accts, n-len(accts))[:n]
			b.accts[shard] = accts
		}
		a := &accts[id]
		a.charge += price * usage
		a.reward += credit * usage
		if !a.billed {
			a.billed = true
			b.billed++
		}
	})
	b.periods++
	return nil
}

// account returns a user's account, or nil for a user with no accrual
// this cycle. Callers hold mu.
func (b *Billing) account(user string) *account {
	shard, id, ok := b.users.Lookup(user)
	if !ok || int(id) >= len(b.accts[shard]) || !b.accts[shard][id].billed {
		return nil
	}
	return &b.accts[shard][id]
}

// Bill returns a user's accrued charge this cycle (0 for unknown users).
func (b *Billing) Bill(user string) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if a := b.account(user); a != nil {
		return a.charge
	}
	return 0
}

// RewardCredit returns the total value of rewards a user has received this
// cycle (the discount off TIP billing).
func (b *Billing) RewardCredit(user string) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if a := b.account(user); a != nil {
		return a.reward
	}
	return 0
}

// Periods returns how many periods have been accrued this cycle.
func (b *Billing) Periods() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.periods
}

// Users returns how many users carry a charge this cycle.
func (b *Billing) Users() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.billed
}

// Statement is one user's line on the cycle statement.
type Statement struct {
	User         string  `json:"user"`
	Charge       float64 `json:"charge"`       // $0.10 units
	RewardCredit float64 `json:"rewardCredit"` // discount vs TIP billing
}

// Statements returns the cycle's per-user statements, sorted by user.
func (b *Billing) Statements() []Statement {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.statementsLocked()
}

// statementsLocked builds the sorted statement list; callers hold mu.
func (b *Billing) statementsLocked() []Statement {
	out := make([]Statement, 0, b.billed)
	for shard, accts := range b.accts {
		names := b.users.Names(shard)
		for id := range accts {
			if a := &accts[id]; a.billed {
				out = append(out, Statement{User: names[id], Charge: a.charge, RewardCredit: a.reward})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].User < out[j].User })
	return out
}

// CloseCycle returns the final statements and resets for the next cycle.
// Snapshot and reset happen under one hold of mu: the earlier
// Statements-then-reset pair left a window where an AddPeriod landing
// between the two acquisitions was charged to users but wiped before
// appearing on any statement (the locksplit bug class, caught by
// tubelint once the fields above were annotated).
func (b *Billing) CloseCycle() []Statement {
	b.mu.Lock()
	defer b.mu.Unlock()
	stmts := b.statementsLocked()
	for _, accts := range b.accts {
		clear(accts)
	}
	b.billed = 0
	b.periods = 0
	return stmts
}
