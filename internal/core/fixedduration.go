package core

import (
	"fmt"
	"math"

	"tdp/internal/waiting"
)

// FixedDurationModel is Appendix G's variant for sessions that stay in the
// network a fixed amount of time and then leave (e.g. streaming video):
// within each period the session count follows Ṅ = ν − d·N, so sessions
// depart in proportion to how many are active, and congestion shows up as
// quality degradation on the concurrent load rather than unfinished work.
//
// Discretizing one period with constant post-deferral arrival rate ν_i and
// departure rate d_i gives the exact linear-ODE step
//
//	N_i(end) = N_i(start)·e^{−d_i} + (ν_i/d_i)·(1 − e^{−d_i}),
//
// with N_i(start) = N_{i−1}(end) + deferred-in sessions (eq. 38). The cost
// per period is p_i·In_i + f(b·N_i(end) − A_i): the reward outlay plus the
// congestion cost of the concurrent volume exceeding capacity.
//
// Unlike the fixed-size model the recursion has no max kink: it is linear
// in the arrivals, so the model has the same exact AffineForm as the
// static model and Solve certifies its optimum the same way.
type FixedDurationModel struct {
	scn    *Scenario
	totals []float64
	kd     *deferKernel
	ws     wsPool
	n, m   int

	// DepartRate is d_i per period (same for all periods); 1/DepartRate is
	// the mean session duration in periods. Must be > 0.
	DepartRate float64
	// SessionSize is b, the bandwidth of one session in 10 MBps; demand
	// figures are divided by it to obtain session counts. Must be > 0.
	SessionSize float64
	// StartSessions is N at the start of period 1.
	StartSessions float64
}

// NewFixedDurationModel builds the model with the given departure rate.
func NewFixedDurationModel(scn *Scenario, departRate, sessionSize float64) (*FixedDurationModel, error) {
	if err := scn.Validate(); err != nil {
		return nil, err
	}
	if departRate <= 0 || math.IsNaN(departRate) {
		return nil, fmt.Errorf("departure rate %v: %w", departRate, ErrBadScenario)
	}
	if sessionSize <= 0 || math.IsNaN(sessionSize) {
		return nil, fmt.Errorf("session size %v: %w", sessionSize, ErrBadScenario)
	}
	n, m := scn.Periods, len(scn.Betas)
	p := scn.NormReward()
	fm := &FixedDurationModel{
		scn:         scn,
		totals:      scn.TotalDemand(),
		n:           n,
		m:           m,
		DepartRate:  departRate,
		SessionSize: sessionSize,
	}
	wfs := make([]waiting.UniformArrival, m)
	for j, beta := range scn.Betas {
		w, err := waiting.NewUniformArrival(beta, n, p)
		if err != nil {
			return nil, fmt.Errorf("type %d: %w", j, err)
		}
		wfs[j] = w
	}
	fm.kd = newDeferKernel(funcsOf(wfs), scn.Demand, n, scn.NoWrap)
	fm.ws.init(n)
	return fm, nil
}

// SessionCounts returns end-of-period session counts N_i under rewards p.
func (fm *FixedDurationModel) SessionCounts(p []float64) []float64 {
	w := fm.ws.get()
	defer fm.ws.put(w)
	fm.countsInto(p, w)
	return append([]float64(nil), w.z...)
}

// countsInto runs the session-count recursion for rewards p, leaving the
// deferred-into vector in w.in and the end-of-period counts N_i in w.z.
func (fm *FixedDurationModel) countsInto(p []float64, w *evalWS) {
	fm.kd.arrivalsInto(p, fm.totals, w.x, w.in, w.p2)
	decay := math.Exp(-fm.DepartRate)
	north := fm.StartSessions
	for i := 0; i < fm.n; i++ {
		nu := w.x[i] / fm.SessionSize // arrivals in sessions/period
		north = north*decay + (nu/fm.DepartRate)*(1-decay)
		w.z[i] = north
	}
}

// CostAt evaluates the exact objective (36).
func (fm *FixedDurationModel) CostAt(p []float64) float64 {
	w := fm.ws.get()
	defer fm.ws.put(w)
	fm.countsInto(p, w)
	var c float64
	for i := 0; i < fm.n; i++ {
		c += p[i]*w.in[i] + fm.scn.Cost.Value(fm.SessionSize*w.z[i]-fm.scn.Capacity[i])
	}
	return c
}

// TIPCost returns the no-reward cost.
func (fm *FixedDurationModel) TIPCost() float64 {
	return fm.CostAt(make([]float64, fm.n))
}

// MaxReward returns the box bound for rewards, as for the static model.
func (fm *FixedDurationModel) MaxReward() float64 {
	return math.Min(fm.scn.Cost.MaxSlope(), fm.scn.NormReward())
}

// AffineForm reads the model off as an AffineForm. The session-count
// recursion is linear in the arrivals, which are affine in p, so the
// concurrent load b·N_i is affine in p too; C is the inflow weights, as
// for the static model.
func (fm *FixedDurationModel) AffineForm() *AffineForm {
	return newAffineForm(func(p, out []float64) {
		w := fm.ws.get()
		fm.countsInto(p, w)
		for i, north := range w.z[:fm.n] {
			out[i] = fm.SessionSize * north
		}
		fm.ws.put(w)
	}, append([]float64(nil), fm.kd.inW...), append([]float64(nil), fm.scn.Capacity...),
		fm.scn.Cost, fm.MaxReward())
}

// Solve minimizes the fixed-duration cost with the exact dual solve of the
// model's AffineForm, to a certified relative gap of 1e-9. Usage in the
// result holds the end-of-period session counts.
func (fm *FixedDurationModel) Solve() (*Pricing, error) {
	pr := fm.AffineForm().Solve()
	w := fm.ws.get()
	fm.countsInto(pr.Rewards, w)
	for i := 0; i < fm.n; i++ {
		pr.RewardOutlay += pr.Rewards[i] * w.in[i]
	}
	pr.Usage = append([]float64(nil), w.z...)
	fm.ws.put(w)
	pr.TIPCost = fm.TIPCost()
	return pr, nil
}
