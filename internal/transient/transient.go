// Package transient computes time-dependent behaviour of the unreliable
// multi-server queue by uniformization (Jensen's method) on the truncated
// level×mode chain. The paper analyses the stationary regime only; this
// extension answers the operator's companion question — how long after a
// cold start, a mass outage or a load surge the queue takes to reach its
// steady state — using exactly the same generator as the exact solvers.
package transient

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/qbd"
)

// Options configures the uniformized transient solver.
type Options struct {
	// MaxLevel truncates the queue length (default 4·N + 64; raise it for
	// heavy loads where stationary mass lives deep in the tail).
	MaxLevel int
	// Tol is the truncation tolerance for the Poisson series (default 1e-10).
	Tol float64
}

// Solver evaluates transient distributions for one parameter set.
type Solver struct {
	p        qbd.Params
	maxLevel int
	tol      float64

	s    int
	dim  int
	rate float64   // uniformization rate Λ ≥ max total outflow
	rows [][]entry // P = I + Q/Λ in sparse row form
}

type entry struct {
	col int
	val float64
}

// NewSolver validates the parameters and precomputes the uniformized
// transition matrix.
func NewSolver(p qbd.Params, opts Options) (*Solver, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if opts.MaxLevel == 0 {
		opts.MaxLevel = 4*p.Threshold() + 64
	}
	if opts.MaxLevel < 1 {
		return nil, fmt.Errorf("transient: max level %d < 1", opts.MaxLevel)
	}
	if opts.Tol == 0 {
		opts.Tol = 1e-10
	}
	s := p.Size()
	dim := (opts.MaxLevel + 1) * s
	sv := &Solver{p: p, maxLevel: opts.MaxLevel, tol: opts.Tol, s: s, dim: dim}
	sv.build()
	return sv, nil
}

// idx maps (level, mode) to a flat state index.
func (sv *Solver) idx(level, mode int) int { return level*sv.s + mode }

// build assembles P = I + Q/Λ for the truncated chain (arrivals at the top
// level are dropped, matching qbd.SolveTruncated semantics).
func (sv *Solver) build() {
	p := sv.p
	s := sv.s
	a := p.EnvMatrix()
	da := a.RowSums()
	// Uniformization rate: a bound on total outflow of any state.
	maxC := 0.0
	top := p.ServiceDiag[len(p.ServiceDiag)-1]
	for _, v := range top {
		if v > maxC {
			maxC = v
		}
	}
	maxDA := 0.0
	for _, v := range da {
		if v > maxDA {
			maxDA = v
		}
	}
	sv.rate = p.Lambda + maxC + maxDA + 1
	sv.rows = make([][]entry, sv.dim)
	for level := 0; level <= sv.maxLevel; level++ {
		cj := serviceAt(p, level)
		for mode := 0; mode < s; mode++ {
			from := sv.idx(level, mode)
			var out float64
			var row []entry
			// Arrivals.
			if level < sv.maxLevel {
				row = append(row, entry{sv.idx(level+1, mode), p.Lambda / sv.rate})
				out += p.Lambda
			}
			// Departures.
			if level > 0 && cj[mode] > 0 {
				row = append(row, entry{sv.idx(level-1, mode), cj[mode] / sv.rate})
				out += cj[mode]
			}
			// Mode changes.
			for to := 0; to < s; to++ {
				if r := a.At(mode, to); r > 0 {
					row = append(row, entry{sv.idx(level, to), r / sv.rate})
					out += r
				}
			}
			// Self loop completes the stochastic row.
			row = append(row, entry{from, 1 - out/sv.rate})
			sv.rows[from] = row
		}
	}
}

// step computes v·P for a row distribution v.
func (sv *Solver) step(v []float64) []float64 {
	out := make([]float64, sv.dim)
	for i, vi := range v {
		if vi == 0 {
			continue
		}
		for _, e := range sv.rows[i] {
			out[e.col] += vi * e.val
		}
	}
	return out
}

// InitialState builds a distribution concentrated on one (queue length,
// mode) pair.
func (sv *Solver) InitialState(level, mode int) ([]float64, error) {
	if level < 0 || level > sv.maxLevel {
		return nil, fmt.Errorf("transient: level %d outside [0, %d]", level, sv.maxLevel)
	}
	if mode < 0 || mode >= sv.s {
		return nil, fmt.Errorf("transient: mode %d outside [0, %d)", mode, sv.s)
	}
	v := make([]float64, sv.dim)
	v[sv.idx(level, mode)] = 1
	return v, nil
}

// Distribution is a snapshot of the transient state at one time point.
type Distribution struct {
	s      int
	levels int
	v      []float64
}

// LevelProb returns P(queue length = j at time t).
func (d *Distribution) LevelProb(j int) float64 {
	if j < 0 || j >= d.levels {
		return 0
	}
	var pr float64
	for i := 0; i < d.s; i++ {
		pr += d.v[j*d.s+i]
	}
	return pr
}

// MeanQueue returns E[queue length at time t].
func (d *Distribution) MeanQueue() float64 {
	var l float64
	for j := 0; j < d.levels; j++ {
		l += float64(j) * d.LevelProb(j)
	}
	return l
}

// ModeMarginals returns the mode distribution at time t.
func (d *Distribution) ModeMarginals() []float64 {
	out := make([]float64, d.s)
	for j := 0; j < d.levels; j++ {
		for i := 0; i < d.s; i++ {
			out[i] += d.v[j*d.s+i]
		}
	}
	return out
}

// At computes the state distribution at time t ≥ 0 from the initial
// distribution v0, by the uniformized Poisson mixture
// v(t) = Σ_k e^{−Λt}(Λt)^k/k! · v0·P^k, truncated when the remaining
// Poisson mass falls below Tol.
func (sv *Solver) At(v0 []float64, t float64) (*Distribution, error) {
	if len(v0) != sv.dim {
		return nil, fmt.Errorf("transient: initial vector length %d, want %d", len(v0), sv.dim)
	}
	if t < 0 || math.IsNaN(t) {
		return nil, errors.New("transient: negative time")
	}
	acc := make([]float64, sv.dim)
	cur := append([]float64(nil), v0...)
	lt := sv.rate * t
	if math.IsInf(lt, 0) {
		return nil, errors.New("transient: time too large for uniformization")
	}
	// Poisson(Λt) weights tracked in log space: for large Λt the left tail
	// underflows float64 entirely (e^{−Λt} = 0 beyond Λt ≈ 745), so the
	// weight only materialises once log w_k = −Λt + k·ln Λt − ln k! climbs
	// back above the underflow threshold near the Poisson bulk.
	const logUnderflow = -745.0
	logw := -lt // k = 0
	cumulative := 0.0
	// Hard cap well beyond the Poisson bulk (Λt + 12√Λt).
	maxK := int(lt+12*math.Sqrt(lt+1)) + 64
	for k := 0; k <= maxK; k++ {
		if k > 0 {
			cur = sv.step(cur)
			logw += math.Log(lt) - math.Log(float64(k))
		}
		if logw > logUnderflow {
			w := math.Exp(logw)
			for i := range acc {
				acc[i] += w * cur[i]
			}
			cumulative += w
			// Past the Poisson mode the weights decay geometrically; stop
			// once the captured mass is within tolerance.
			if float64(k) > lt && 1-cumulative < sv.tol {
				break
			}
		}
	}
	// Distribute any residual Poisson mass onto the last iterate.
	if rem := 1 - cumulative; rem > 0 {
		for i := range acc {
			acc[i] += rem * cur[i]
		}
	}
	return &Distribution{s: sv.s, levels: sv.maxLevel + 1, v: acc}, nil
}

// MeanQueuePath evaluates E[Z(t)] on a grid of time points from one
// initial state.
func (sv *Solver) MeanQueuePath(v0 []float64, times []float64) ([]float64, error) {
	out := make([]float64, len(times))
	for i, t := range times {
		d, err := sv.At(v0, t)
		if err != nil {
			return nil, fmt.Errorf("transient: t = %v: %w", t, err)
		}
		out[i] = d.MeanQueue()
	}
	return out, nil
}

// TimeToSettle returns the first time on the grid where |E[Z(t)] − L∞| is
// within frac·L∞ of the stationary mean L∞, or −1 if never reached.
func (sv *Solver) TimeToSettle(v0 []float64, times []float64, stationary, frac float64) (float64, error) {
	path, err := sv.MeanQueuePath(v0, times)
	if err != nil {
		return 0, err
	}
	for i, l := range path {
		if math.Abs(l-stationary) <= frac*stationary {
			return times[i], nil
		}
	}
	return -1, nil
}

func serviceAt(p qbd.Params, j int) []float64 {
	if j >= len(p.ServiceDiag) {
		return p.ServiceDiag[len(p.ServiceDiag)-1]
	}
	return p.ServiceDiag[j]
}
