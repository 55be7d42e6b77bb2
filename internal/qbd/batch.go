package qbd

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/linalg"
)

// SweepSolver is the package's spectral-expansion solver: it evaluates the
// solution across a batch of arrival rates that share one
// breakdown/repair environment — the shape of every λ-sweep in the paper's
// Figures 4–9 — and SolveSpectral is its batch of one. Construction hoists
// all λ-independent work from the server description (validation, each
// mode's moves and Dᴬ, the capacity, and the factored stage's multisets
// and composition tables), and holds no s×s matrix; each Solve then runs
// the per-point remainder of the spectral expansion — the roots and left
// vectors, N−1 boundary inverses of K_j built from the moves, and one
// real s×s matching system at level N−1 — inside a reusable worker
// workspace, allocation-free once warm.
//
// Equivalence contract: a point solved on a reused or pooled worker is the
// *same computation* as SolveSpectral(p) with p.Lambda set to that point,
// which runs on a fresh worker — the same pivot choices, the same
// operation order, the same linalg.Axpy path — so on one host results are
// bit-identical: no workspace state leaks from one point into the next.
// Across hosts they are not: Axpy fuses its multiply-adds on CPUs with
// AVX2 and FMA and rounds twice elsewhere, so the two kinds of host differ
// in the last bits, within the bounds the oracle tests hold every solve
// to. Per-point failures (a λ that is not positive and finite,
// instability, eigenvalue-count defects) return the same errors as
// SolveSpectral and never affect the shared hoisted state or later points.
//
// A SweepSolver is safe for concurrent use; workers are pooled.
type SweepSolver struct {
	p   Params    // base parameters; p.Lambda is ignored
	env *lumping  // each mode's moves and Dᴬ, for every K_j
	fac *factored // the eigen stage and the capacity, hoisted from p.Servers

	pool sync.Pool // *SweepWorker
}

// NewSweepSolver validates the λ-independent part of p and hoists the
// shared state. p.Lambda is ignored (each Solve supplies its own rate);
// validation errors are those SolveSpectral would report for any point of
// the batch, so a failed construction means every point would fail. A
// description whose server's entered phases are not irreducible and
// reversible is such an error.
func NewSweepSolver(p Params) (*SweepSolver, error) {
	ms, err := p.validateEnv()
	if err != nil {
		return nil, err
	}
	fac, err := newFactored(p.Servers, ms)
	if err != nil {
		return nil, err
	}
	sv := &SweepSolver{p: p, env: p.Servers.lump(ms), fac: fac}
	sv.pool.New = func() any { return sv.NewWorker() }
	return sv, nil
}

// Size returns the number of environment modes s.
func (sv *SweepSolver) Size() int { return len(sv.env.da) }

// Threshold returns N, the first level at which the expansion applies.
func (sv *SweepSolver) Threshold() int { return sv.p.Threshold() }

// Capacity returns the hoisted Servers.Capacity, bit for bit: a point is
// stable iff its λ is below it.
func (sv *SweepSolver) Capacity() float64 { return sv.fac.capacity }

// Solve evaluates one grid point on a pooled worker and returns a freshly
// allocated, caller-owned solution.
func (sv *SweepSolver) Solve(lambda float64) (*SpectralSolution, error) {
	w := sv.pool.Get().(*SweepWorker)
	defer sv.pool.Put(w)
	sol := new(SpectralSolution)
	if err := w.SolveInto(lambda, sol); err != nil {
		return nil, err
	}
	return sol, nil
}

// SweepWorker holds the reusable per-point workspace of one SweepSolver.
// A worker is not safe for concurrent use; use one per goroutine (or let
// SweepSolver.Solve manage a pool). Dedicated workers exist so that a
// caller evaluating a dense grid can guarantee the allocation-free steady
// state that sync.Pool — which may drop pooled workers under GC pressure —
// cannot promise.
type SweepWorker struct {
	sv     *SweepSolver
	ar     linalg.Arena
	stages []*linalg.Matrix // S_0..S_{N−2} headers, matrices live in the arena
	fac    factoredWork     // the eigen stage's scratch
}

// NewWorker returns a fresh workspace bound to the solver's hoisted state.
func (sv *SweepSolver) NewWorker() *SweepWorker {
	w := &SweepWorker{sv: sv}
	w.fac.init(sv.fac, sv.Size())
	return w
}

// SolveInto evaluates one grid point, writing the solution into sol and
// reusing sol's existing backing storage when it is large enough — after a
// warm-up point, a reused (worker, sol) pair completes a solve with zero
// heap allocations. sol must not be read concurrently with the call; on a
// non-nil error sol's contents are unspecified. The solution written is
// self-contained: it shares no memory with the worker, so it remains valid
// across later SolveInto calls on the same worker (only its own backing
// arrays are recycled by the next SolveInto on the same sol).
func (w *SweepWorker) SolveInto(lambda float64, sol *SpectralSolution) error {
	if err := w.EigenStage(lambda, sol); err != nil {
		return err
	}
	return w.assemble(lambda, sol)
}

// EigenStage is SolveInto without the boundary assembly: it validates
// lambda as SolveInto does and writes only the s roots inside the unit
// disk, dominant first, with their left vectors into sol, allocation-free
// once warm. Until a SolveInto completes on it, sol answers Eigenvalues
// and nothing else. It lets a benchmark time the eigen stage of a point
// on its own.
func (w *SweepWorker) EigenStage(lambda float64, sol *SpectralSolution) error {
	if err := w.sv.fac.checkPoint(lambda); err != nil {
		return err
	}
	w.ar.Reset()
	sol.reshape(w.sv.Threshold(), w.sv.Size())
	return w.factoredTerms(lambda, sol)
}

// reshape resizes sol to n boundary levels over s modes, reusing backing
// arrays with sufficient capacity.
func (sol *SpectralSolution) reshape(n, s int) {
	sol.n, sol.s = n, s
	if cap(sol.boundary) < n {
		sol.boundary = make([][]float64, n)
	} else {
		sol.boundary = sol.boundary[:n]
	}
	for j := range sol.boundary {
		if cap(sol.boundary[j]) < s {
			sol.boundary[j] = make([]float64, s)
		} else {
			sol.boundary[j] = sol.boundary[j][:s]
		}
	}
	if cap(sol.terms) < s {
		terms := make([]spectralTerm, s)
		copy(terms, sol.terms)
		sol.terms = terms
	} else {
		sol.terms = sol.terms[:s]
	}
	for k := range sol.terms {
		if cap(sol.terms[k].u) < s {
			sol.terms[k].u = make([]float64, s)
		} else {
			sol.terms[k].u = sol.terms[k].u[:s]
		}
		sol.terms[k].transient = false
	}
}

// assemble solves the boundary and the normalisation for the γ̃
// coefficients in real arithmetic, writing the result into sol.
//
// The level-N balance equation already has the repeating coefficients, and
// λI is invertible, so the expansion holds from level N−1:
// v_{N−1} = Σ_k γ'_k·u_k with γ'_k = γ̃_k/z_k (no root is 0, since
// det Q(0) = λ^s). The level-(N−1) equation v_{N−1}·K_{N−1} = v_N·C_N is
// then the matching system Σ_k γ'_k·u_k·(K_{N−1} − z_k·C_N) = 0, with
// K_{N−1} the matrix the S_j recursion builds before its last inversion;
// only S_0..S_{N−2} are inverted. Every root is real, and contributes the
// real row u_k·(K_{N−1} − z_k·C_N). Every level's K_j is built in its own
// stage matrix and inverted there in place, so the boundary takes
// O(N·s²) arena memory; the levels are folded straight into sol's
// boundary rows. The λ·S_{j−1}
// subtraction and the fold are linalg.Axpy row updates; the
// matching-system build adds eight rows per linalg.AxpyRows call, as the
// inversions' blocked eliminations do.
func (w *SweepWorker) assemble(lambda float64, sol *SpectralSolution) error {
	sv := w.sv
	s, n := sv.Size(), sv.Threshold()
	// S_j recursion: K_j = Dᴬ + B + C_j − A − λ·S_{j−1}, S_j = C_{j+1}·K_j⁻¹,
	// for j < N−1; the last pass leaves K_{N−1} in kj.
	if cap(w.stages) < n-1 {
		w.stages = make([]*linalg.Matrix, n-1)
	} else {
		w.stages = w.stages[:n-1]
	}
	var kj *linalg.Matrix
	for j := 0; j < n; j++ {
		kj = w.ar.Mat(s, s)
		cj := sv.p.serviceAt(j)
		for i := 0; i < s; i++ {
			row := kj.Data[i*s : (i+1)*s]
			for _, m := range sv.env.row(i) {
				row[m.to] = -m.rate
			}
			row[i] = sv.env.da[i] + lambda + cj[i]
		}
		if j > 0 {
			linalg.Axpy(-lambda, w.stages[j-1].Data, kj.Data)
		}
		if j == n-1 {
			break
		}
		st, err := linalg.InverseScratch(kj, &w.ar)
		if err != nil {
			return fmt.Errorf("qbd: boundary stage %d is singular: %w", j, err)
		}
		scaleRows(st, sv.p.serviceAt(j+1)) // S_j = C_{j+1}·K_j⁻¹
		w.stages[j] = st
	}
	// The matching system is built transposed,
	// Mᵀ[i][k] = (u_k·K_{N−1})[i] − c_i·(z_k·u_k[i]), so the null-vector
	// kernel needs no transpose pass.
	rt := w.ar.MatUninit(s, s) // rt[i][k] = u_k[i]
	mt := w.ar.MatUninit(s, s)
	c := sv.p.cTop()
	for k, t := range sol.terms {
		for i, u := range t.u {
			rt.Data[i*s+k] = u
			mt.Data[i*s+k] = -c[i] * (t.z * u)
		}
	}
	// Row i of Mᵀ adds K_{N−1}[r][i]·(row r of rt) for every r in order,
	// eight rows of rt per call, zero coefficients included.
	var coef [8]float64
	for i := 0; i < s; i++ {
		out := mt.Data[i*s : (i+1)*s]
		for r := 0; r < s; r += len(coef) {
			c := coef[:min(len(coef), s-r)]
			for t := range c {
				c[t] = kj.Data[(r+t)*s+i]
			}
			linalg.AxpyRows(c, rt.Data[r*s:], s, out)
		}
	}
	x, err := linalg.ForcedNullVectorScratch(mt, &w.ar)
	if err != nil {
		return fmt.Errorf("qbd: level-(N−1) matching system: %w", err)
	}
	// v_{N−1} = Σ_k x_k·u_k, then v_j = v_{j+1}·S_j down to level 0.
	top := sol.boundary[n-1]
	for i := range top {
		var acc float64
		for k, rv := range rt.Data[i*s : (i+1)*s] {
			acc += rv * x[k]
		}
		top[i] = acc
	}
	for j := n - 2; j >= 0; j-- {
		next := sol.boundary[j]
		clear(next)
		st := w.stages[j]
		for r, vr := range sol.boundary[j+1] {
			if vr == 0 {
				continue
			}
			linalg.Axpy(vr, st.Data[r*s:(r+1)*s], next)
		}
	}
	// γ̃_k = γ'_k·z_k, and normalise (eq. 20):
	// Σ_{j<N} v_j·1 + Σ_k γ̃_k(u_k·1)/(1−z_k) = 1.
	var total float64
	for _, lv := range sol.boundary {
		total += vecSum(lv)
	}
	for k := range sol.terms {
		t := &sol.terms[k]
		t.gamma = x[k] * t.z
		total += t.gamma * vecSum(t.u) / (1 - t.z)
	}
	if total == 0 {
		return errors.New("qbd: zero total probability mass in spectral assembly")
	}
	for k := range sol.terms {
		sol.terms[k].gamma /= total
	}
	for _, lv := range sol.boundary {
		for i := range lv {
			lv[i] /= total
		}
	}
	return nil
}
