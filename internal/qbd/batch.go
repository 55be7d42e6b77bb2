package qbd

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"sync"

	"repro/internal/linalg"
)

// SweepSolver is the package's spectral-expansion solver: it evaluates the
// solution across a batch of arrival rates that share one
// breakdown/repair environment — the shape of every λ-sweep in the paper's
// Figures 4–9 — and SolveSpectral is its batch of one. Construction hoists
// all λ-independent work (structural validation, the environment's
// stationary distribution and service capacity, Dᴬ row sums, the top
// service diagonal, the −A / Aᵀ images the per-point matrix builds copy
// from, and — when p.Servers describes the environment — the checked
// description's factored stage: one server's symmetrised generator, the
// multisets and the composition tables of their closed-form vectors);
// each Solve then runs the per-point remainder of the spectral expansion
// inside a reusable worker workspace, allocation-free once warm.
//
// Equivalence contract: a point solved on a reused or pooled worker is the
// *same computation* as SolveSpectral(p) with p.Lambda set to that point,
// which runs on a fresh worker — the same pivot choices, the same
// operation order — so results are bit-identical on amd64 (and within
// 1e-12 relative error on platforms whose compilers contract
// multiply-adds differently): no workspace state leaks from one point into
// the next. Per-point failures (a λ that is not positive and finite,
// instability, eigenvalue-count defects) return the same errors as
// SolveSpectral and never affect the shared hoisted state or later points.
//
// A SweepSolver is safe for concurrent use; workers are pooled.
type SweepSolver struct {
	p        Params // base parameters; p.Lambda is ignored
	s, n     int
	da, c    []float64
	negA     *linalg.Matrix // −A, the seed of every K_j / W build
	aT       *linalg.Matrix // Aᵀ, read row-contiguously by the companion and Q(z)ᵀ builds
	capacity float64        // Σ_i π_i·C_N[i]; ≤ 0 means every λ is unstable
	fac      *factored      // the factored eigen stage, when p.Servers describes the environment

	pool sync.Pool // *SweepWorker
}

// NewSweepSolver validates the λ-independent part of p and hoists the
// shared state. p.Lambda is ignored (each Solve supplies its own rate);
// validation errors are those SolveSpectral would report for any point of
// the batch, so a failed construction means every point would fail. A
// server description that does not reproduce A and C_N, or whose server
// is not irreducible and reversible, is such an error.
func NewSweepSolver(p Params) (*SweepSolver, error) {
	probe := p
	if !(probe.Lambda > 0) || math.IsInf(probe.Lambda, 0) {
		probe.Lambda = 1 // structural validation only; per-point rates replace it
	}
	if err := probe.Validate(); err != nil {
		return nil, err
	}
	pi, err := probe.EnvStationary()
	if err != nil {
		return nil, err
	}
	c := probe.cTop()
	var capacity float64
	for i, v := range pi {
		capacity += v * c[i]
	}
	sv := &SweepSolver{
		p:        probe,
		s:        probe.Size(),
		n:        probe.Threshold(),
		da:       probe.dA(),
		c:        c,
		negA:     probe.A.Scaled(-1),
		aT:       probe.A.T(),
		capacity: capacity,
	}
	if probe.Servers != nil {
		if sv.fac, err = newFactored(probe); err != nil {
			return nil, err
		}
	}
	sv.pool.New = func() any { return sv.NewWorker() }
	return sv, nil
}

// Size returns the number of environment modes s.
func (sv *SweepSolver) Size() int { return sv.s }

// Threshold returns N, the first level at which the expansion applies.
func (sv *SweepSolver) Threshold() int { return sv.n }

// Solve evaluates one grid point on a pooled worker and returns a freshly
// allocated, caller-owned solution.
func (sv *SweepSolver) Solve(lambda float64) (*SpectralSolution, error) {
	w := sv.pool.Get().(*SweepWorker)
	sol := new(SpectralSolution)
	err := w.SolveInto(lambda, sol)
	sv.pool.Put(w)
	if err != nil {
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
	stages []*linalg.Matrix // S_j headers, matrices live in the arena
	levels [][]complex128   // boundary fold rows, backed by the arena
	fac    factoredWork     // the factored stage's scratch, when sv.fac is set
}

// NewWorker returns a fresh workspace bound to the solver's hoisted state.
func (sv *SweepSolver) NewWorker() *SweepWorker {
	w := &SweepWorker{sv: sv}
	if sv.fac != nil {
		w.fac.init(sv.fac, sv.s)
	}
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
	sv := w.sv
	// Per-point validation and stability, with Params.Validate's and
	// Params.CheckStable's errors.
	if !(lambda > 0) || math.IsInf(lambda, 0) {
		return fmt.Errorf("qbd: arrival rate %v must be positive and finite", lambda)
	}
	load := math.Inf(1)
	if sv.capacity > 0 {
		load = lambda / sv.capacity
	}
	if load >= 1 {
		return fmt.Errorf("%w: load = %v", ErrUnstable, load)
	}
	w.ar.Reset()
	sol.reshape(sv.n, sv.s)
	// The s roots inside the unit disk with their left vectors: by the
	// factored stage when the solver has a server description, by the
	// companion eigensolve and null-vector eliminations otherwise.
	if sv.fac != nil {
		return w.factoredTerms(lambda, sol)
	}
	zs, err := w.unitDiskEigenvalues(lambda)
	if err != nil {
		return err
	}
	return w.eigenvectorTerms(lambda, zs, sol)
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
			sol.terms[k].u = make([]complex128, s)
		} else {
			sol.terms[k].u = sol.terms[k].u[:s]
		}
	}
}

// unitDiskEigenvalues returns the s eigenvalues of det Q(z) = 0 with
// |z| < 1, sorted by descending modulus (so the dominant z_s comes first).
// It solves the companion of the reversed polynomial in w = 1/z,
// Q(z)ᵀx = 0 ⇔ (Q0ᵀw² + Q1ᵀw + Q2ᵀ)x = 0, which with Q0 = λI has the block
// form [[0, I], [−Q2ᵀ/λ, −Q1ᵀ/λ]], built in the arena (reading A through
// the hoisted transpose, row-contiguously).
func (w *SweepWorker) unitDiskEigenvalues(lambda float64) ([]complex128, error) {
	sv := w.sv
	s := sv.s
	n2 := 2 * s
	cm := w.ar.Mat(n2, n2)
	for i := 0; i < s; i++ {
		cm.Data[i*n2+s+i] = 1
	}
	for i := 0; i < s; i++ {
		// −Q2ᵀ/λ block: Q2 = diag(c).
		cm.Data[(s+i)*n2+i] = -sv.c[i] / lambda
		// −Q1ᵀ/λ block: Q1 = A − Dᴬ − λI − C.
		at := sv.aT.Data[i*s : (i+1)*s] // aT[i][j] = A[j][i]
		row := cm.Data[(s+i)*n2+s : (s+i)*n2+n2]
		for j := 0; j < s; j++ {
			v := at[j]
			if i == j {
				v -= sv.da[i] + lambda + sv.c[i]
			}
			row[j] = -v / lambda
		}
	}
	ws, err := linalg.EigenvaluesScratch(cm, &w.ar)
	if err != nil {
		return nil, fmt.Errorf("qbd: companion eigenvalues: %w", err)
	}
	// The s eigenvalues z inside the unit disk correspond to the s largest
	// |w| (all > 1); the next one down is the unit root w = 1.
	sortModulusDesc(ws)
	if len(ws) < s+1 {
		return nil, fmt.Errorf("%w: companion produced %d eigenvalues", ErrEigenCount, len(ws))
	}
	if in := cmplx.Abs(ws[s-1]); in <= 1 {
		return nil, fmt.Errorf("%w: only %d strictly outside the unit circle (|w_s| = %v)", ErrEigenCount, countAbove(ws, 1), in)
	}
	if out := cmplx.Abs(ws[s]); out > 1+1e-6 {
		return nil, fmt.Errorf("%w: at least %d outside the unit circle (|w_{s+1}| = %v)", ErrEigenCount, countAbove(ws, 1), out)
	}
	zs := w.ar.C128(s)
	for k := 0; k < s; k++ {
		zs[k] = 1 / ws[k]
	}
	// Clean tiny imaginary parts so real roots are treated as real; the
	// rest must then come in adjacent conjugate pairs.
	for k := range zs {
		if math.Abs(imag(zs[k])) < 1e-9*(1+math.Abs(real(zs[k]))) {
			zs[k] = complex(real(zs[k]), 0)
		}
	}
	sortModulusDesc(zs)
	return zs, nil
}

// eigenvectorTerms recovers the left eigenvector u_k of every eigenvalue
// as the right null vector of Q(z_k)ᵀ, computing each conjugate pair only
// once, and writes each term into sol.terms in place. Q(z_k)ᵀ is built
// directly, with no transpose copy, and every eigenvalue's is rebuilt in
// the same real or complex s×s buffer, which the null-vector kernel
// destroys anyway, so the s eigenvalues take O(s²) arena memory in total
// rather than O(s³), and the buffer stays in cache.
func (w *SweepWorker) eigenvectorTerms(lambda float64, zs []complex128, sol *SpectralSolution) error {
	sv := w.sv
	s := sv.s
	qt := w.ar.MatUninit(s, s)
	cqt := w.ar.CMatUninit(s, s)
	for k := 0; k < len(zs); k++ {
		z := zs[k]
		switch {
		case imag(z) == 0:
			zr := real(z)
			for i := 0; i < s; i++ {
				at := sv.aT.Data[i*s : (i+1)*s]
				row := qt.Data[i*s : (i+1)*s]
				for j, v := range at {
					row[j] = zr * v
				}
				row[i] += lambda - zr*(sv.da[i]+lambda+sv.c[i]) + zr*zr*sv.c[i]
			}
			u, err := linalg.ForcedNullVectorScratch(qt, &w.ar)
			if err != nil {
				return fmt.Errorf("qbd: eigenvector for z = %v: %w", z, err)
			}
			sol.terms[k].z = z
			cu := sol.terms[k].u
			for i, v := range u {
				cu[i] = complex(v, 0)
			}
		case imag(z) > 0:
			lam := complex(lambda, 0)
			for i := 0; i < s; i++ {
				at := sv.aT.Data[i*s : (i+1)*s]
				row := cqt.Data[i*s : (i+1)*s]
				for j, v := range at {
					row[j] = z * complex(v, 0)
				}
				ci := complex(sv.c[i], 0)
				di := complex(sv.da[i], 0)
				row[i] += lam - z*(di+lam+ci) + z*z*ci
			}
			u, err := linalg.CForcedNullVectorScratch(cqt, &w.ar)
			if err != nil {
				return fmt.Errorf("qbd: eigenvector for z = %v: %w", z, err)
			}
			sol.terms[k].z = z
			copy(sol.terms[k].u, u)
			// The conjugate must sit adjacent after the modulus sort.
			if k+1 >= len(zs) || zs[k+1] != cmplx.Conj(z) {
				return fmt.Errorf("qbd: unpaired complex eigenvalue %v", z)
			}
			sol.terms[k+1].z = cmplx.Conj(z)
			cu := sol.terms[k+1].u
			for i, v := range u {
				cu[i] = cmplx.Conj(v)
			}
			k++
		default:
			return fmt.Errorf("qbd: unpaired complex eigenvalue %v", z)
		}
	}
	return nil
}

// assemble solves the boundary and normalisation for the γ̃ coefficients:
// the S_j recursion of boundaryStages with in-place inverses, the level-N
// matching system γ̃·M = 0 built directly in transposed form, and the
// normalisation (eq. 20) — all in arena memory, writing the result into
// sol. Every level's K_j, and then W, is built in one reused s×s buffer,
// and each S_j overwrites its K_j⁻¹, so the boundary takes O(N·s²) arena
// memory.
func (w *SweepWorker) assemble(lambda float64, sol *SpectralSolution) error {
	sv := w.sv
	s, n := sv.s, sv.n
	// S_j recursion: K_j = Dᴬ + B + C_j − A − λ·S_{j−1}, S_j = C_{j+1}·K_j⁻¹.
	if cap(w.stages) < n {
		w.stages = make([]*linalg.Matrix, n)
	} else {
		w.stages = w.stages[:n]
	}
	kj := w.ar.MatUninit(s, s)
	var prev *linalg.Matrix
	for j := 0; j < n; j++ {
		copy(kj.Data, sv.negA.Data)
		cj := sv.p.serviceAt(j)
		for i := 0; i < s; i++ {
			kj.Data[i*s+i] += sv.da[i] + lambda + cj[i]
		}
		if prev != nil {
			for i, pv := range prev.Data {
				kj.Data[i] -= lambda * pv
			}
		}
		st, err := linalg.InverseScratch(kj, &w.ar)
		if err != nil {
			return fmt.Errorf("qbd: boundary stage %d is singular: %w", j, err)
		}
		// S_j = diag(C_{j+1})·K_j⁻¹ row by row in place. Times accumulates
		// into a zeroed product, so an entry is +0 + c_i·k_ij (which turns
		// a −0 product into +0) and a zero c_i leaves a zero row.
		cnext := sv.p.serviceAt(j + 1)
		for i := 0; i < s; i++ {
			row := st.Data[i*s : (i+1)*s]
			ci := cnext[i]
			if ci == 0 {
				clear(row)
				continue
			}
			for j2, kv := range row {
				row[j2] = 0 + ci*kv
			}
		}
		w.stages[j] = st
		prev = st
	}
	// W = Dᴬ + B + C − A − λS_{N−1} from the level-N balance equation, in
	// the K buffer, which the last inverse has finished with.
	wm := kj
	copy(wm.Data, sv.negA.Data)
	for i := 0; i < s; i++ {
		wm.Data[i*s+i] += sv.da[i] + lambda + sv.c[i]
	}
	if n > 0 {
		for i, pv := range w.stages[n-1].Data {
			wm.Data[i] -= lambda * pv
		}
	}
	// M[k][·] = u_k·(W − z_k·C); solve γ̃·M = 0. Built directly as Mᵀ so the
	// null-vector kernel needs no transpose pass, four columns of M at a
	// time; each entry still sums its rows in order.
	mt := w.ar.CMatUninit(s, s)
	for k := range sol.terms {
		t := &sol.terms[k]
		col := 0
		for ; col+4 <= s; col += 4 {
			var a0, a1, a2, a3 complex128
			for row := 0; row < s; row++ {
				wr := wm.Data[row*s+col : row*s+col+4]
				e0, e1, e2, e3 := complex(wr[0], 0), complex(wr[1], 0), complex(wr[2], 0), complex(wr[3], 0)
				switch row - col {
				case 0:
					e0 -= t.z * complex(sv.c[row], 0)
				case 1:
					e1 -= t.z * complex(sv.c[row], 0)
				case 2:
					e2 -= t.z * complex(sv.c[row], 0)
				case 3:
					e3 -= t.z * complex(sv.c[row], 0)
				}
				u := t.u[row]
				a0 += u * e0
				a1 += u * e1
				a2 += u * e2
				a3 += u * e3
			}
			mt.Data[col*s+k] = a0
			mt.Data[(col+1)*s+k] = a1
			mt.Data[(col+2)*s+k] = a2
			mt.Data[(col+3)*s+k] = a3
		}
		for ; col < s; col++ {
			var acc complex128
			for row := 0; row < s; row++ {
				entry := complex(wm.Data[row*s+col], 0)
				if row == col {
					entry -= t.z * complex(sv.c[row], 0)
				}
				acc += t.u[row] * entry
			}
			mt.Data[col*s+k] = acc
		}
	}
	gamma, err := linalg.CForcedNullVectorScratch(mt, &w.ar)
	if err != nil {
		return fmt.Errorf("qbd: level-N matching system: %w", err)
	}
	// Normalise: Σ_{j<N} v_j·1 + Σ_k γ̃_k(u_k·1)/(1−z_k) = 1.
	vn := w.ar.C128(s)
	for k := range sol.terms {
		g := gamma[k]
		for i, uv := range sol.terms[k].u {
			vn[i] += g * uv
		}
	}
	if cap(w.levels) < n {
		w.levels = make([][]complex128, n)
	} else {
		w.levels = w.levels[:n]
	}
	cur := vn
	for j := n - 1; j >= 0; j-- {
		next := w.ar.C128(s)
		st := w.stages[j]
		for r, vr := range cur {
			if vr == 0 {
				continue
			}
			row := st.Data[r*s : (r+1)*s]
			for c2, mv := range row {
				next[c2] += vr * complex(mv, 0)
			}
		}
		cur = next
		w.levels[j] = cur
	}
	var total complex128
	for _, lv := range w.levels {
		total += cvecSum(lv)
	}
	for k := range sol.terms {
		t := &sol.terms[k]
		total += gamma[k] * cvecSum(t.u) / (1 - t.z)
	}
	if total == 0 {
		return errors.New("qbd: zero total probability mass in spectral assembly")
	}
	for k := range sol.terms {
		sol.terms[k].gamma = gamma[k] / total
	}
	var maxImag float64
	for j := 0; j < n; j++ {
		row := sol.boundary[j]
		for i, v := range w.levels[j] {
			vv := v / total
			row[i] = real(vv)
			if im := math.Abs(imag(vv)); im > maxImag {
				maxImag = im
			}
		}
	}
	if maxImag > 1e-6 {
		return fmt.Errorf("qbd: boundary probabilities have imaginary residue %v", maxImag)
	}
	return nil
}
