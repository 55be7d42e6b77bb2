package qbd

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// This file is the spectral solver's eigen stage. Params.Servers describes
// the environment as N identical, independent servers (Palmer & Mitrani
// §3), and the stage finds the s roots of det Q(z) inside the unit disk
// and their left vectors from one server's k×k matrix.
//
// For levels ≥ N, Q(z)/z = λ(1/z − 1)·I + K(z), where K(z) = A − Dᴬ −
// (1−z)·C is the sum of N copies of one server's k×k matrix
// M(z) = G₁ − (1−z)·diag(r), lumped by phase counts. K(z)'s eigenvalues
// are the sums Σ_i m_i·θ_i(z) over the multisets m of size N of M(z)'s
// eigen-branches θ₁(z) ≥ … ≥ θ_k(z) — exactly s = C(N+k−1, k−1) of them —
// so det Q(z) factors into s scalar equations
//
//	g_m(z) = λ(1−z) + z·Σ_i m_i·θ_i(z) = 0.
//
// One server's phase process is reversible (a breakdown from operative
// phase j to repair phase l at ξ_j·β_l balances the repair back at
// η_l·α_j), so M(z) is similar to a symmetric matrix and every θ_i(z) is
// real. A phase of zero weight is never entered, but it leaves to the
// entered phases: M(z) is then block triangular, the entered block keeps
// its symmetrisation, and each such transient phase j adds the real
// branch θ_j(z) = −out_j − (1−z)·r_j. g_m(0) = λ > 0, and
// g_m(1) = Σ_i m_i·θ_i(1) < 0 for every m but
// the all-Perron one, whose trivial root z = 1 is stepped past using
// g′(1) = N·µa − λ > 0, the stability margin. Each g_m therefore changes
// sign on (0, 1); since det Q(z) has exactly s roots inside the unit disk
// under stability, each has exactly one root there, found by Newton's
// method inside a bisection-safeguarded bracket. The left null vector of
// Q(z_m) is closed-form by strong lumpability,
//
//	u_m[n] = [tⁿ] Π_i (y_i·t)^{m_i},
//
// with y_i M(z_m)'s left eigenvectors and tⁿ the monomial of mode n's
// phase counts, built by multiplying one linear factor at a time through
// composition tables hoisted once per environment. A transient phase's
// left eigenvector is e_j + G[j][R]·(θ_j − M_RR)⁻¹, R being the entered
// phases, read off the entered block's eigendecomposition.

// maxRootIter bounds the safeguarded Newton iteration for one multiset's
// root; bisection alone reaches rounding level in about 60 steps.
const maxRootIter = 200

// rootTol is the relative step at which a root counts as converged.
const rootTol = 4 * 0x1p-52

// enteredPerron names, in place of a multiset index, the multiset of N
// servers on the largest branch that is not a transient phase's. Without
// transient phases it is multiset 0, the all-Perron one; with them, a
// slow zero-weight phase's branch can outrank the entered block's Perron
// branch near the root, and multiset 0 then takes that instead.
const enteredPerron = -1

// factored is the λ-independent part of the factored eigen stage, hoisted
// once per environment.
type factored struct {
	k, servers int
	sym        []float64 // k×k symmetrised G₁ (diagonal −Σ_q G₁[p][q]); M(z) adds −(1−z)·rates
	rates      []float64 // one server's service rate per phase
	sqrtPi     []float64 // √π_p: takes a symmetric eigenvector to M(z)'s left eigenvector; 0 on a transient phase
	g          []float64 // k×k G₁; a transient phase's row feeds its branch's left eigenvector
	transient  []int     // the phases no rate enters, ascending
	multisets  []int     // s×k branch counts, in rank order; multiset 0 is the all-Perron (N, 0, …, 0)
	t0, t1     []float64 // Σ_i m_i·θ_i(z) at z = 0 and z = 1, per multiset
	parent     [][]int32 // parent[d][j·k+p]: monomial j of degree d less t_p, in degree d−1; −1 if absent
	capacity   float64   // N·Σ_p π_p·r_p; a point is stable iff λ is below it
}

// multiset returns multiset mi's branch counts.
func (f *factored) multiset(mi int) []int { return f.multisets[mi*f.k : (mi+1)*f.k] }

// newFactored hoists the factored stage of a validated description and
// its mode space, with the description's Capacity. A server whose entered
// phases are not irreducible and reversible is an error.
func newFactored(d *Servers, ms modeSpace) (*factored, error) {
	pi, reversible, err := stationary(d)
	if err != nil {
		return nil, err
	}
	if !reversible {
		return nil, errors.New("qbd: server description is not reversible, so its eigen-branches need not be real")
	}
	k := d.G.Rows
	f := &factored{
		k:        k,
		servers:  d.N,
		sym:      make([]float64, k*k),
		rates:    append([]float64(nil), d.Rates...),
		sqrtPi:   make([]float64, k),
		g:        append([]float64(nil), d.G.Data...),
		capacity: d.capacity(pi),
	}
	for p, v := range pi {
		f.sqrtPi[p] = math.Sqrt(v)
		if v == 0 {
			f.transient = append(f.transient, p)
		}
	}
	for p := 0; p < k; p++ {
		var out float64
		for q := 0; q < k; q++ {
			if q != p {
				g := d.G.At(p, q)
				out += g
				f.sym[p*k+q] = math.Sqrt(g * d.G.At(q, p))
			}
		}
		f.sym[p*k+p] = -out
	}
	f.multisets = ms.ranked // the multisets of N branches are the modes' vectors
	var ws factoredWork
	ws.init(f, len(f.multisets)/k)
	ws.branches(f, 0)
	f.t0 = f.branchSums(ws.theta)
	ws.branches(f, 1)
	f.t1 = f.branchSums(ws.theta)
	f.buildTables(ms)
	return f, nil
}

// branchSums returns Σ_i m_i·θ_i for every multiset m.
func (f *factored) branchSums(theta []float64) []float64 {
	out := make([]float64, len(f.multisets)/f.k)
	for mi := range out {
		for i, m := range f.multiset(mi) {
			out[mi] += float64(m) * theta[i]
		}
	}
	return out
}

// stationary returns one server's stationary distribution π and whether
// its phase process is reversible, the property that makes M(z)'s
// eigen-branches real. A transient phase, one that no rate enters but
// that leaves to another, has π = 0. It fails unless the other phases
// form one irreducible class. π is found along a spanning tree by
// detailed balance; if a phase reaches another but not back, or a pair
// does not balance (every cycle must, by Kolmogorov's criterion), the
// server is not reversible and π is the null vector of its k×k
// generator instead.
func stationary(d *Servers) (pi []float64, reversible bool, err error) {
	k := d.G.Rows
	g := func(p, q int) float64 { return d.G.At(p, q) }
	irreversible := func() ([]float64, bool, error) {
		pi, err := generatorStationary(d.G)
		return pi, false, err
	}
	entered := make([]bool, k)
	leaves := make([]bool, k)
	for p := 0; p < k; p++ {
		for q := 0; q < k; q++ {
			if q != p && g(p, q) > 0 {
				leaves[p], entered[q] = true, true
			}
		}
	}
	pi = make([]float64, k)
	seen := make([]bool, k)
	root := -1
	for p := 0; p < k; p++ {
		switch {
		case !entered[p] && leaves[p]:
			seen[p] = true // transient: π_p = 0
		case root < 0:
			root = p
		}
	}
	pi[root] = 1
	seen[root] = true
	queue := []int{root}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for q := 0; q < k; q++ {
			if q == p || g(p, q) == 0 {
				continue
			}
			if g(q, p) == 0 {
				return irreversible()
			}
			if !seen[q] {
				seen[q] = true
				pi[q] = pi[p] * g(p, q) / g(q, p)
				queue = append(queue, q)
			}
		}
	}
	var sum float64
	for p, ok := range seen {
		if !ok {
			return nil, false, fmt.Errorf("qbd: server description: phase %d is never reached", p)
		}
		sum += pi[p]
	}
	for p := 0; p < k; p++ {
		for q := p + 1; q < k; q++ {
			a, b := pi[p]*g(p, q), pi[q]*g(q, p)
			if math.Abs(a-b) > 1e-10*math.Max(a, b) {
				return irreversible()
			}
		}
	}
	for p := range pi {
		pi[p] /= sum
	}
	return pi, true, nil
}

// capacity returns N·Σ_p π_p·Rates[p], π being one server's stationary
// distribution.
func (d *Servers) capacity(pi []float64) float64 {
	var perServer float64
	for p, v := range pi {
		perServer += v * d.Rates[p]
	}
	return float64(d.N) * perServer
}

// buildTables hoists the composition tables of the closed-form vectors:
// the monomials of each degree below N in rank order (rankTable), those of
// degree N in mode order, and for each monomial the rank of every
// monomial one degree lower that a factor y·t multiplies into it.
func (f *factored) buildTables(ms modeSpace) {
	k, n := f.k, f.servers
	f.parent = make([][]int32, n+1)
	for d := 1; d < n; d++ {
		par := make([]int32, ms.ranks[k-1][d]*k)
		mono := make([]int, k)
		mono[0] = d
		for j := 0; j*k < len(par); j++ {
			ms.ranks.parents(mono, d, j, par[j*k:(j+1)*k])
			nextComposition(mono)
		}
		f.parent[d] = par
	}
	par := make([]int32, len(ms.modes)*k)
	for j, mode := range ms.modes {
		ms.ranks.parents(mode, n, ms.ranks.rank(mode), par[j*k:(j+1)*k])
	}
	f.parent[n] = par
}

// factoredWork is a worker's scratch for the factored stage, sized once.
type factoredWork struct {
	a, v         []float64 // k×k: M(z) symmetrised, then its eigenvectors by column
	theta, b, zz []float64 // k: eigenvalues (descending) and Jacobi accumulators
	y            []float64 // k: one left eigenvector, scaled to ‖y‖∞ = 1
	perron       []int     // k: the enteredPerron multiset's branch counts
	polyA, polyB []float64 // s: the polynomial product's two last degrees
	roots        []factoredRoot
}

// factoredRoot is one multiset's root.
type factoredRoot struct {
	z float64
	m int
}

func (fw *factoredWork) init(f *factored, s int) {
	k := f.k
	buf := make([]float64, 2*k*k+4*k+2*s)
	fw.a, buf = buf[:k*k], buf[k*k:]
	fw.v, buf = buf[:k*k], buf[k*k:]
	fw.theta, buf = buf[:k], buf[k:]
	fw.b, buf = buf[:k], buf[k:]
	fw.zz, buf = buf[:k], buf[k:]
	fw.y, buf = buf[:k], buf[k:]
	fw.polyA, fw.polyB = buf[:s], buf[s:]
	fw.perron = make([]int, k)
	fw.roots = make([]factoredRoot, s)
}

// branches evaluates M(z)'s eigen-branches: theta[i] = θ_i(z), descending,
// and column i of v the matching unit eigenvector of the symmetrised
// M(z).
func (fw *factoredWork) branches(f *factored, z float64) {
	k := f.k
	copy(fw.a, f.sym)
	om := 1 - z
	for p := 0; p < k; p++ {
		fw.a[p*k+p] -= om * f.rates[p]
	}
	symEigen(fw.a, k, fw.v, fw.theta, fw.b, fw.zz)
}

// counts returns multiset mi's branch counts, or for mi = enteredPerron
// those of N servers on the largest branch last evaluated that is not a
// transient phase's.
func (fw *factoredWork) counts(f *factored, mi int) []int {
	if mi != enteredPerron {
		return f.multiset(mi)
	}
	clear(fw.perron)
	i := 0
	for f.transientPhase(fw.v, i) >= 0 {
		i++
	}
	fw.perron[i] = f.servers
	return fw.perron
}

// g returns g_m(z) and g_m′(z) for multiset mi (or enteredPerron). With
// unit eigenvectors v_i of the symmetrised M(z),
// θ_i′(z) = Σ_p v_i[p]²·rates[p].
func (fw *factoredWork) g(f *factored, lambda, z float64, mi int) (float64, float64) {
	fw.branches(f, z)
	k := f.k
	var t, dt float64
	for i, m := range fw.counts(f, mi) {
		if m == 0 {
			continue
		}
		var d float64
		for p := 0; p < k; p++ {
			v := fw.v[p*k+i]
			d += v * v * f.rates[p]
		}
		t += float64(m) * fw.theta[i]
		dt += float64(m) * d
	}
	return lambda*(1-z) + z*t, -lambda + t + z*dt
}

// checkPoint is the per-point validation and stability check, with
// Params.Validate's and Params.CheckStable's errors.
func (f *factored) checkPoint(lambda float64) error {
	if !(lambda > 0) || math.IsInf(lambda, 0) {
		return fmt.Errorf("qbd: arrival rate %v must be positive and finite", lambda)
	}
	return checkLoad(lambda / f.capacity)
}

// multisetRoot returns the root in (0, 1) of g_m for multiset mi (or
// enteredPerron), by Newton's method safeguarded by bisection inside a
// bracket on which g_m changes sign. The start depends only on λ and the
// multiset: the root of g_m with θ frozen at z = 0,
// λ/(λ − Σ_i m_i·θ_i(0)), multiset 0's for enteredPerron. A bracket
// without a sign change, or an iteration that does not converge, is an
// error wrapping ErrEigenCount that names the multiset.
func (fw *factoredWork) multisetRoot(f *factored, lambda float64, mi int) (float64, error) {
	lo, hi := 0.0, 1.0
	if !(lambda > 0) {
		return 0, f.rootErr(mi, "no sign change", lo, hi)
	}
	if mi <= 0 {
		// The all-Perron multiset: g(1) = 0 and g′(1) = N·µa − λ > 0, so g < 0
		// just below 1. Step back from 1 until g turns negative; every step
		// that finds g > 0 lies below the root.
		found := false
		eps := (1 - lambda/f.capacity) / 2
		for j := 0; j < 64 && eps > 0 && !found; j++ {
			b := 1 - eps
			g, _ := fw.g(f, lambda, b, mi)
			switch {
			case g < 0:
				hi, found = b, true
			case g > 0:
				lo = b
			case g == 0:
				return b, nil
			default:
				return 0, f.rootErr(mi, "g is not a number", lo, b)
			}
			eps /= 2
		}
		if !found {
			return 0, f.rootErr(mi, "no sign change", lo, hi)
		}
	} else if !(f.t1[mi] < 0) {
		return 0, f.rootErr(mi, "no sign change", lo, hi)
	}
	z := lambda / (lambda - f.t0[max(mi, 0)])
	if !(z > lo && z < hi) {
		z = lo + (hi-lo)/2
	}
	dxOld, dx := hi-lo, hi-lo
	for it := 0; it < maxRootIter; it++ {
		g, dg := fw.g(f, lambda, z, mi)
		switch {
		case g > 0:
			lo = z
		case g < 0:
			hi = z
		case g == 0:
			return z, nil
		default:
			return 0, f.rootErr(mi, "g is not a number", lo, hi)
		}
		next := z - g/dg
		if !(next > lo && next < hi) || math.Abs(2*g) > math.Abs(dxOld*dg) {
			next = lo + (hi-lo)/2 // Newton leaves the bracket or stalls: bisect
		}
		dxOld, dx = dx, next-z
		if math.Abs(dx) <= rootTol*next || hi-lo <= rootTol*hi {
			return next, nil
		}
		z = next
	}
	return 0, f.rootErr(mi, "no convergence", lo, hi)
}

func (f *factored) rootErr(mi int, why string, lo, hi float64) error {
	name := "entered Perron"
	if mi != enteredPerron {
		name = fmt.Sprint(f.multiset(mi))
	}
	return fmt.Errorf("%w: multiset %s of M(z)'s eigen-branches: %s on (%v, %v)", ErrEigenCount, name, why, lo, hi)
}

// factoredTerms is the factored eigen stage of one point: it finds every
// multiset's root, orders the roots by descending value (ties by
// multiset), and writes each root with its closed-form left vector into
// sol.terms, marking those whose multiset puts a server on a transient
// phase's branch.
func (w *SweepWorker) factoredTerms(lambda float64, sol *SpectralSolution) error {
	f, fw := w.sv.fac, &w.fac
	roots := fw.roots
	for mi := range roots {
		z, err := fw.multisetRoot(f, lambda, mi)
		if err != nil {
			return err
		}
		roots[mi] = factoredRoot{z: z, m: mi}
	}
	slices.SortFunc(roots, func(a, b factoredRoot) int {
		switch {
		case a.z > b.z:
			return -1
		case a.z < b.z:
			return 1
		}
		return a.m - b.m
	})
	for t, r := range roots {
		fw.branches(f, r.z)
		sol.terms[t].transient = fw.vector(f, r.m, sol.terms[t].u)
		sol.terms[t].z = r.z
	}
	return nil
}

// vector writes multiset mi's (or enteredPerron's) closed-form left
// vector u[n] = [tⁿ] Π_i (y_i·t)^{m_i}, scaled to ‖u‖∞ = 1, for the
// branches last evaluated: y_i[p] = v_i[p]·√π_p is M(z)'s left eigenvector
// for θ_i, or transientVector's for a transient phase's branch. The
// product gains one linear factor per step, so step d holds the
// coefficients of every monomial of degree d. It reports whether the
// multiset puts a server on a transient phase's branch.
func (fw *factoredWork) vector(f *factored, mi int, u []float64) bool {
	k := f.k
	cur, next := fw.polyA, fw.polyB
	cur[0] = 1
	deg := 0
	transient := false
	for i, m := range fw.counts(f, mi) {
		if m == 0 {
			continue
		}
		if j := f.transientPhase(fw.v, i); j >= 0 {
			transient = true
			fw.transientVector(f, i, j)
		} else {
			for p := 0; p < k; p++ {
				fw.y[p] = fw.v[p*k+i] * f.sqrtPi[p]
			}
		}
		var mx float64
		for _, y := range fw.y {
			mx = math.Max(mx, math.Abs(y))
		}
		for p := range fw.y {
			fw.y[p] /= mx
		}
		for c := 0; c < m; c++ {
			deg++
			par := f.parent[deg]
			out := next[:len(par)/k]
			for j := range out {
				var acc float64
				for p, q := range par[j*k : (j+1)*k] {
					if q >= 0 {
						acc += fw.y[p] * cur[q]
					}
				}
				out[j] = acc
			}
			cur, next = next, cur
		}
	}
	var mx float64
	for _, v := range cur[:len(u)] {
		mx = math.Max(mx, math.Abs(v))
	}
	for j := range u {
		u[j] = cur[j] / mx
	}
	return transient
}

// transientPhase returns the transient phase whose branch is column i of
// v, or −1. The symmetrised M(z) has a zero row and column at a transient
// phase j, which no Jacobi rotation touches, so its branch's eigenvector
// is exactly e_j and every other branch's is exactly zero at j.
func (f *factored) transientPhase(v []float64, i int) int {
	for _, j := range f.transient {
		if v[j*f.k+i] != 0 {
			return j
		}
	}
	return -1
}

// transientVector writes into y the left eigenvector of branch i, that of
// the transient phase j: e_j + G[j][R]·(θ_j − M_RR)⁻¹ with R the entered
// phases. With M_RR's left eigenvectors y_l = v_l·√π, that is
// e_j + Σ_l c_l/(θ_j − θ_l)·y_l, c_l = Σ_q G[j][q]·v_l[q]/√π_q over the
// entered phases q. A transient branch's v_l is zero on them, so its c_l
// is 0 and it adds nothing.
func (fw *factoredWork) transientVector(f *factored, i, j int) {
	k := f.k
	clear(fw.y)
	fw.y[j] = 1
	for l := 0; l < k; l++ {
		var c float64
		for q, sp := range f.sqrtPi {
			if sp > 0 {
				c += f.g[j*k+q] * fw.v[q*k+l] / sp
			}
		}
		if c == 0 {
			continue
		}
		c /= fw.theta[i] - fw.theta[l]
		for p, sp := range f.sqrtPi {
			fw.y[p] += c * fw.v[p*k+l] * sp
		}
	}
}

// symEigen diagonalises the symmetric k×k matrix a (upper triangle read,
// destroyed) by cyclic Jacobi rotations: theta receives the eigenvalues in
// descending order and column i of v the unit eigenvector of theta[i]. b
// and zz are k-long scratch. Rotations continue until the off-diagonal
// part underflows to zero, so the eigenvalues are accurate to rounding of
// ‖a‖ and the eigenvectors orthonormal to rounding.
func symEigen(a []float64, k int, v, theta, b, zz []float64) {
	clear(v)
	for p := 0; p < k; p++ {
		v[p*k+p] = 1
		theta[p] = a[p*k+p]
		b[p] = theta[p]
		zz[p] = 0
	}
	for sweep := 0; sweep < 50; sweep++ {
		var sm float64
		for p := 0; p < k-1; p++ {
			for q := p + 1; q < k; q++ {
				sm += math.Abs(a[p*k+q])
			}
		}
		if sm == 0 {
			break
		}
		var tresh float64
		if sweep < 3 {
			tresh = 0.2 * sm / float64(k*k)
		}
		for p := 0; p < k-1; p++ {
			for q := p + 1; q < k; q++ {
				apq := a[p*k+q]
				g := 100 * math.Abs(apq)
				if sweep > 3 && math.Abs(theta[p])+g == math.Abs(theta[p]) && math.Abs(theta[q])+g == math.Abs(theta[q]) {
					a[p*k+q] = 0
					continue
				}
				if math.Abs(apq) <= tresh {
					continue
				}
				h := theta[q] - theta[p]
				var t float64
				if math.Abs(h)+g == math.Abs(h) {
					t = apq / h
				} else {
					th := 0.5 * h / apq
					t = 1 / (math.Abs(th) + math.Sqrt(1+th*th))
					if th < 0 {
						t = -t
					}
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				tau := s / (1 + c)
				h = t * apq
				zz[p] -= h
				zz[q] += h
				theta[p] -= h
				theta[q] += h
				a[p*k+q] = 0
				for j := 0; j < p; j++ {
					rotate(a, j*k+p, j*k+q, s, tau)
				}
				for j := p + 1; j < q; j++ {
					rotate(a, p*k+j, j*k+q, s, tau)
				}
				for j := q + 1; j < k; j++ {
					rotate(a, p*k+j, q*k+j, s, tau)
				}
				for j := 0; j < k; j++ {
					rotate(v, j*k+p, j*k+q, s, tau)
				}
			}
		}
		for p := 0; p < k; p++ {
			b[p] += zz[p]
			theta[p] = b[p]
			zz[p] = 0
		}
	}
	// Selection sort into descending order, carrying the eigenvectors.
	for i := 0; i < k-1; i++ {
		best := i
		for j := i + 1; j < k; j++ {
			if theta[j] > theta[best] {
				best = j
			}
		}
		if best != i {
			theta[i], theta[best] = theta[best], theta[i]
			for p := 0; p < k; p++ {
				v[p*k+i], v[p*k+best] = v[p*k+best], v[p*k+i]
			}
		}
	}
}

// rotate applies one Jacobi rotation (sine s, τ = s/(1+cos)) to the pair
// of entries m[i], m[j].
func rotate(m []float64, i, j int, s, tau float64) {
	g, h := m[i], m[j]
	m[i] = g - s*(h+g*tau)
	m[j] = h + s*(g-h*tau)
}
