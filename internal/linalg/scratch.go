package linalg

import "math"

// This file holds the package's one implementation of each solver kernel
// — eigenvalues, forced null vectors and the inverse.
// Every routine takes an Arena for its working memory, so the spectral
// solver (qbd.SweepSolver) reaches an allocation-free steady state; the
// allocating entry points Eigenvalues, ForcedNullVector and friends, and
// Inverse run these kernels on a copy of their input with a fresh arena.
//
// Each kernel performs the *identical* floating-point operation sequence
// as a straightforward reference implementation kept in reference_test.go
// — same pivot choices, same association order, same special-case
// branches — so results are bit-identical to it on platforms without
// automatic FMA contraction (amd64). The inverse's reference is a
// Gauss–Jordan elimination whose multiply-adds follow Axpy's path: fused
// where the CPU has AVX2 and FMA, rounded twice elsewhere, and the tests
// prove it on both. What makes the kernels faster than the reference,
// without touching any output value's operation sequence:
//
//   - Memory reuse and direct Data indexing: no At/Set, no defensive
//     clones or transposes the caller does not need, bounds-check-free
//     inner loops, and an inverse computed in place.
//   - Independent accumulator chains. A reference loop that finishes one
//     dot product before starting the next makes every add wait on the
//     previous one. Here several independent sums advance together —
//     Hessenberg's left update walks rows once for all column sums, and
//     its right update carries four sums at a time — while each sum still
//     adds its terms in the reference order.
//   - Vector kernels. The inverse is a blocked Gauss–Jordan whose O(n³)
//     work is AxpyRows: eight pivot rows' multiply-adds per element in a
//     register, loading and storing each row once per block instead of
//     once per pivot. The null vector's row updates run on subTrack,
//     which also keeps the row's pivot-search maximum in vector lanes.
//     Both keep each element's operations and their order, so their
//     results are the reference's bits.
//   - Skipping provably neutral work: the QR iteration's row updates stop
//     at the active block's last column, as in the eigenvalue-only EISPACK
//     hqr (columns right of it never feed an eigenvalue again); the
//     null-vector elimination swaps only the live tail of two pivot rows
//     and skips the division of a zero pivot-column entry, whose
//     multiplier is zero either way.
//   - Cheaper pivot searches that are proven to select the same pivots.
//
// scratch_test.go enforces both properties: exact agreement with the
// reference kernels and zero allocations after warmup.

// Arena is a grow-only typed scratch allocator. Handouts are slices of a
// few large backing arrays; Reset recycles everything at once, so a solver
// that allocates all working state from one Arena reaches a steady state
// with zero allocations per solve. Slices handed out before an internal
// regrowth remain valid (they keep the old backing array); only slices
// obtained after the last Reset may be used. An Arena must not be shared
// between goroutines.
type Arena struct {
	f64   []float64
	f64n  int
	c128  []complex128
	c128n int
	ints  []int
	intn  int
	mats  []*Matrix
	matn  int
}

// Reset recycles every outstanding handout. Slices and matrices obtained
// before the call must no longer be used.
func (a *Arena) Reset() {
	a.f64n, a.c128n, a.intn, a.matn = 0, 0, 0, 0
}

func (a *Arena) f64Raw(n int) []float64 {
	if a.f64n+n > len(a.f64) {
		size := 2 * len(a.f64)
		if size < a.f64n+n {
			size = a.f64n + n
		}
		if size < 256 {
			size = 256
		}
		a.f64 = make([]float64, size)
		a.f64n = 0
	}
	s := a.f64[a.f64n : a.f64n+n : a.f64n+n]
	a.f64n += n
	return s
}

func (a *Arena) c128Raw(n int) []complex128 {
	if a.c128n+n > len(a.c128) {
		size := 2 * len(a.c128)
		if size < a.c128n+n {
			size = a.c128n + n
		}
		if size < 128 {
			size = 128
		}
		a.c128 = make([]complex128, size)
		a.c128n = 0
	}
	s := a.c128[a.c128n : a.c128n+n : a.c128n+n]
	a.c128n += n
	return s
}

// F64 returns a zeroed scratch slice of n float64s.
func (a *Arena) F64(n int) []float64 {
	s := a.f64Raw(n)
	clear(s)
	return s
}

// C128 returns a zeroed scratch slice of n complex128s.
func (a *Arena) C128(n int) []complex128 {
	s := a.c128Raw(n)
	clear(s)
	return s
}

// Ints returns a zeroed scratch slice of n ints.
func (a *Arena) Ints(n int) []int {
	if a.intn+n > len(a.ints) {
		size := 2 * len(a.ints)
		if size < a.intn+n {
			size = a.intn + n
		}
		if size < 64 {
			size = 64
		}
		a.ints = make([]int, size)
		a.intn = 0
	}
	s := a.ints[a.intn : a.intn+n : a.intn+n]
	a.intn += n
	clear(s)
	return s
}

// Mat returns a zeroed r×c scratch matrix.
func (a *Arena) Mat(r, c int) *Matrix {
	m := a.MatUninit(r, c)
	clear(m.Data)
	return m
}

// MatUninit returns an r×c scratch matrix with unspecified contents; the
// caller must write every entry before reading any. It exists so that
// copy/overwrite targets skip the memclr pass of Mat.
func (a *Arena) MatUninit(r, c int) *Matrix {
	var m *Matrix
	if a.matn < len(a.mats) {
		m = a.mats[a.matn]
	} else {
		m = new(Matrix)
		a.mats = append(a.mats, m)
	}
	a.matn++
	m.Rows, m.Cols = r, c
	m.Data = a.f64Raw(r * c)
	return m
}

// EigenvaluesScratch is Eigenvalues with caller-owned memory: a is reduced
// in place (its contents are destroyed) and the result slice comes from the
// arena. The balance / Hessenberg / QR passes perform the same operation
// sequence as the reference implementation, so the eigenvalues are
// bit-identical to it.
func EigenvaluesScratch(a *Matrix, ar *Arena) ([]complex128, error) {
	a.square()
	n := a.Rows
	if n == 0 {
		return nil, nil
	}
	balance(a)
	buf := ar.f64Raw(2 * n)
	hessenbergScratch(a, buf[:n], buf[n:])
	return hqrScratch(a, ar)
}

// hessenbergScratch is hessenberg with caller-supplied buffers (ort, and
// f for the left update's column sums, both of length n) and direct Data
// indexing. Every entry receives the reference's operations in the
// reference's order; only independent work is interleaved: the left update
// walks the rows once, accumulating all column sums together, each still
// adding rows in descending order, and the right update carries four row
// sums at a time, each still adding columns in descending order.
func hessenbergScratch(a *Matrix, ort, f []float64) {
	n := a.Rows
	if n < 3 {
		return
	}
	d := a.Data
	for m := 1; m < n-1; m++ {
		var scale float64
		for i := m; i < n; i++ {
			scale += math.Abs(d[i*n+m-1])
		}
		if scale == 0 {
			continue
		}
		var h float64
		for i := n - 1; i >= m; i-- {
			ort[i] = d[i*n+m-1] / scale
			h += ort[i] * ort[i]
		}
		g := math.Sqrt(h)
		if ort[m] > 0 {
			g = -g
		}
		h -= ort[m] * g
		ort[m] -= g
		u := ort[m:n]
		// Left update: column j's sum f[j] = Σ_i u_i·a_ij, rows descending.
		fs := f[m:n]
		clear(fs)
		for i := n - 1; i >= m; i-- {
			ui := ort[i]
			row := d[i*n+m : i*n+n]
			row = row[:len(fs)]
			for j, v := range row {
				fs[j] += ui * v
			}
		}
		for j := range fs {
			fs[j] /= h
		}
		for i := m; i < n; i++ {
			ui := ort[i]
			row := d[i*n+m : i*n+n]
			row = row[:len(fs)]
			for j, fj := range fs {
				row[j] -= fj * ui
			}
		}
		// Right update: row i's sum Σ_j u_j·a_ij, columns descending.
		i := 0
		for ; i+4 <= n; i += 4 {
			r0 := d[i*n+m : i*n+n]
			r1 := d[(i+1)*n+m : (i+1)*n+n]
			r2 := d[(i+2)*n+m : (i+2)*n+n]
			r3 := d[(i+3)*n+m : (i+3)*n+n]
			r0, r1, r2, r3 = r0[:len(u)], r1[:len(u)], r2[:len(u)], r3[:len(u)]
			var f0, f1, f2, f3 float64
			for j := len(u) - 1; j >= 0; j-- {
				uj := u[j]
				f0 += uj * r0[j]
				f1 += uj * r1[j]
				f2 += uj * r2[j]
				f3 += uj * r3[j]
			}
			f0 /= h
			f1 /= h
			f2 /= h
			f3 /= h
			for j, uj := range u {
				r0[j] -= f0 * uj
				r1[j] -= f1 * uj
				r2[j] -= f2 * uj
				r3[j] -= f3 * uj
			}
		}
		for ; i < n; i++ {
			row := d[i*n+m : i*n+n]
			row = row[:len(u)]
			var fi float64
			for j := len(u) - 1; j >= 0; j-- {
				fi += u[j] * row[j]
			}
			fi /= h
			for j, uj := range u {
				row[j] -= fi * uj
			}
		}
		d[m*n+m-1] = scale * g
		for i := m + 1; i < n; i++ {
			d[i*n+m-1] = 0
		}
	}
}

// hqrScratch is hqr with the eigenvalue slice drawn from the arena, the
// h/hset closures replaced by direct Data indexing, and the double QR
// step's row updates confined to columns up to n — the range of EISPACK
// hqr rather than the full-Schur range of hqr2 that hqr uses. No Schur
// vectors are kept, and n only decreases, so columns right of n never
// enter an active block again; each row update reads only its own column,
// so skipping them changes nothing that reaches an eigenvalue. Column
// updates keep hqr2's range from row 0: a subdiagonal judged negligible
// relative to its diagonal neighbours can stop being negligible after a
// deflation, and the rows above it then rejoin the active block, so
// skipping their updates (EISPACK's rows-from-l range) would change bits.
// Every value that reaches an eigenvalue gets the reference's operations
// in the reference's order, so the eigenvalues are bit-identical.
func hqrScratch(hm *Matrix, ar *Arena) ([]complex128, error) {
	nn := hm.Rows
	d := hm.Data

	eps := math.Nextafter(1, 2) - 1
	low, high := 0, nn-1
	var exshift, p, q, r, s, z, w, x, y float64

	var norm float64
	for i := 0; i < nn; i++ {
		for j := max(i-1, 0); j < nn; j++ {
			norm += math.Abs(d[i*nn+j])
		}
	}
	if norm == 0 {
		return ar.C128(nn), nil
	}

	eig := ar.c128Raw(nn)[:0]
	n := high
	iter := 0
	totalIter := 0
	maxTotal := 60 * nn
	for n >= low {
		if totalIter++; totalIter > maxTotal {
			return nil, ErrNoConvergence
		}
		// Look for a single small subdiagonal element.
		l := n
		for l > low {
			s = math.Abs(d[(l-1)*nn+l-1]) + math.Abs(d[l*nn+l])
			if s == 0 {
				s = norm
			}
			if math.Abs(d[l*nn+l-1]) < eps*s {
				break
			}
			l--
		}
		switch {
		case l == n:
			// One root found.
			eig = append(eig, complex(d[n*nn+n]+exshift, 0))
			n--
			iter = 0
		case l == n-1:
			// Two roots found.
			w = d[n*nn+n-1] * d[(n-1)*nn+n]
			p = (d[(n-1)*nn+n-1] - d[n*nn+n]) / 2
			q = p*p + w
			z = math.Sqrt(math.Abs(q))
			x = d[n*nn+n] + exshift
			if q >= 0 {
				// Real pair.
				if p >= 0 {
					z = p + z
				} else {
					z = p - z
				}
				e1 := x + z
				e2 := e1
				if z != 0 {
					e2 = x - w/z
				}
				eig = append(eig, complex(e1, 0), complex(e2, 0))
			} else {
				// Complex conjugate pair.
				eig = append(eig, complex(x+p, z), complex(x+p, -z))
			}
			n -= 2
			iter = 0
		default:
			// No convergence yet: form a shift.
			x = d[n*nn+n]
			y = d[(n-1)*nn+n-1]
			w = d[n*nn+n-1] * d[(n-1)*nn+n]
			if iter == 10 || iter == 20 {
				// Exceptional shift.
				exshift += x
				for i := low; i <= n; i++ {
					d[i*nn+i] -= x
				}
				s = math.Abs(d[n*nn+n-1]) + math.Abs(d[(n-1)*nn+n-2])
				x = 0.75 * s
				y = x
				w = -0.4375 * s * s
			}
			iter++

			// Look for two consecutive small subdiagonal elements.
			m := n - 2
			for m >= l {
				z = d[m*nn+m]
				r = x - z
				s = y - z
				p = (r*s-w)/d[(m+1)*nn+m] + d[m*nn+m+1]
				q = d[(m+1)*nn+m+1] - z - r - s
				r = d[(m+2)*nn+m+1]
				s = math.Abs(p) + math.Abs(q) + math.Abs(r)
				p /= s
				q /= s
				r /= s
				if m == l {
					break
				}
				if math.Abs(d[m*nn+m-1])*(math.Abs(q)+math.Abs(r)) <
					eps*(math.Abs(p)*(math.Abs(d[(m-1)*nn+m-1])+math.Abs(z)+math.Abs(d[(m+1)*nn+m+1]))) {
					break
				}
				m--
			}
			for i := m + 2; i <= n; i++ {
				d[i*nn+i-2] = 0
				if i > m+2 {
					d[i*nn+i-3] = 0
				}
			}

			// Double QR step on rows l..n and columns m..n.
			for k := m; k <= n-1; k++ {
				notlast := k != n-1
				if k != m {
					p = d[k*nn+k-1]
					q = d[(k+1)*nn+k-1]
					r = 0
					if notlast {
						r = d[(k+2)*nn+k-1]
					}
					x = math.Abs(p) + math.Abs(q) + math.Abs(r)
					if x == 0 {
						continue
					}
					p /= x
					q /= x
					r /= x
				}
				s = math.Sqrt(p*p + q*q + r*r)
				if p < 0 {
					s = -s
				}
				if s == 0 {
					continue
				}
				if k != m {
					d[k*nn+k-1] = -s * x
				} else if l != m {
					d[k*nn+k-1] = -d[k*nn+k-1]
				}
				p += s
				x = p / s
				y = q / s
				z = r / s
				q /= p
				r /= p

				// Row modification, columns k..n.
				for j := k; j <= n; j++ {
					p = d[k*nn+j] + q*d[(k+1)*nn+j]
					if notlast {
						p += r * d[(k+2)*nn+j]
						d[(k+2)*nn+j] -= p * z
					}
					d[(k+1)*nn+j] -= p * y
					d[k*nn+j] -= p * x
				}
				// Column modification.
				iMax := min(n, k+3)
				for i := 0; i <= iMax; i++ {
					p = x*d[i*nn+k] + y*d[i*nn+k+1]
					if notlast {
						p += z * d[i*nn+k+2]
						d[i*nn+k+2] -= p * r
					}
					d[i*nn+k+1] -= p * q
					d[i*nn+k] -= p
				}
			}
		}
	}
	return eig, nil
}

// ForcedNullVectorScratch is ForcedNullVector with caller-owned memory:
// the matrix is eliminated in place (destroyed) and the returned vector
// lives in the arena. The elimination is the reference nullVector with one
// structural change — the full-pivot search reuses per-row maxima tracked
// during the previous step's row updates instead of rescanning the
// trailing submatrix — which provably selects the same pivot sequence (see
// the argument at nullVectorScratch), so results are bit-identical. Row
// swaps skip the entries left of the pivot column (see swapTails), and a
// row whose pivot-column entry is ±0 takes the zero-multiplier path
// without dividing (±0/pivot is ±0 for the nonzero pivot).
func ForcedNullVectorScratch(a *Matrix, ar *Arena) ([]float64, error) {
	return nullVectorScratch(a, ar)
}

// nullVectorScratch mirrors the reference nullVector without cloning a.
//
// Pivot-equivalence argument: the reference search scans the trailing
// submatrix in row-major order keeping the first strictly-larger entry, so
// it selects the lexicographically-first position attaining the global
// maximum modulus. Here rmax[i]/rarg[i] cache each row's maximum and its
// first attaining column over the active columns; the pivot scan takes the
// first row attaining the global maximum and that row's first attaining
// column — the same position. The caches are maintained exactly: rows
// rewritten by the elimination step recompute their maximum during the
// update pass (subTrack returns the first column attaining the largest
// modulus, as a left-to-right scan with a strict > finds it); untouched
// rows (zero
// multiplier) keep a valid cache because the departing pivot column holds
// a zero for them, except when the cached argmax sat on a column moved by
// the pivot column swap, in which case the row is rescanned.
func nullVectorScratch(a *Matrix, ar *Arena) ([]float64, error) {
	a.square()
	n := a.Rows
	w := a
	d := w.Data
	colPerm := ar.Ints(n)
	for i := range colPerm {
		colPerm[i] = i
	}
	rmax := ar.f64Raw(n)
	rarg := ar.Ints(n)
	// Seed the row maxima over all columns (the k = 0 search state).
	for i := 0; i < n; i++ {
		row := d[i*n : i*n+n]
		nm, narg := 0.0, 0
		for j, v := range row {
			if av := math.Abs(v); av > nm {
				nm, narg = av, j
			}
		}
		rmax[i], rarg[i] = nm, narg
	}
	rank := 0
	for k := 0; k < n-1; k++ {
		// Full pivot over the trailing submatrix, from the cached row maxima.
		pi, pj, mx := k, k, 0.0
		for i := k; i < n; i++ {
			if rmax[i] > mx {
				mx, pi, pj = rmax[i], i, rarg[i]
			}
		}
		if mx == 0 {
			if k == 0 {
				// Zero matrix: any unit vector is a null vector.
				x := ar.F64(n)
				x[0] = 1
				return x, nil
			}
			break // the remaining block is exactly zero
		}
		rank++
		swapTails(d, n, k, pi)
		rmax[k], rmax[pi] = rmax[pi], rmax[k]
		rarg[k], rarg[pi] = rarg[pi], rarg[k]
		swapCols(w, k, pj)
		colPerm[k], colPerm[pj] = colPerm[pj], colPerm[k]
		pivot := d[k*n+k]
		prow := d[k*n : k*n+n]
		for i := k + 1; i < n; i++ {
			irow := d[i*n : i*n+n]
			var m float64
			if irow[k] != 0 { // ±0/pivot is ±0: no division needed
				m = irow[k] / pivot
			}
			if m == 0 {
				// Row untouched; its cache stays valid unless the argmax sat
				// on one of the two swapped columns.
				if g := rarg[i]; g == k || g == pj {
					nm, narg := 0.0, 0
					for j := k + 1; j < n; j++ {
						if av := math.Abs(irow[j]); av > nm {
							nm, narg = av, j
						}
					}
					rmax[i], rarg[i] = nm, narg
				}
				continue
			}
			irow[k] = 0
			nm, narg := subTrack(m, prow[k+1:], irow[k+1:])
			if narg >= 0 {
				narg += k + 1
			} else {
				narg = 0
			}
			rmax[i], rarg[i] = nm, narg
		}
	}
	// Back-substitute with the first free variable set to 1, the rest to 0.
	y := ar.F64(n)
	y[rank] = 1
	for i := rank - 1; i >= 0; i-- {
		var s float64
		row := d[i*n : i*n+n]
		for j := i + 1; j <= rank; j++ {
			s += row[j] * y[j]
		}
		y[i] = -s / row[i]
	}
	x := ar.f64Raw(n)
	for k := 0; k < n; k++ {
		x[colPerm[k]] = y[k]
	}
	normalizeInf(x)
	return x, nil
}

// swapTails swaps columns k..n−1 of rows k and p of the row-major n×n
// matrix d — the part of a pivot-row swap the null-vector elimination
// reads again. Entries left of the pivot column are never read once it is
// eliminated (back substitution reads only a row's diagonal and what lies
// right of it), so leaving them unswapped changes no result.
func swapTails(d []float64, n, k, p int) {
	if p == k {
		return
	}
	a, b := d[k*n+k:k*n+n], d[p*n+k:p*n+n]
	b = b[:len(a)]
	for j := range a {
		a[j], b[j] = b[j], a[j]
	}
}

// invBlock is the number of pivots InverseScratch eliminates per block:
// AxpyRows keeps one register per lane across a block's rows, and 8 beat 4
// at the served sizes.
const invBlock = 8

// InverseScratch inverts a in place by Gauss–Jordan elimination with
// partial pivoting and returns it; the arena holds the pivot record, the
// multipliers and one block's panel. Step k takes the first row at or
// below k whose column-k entry has the largest modulus, swaps it into row
// k, sets the pivot entry to 1 and scales the row by 1/pivot, so column k
// of the row becomes the inverse's. Every other row with a nonzero
// column-k entry f then has that entry zeroed and takes Axpy(−f, pivot
// row, row) over the full width, which also writes its part of the
// inverse's column k. The row swaps leave the inverse's columns permuted;
// swapping columns k and the pivot row of step k back, for k descending,
// undoes it. A pivot whose modulus is at most n·ε times the largest
// earlier pivot modulus — a zero one included — returns ErrSingular with a
// partly eliminated: an exactly singular matrix whose elimination leaves a
// rounding-sized pivot must not come back as an "inverse" of order 1/ε.
// The multiply-adds are Axpy's: fused on CPUs with AVX2 and FMA, rounded
// twice elsewhere.
//
// The steps run in blocks of invBlock pivots, and every element still gets
// exactly the multiply-adds above, in step order:
//
//   - The block's own columns (the panel) are kept column by column, and
//     its steps run there for every row. A step's column, with the pivot
//     row's entry 0, is the step's multipliers f (0 where a row is
//     skipped), and each panel column takes one Axpy(−p_j, f) per run of
//     nonzero multipliers, −p_j·f rounding as −f·p_j does. The pivot row
//     rides along in a run and gets its entries back.
//   - Before a pivot row is scaled, the rest of it takes its pending
//     updates from the block's earlier pivots, so each pivot row is
//     complete before any other row reads it.
//   - Then every other row takes the block's updates, each run of nonzero
//     multipliers in one AxpyRows call, and last pivot row t takes those
//     of pivots t+1, t+2, … — in ascending t, so each still reads the later
//     pivot rows as their steps left them.
//   - These row updates run over the full width; a row's panel entries
//     then go back over what they left there, and the next block's panel
//     entries come out of it.
//
// A zero multiplier is skipped, as the step skips the row: fma(−0, p, −0)
// is +0, so applying it could flip a zero's sign.
func InverseScratch(a *Matrix, ar *Arena) (*Matrix, error) {
	a.square()
	n := a.Rows
	d := a.Data
	piv := ar.Ints(n)
	pan := ar.f64Raw(n * invBlock) // pan[t·n+i]: row i of the panel's column t
	mul := ar.f64Raw(n * invBlock) // mul[t·n+i]: row i's f at the block's step t, 0 if skipped
	var pivPan [invBlock]float64   // the pivot row's panel entries
	tol := float64(n) * 0x1p-52
	var maxPiv float64
	swapped := false
	for i := 0; i < n; i++ {
		panelRow(pan, d, n, i, 0, min(invBlock, n), false)
	}
	for k0 := 0; k0 < n; k0 += invBlock {
		b := min(invBlock, n-k0)
		nb := min(invBlock, max(n-k0-invBlock, 0)) // the next block's width
		// dense holds while no row but the pivot skips a step of the
		// block; then every other row takes all its updates in one call,
		// without blockUpdate's scan for zero coefficients.
		dense := true
		for t := 0; t < b; t++ {
			k := k0 + t
			col := pan[t*n : t*n+n]
			// Rows that skip this step: any zero, since the pivot never is.
			skips := 0
			for _, f := range col[:k+1] {
				if f == 0 {
					skips++
				}
			}
			p, mx := k, math.Abs(col[k])
			for i := k + 1; i < n; i++ {
				f := col[i]
				if f == 0 {
					skips++
				}
				if v := math.Abs(f); v > mx {
					mx, p = v, i
				}
			}
			if mx <= tol*maxPiv {
				return nil, ErrSingular
			}
			if mx > maxPiv {
				maxPiv = mx // a NaN pivot never becomes the scale
			}
			piv[k] = p
			prow := d[k*n : k*n+n]
			if p != k {
				swapped = true
				other := d[p*n : p*n+n]
				for j := range prow {
					prow[j], other[j] = other[j], prow[j]
				}
				for j := 0; j < b; j++ {
					pan[j*n+k], pan[j*n+p] = pan[j*n+p], pan[j*n+k]
				}
				for j := 0; j < t; j++ {
					mul[j*n+k], mul[j*n+p] = mul[j*n+p], mul[j*n+k]
				}
			}
			var c [invBlock]float64
			for j := 0; j < t; j++ {
				c[j] = -mul[j*n+k]
			}
			blockUpdate(d, n, k0, c[:t], prow)
			inv := 1 / col[k]
			col[k] = 1
			for j := range prow {
				prow[j] *= inv
			}
			for j := 0; j < b; j++ {
				pan[j*n+k] *= inv
				pivPan[j] = pan[j*n+k]
			}
			mt := mul[t*n : t*n+n]
			copy(mt, col)
			mt[k] = 0
			if skips > 0 {
				dense = false
			}
			// The step on the panel, one run of rows with nonzero
			// multipliers at a time: the column's entries are zeroed, and
			// each panel column takes an Axpy of the multipliers. The pivot
			// row rides along with its zero one, so a dense column is one
			// run, and gets its entries back afterwards.
			for lo := 0; lo < n; {
				hi := n
				if skips > 0 {
					if mt[lo] == 0 && lo != k {
						lo++
						continue
					}
					hi = lo + 1
					for hi < n && (mt[hi] != 0 || hi == k) {
						hi++
					}
				}
				clear(col[lo:hi])
				for j := 0; j < b; j++ {
					Axpy(-pivPan[j], mt[lo:hi], pan[j*n+lo:j*n+hi])
				}
				lo = hi
			}
			for j := 0; j < b; j++ {
				pan[j*n+k] = pivPan[j]
			}
		}
		// A row is final for this block once updated: its panel entries
		// go back, and the next block's come out while the row is hot.
		var c [invBlock]float64
		for i := 0; i < n; i++ {
			if i >= k0 && i < k0+b {
				continue
			}
			for t := 0; t < b; t++ {
				c[t] = -mul[t*n+i]
			}
			if dense {
				AxpyRows(c[:b], d[k0*n:], n, d[i*n:i*n+n])
			} else {
				blockUpdate(d, n, k0, c[:b], d[i*n:i*n+n])
			}
			panelRow(pan, d, n, i, k0, b, true)
			panelRow(pan, d, n, i, k0+b, nb, false)
		}
		for k := k0; k < k0+b-1; k++ {
			t := k - k0 + 1
			for j := t; j < b; j++ {
				c[j] = -mul[j*n+k]
			}
			blockUpdate(d, n, k0+t, c[t:b], d[k*n:k*n+n])
		}
		for k := k0; k < k0+b; k++ {
			panelRow(pan, d, n, k, k0, b, true)
			panelRow(pan, d, n, k, k0+b, nb, false)
		}
	}
	if swapped {
		// Undo the column permutation a row at a time: the same swaps in
		// the same order, without striding down columns.
		for i := 0; i < n; i++ {
			row := d[i*n : i*n+n]
			for k := n - 1; k >= 0; k-- {
				if p := piv[k]; p != k {
					row[k], row[p] = row[p], row[k]
				}
			}
		}
	}
	return a, nil
}

// panelRow copies row i's entries in columns k0..k0+b−1 of the n×n
// row-major matrix d into the column-major panel, pan[t·n+i] =
// d[i][k0+t], or back when back is set.
func panelRow(pan, d []float64, n, i, k0, b int, back bool) {
	if b == invBlock {
		r := (*[invBlock]float64)(d[i*n+k0:])
		p := pan[i : i+7*n+1]
		if back {
			r[0], r[1], r[2], r[3] = p[0], p[n], p[2*n], p[3*n]
			r[4], r[5], r[6], r[7] = p[4*n], p[5*n], p[6*n], p[7*n]
		} else {
			p[0], p[n], p[2*n], p[3*n] = r[0], r[1], r[2], r[3]
			p[4*n], p[5*n], p[6*n], p[7*n] = r[4], r[5], r[6], r[7]
		}
		return
	}
	for t := 0; t < b; t++ {
		if back {
			d[i*n+k0+t] = pan[t*n+i]
		} else {
			pan[t*n+i] = d[i*n+k0+t]
		}
	}
}

// blockUpdate adds to row y of the n-wide matrix d, for t = 0, 1, … in
// order, c[t] times row k0+t wherever c[t] is nonzero: each run of nonzero
// coefficients is one AxpyRows call.
func blockUpdate(d []float64, n, k0 int, c, y []float64) {
	for t := 0; t < len(c); {
		if c[t] == 0 {
			t++
			continue
		}
		e := t + 1
		for e < len(c) && c[e] != 0 {
			e++
		}
		AxpyRows(c[t:e], d[(k0+t)*n:], n, y)
		t = e
	}
}
