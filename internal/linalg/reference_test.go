package linalg

import "math"

// The reference kernels: the straightforward eigensolver, forced null
// vector and inverse that the arena kernels in scratch.go were derived
// from. Production code runs only the arena kernels; these bodies stay
// here so the *MatchesReference tests can keep proving every rewrite in
// scratch.go bit-identical to them. refInverse, the LU route, is not what
// InverseScratch computes; it stays as an independent oracle.

// refEigenvalues is the reference eigensolver: balancing, Householder
// reduction to upper Hessenberg form and the Francis implicit double-shift
// QR algorithm, on a copy of a.
func refEigenvalues(a *Matrix) ([]complex128, error) {
	a.square()
	n := a.Rows
	if n == 0 {
		return nil, nil
	}
	h := a.Clone()
	balance(h)
	hessenberg(h)
	return hqr(h)
}

// refForcedNullVector is the reference forced right null vector.
func refForcedNullVector(a *Matrix) ([]float64, error) {
	return nullVector(a)
}

// refInverse is the oracle inverse: an LU factorisation solved against
// the identity one column at a time.
func refInverse(a *Matrix) (*Matrix, error) {
	return FactorLU(a).SolveMatrix(Identity(a.Rows))
}

// refGaussJordan is the reference inverse: Gauss–Jordan elimination with
// partial pivoting on a copy of a, one element at a time. Its update is
// math.FMA(−f, p, y) when fused and y − f·p, the product rounded first,
// otherwise, which is what Axpy computes on each of its paths.
func refGaussJordan(a *Matrix, fused bool) (*Matrix, error) {
	a.square()
	n := a.Rows
	w := a.Clone()
	piv := make([]int, n)
	var maxPiv float64
	for k := 0; k < n; k++ {
		p := k
		mx := math.Abs(w.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(w.At(i, k)); v > mx {
				mx, p = v, i
			}
		}
		// A pivot at most n·ε times the largest earlier one is a zero.
		if mx <= float64(n)*0x1p-52*maxPiv {
			return nil, ErrSingular
		}
		if mx > maxPiv {
			maxPiv = mx
		}
		piv[k] = p
		swapRows(w, k, p)
		pivot := w.At(k, k)
		inv := 1 / pivot
		w.Set(k, k, 1)
		for j := 0; j < n; j++ {
			w.Set(k, j, w.At(k, j)*inv)
		}
		for i := 0; i < n; i++ {
			f := w.At(i, k)
			if i == k || f == 0 {
				continue
			}
			w.Set(i, k, 0)
			for j := 0; j < n; j++ {
				y, p := w.At(i, j), w.At(k, j)
				if fused {
					w.Set(i, j, math.FMA(-f, p, y))
				} else {
					w.Set(i, j, y-float64(f*p))
				}
			}
		}
	}
	for k := n - 1; k >= 0; k-- {
		swapCols(w, k, piv[k])
	}
	return w, nil
}

// hessenberg reduces a to upper Hessenberg form in place using Householder
// reflections (similarity transforms, so eigenvalues are preserved).
func hessenberg(a *Matrix) {
	n := a.Rows
	if n < 3 {
		return
	}
	ort := make([]float64, n)
	for m := 1; m < n-1; m++ {
		var scale float64
		for i := m; i < n; i++ {
			scale += math.Abs(a.At(i, m-1))
		}
		if scale == 0 {
			continue
		}
		var h float64
		for i := n - 1; i >= m; i-- {
			ort[i] = a.At(i, m-1) / scale
			h += ort[i] * ort[i]
		}
		g := math.Sqrt(h)
		if ort[m] > 0 {
			g = -g
		}
		h -= ort[m] * g
		ort[m] -= g
		// Apply the Householder similarity transform H = I − u·uᵀ/h.
		for j := m; j < n; j++ {
			var f float64
			for i := n - 1; i >= m; i-- {
				f += ort[i] * a.At(i, j)
			}
			f /= h
			for i := m; i < n; i++ {
				a.Set(i, j, a.At(i, j)-f*ort[i])
			}
		}
		for i := 0; i < n; i++ {
			var f float64
			for j := n - 1; j >= m; j-- {
				f += ort[j] * a.At(i, j)
			}
			f /= h
			for j := m; j < n; j++ {
				a.Set(i, j, a.At(i, j)-f*ort[j])
			}
		}
		a.Set(m, m-1, scale*g)
		for i := m + 1; i < n; i++ {
			a.Set(i, m-1, 0)
		}
	}
}

// hqr computes all eigenvalues of an upper Hessenberg matrix using the
// Francis implicit double-shift QR iteration (eigenvalue-only variant of the
// classic EISPACK/JAMA hqr2 routine).
func hqr(hm *Matrix) ([]complex128, error) {
	nn := hm.Rows
	h := func(i, j int) float64 { return hm.At(i, j) }
	hset := func(i, j int, v float64) { hm.Set(i, j, v) }

	eps := math.Nextafter(1, 2) - 1
	low, high := 0, nn-1
	var exshift, p, q, r, s, z, w, x, y float64

	var norm float64
	for i := 0; i < nn; i++ {
		for j := max(i-1, 0); j < nn; j++ {
			norm += math.Abs(h(i, j))
		}
	}
	if norm == 0 {
		return make([]complex128, nn), nil
	}

	eig := make([]complex128, 0, nn)
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
			s = math.Abs(h(l-1, l-1)) + math.Abs(h(l, l))
			if s == 0 {
				s = norm
			}
			if math.Abs(h(l, l-1)) < eps*s {
				break
			}
			l--
		}
		switch {
		case l == n:
			// One root found.
			eig = append(eig, complex(h(n, n)+exshift, 0))
			n--
			iter = 0
		case l == n-1:
			// Two roots found.
			w = h(n, n-1) * h(n-1, n)
			p = (h(n-1, n-1) - h(n, n)) / 2
			q = p*p + w
			z = math.Sqrt(math.Abs(q))
			x = h(n, n) + exshift
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
			x = h(n, n)
			y = h(n-1, n-1)
			w = h(n, n-1) * h(n-1, n)
			if iter == 10 || iter == 20 {
				// Exceptional shift.
				exshift += x
				for i := low; i <= n; i++ {
					hset(i, i, h(i, i)-x)
				}
				s = math.Abs(h(n, n-1)) + math.Abs(h(n-1, n-2))
				x = 0.75 * s
				y = x
				w = -0.4375 * s * s
			}
			iter++

			// Look for two consecutive small subdiagonal elements.
			m := n - 2
			for m >= l {
				z = h(m, m)
				r = x - z
				s = y - z
				p = (r*s-w)/h(m+1, m) + h(m, m+1)
				q = h(m+1, m+1) - z - r - s
				r = h(m+2, m+1)
				s = math.Abs(p) + math.Abs(q) + math.Abs(r)
				p /= s
				q /= s
				r /= s
				if m == l {
					break
				}
				if math.Abs(h(m, m-1))*(math.Abs(q)+math.Abs(r)) <
					eps*(math.Abs(p)*(math.Abs(h(m-1, m-1))+math.Abs(z)+math.Abs(h(m+1, m+1)))) {
					break
				}
				m--
			}
			for i := m + 2; i <= n; i++ {
				hset(i, i-2, 0)
				if i > m+2 {
					hset(i, i-3, 0)
				}
			}

			// Double QR step on rows l..n and columns m..n.
			for k := m; k <= n-1; k++ {
				notlast := k != n-1
				if k != m {
					p = h(k, k-1)
					q = h(k+1, k-1)
					r = 0
					if notlast {
						r = h(k+2, k-1)
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
					hset(k, k-1, -s*x)
				} else if l != m {
					hset(k, k-1, -h(k, k-1))
				}
				p += s
				x = p / s
				y = q / s
				z = r / s
				q /= p
				r /= p

				// Row modification.
				for j := k; j < nn; j++ {
					p = h(k, j) + q*h(k+1, j)
					if notlast {
						p += r * h(k+2, j)
						hset(k+2, j, h(k+2, j)-p*z)
					}
					hset(k+1, j, h(k+1, j)-p*y)
					hset(k, j, h(k, j)-p*x)
				}
				// Column modification.
				iMax := min(n, k+3)
				for i := 0; i <= iMax; i++ {
					p = x*h(i, k) + y*h(i, k+1)
					if notlast {
						p += z * h(i, k+2)
						hset(i, k+2, h(i, k+2)-p*r)
					}
					hset(i, k+1, h(i, k+1)-p*q)
					hset(i, k, h(i, k)-p)
				}
			}
		}
	}
	return eig, nil
}

// nullVector returns a right null vector x (‖x‖∞ = 1) of a square matrix a
// by Gaussian elimination with full pivoting on a copy of a. It always
// eliminates to rank n−1, stopping early only when the remaining block is
// exactly zero, so the last — smallest — pivot is the one treated as zero.
func nullVector(a *Matrix) ([]float64, error) {
	a.square()
	n := a.Rows
	w := a.Clone()
	colPerm := make([]int, n)
	for i := range colPerm {
		colPerm[i] = i
	}
	rank := 0
	for k := 0; k < n-1; k++ {
		// Full pivot over the trailing submatrix.
		pi, pj, mx := k, k, 0.0
		for i := k; i < n; i++ {
			for j := k; j < n; j++ {
				if v := math.Abs(w.At(i, j)); v > mx {
					mx, pi, pj = v, i, j
				}
			}
		}
		if mx == 0 {
			if k == 0 {
				// Zero matrix: any unit vector is a null vector.
				x := make([]float64, n)
				x[0] = 1
				return x, nil
			}
			break // the remaining block is exactly zero
		}
		rank++
		swapRows(w, k, pi)
		swapCols(w, k, pj)
		colPerm[k], colPerm[pj] = colPerm[pj], colPerm[k]
		pivot := w.At(k, k)
		for i := k + 1; i < n; i++ {
			m := w.At(i, k) / pivot
			if m == 0 {
				continue
			}
			w.Set(i, k, 0)
			for j := k + 1; j < n; j++ {
				w.Data[i*n+j] -= m * w.Data[k*n+j]
			}
		}
	}
	// Back-substitute with the first free variable set to 1, the rest to 0.
	y := make([]float64, n)
	y[rank] = 1
	for i := rank - 1; i >= 0; i-- {
		var s float64
		for j := i + 1; j <= rank; j++ {
			s += w.At(i, j) * y[j]
		}
		y[i] = -s / w.At(i, i)
	}
	x := make([]float64, n)
	for k := 0; k < n; k++ {
		x[colPerm[k]] = y[k]
	}
	normalizeInf(x)
	return x, nil
}

func swapRows(m *Matrix, a, b int) {
	if a == b {
		return
	}
	n := m.Cols
	for j := 0; j < n; j++ {
		m.Data[a*n+j], m.Data[b*n+j] = m.Data[b*n+j], m.Data[a*n+j]
	}
}
