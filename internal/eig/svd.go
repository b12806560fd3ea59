package eig

import (
	"math"
	"sort"

	"repro/internal/matrix"
	"repro/internal/parallel"
)

const maxSVDIterations = 75

// SVDResult holds a thin singular value decomposition A ≈ U·diag(S)·Vᵀ
// with k = min(rows, cols) columns in U and V and S sorted descending.
type SVDResult struct {
	U *matrix.Dense // rows × k, orthonormal columns
	S []float64     // k singular values, descending, non-negative
	V *matrix.Dense // cols × k, orthonormal columns
}

// SVD computes the thin singular value decomposition of a by the
// Golub-Reinsch algorithm (Householder bidiagonalization followed by
// implicit-shift QR on the bidiagonal). The input is not modified.
func SVD(a *matrix.Dense) (*SVDResult, error) {
	if a.Rows >= a.Cols {
		// The column-major workspace of a is the row-major buffer of aᵀ.
		ws := matrix.TransposeInto(matrix.New(a.Cols, a.Rows), a).Data
		return svdColMajor(ws, a.Rows, a.Cols)
	}
	// Wide matrix: decompose the transpose and swap factors. a's
	// row-major buffer already is aᵀ in column-major order, so the
	// workspace is a straight copy.
	res, err := svdColMajor(append([]float64(nil), a.Data...), a.Cols, a.Rows)
	if err != nil {
		return nil, err
	}
	return &SVDResult{U: res.V, S: res.S, V: res.U}, nil
}

// Truncate returns the rank-r truncation of the decomposition as a fully
// independent copy: U, V, and S never alias the receiver's storage, for
// any rank (a rank at or above len(S) returns a full copy). Mutating the
// truncation therefore never corrupts the original, and vice versa —
// pinned by TestSVDTruncateOwnership.
func (r *SVDResult) Truncate(rank int) *SVDResult {
	if rank > len(r.S) {
		rank = len(r.S)
	}
	return &SVDResult{
		U: r.U.SubMatrix(0, r.U.Rows, 0, rank),
		S: append([]float64(nil), r.S[:rank]...),
		V: r.V.SubMatrix(0, r.V.Rows, 0, rank),
	}
}

// svdColMajor computes the SVD of the m×n matrix (m >= n) stored
// column-major in a — element (i, j) at a[j*m+i] — consuming a: it is
// overwritten in place and becomes U's row-major buffer in the result.
//
// Every sweep walks contiguous columns of a and of the column-major V,
// and each element receives exactly the operations, in the same order,
// of the textbook row-major formulation (the row reflection keeps each
// row's dot product in ascending-k order through a per-row
// accumulator), so results are bitwise identical to it at any worker
// count — pinned by TestSVDBitwiseMatchesReference.
func svdColMajor(a []float64, m, n int) (*SVDResult, error) {
	v := make([]float64, n*n)
	w := make([]float64, n)
	rv1 := make([]float64, n)
	// scratch holds the row reflection's per-row dot products during
	// bidiagonalization, then a copy of row i of a during V accumulation.
	scratch := make([]float64, m)

	var c, f, h, s, x, y, z float64
	var anorm, g, scale float64
	var l int

	// Pool sweep bodies, hoisted out of the iteration loops and reused
	// via the sv* variables so each sweep costs one closure allocation
	// per SVD instead of one per iteration (each parallel.For returns
	// before the variables are rewritten, so sharing is race-free).
	var (
		svI, svL int
		svF      float64
	)
	// Each column j > svI is reflected against the fixed Householder
	// vector in column svI, so the columns shard independently onto the
	// pool (dot product and update keep their serial k order per column).
	colReflect := func(jlo, jhi int) {
		ci := a[svI*m+svI : (svI+1)*m]
		for j := svL + jlo; j < svL+jhi; j++ {
			cj := a[j*m+svI : (j+1)*m]
			sj := 0.0
			for k, x := range ci {
				sj += x * cj[k]
			}
			fj := sj / svF
			for k, x := range ci {
				cj[k] += fj * x
			}
		}
	}
	// Rows j > svI are reflected against the fixed row svI; independent
	// across j, sharded on the pool. Columns are walked k-outer so each
	// row's dot product accumulates in scratch in ascending k order.
	rowReflect := func(jlo, jhi int) {
		lo, hi := svL+jlo, svL+jhi
		acc := scratch[lo:hi]
		clear(acc)
		for k := svL; k < n; k++ {
			aik := a[k*m+svI]
			for r, x := range a[k*m+lo : k*m+hi] {
				acc[r] += x * aik
			}
		}
		for k := svL; k < n; k++ {
			fk := rv1[k]
			ck := a[k*m+lo : k*m+hi]
			for r, x := range acc {
				ck[r] += x * fk
			}
		}
	}
	// Columns j > svI of V transform independently against the (already
	// written) column svI and row svI of a, copied to scratch; sharded on
	// the pool.
	vAccumulate := func(jlo, jhi int) {
		ri := scratch[svL:n]
		vi := v[svI*n+svL : (svI+1)*n]
		for j := svL + jlo; j < svL+jhi; j++ {
			vj := v[j*n+svL : (j+1)*n]
			sj := 0.0
			for k, x := range ri {
				sj += x * vj[k]
			}
			for k, x := range vi {
				vj[k] += sj * x
			}
		}
	}
	// Columns j > svI transform independently against column svI;
	// sharded on the pool.
	uAccumulate := func(jlo, jhi int) {
		ci := a[svI*m : (svI+1)*m]
		for j := svL + jlo; j < svL+jhi; j++ {
			cj := a[j*m : (j+1)*m]
			sj := 0.0
			for k := svL; k < m; k++ {
				sj += ci[k] * cj[k]
			}
			fj := (sj / ci[svI]) * svF
			for k := svI; k < m; k++ {
				cj[k] += fj * ci[k]
			}
		}
	}
	// rotate applies the Givens rotation (c, s) to the column pair (p, q).
	rotate := func(p, q []float64, c, s float64) {
		q = q[:len(p)]
		for j, y := range p {
			z := q[j]
			p[j] = y*c + z*s
			q[j] = z*c - y*s
		}
	}

	// Householder reduction to bidiagonal form.
	for i := 0; i < n; i++ {
		l = i + 1
		rv1[i] = scale * g
		g, s, scale = 0, 0, 0
		if i < m {
			ci := a[i*m+i : (i+1)*m]
			for _, x := range ci {
				scale += math.Abs(x)
			}
			if scale != 0 {
				for k := range ci {
					ci[k] /= scale
					s += ci[k] * ci[k]
				}
				f = ci[0]
				g = -math.Copysign(math.Sqrt(s), f)
				h = f*g - s
				ci[0] = f - g
				if i != n-1 {
					svI, svL, svF = i, l, h
					parallel.For(n-l, parallel.Grain(4*(m-i)), colReflect)
				}
				for k := range ci {
					ci[k] *= scale
				}
			}
		}
		w[i] = scale * g

		g, s, scale = 0, 0, 0
		if i < m && i != n-1 {
			for k := l; k < n; k++ {
				scale += math.Abs(a[k*m+i])
			}
			if scale != 0 {
				for k := l; k < n; k++ {
					a[k*m+i] /= scale
					s += a[k*m+i] * a[k*m+i]
				}
				f = a[l*m+i]
				g = -math.Copysign(math.Sqrt(s), f)
				h = f*g - s
				a[l*m+i] = f - g
				for k := l; k < n; k++ {
					rv1[k] = a[k*m+i] / h
				}
				if i != m-1 {
					svI, svL = i, l
					parallel.For(m-l, parallel.Grain(4*(n-l)), rowReflect)
				}
				for k := l; k < n; k++ {
					a[k*m+i] *= scale
				}
			}
		}
		anorm = math.Max(anorm, math.Abs(w[i])+math.Abs(rv1[i]))
	}

	// Accumulate right-hand transformations.
	for i := n - 1; i >= 0; i-- {
		if i < n-1 {
			if g != 0 {
				vi := v[i*n : (i+1)*n]
				for j := l; j < n; j++ {
					vi[j] = (a[j*m+i] / a[l*m+i]) / g
				}
				for k := l; k < n; k++ {
					scratch[k] = a[k*m+i]
				}
				svI, svL = i, l
				parallel.For(n-l, parallel.Grain(4*(n-l)), vAccumulate)
			}
			for j := l; j < n; j++ {
				v[j*n+i] = 0
				v[i*n+j] = 0
			}
		}
		v[i*n+i] = 1
		g = rv1[i]
		l = i
	}

	// Accumulate left-hand transformations.
	for i := n - 1; i >= 0; i-- {
		l = i + 1
		g = w[i]
		for j := l; j < n; j++ {
			a[j*m+i] = 0
		}
		ci := a[i*m+i : (i+1)*m]
		if g != 0 {
			g = 1 / g
			if i != n-1 {
				svI, svL, svF = i, l, g
				parallel.For(n-l, parallel.Grain(4*(m-l)), uAccumulate)
			}
			for j := range ci {
				ci[j] *= g
			}
		} else {
			clear(ci)
		}
		ci[0]++
	}

	// Diagonalize the bidiagonal form.
	for k := n - 1; k >= 0; k-- {
		for its := 0; ; its++ {
			if its >= maxSVDIterations {
				return nil, ErrNoConvergence
			}
			flag := true
			var nm int
			for l = k; l >= 0; l-- {
				nm = l - 1
				if math.Abs(rv1[l])+anorm == anorm {
					flag = false
					break
				}
				if math.Abs(w[nm])+anorm == anorm {
					break
				}
			}
			if flag {
				// Cancellation of rv1[l] when w[nm] is negligible.
				c, s = 0, 1
				for i := l; i <= k; i++ {
					f = s * rv1[i]
					rv1[i] = c * rv1[i]
					if math.Abs(f)+anorm == anorm {
						break
					}
					g = w[i]
					h = math.Hypot(f, g)
					w[i] = h
					h = 1 / h
					c = g * h
					s = -f * h
					rotate(a[nm*m:(nm+1)*m], a[i*m:(i+1)*m], c, s)
				}
			}
			z = w[k]
			if l == k {
				// Converged; enforce non-negative singular value.
				if z < 0 {
					w[k] = -z
					vk := v[k*n : (k+1)*n]
					for j := range vk {
						vk[j] = -vk[j]
					}
				}
				break
			}
			// Shift from bottom 2×2 minor.
			x = w[l]
			nm = k - 1
			y = w[nm]
			g = rv1[nm]
			h = rv1[k]
			f = ((y-z)*(y+z) + (g-h)*(g+h)) / (2 * h * y)
			g = math.Hypot(f, 1)
			f = ((x-z)*(x+z) + h*((y/(f+math.Copysign(g, f)))-h)) / x

			// Next QR transformation.
			c, s = 1, 1
			for j := l; j <= nm; j++ {
				i := j + 1
				g = rv1[i]
				y = w[i]
				h = s * g
				g = c * g
				z = math.Hypot(f, h)
				rv1[j] = z
				c = f / z
				s = h / z
				f = x*c + g*s
				g = g*c - x*s
				h = y * s
				y = y * c
				rotate(v[j*n:(j+1)*n], v[i*n:(i+1)*n], c, s)
				z = math.Hypot(f, h)
				w[j] = z
				if z != 0 {
					z = 1 / z
					c = f * z
					s = h * z
				}
				f = c*g + s*y
				x = c*y - s*g
				rotate(a[j*m:(j+1)*m], a[i*m:(i+1)*m], c, s)
			}
			rv1[l] = 0
			rv1[k] = f
			w[k] = x
		}
	}

	sortSVD(a, w, v, m)
	// Both factors go back to row-major in place: a transpose is pure
	// data movement, so the values are unchanged bitwise.
	transposeInPlace(a, m, n)
	transposeInPlace(v, n, n)
	u, vd := &matrix.Dense{Rows: m, Cols: n, Data: a}, &matrix.Dense{Rows: n, Cols: n, Data: v}
	canonicalizeSVDSigns(u, vd)
	return &SVDResult{U: u, S: w, V: vd}, nil
}

// sortSVD permutes the column-major decomposition (u is m×n, v is n×n)
// so singular values descend. The permutation is applied in place by
// walking its cycles with a single column buffer (pure data movement —
// no matrix-sized temporaries and no arithmetic, so results are
// unchanged bitwise).
func sortSVD(u, w, v []float64, m int) {
	n := len(w)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return w[idx[a]] > w[idx[b]] })
	buf := make([]float64, 1+m+n)
	uCol := func(j int) []float64 { return u[j*m : (j+1)*m] }
	vCol := func(j int) []float64 { return v[j*n : (j+1)*n] }
	// Walk the cycles of newJ -> idx[newJ]: save the cycle head, shift
	// each (w, u-col, v-col) triple from its source slot, restore the
	// head at the cycle's end. idx entries are marked done with -1.
	for start := 0; start < n; start++ {
		if idx[start] < 0 || idx[start] == start {
			continue
		}
		buf[0] = w[start]
		copy(buf[1:1+m], uCol(start))
		copy(buf[1+m:], vCol(start))
		j := start
		for idx[j] != start {
			src := idx[j]
			w[j] = w[src]
			copy(uCol(j), uCol(src))
			copy(vCol(j), vCol(src))
			idx[j] = -1
			j = src
		}
		w[j] = buf[0]
		copy(uCol(j), buf[1:1+m])
		copy(vCol(j), buf[1+m:])
		idx[j] = -1
	}
}

// transposeInPlace rearranges the m×n matrix stored column-major in d
// into row-major order, in place, by following the cycles of the
// permutation p -> p·n mod (m·n−1) that sends each element's
// column-major offset to its row-major one; a bitset marks the offsets
// already placed.
func transposeInPlace(d []float64, m, n int) {
	if m == 1 || n == 1 {
		return // a vector's two layouts coincide
	}
	last := m*n - 1
	done := make([]uint64, (last+63)/64)
	for start := 1; start < last; start++ {
		if done[start/64]&(1<<(start%64)) != 0 {
			continue
		}
		val := d[start]
		for p := start; ; {
			p = p * n % last
			d[p], val = val, d[p]
			done[p/64] |= 1 << (p % 64)
			if p == start {
				break
			}
		}
	}
}

// canonicalizeSVDSigns orients each (u_j, v_j) pair so the
// largest-magnitude entry of v_j is non-negative, for determinism.
func canonicalizeSVDSigns(u, v *matrix.Dense) {
	for j := 0; j < v.Cols; j++ {
		best, bestAbs := 0.0, 0.0
		for i := 0; i < v.Rows; i++ {
			if a := math.Abs(v.At(i, j)); a > bestAbs {
				bestAbs, best = a, v.At(i, j)
			}
		}
		if best < 0 {
			for i := 0; i < v.Rows; i++ {
				v.Set(i, j, -v.At(i, j))
			}
			for i := 0; i < u.Rows; i++ {
				u.Set(i, j, -u.At(i, j))
			}
		}
	}
}
