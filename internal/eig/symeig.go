// Package eig provides the numerical linear-algebra kernels the paper's
// algorithms rely on: a symmetric eigensolver (Householder
// tridiagonalization followed by implicit-shift QL iteration), a full
// Golub-Reinsch singular value decomposition, the Moore-Penrose
// pseudo-inverse, and 2-norm condition-number estimation. All results are
// deterministic and sorted by descending eigen/singular value.
//
//ivmf:deterministic
package eig

import (
	"errors"
	"math"

	"repro/internal/matrix"
	"repro/internal/parallel"
)

// ErrNoConvergence is returned when an iterative eigen or SVD sweep fails
// to converge within its iteration budget.
var ErrNoConvergence = errors.New("eig: iteration did not converge")

const maxQLIterations = 64

// SymEig computes the eigen-decomposition of the symmetric matrix a.
// It returns the eigenvalues sorted in descending order and the matrix of
// corresponding eigenvectors in its columns, such that a ≈ V·diag(vals)·Vᵀ.
// Only the lower triangle semantics of a symmetric matrix are assumed;
// the input is not modified. It builds all n eigenvectors; SymEigWith
// below full rank runs symEigTopK instead, which builds only the kept
// ones.
func SymEig(a *matrix.Dense) (vals []float64, vecs *matrix.Dense, err error) {
	if a.Rows != a.Cols {
		return nil, nil, errors.New("eig: SymEig: matrix not square")
	}
	n := a.Rows
	z := a.Clone()
	d := make([]float64, n)
	e := make([]float64, n)
	tridiagonalize(z, d, e)
	accumulateTridiagonal(z, d)
	zt := z.T() // rows of zt are eigenvector columns of z
	if err := diagonalizeTridiagonal(d, e, rowRotations{zt}); err != nil {
		return nil, nil, err
	}
	matrix.TransposeInto(z, zt) // write the accumulated vectors back without an intermediate copy
	vals = make([]float64, n)
	vecs = matrix.New(n, n)
	for newJ, oldJ := range descendingOrder(d) {
		vals[newJ] = d[oldJ]
		for i := 0; i < n; i++ {
			vecs.Set(i, newJ, z.At(i, oldJ))
		}
	}
	canonicalizeColumnSigns(vecs)
	return vals, vecs, nil
}

// symEigTopK computes the k < n algebraically largest eigenpairs of the
// n×n symmetric matrix a, sorted descending; the input is not modified.
// It shares tridiagonalize and diagonalizeTridiagonal with SymEig, so
// vals are bitwise equal to SymEig's leading k values, but it never
// forms the n×n eigenvector matrix: the QL phase's Givens rotations are
// logged, and once the sort has picked the kept indices they are
// replayed on an n×k block, to which the Householder reflectors left in
// the workspace are then applied. The vectors agree with SymEig's
// leading columns to rounding (TestSymEigTopKMatchesFull).
func symEigTopK(a *matrix.Dense, k int) (vals []float64, vecs *matrix.Dense, err error) {
	n := a.Rows
	z := a.Clone()
	h := make([]float64, n)
	e := make([]float64, n)
	tridiagonalize(z, h, e)
	zd := z.Data
	d := make([]float64, n)
	for i := range d {
		d[i] = zd[i*n+i]
	}
	rots := &qlLog{}
	if err := diagonalizeTridiagonal(d, e, rots); err != nil {
		return nil, nil, err
	}

	// Column c of the block starts as e_p for the c-th kept index p.
	vals = make([]float64, k)
	x := make([]float64, n*k)
	for c, p := range descendingOrder(d)[:k] {
		vals[c] = d[p]
		x[p*k+c] = 1
	}
	rots.replay(x, k)

	// The eigenvectors are Q·x with Q = P_{n-1}·…·P_1, P_i = I − w·uᵀ:
	// u is row i of z left of the diagonal and w = u/h_i is column i
	// above it (the vectors accumulateTridiagonal consumes). P_i is
	// the identity when h_i = 0. Each reflector accumulates its k dot
	// products row by row, in ascending row order.
	acc := make([]float64, k)
	for i := 1; i < n; i++ {
		if h[i] == 0 {
			continue
		}
		clear(acc)
		for t, u := range zd[i*n : i*n+i] {
			if u != 0 {
				for c, y := range x[t*k : (t+1)*k] {
					acc[c] += u * y
				}
			}
		}
		for t := 0; t < i; t++ {
			if w := zd[t*n+i]; w != 0 {
				row := x[t*k : (t+1)*k]
				for c := range row {
					row[c] -= acc[c] * w
				}
			}
		}
	}
	vecs = &matrix.Dense{Rows: n, Cols: k, Data: x}
	canonicalizeColumnSigns(vecs)
	return vals, vecs, nil
}

// tridiagonalize reduces the symmetric matrix held in z to tridiagonal
// form by Householder transformations: the reduction phase of the
// classical EISPACK TRED2 routine, written against the backing slice
// directly so the O(n³) inner loops run over contiguous rows wherever
// the access pattern allows. On return e holds the subdiagonal (e[0] =
// 0), the diagonal of z the tridiagonal's diagonal, and d[i] the scale
// h_i of the reflector P_i (0 where P_i is the identity), whose vector u
// is row i of z left of the diagonal and u/h_i column i above it.
func tridiagonalize(z *matrix.Dense, d, e []float64) {
	n := z.Rows
	a := z.Data
	row := func(i int) []float64 { return a[i*n : (i+1)*n] }
	// The sweep bodies below are hoisted out of the i loop and reused
	// via the sw* variables, so each O(n) sweep costs one closure
	// allocation per call instead of one per iteration (the pool call
	// finishes before the variables are rewritten, so sharing them is
	// race-free). This is the dominant allocation source of SymEig.
	var (
		swI, swL int
		swRow    []float64
		swH      float64
	)
	// The e[j] dot products only read rows/columns <= swL and write
	// column swI, so they are independent across j and shard onto the
	// pool; the order-sensitive f reduction stays serial so the sum
	// keeps its j order bitwise. Each e[j] sums row j up to the
	// diagonal, then column j below it in ascending k; the column part
	// runs k-outer over contiguous row segments, which adds the same
	// terms to each e[j] in the same order as a strided walk down
	// column j would.
	eDots := func(jlo, jhi int) {
		for j := jlo; j < jhi; j++ {
			rj := row(j)
			rj[swI] = swRow[j] / swH
			s := 0.0
			for k := 0; k <= j; k++ {
				s += rj[k] * swRow[k]
			}
			e[j] = s
		}
		for k := jlo + 1; k <= swL; k++ {
			f := swRow[k]
			for t, x := range a[k*n+jlo : k*n+min(jhi, k)] {
				e[jlo+t] += x * f
			}
		}
		for j := jlo; j < jhi; j++ {
			e[j] /= swH
		}
	}
	// Serial TRED2 interleaves the e[j] update with the row updates,
	// but every row update only reads already-updated e entries
	// (k <= j), so updating all of e first is the same arithmetic —
	// and makes the row updates independent.
	rowUpdates := func(jlo, jhi int) {
		for j := jlo; j < jhi; j++ {
			fj := swRow[j]
			gj := e[j]
			rj := row(j)
			for k := 0; k <= j; k++ {
				rj[k] -= fj*e[k] + gj*swRow[k]
			}
		}
	}
	for i := n - 1; i >= 1; i-- {
		l := i - 1
		ri := row(i)
		h, scale := 0.0, 0.0
		if l > 0 {
			for k := 0; k <= l; k++ {
				scale += math.Abs(ri[k])
			}
			if scale == 0 {
				e[i] = ri[l]
			} else {
				for k := 0; k <= l; k++ {
					ri[k] /= scale
					h += ri[k] * ri[k]
				}
				f := ri[l]
				g := math.Sqrt(h)
				if f >= 0 {
					g = -g
				}
				e[i] = scale * g
				h -= f * g
				ri[l] = f - g
				swI, swL, swRow, swH = i, l, ri, h
				parallel.For(l+1, parallel.Grain(2*(l+1)), eDots)
				f = 0
				for j := 0; j <= l; j++ {
					f += e[j] * ri[j]
				}
				hh := f / (h + h)
				for j := 0; j <= l; j++ {
					e[j] -= hh * ri[j]
				}
				parallel.For(l+1, parallel.Grain(2*(l+1)), rowUpdates)
			}
		} else {
			e[i] = ri[l]
		}
		d[i] = h
	}
	d[0] = 0
	e[0] = 0
}

// accumulateTridiagonal is the accumulation phase of TRED2: it
// overwrites z, as left by tridiagonalize with the reflector scales in
// d, with the orthogonal transform Q = P_{n-1}·…·P_1, and d with the
// tridiagonal's diagonal. It is restructured for row-contiguous access:
// g = Z[0..l,0..l]ᵀ·ri is a row-wise matvec and the update
// Z[0..l,0..l] -= u·gᵀ (u = column i) a row-wise rank-1 update.
func accumulateTridiagonal(z *matrix.Dense, d []float64) {
	n := z.Rows
	a := z.Data
	row := func(i int) []float64 { return a[i*n : (i+1)*n] }
	// Both sweep bodies are hoisted and reused like tridiagonalize's.
	var (
		swI, swL int
		swRow    []float64
	)
	g := make([]float64, n)
	// Matvec g = Z[0..l,0..l]ᵀ·swRow sharded over output entries j:
	// each shard keeps the k loop outermost, so every g[j] accumulates
	// in the same k order as the serial code.
	matvec := func(jlo, jhi int) {
		for j := jlo; j < jhi; j++ {
			g[j] = 0
		}
		for k := 0; k <= swL; k++ {
			if f := swRow[k]; f != 0 {
				rk := row(k)
				for j := jlo; j < jhi; j++ {
					g[j] += f * rk[j]
				}
			}
		}
	}
	// Rank-1 update Z[0..l,0..l] -= u·gᵀ sharded over rows k.
	rank1 := func(klo, khi int) {
		for k := klo; k < khi; k++ {
			rk := row(k)
			if u := rk[swI]; u != 0 {
				for j := 0; j <= swL; j++ {
					rk[j] -= g[j] * u
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		l := i - 1
		ri := row(i)
		if d[i] != 0 {
			swI, swL, swRow = i, l, ri
			parallel.For(l+1, parallel.Grain(2*(l+1)), matvec)
			parallel.For(l+1, parallel.Grain(2*(l+1)), rank1)
		}
		d[i] = ri[i]
		ri[i] = 1
		for j := 0; j <= l; j++ {
			a[j*n+i] = 0
			ri[j] = 0
		}
	}
}

// qlRotations receives the Givens rotations of the QL phase. The
// recurrence on d and e never reads the eigenvectors, so SymEig applies
// each rotation at once (rowRotations) and symEigTopK logs it for a
// replay on the kept columns (qlLog).
type qlRotations interface {
	// givens rotates eigenvector columns (i, i+1) by (c, s):
	// v_i ← c·v_i − s·v_{i+1}, v_{i+1} ← s·v_i + c·v_{i+1}.
	givens(i int, c, s float64)
}

// diagonalizeTridiagonal diagonalizes a symmetric tridiagonal matrix
// (diagonal d, subdiagonal e with e[0] unused) by the implicit-shift QL
// recurrence of the classical EISPACK TQL2, leaving the unsorted
// eigenvalues in d and reporting every rotation to rot.
func diagonalizeTridiagonal(d, e []float64, rot qlRotations) error {
	n := len(d)
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0
	for l := 0; l < n; l++ {
		iter := 0
		for {
			var m int
			for m = l; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(e[m]) <= math.SmallestNonzeroFloat64+dd*1e-16 {
					break
				}
			}
			if m == l {
				break
			}
			iter++
			if iter > maxQLIterations {
				return ErrNoConvergence
			}
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			g = d[m] - d[l] + e[l]/(g+math.Copysign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			for i := m - 1; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 {
					d[i+1] -= p
					e[m] = 0
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
				rot.givens(i, c, s)
			}
			if r == 0 && m-1 >= l {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
	return nil
}

// rowRotations applies the QL phase at once to SymEig's accumulated
// transform, held transposed in zt (n×n) so each rotation touches two
// contiguous rows. The rotations stay serial: each one is an O(n) loop
// with ~6 flops per element, far below the worker pool's profitable
// chunk size, and successive rotations share a row so they cannot
// shard independently.
type rowRotations struct{ zt *matrix.Dense }

func (r rowRotations) givens(i int, c, s float64) {
	rotateRows(r.zt.RowView(i), r.zt.RowView(i+1), c, s)
}

// qlLog records the QL phase for symEigTopK: the (c, s) pairs in
// givensPairs' chunks, their indices as runs of consecutive descending
// steps, which is how each QL sweep proceeds.
type qlLog struct {
	givensPairs
	segs []qlSeg
}

// qlSeg is a run of count QL steps on columns (i, i+1) for i = top,
// top−1, …, top−count+1.
type qlSeg struct{ top, count int }

func (g *qlLog) givens(i int, c, s float64) {
	if last := len(g.segs) - 1; last < 0 || g.segs[last].top-g.segs[last].count != i {
		g.segs = append(g.segs, qlSeg{top: i})
	}
	g.segs[len(g.segs)-1].count++
	g.put(c, s)
}

// replay multiplies the row-major n×k block x from the left by the
// product of the logged rotations in the order the QL phase applied
// them to the eigenvector columns: the last rotation is applied first.
// Applied from the left, a column rotation by (c, s) is rotate's row
// update.
func (g *qlLog) replay(x []float64, k int) {
	p := g.pairs
	for si := len(g.segs) - 1; si >= 0; si-- {
		seg := g.segs[si]
		for i := seg.top - seg.count + 1; i <= seg.top; i++ {
			p--
			c, s := g.pair(p)
			rotate(x[i*k:(i+1)*k], x[(i+1)*k:(i+2)*k], c, s)
		}
	}
}

// canonicalizeColumnSigns flips each column so its largest-magnitude
// entry is non-negative, giving deterministic eigenvector orientation.
func canonicalizeColumnSigns(v *matrix.Dense) {
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
		}
	}
}
