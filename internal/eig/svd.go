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
	return svdLeading(a, min(a.Rows, a.Cols))
}

// svdLeading computes the k leading singular triplets of a by
// Golub-Reinsch, 0 <= k <= min(rows, cols): svdColMajor at k = min(rows,
// cols), svdTopK below it. The input is not modified.
func svdLeading(a *matrix.Dense, k int) (*SVDResult, error) {
	m, n := a.Rows, a.Cols
	var ws []float64
	if m >= n {
		// The column-major workspace of a is the row-major buffer of aᵀ.
		ws = matrix.TransposeInto(matrix.New(n, m), a).Data
	} else {
		// Wide matrix: decompose the transpose and swap factors. a's
		// row-major buffer already is aᵀ in column-major order, so the
		// workspace is a straight copy.
		ws = append([]float64(nil), a.Data...)
		m, n = n, m
	}
	var res *SVDResult
	var err error
	if k < n {
		res, err = svdTopK(ws, m, n, k)
	} else {
		res, err = svdColMajor(ws, m, n)
	}
	if err != nil {
		return nil, err
	}
	if a.Rows < a.Cols {
		res.U, res.V = res.V, res.U
	}
	return res, nil
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

// bidiagonalize reduces the m×n matrix (m >= n) stored column-major in a
// to upper bidiagonal form by Householder reflections, in place. On
// return w holds the diagonal and rv1 the superdiagonal (rv1[i] is
// element (i-1, i); rv1[0] = 0); column i of a holds the left reflector
// Q_i's vector from the diagonal down, and row i holds the right
// reflector P_i's vector right of the diagonal. scratch (length m) is
// clobbered. The result is the norm bound the QR phase tests against.
func bidiagonalize(a []float64, m, n int, w, rv1, scratch []float64) float64 {
	var f, g, h, s, anorm, scale float64

	// Pool sweep bodies, hoisted out of the iteration loop and reused
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

	for i := 0; i < n; i++ {
		l := i + 1
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
	return anorm
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
	w := make([]float64, n)
	rv1 := make([]float64, n)
	// scratch holds the row reflection's per-row dot products during
	// bidiagonalization, then a copy of row i of a during V accumulation.
	scratch := make([]float64, m)
	anorm := bidiagonalize(a, m, n, w, rv1, scratch)
	v := make([]float64, n*n)

	// Pool sweep bodies, shared through the sv* variables as in
	// bidiagonalize.
	var (
		svI, svL int
		svF      float64
	)
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

	// Accumulate right-hand transformations.
	var g float64
	var l int
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

	if err := diagonalize(w, rv1, anorm, columnRotations{u: a, v: v, m: m, n: n}); err != nil {
		return nil, err
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

// qrRotations receives the transformations the QR phase applies to the
// singular vectors. The recurrence on w and rv1 never reads the vectors,
// so svdColMajor applies each transformation at once (columnRotations)
// and svdTopK logs it for a replay on the kept columns (givensLog).
type qrRotations interface {
	// sweep is step j of a QR sweep: it rotates columns (j, j+1) of V by
	// (cv, sv) and of U by (cu, su).
	sweep(j int, cv, sv, cu, su float64)
	// cancel rotates columns (nm, i) of U by (c, s).
	cancel(nm, i int, c, s float64)
	// flip negates column k of V, making σ_k non-negative.
	flip(k int)
}

// diagonalize runs the implicit-shift QR iteration on the bidiagonal
// (w, rv1) left by bidiagonalize until the superdiagonal vanishes,
// leaving the unsorted singular values in w and reporting every rotation
// and sign flip to rot.
func diagonalize(w, rv1 []float64, anorm float64, rot qrRotations) error {
	var c, f, g, h, s, x, y, z float64
	for k := len(w) - 1; k >= 0; k-- {
		for its := 0; ; its++ {
			if its >= maxSVDIterations {
				return ErrNoConvergence
			}
			flag := true
			var l, nm int
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
					rot.cancel(nm, i, c, s)
				}
			}
			z = w[k]
			if l == k {
				// Converged; enforce non-negative singular value.
				if z < 0 {
					w[k] = -z
					rot.flip(k)
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
				cv, sv := c, s
				z = math.Hypot(f, h)
				w[j] = z
				if z != 0 {
					z = 1 / z
					c = f * z
					s = h * z
				}
				f = c*g + s*y
				x = c*y - s*g
				rot.sweep(j, cv, sv, c, s)
			}
			rv1[l] = 0
			rv1[k] = f
			w[k] = x
		}
	}
	return nil
}

// columnRotations applies the QR phase at once to svdColMajor's
// accumulated column-major factors: u is m×n, v is n×n.
type columnRotations struct {
	u, v []float64
	m, n int
}

func (r columnRotations) sweep(j int, cv, sv, cu, su float64) {
	m, n := r.m, r.n
	rotate(r.v[j*n:(j+1)*n], r.v[(j+1)*n:(j+2)*n], cv, sv)
	rotate(r.u[j*m:(j+1)*m], r.u[(j+1)*m:(j+2)*m], cu, su)
}

func (r columnRotations) cancel(nm, i int, c, s float64) {
	m := r.m
	rotate(r.u[nm*m:(nm+1)*m], r.u[i*m:(i+1)*m], c, s)
}

func (r columnRotations) flip(k int) {
	vk := r.v[k*r.n : (k+1)*r.n]
	for j := range vk {
		vk[j] = -vk[j]
	}
}

// rotate applies the Givens rotation (c, s) to the column pair (p, q):
// p ← c·p + s·q, q ← c·q − s·p.
func rotate(p, q []float64, c, s float64) {
	q = q[:len(p)]
	for j, y := range p {
		z := q[j]
		p[j] = y*c + z*s
		q[j] = z*c - y*s
	}
}

// svdTopK computes the k < n leading singular triplets of the m×n matrix
// (m >= n) stored column-major in a, consuming a. It shares
// bidiagonalize and diagonalize with svdColMajor, so S is bitwise equal
// to that kernel's leading k values, but it never forms the n×n factors.
// The QR phase's rotations are logged instead, and once the sort has
// picked the kept indices they are replayed on n×k blocks, to which the
// Householder reflectors left in a are then applied. U and V agree with
// svdColMajor's leading columns to rounding (TestSVDTopKMatchesFull).
func svdTopK(a []float64, m, n, k int) (*SVDResult, error) {
	w := make([]float64, n)
	rv1 := make([]float64, n)
	scratch := make([]float64, m)
	anorm := bidiagonalize(a, m, n, w, rv1, scratch)
	// The reflectors' scale factors, taken before the QR phase overwrites
	// them: w[i] for Q_i and rv1[i+1] for P_i.
	wq := append([]float64(nil), w...)
	gp := append([]float64(nil), rv1...)
	rots := &givensLog{flipped: make([]bool, n)}
	if err := diagonalize(w, rv1, anorm, rots); err != nil {
		return nil, err
	}

	// Column c of each block starts as e_p for the c-th kept index p, the
	// V side negated where the QR phase flipped σ_p; U's block is m×k
	// because U = Q_0·…·Q_{n-1}·[I_n; 0]·R_U, so rows n..m-1 start at zero.
	s := make([]float64, k)
	xu := make([]float64, m*k)
	xv := make([]float64, n*k)
	for c, p := range descendingOrder(w)[:k] {
		s[c] = w[p]
		xu[p*k+c] = 1
		xv[p*k+c] = 1
		if rots.flipped[p] {
			xv[p*k+c] = -1
		}
	}
	rots.replay(xu, xv, k)

	// Both blocks are row-major, so each reflector accumulates its k dot
	// products row by row, each in ascending row order, and scales its
	// update as svdColMajor's accumulations do.
	acc := make([]float64, k)
	// V = P_0·…·P_{n-2}·R_V with P_i = I + u·uᵀ/(u_{i+1}·g_i), u row i of
	// a right of the diagonal; P_i is the identity when g_i = 0.
	for i := n - 2; i >= 0; i-- {
		g := gp[i+1]
		if g == 0 {
			continue
		}
		l := i + 1
		clear(acc)
		for t := l; t < n; t++ {
			x := a[t*m+i]
			for c, y := range xv[t*k : (t+1)*k] {
				acc[c] += x * y
			}
		}
		for t := l; t < n; t++ {
			x := (a[t*m+i] / a[l*m+i]) / g
			row := xv[t*k : (t+1)*k]
			for c := range row {
				row[c] += acc[c] * x
			}
		}
	}
	// U's block: Q_i = I + x·xᵀ/(x_i·w_i), x column i of a from the
	// diagonal down; Q_i is the identity when w_i = 0. The dot products
	// start at row i, which svdColMajor can skip because it has zeroed it.
	for i := n - 1; i >= 0; i-- {
		if wq[i] == 0 {
			continue
		}
		ci := a[i*m+i : (i+1)*m]
		clear(acc)
		for t, x := range ci {
			for c, y := range xu[(i+t)*k : (i+t+1)*k] {
				acc[c] += x * y
			}
		}
		ginv := 1 / wq[i]
		for c := range acc {
			acc[c] = (acc[c] / ci[0]) * ginv
		}
		for t, x := range ci {
			row := xu[(i+t)*k : (i+t+1)*k]
			for c := range row {
				row[c] += acc[c] * x
			}
		}
	}

	u, vd := &matrix.Dense{Rows: m, Cols: k, Data: xu}, &matrix.Dense{Rows: n, Cols: k, Data: xv}
	canonicalizeSVDSigns(u, vd)
	return &SVDResult{U: u, S: s, V: vd}, nil
}

// givensChunk is the number of (c, s) pairs in one chunk of a
// givensPairs.
const givensChunk = 1024

// givensPairs stores logged Givens rotation pairs in fixed-size chunks,
// so recording never copies what it already holds. The logs of the
// top-k kernels (givensLog, qlLog) keep their indices beside it.
type givensPairs struct {
	chunks [][]float64
	pairs  int // pairs recorded
}

func (g *givensPairs) put(c, s float64) {
	i := g.pairs % givensChunk
	if i == 0 {
		g.chunks = append(g.chunks, make([]float64, 2*givensChunk))
	}
	ch := g.chunks[len(g.chunks)-1]
	ch[2*i], ch[2*i+1] = c, s
	g.pairs++
}

func (g *givensPairs) pair(p int) (c, s float64) {
	ch, i := g.chunks[p/givensChunk], 2*(p%givensChunk)
	return ch[i], ch[i+1]
}

// givensLog records the QR phase for svdTopK. The column indices of its
// rotation pairs are implied by segment headers, one per run of
// consecutive steps. Two sweeps (or cancellations) that happen to
// continue each other share a header, which describes the same rotations
// in the same order.
type givensLog struct {
	givensPairs
	segs    []givensSeg
	flipped []bool // flipped[k]: column k of V was negated
}

// givensSeg is a run of count consecutive steps starting at column l: QR
// sweep steps (l+t, l+t+1), two pairs each (V then U), when nm < 0, and
// otherwise cancellation steps (nm, l+t), one U pair each.
type givensSeg struct {
	nm, l, count int
}

// step counts one step of the segment (nm, next), opening a new segment
// unless the last one continues to column next.
func (g *givensLog) step(nm, next int) {
	if last := len(g.segs) - 1; last < 0 || g.segs[last].nm != nm || g.segs[last].l+g.segs[last].count != next {
		g.segs = append(g.segs, givensSeg{nm: nm, l: next})
	}
	g.segs[len(g.segs)-1].count++
}

func (g *givensLog) sweep(j int, cv, sv, cu, su float64) {
	g.step(-1, j)
	g.put(cv, sv)
	g.put(cu, su)
}

func (g *givensLog) cancel(nm, i int, c, s float64) {
	g.step(nm, i)
	g.put(c, s)
}

func (g *givensLog) flip(k int) { g.flipped[k] = true }

// replay multiplies the row-major blocks xu and xv (k columns each) from
// the left by R_U and R_V, the products of each side's rotations in the
// order the QR phase applied them to the columns of U and V: the last
// rotation is applied first.
func (g *givensLog) replay(xu, xv []float64, k int) {
	row := func(x []float64, i int) []float64 { return x[i*k : (i+1)*k] }
	p := g.pairs
	for si := len(g.segs) - 1; si >= 0; si-- {
		seg := g.segs[si]
		for i := seg.l + seg.count - 1; i >= seg.l; i-- {
			if seg.nm < 0 {
				p -= 2
				c, s := g.pair(p)
				rotateRows(row(xv, i), row(xv, i+1), c, s)
				c, s = g.pair(p + 1)
				rotateRows(row(xu, i), row(xu, i+1), c, s)
			} else {
				p--
				c, s := g.pair(p)
				rotateRows(row(xu, seg.nm), row(xu, i), c, s)
			}
		}
	}
}

// rotateRows multiplies the row pair (p, q) from the left by the Givens
// matrix that rotate applies to a column pair from the right:
// p ← c·p − s·q, q ← s·p + c·q.
func rotateRows(p, q []float64, c, s float64) {
	q = q[:len(p)]
	for j, y := range p {
		z := q[j]
		p[j] = y*c - z*s
		q[j] = y*s + z*c
	}
}

// sortSVD permutes the column-major decomposition (u is m×n, v is n×n)
// so singular values descend. The permutation is applied in place by
// walking its cycles with a single column buffer (pure data movement —
// no matrix-sized temporaries and no arithmetic, so results are
// unchanged bitwise).
func sortSVD(u, w, v []float64, m int) {
	n := len(w)
	idx := descendingOrder(w)
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

// descendingOrder returns the indices of w by descending value, ties in
// index order.
func descendingOrder(w []float64) []int {
	idx := make([]int, len(w))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return w[idx[a]] > w[idx[b]] })
	return idx
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
