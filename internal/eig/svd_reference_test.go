package eig

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/matrix"
	"repro/internal/parallel"
)

// referenceSVD is the row-major Golub-Reinsch SVD that eig.SVD ran on
// before its column-major rewrite, frozen as the bitwise oracle: every
// element of U, S and V from SVD must match it bit for bit, at any
// worker count. It indexes the matrix through Dense.At/Set and clones
// (tall) or transposes (wide) its input, exactly as the old code did.
func referenceSVD(a *matrix.Dense) (*SVDResult, error) {
	if a.Rows >= a.Cols {
		return referenceSVDTall(a.Clone())
	}
	res, err := referenceSVDTall(matrix.TransposeInto(matrix.New(a.Cols, a.Rows), a))
	if err != nil {
		return nil, err
	}
	return &SVDResult{U: res.V, S: res.S, V: res.U}, nil
}

func referenceSVDTall(a *matrix.Dense) (*SVDResult, error) {
	m, n := a.Rows, a.Cols
	v := matrix.New(n, n)
	w := make([]float64, n)
	rv1 := make([]float64, n)

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
		for j := svL + jlo; j < svL+jhi; j++ {
			sj := 0.0
			for k := svI; k < m; k++ {
				sj += a.At(k, svI) * a.At(k, j)
			}
			fj := sj / svF
			for k := svI; k < m; k++ {
				a.Set(k, j, a.At(k, j)+fj*a.At(k, svI))
			}
		}
	}
	// Rows j > svI are reflected against the fixed row svI; independent
	// across j, sharded on the pool.
	rowReflect := func(jlo, jhi int) {
		for j := svL + jlo; j < svL+jhi; j++ {
			sj := 0.0
			for k := svL; k < n; k++ {
				sj += a.At(j, k) * a.At(svI, k)
			}
			for k := svL; k < n; k++ {
				a.Set(j, k, a.At(j, k)+sj*rv1[k])
			}
		}
	}
	// Columns j > svI of V transform independently against the (already
	// written) column svI; sharded on the pool.
	vAccumulate := func(jlo, jhi int) {
		for j := svL + jlo; j < svL+jhi; j++ {
			sj := 0.0
			for k := svL; k < n; k++ {
				sj += a.At(svI, k) * v.At(k, j)
			}
			for k := svL; k < n; k++ {
				v.Set(k, j, v.At(k, j)+sj*v.At(k, svI))
			}
		}
	}
	// Columns j > svI transform independently against column svI;
	// sharded on the pool.
	uAccumulate := func(jlo, jhi int) {
		for j := svL + jlo; j < svL+jhi; j++ {
			sj := 0.0
			for k := svL; k < m; k++ {
				sj += a.At(k, svI) * a.At(k, j)
			}
			fj := (sj / a.At(svI, svI)) * svF
			for k := svI; k < m; k++ {
				a.Set(k, j, a.At(k, j)+fj*a.At(k, svI))
			}
		}
	}

	// Householder reduction to bidiagonal form.
	for i := 0; i < n; i++ {
		l = i + 1
		rv1[i] = scale * g
		g, s, scale = 0, 0, 0
		if i < m {
			for k := i; k < m; k++ {
				scale += math.Abs(a.At(k, i))
			}
			if scale != 0 {
				for k := i; k < m; k++ {
					a.Set(k, i, a.At(k, i)/scale)
					s += a.At(k, i) * a.At(k, i)
				}
				f = a.At(i, i)
				g = -math.Copysign(math.Sqrt(s), f)
				h = f*g - s
				a.Set(i, i, f-g)
				if i != n-1 {
					svI, svL, svF = i, l, h
					parallel.For(n-l, parallel.Grain(4*(m-i)), colReflect)
				}
				for k := i; k < m; k++ {
					a.Set(k, i, a.At(k, i)*scale)
				}
			}
		}
		w[i] = scale * g

		g, s, scale = 0, 0, 0
		if i < m && i != n-1 {
			for k := l; k < n; k++ {
				scale += math.Abs(a.At(i, k))
			}
			if scale != 0 {
				for k := l; k < n; k++ {
					a.Set(i, k, a.At(i, k)/scale)
					s += a.At(i, k) * a.At(i, k)
				}
				f = a.At(i, l)
				g = -math.Copysign(math.Sqrt(s), f)
				h = f*g - s
				a.Set(i, l, f-g)
				for k := l; k < n; k++ {
					rv1[k] = a.At(i, k) / h
				}
				if i != m-1 {
					svI, svL = i, l
					parallel.For(m-l, parallel.Grain(4*(n-l)), rowReflect)
				}
				for k := l; k < n; k++ {
					a.Set(i, k, a.At(i, k)*scale)
				}
			}
		}
		anorm = math.Max(anorm, math.Abs(w[i])+math.Abs(rv1[i]))
	}

	// Accumulate right-hand transformations.
	for i := n - 1; i >= 0; i-- {
		if i < n-1 {
			if g != 0 {
				for j := l; j < n; j++ {
					v.Set(j, i, (a.At(i, j)/a.At(i, l))/g)
				}
				svI, svL = i, l
				parallel.For(n-l, parallel.Grain(4*(n-l)), vAccumulate)
			}
			for j := l; j < n; j++ {
				v.Set(i, j, 0)
				v.Set(j, i, 0)
			}
		}
		v.Set(i, i, 1)
		g = rv1[i]
		l = i
	}

	// Accumulate left-hand transformations.
	for i := n - 1; i >= 0; i-- {
		l = i + 1
		g = w[i]
		if i < n-1 {
			for j := l; j < n; j++ {
				a.Set(i, j, 0)
			}
		}
		if g != 0 {
			g = 1 / g
			if i != n-1 {
				svI, svL, svF = i, l, g
				parallel.For(n-l, parallel.Grain(4*(m-l)), uAccumulate)
			}
			for j := i; j < m; j++ {
				a.Set(j, i, a.At(j, i)*g)
			}
		} else {
			for j := i; j < m; j++ {
				a.Set(j, i, 0)
			}
		}
		a.Set(i, i, a.At(i, i)+1)
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
					for j := 0; j < m; j++ {
						y = a.At(j, nm)
						z = a.At(j, i)
						a.Set(j, nm, y*c+z*s)
						a.Set(j, i, z*c-y*s)
					}
				}
			}
			z = w[k]
			if l == k {
				// Converged; enforce non-negative singular value.
				if z < 0 {
					w[k] = -z
					for j := 0; j < n; j++ {
						v.Set(j, k, -v.At(j, k))
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
				for jj := 0; jj < n; jj++ {
					x = v.At(jj, j)
					z = v.At(jj, i)
					v.Set(jj, j, x*c+z*s)
					v.Set(jj, i, z*c-x*s)
				}
				z = math.Hypot(f, h)
				w[j] = z
				if z != 0 {
					z = 1 / z
					c = f * z
					s = h * z
				}
				f = c*g + s*y
				x = c*y - s*g
				for jj := 0; jj < m; jj++ {
					y = a.At(jj, j)
					z = a.At(jj, i)
					a.Set(jj, j, y*c+z*s)
					a.Set(jj, i, z*c-y*s)
				}
			}
			rv1[l] = 0
			rv1[k] = f
			w[k] = x
		}
	}

	referenceSortSVD(a, w, v)
	referenceCanonicalizeSigns(a, v)
	return &SVDResult{U: a, S: w, V: v}, nil
}

// sortSVD permutes the decomposition so singular values descend. The
// permutation is applied in place by walking its cycles with a single
// column buffer (pure data movement — no matrix-sized temporaries and
// no arithmetic, so results are unchanged bitwise).
func referenceSortSVD(u *matrix.Dense, w []float64, v *matrix.Dense) {
	n := len(w)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return w[idx[a]] > w[idx[b]] })
	buf := make([]float64, u.Rows+v.Rows+1)
	// Walk the cycles of newJ -> idx[newJ]: save the cycle head, shift
	// each (w, u-col, v-col) triple from its source slot, restore the
	// head at the cycle's end. idx entries are marked done with -1.
	saveCol := func(j int) {
		buf[0] = w[j]
		for i := 0; i < u.Rows; i++ {
			buf[1+i] = u.Data[i*u.Cols+j]
		}
		for i := 0; i < v.Rows; i++ {
			buf[1+u.Rows+i] = v.Data[i*v.Cols+j]
		}
	}
	moveCol := func(dst, src int) {
		w[dst] = w[src]
		for i := 0; i < u.Rows; i++ {
			u.Data[i*u.Cols+dst] = u.Data[i*u.Cols+src]
		}
		for i := 0; i < v.Rows; i++ {
			v.Data[i*v.Cols+dst] = v.Data[i*v.Cols+src]
		}
	}
	restoreCol := func(j int) {
		w[j] = buf[0]
		for i := 0; i < u.Rows; i++ {
			u.Data[i*u.Cols+j] = buf[1+i]
		}
		for i := 0; i < v.Rows; i++ {
			v.Data[i*v.Cols+j] = buf[1+u.Rows+i]
		}
	}
	for start := 0; start < n; start++ {
		if idx[start] < 0 || idx[start] == start {
			continue
		}
		saveCol(start)
		j := start
		for idx[j] != start {
			src := idx[j]
			moveCol(j, src)
			idx[j] = -1
			j = src
		}
		restoreCol(j)
		idx[j] = -1
	}
}

// canonicalizeSVDSigns orients each (u_j, v_j) pair so the
// largest-magnitude entry of v_j is non-negative, for determinism.
func referenceCanonicalizeSigns(u, v *matrix.Dense) {
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

// servingEndpoints returns the dense lo, hi and mid endpoints of the
// MovieLensLike×0.1 CF interval matrix (94×168): the shape the serving
// daemon's refresh densifies and hands to SVD.
func servingEndpoints(tb testing.TB, seed int64) map[string]*matrix.Dense {
	tb.Helper()
	data, err := dataset.GenerateRatings(dataset.MovieLensLike().Scaled(0.1), rand.New(rand.NewSource(seed)))
	if err != nil {
		tb.Fatal(err)
	}
	cf := data.CFIntervalsCSR()
	return map[string]*matrix.Dense{
		"lo":  cf.LoCSR().ToDense(),
		"hi":  cf.HiCSR().ToDense(),
		"mid": cf.MidCSR().ToDense(),
	}
}

func denseBitsEqual(a, b *matrix.Dense) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// checkSVDMatchesReference asserts SVD(a) equals referenceSVD(a) bit for
// bit at workers 1, 2 and 8, and leaves a unmodified.
func checkSVDMatchesReference(t *testing.T, tag string, a *matrix.Dense) {
	t.Helper()
	orig := a.Clone()
	want, wantErr := referenceSVD(a)
	for _, workers := range []int{1, 2, 8} {
		parallel.SetWorkers(workers)
		got, err := SVD(a)
		parallel.SetWorkers(0)
		if err != wantErr {
			t.Fatalf("%s workers=%d: err %v, reference err %v", tag, workers, err, wantErr)
		}
		if err != nil {
			continue
		}
		if len(got.S) != len(want.S) {
			t.Fatalf("%s workers=%d: %d singular values, reference %d", tag, workers, len(got.S), len(want.S))
		}
		for i := range want.S {
			if math.Float64bits(got.S[i]) != math.Float64bits(want.S[i]) {
				t.Fatalf("%s workers=%d: S[%d] = %v, reference %v", tag, workers, i, got.S[i], want.S[i])
			}
		}
		if !denseBitsEqual(got.U, want.U) {
			t.Fatalf("%s workers=%d: U differs from the reference", tag, workers)
		}
		if !denseBitsEqual(got.V, want.V) {
			t.Fatalf("%s workers=%d: V differs from the reference", tag, workers)
		}
	}
	if !denseBitsEqual(a, orig) {
		t.Fatalf("%s: SVD modified its input", tag)
	}
}

func TestSVDBitwiseMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	lowRank := func(rows, cols, rank int) *matrix.Dense {
		return matrix.Mul(randDense(r, rows, rank), randDense(r, rank, cols))
	}
	zeroCols := func(a *matrix.Dense, cols ...int) *matrix.Dense {
		for _, j := range cols {
			for i := 0; i < a.Rows; i++ {
				a.Set(i, j, 0)
			}
		}
		return a
	}
	repeated := matrix.New(9, 6)
	for i, s := range []float64{3, 3, 3, 1, 1, 0} {
		repeated.Set(i, i, s)
	}
	cases := map[string]*matrix.Dense{
		"1x1":             matrix.FromRows([][]float64{{-2.5}}),
		"nx1":             randDense(r, 9, 1),
		"1xn":             randDense(r, 1, 9),
		"square":          randDense(r, 17, 17),
		"tall":            randDense(r, 40, 23),
		"wide":            randDense(r, 23, 40),
		"tall-odd":        randDense(r, 61, 5),
		"wide-odd":        randDense(r, 3, 70),
		"rank-def-tall":   lowRank(50, 20, 4),
		"rank-def-wide":   lowRank(20, 50, 4),
		"rank-def-square": lowRank(30, 30, 7),
		"zero-cols-tall":  zeroCols(randDense(r, 25, 12), 0, 5, 11),
		"zero-cols-wide":  zeroCols(randDense(r, 12, 25), 3, 4, 24),
		"zero":            matrix.New(6, 4),
		"identity":        matrix.Identity(8),
		"repeated":        repeated,
		"repeated-wide":   repeated.T(),
		"permutation": matrix.FromRows([][]float64{
			{0, 1, 0, 0},
			{0, 0, 0, 1},
			{1, 0, 0, 0},
			{0, 0, 1, 0},
		}),
	}
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		checkSVDMatchesReference(t, name, cases[name])
	}
}

func TestSVDBitwiseMatchesReferenceServingShape(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		eps := servingEndpoints(t, seed)
		for _, side := range []string{"lo", "hi", "mid"} {
			a := eps[side]
			if a.Rows != 94 || a.Cols != 168 {
				t.Fatalf("seed %d %s: endpoint is %d×%d, want 94×168", seed, side, a.Rows, a.Cols)
			}
			checkSVDMatchesReference(t, fmt.Sprintf("seed %d %s", seed, side), a)
		}
	}
}
