package eig

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/sparse"
)

// symTopKAtWorkers runs SymEigWith(a, k, SolverFull) at workers 1, 2 and
// 8, fails unless the three results are bitwise equal and a is left
// unmodified, and returns the result.
func symTopKAtWorkers(t *testing.T, tag string, a *matrix.Dense, k int) ([]float64, *matrix.Dense) {
	t.Helper()
	orig := a.Clone()
	var firstVals []float64
	var firstVecs *matrix.Dense
	for _, workers := range []int{1, 2, 8} {
		parallel.SetWorkers(workers)
		vals, vecs, err := SymEigWith(a, k, SolverFull)
		parallel.SetWorkers(0)
		if err != nil {
			t.Fatalf("%s workers=%d: %v", tag, workers, err)
		}
		if len(vals) != k || vecs.Rows != a.Rows || vecs.Cols != k {
			t.Fatalf("%s workers=%d: got %d values, vectors %d×%d for an n=%d input at k=%d",
				tag, workers, len(vals), vecs.Rows, vecs.Cols, a.Rows, k)
		}
		if firstVecs == nil {
			firstVals, firstVecs = vals, vecs
			continue
		}
		for i := range vals {
			if math.Float64bits(vals[i]) != math.Float64bits(firstVals[i]) {
				t.Fatalf("%s workers=%d: vals[%d] differs from workers=1", tag, workers, i)
			}
		}
		if !denseBitsEqual(vecs, firstVecs) {
			t.Fatalf("%s workers=%d: vectors differ from workers=1", tag, workers)
		}
	}
	if !denseBitsEqual(a, orig) {
		t.Fatalf("%s: SymEigWith modified its input", tag)
	}
	return firstVals, firstVecs
}

// checkTopKEigenvalues asserts vals are bitwise the leading values of
// the full SymEig: the top-k kernel shares its QL recurrence.
func checkTopKEigenvalues(t *testing.T, tag string, vals, full []float64) {
	t.Helper()
	for i, v := range vals {
		if math.Float64bits(v) != math.Float64bits(full[i]) {
			t.Fatalf("%s: vals[%d] = %v, full SymEig %v", tag, i, v, full[i])
		}
	}
}

// cfEndpointGrams returns the lo and hi endpoint Grams of the
// MovieLensLike CF interval matrix at the given scale: the matrices the
// sparse ISVD2–4 decompose hands to the dense eigensolver when its
// truncated attempt does not converge on the flat CF spectrum.
func cfEndpointGrams(tb testing.TB, scale float64, seed int64) (lo, hi *matrix.Dense) {
	tb.Helper()
	data, err := dataset.GenerateRatings(dataset.MovieLensLike().Scaled(scale), rand.New(rand.NewSource(seed)))
	if err != nil {
		tb.Fatal(err)
	}
	g := sparse.GramEndpoints(data.CFIntervalsCSR())
	return g.Lo, g.Hi
}

// TestSymEigTopKMatchesFull checks the dense solver below full rank
// against the truncated full decomposition: values bitwise, vectors
// within 1e-12 max-abs, on CF endpoint Grams and on random PSD and
// indefinite matrices.
func TestSymEigTopKMatchesFull(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	type input struct {
		tag string
		a   *matrix.Dense
	}
	var inputs []input
	seeds := []int64{1, 2, 3, 4}
	if testing.Short() || raceEnabled {
		seeds = seeds[:1]
	}
	for _, scale := range []float64{0.1, 0.3} {
		for _, seed := range seeds {
			lo, hi := cfEndpointGrams(t, scale, seed)
			inputs = append(inputs,
				input{fmt.Sprintf("ml×%g seed %d lo", scale, seed), lo},
				input{fmt.Sprintf("ml×%g seed %d hi", scale, seed), hi})
		}
	}
	psd := randDense(r, 30, 40)
	inputs = append(inputs,
		input{"psd", matrix.TMul(psd, psd)},
		input{"indefinite", randSym(r, 37)},
	)
	for _, in := range inputs {
		full, fullVecs, err := SymEig(in.a)
		if err != nil {
			t.Fatal(err)
		}
		n := in.a.Rows
		for _, k := range []int{1, 5, 10, n - 1} {
			tag := fmt.Sprintf("%s k=%d", in.tag, k)
			vals, vecs := symTopKAtWorkers(t, tag, in.a, k)
			checkTopKEigenvalues(t, tag, vals, full)
			if d := maxAbsDiff(vecs, fullVecs.SubMatrix(0, n, 0, k)); d > 1e-12 {
				t.Fatalf("%s: vectors differ from the truncated full SymEig by %g", tag, d)
			}
		}
	}
}

// TestSymEigTopKDegenerate checks the top-k eigenpairs on inputs whose
// eigenvectors are not unique (a tie straddling k, zero and diagonal
// matrices, rank deficiency) or whose size is minimal, where agreement
// with the full SymEig is not the contract: VᵀV = I and A·V = V·diag(λ)
// to 1e-12·max|λ|. At k = n (n = 1, and k = 2 at n = 2) SymEigWith
// routes to the full SymEig, which the same checks cover.
func TestSymEigTopKDegenerate(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	// λ = 3, 3, 3, 1, 1, 0, −2 in a random orthogonal frame, so the ties
	// are not already aligned with the coordinate axes.
	_, frame, err := SymEig(randSym(r, 7))
	if err != nil {
		t.Fatal(err)
	}
	tie := matrix.Mul(matrix.Mul(frame, matrix.Diag([]float64{3, 3, 3, 1, 1, 0, -2})), frame.T())
	diag := matrix.Diag([]float64{0.5, -1, 4, 4, 2, 0, 3})
	lowRank := func(n, rank int) *matrix.Dense {
		w := randDense(r, rank, n)
		return matrix.TMul(w, w)
	}
	// lo·B·lo for a rank-3 PSD B: rank 3 at the serving Gram size.
	lo, _ := cfEndpointGrams(t, 0.1, 1)
	rankDefGram := matrix.Mul(matrix.Mul(lo, lowRank(lo.Rows, 3)), lo)
	cases := []struct {
		tag string
		a   *matrix.Dense
		ks  []int
	}{
		{"tie", tie, []int{1, 2, 4, 5, 6}},
		{"zero", matrix.New(6, 6), []int{1, 3, 5}},
		{"diagonal", diag, []int{1, 3, 4, 6}},
		{"rank-def", lowRank(40, 4), []int{1, 3, 4, 5, 10}},
		{"rank-def-gram", rankDefGram, []int{1, 3, 4, 10}},
		{"n=1", matrix.FromRows([][]float64{{-2.5}}), []int{1}},
		{"n=2", matrix.FromRows([][]float64{{1, 2}, {2, -3}}), []int{1, 2}},
		{"n=2 tie", matrix.FromRows([][]float64{{1, 0}, {0, 1}}), []int{1, 2}},
	}
	for _, tc := range cases {
		for _, k := range tc.ks {
			tag := fmt.Sprintf("%s k=%d", tc.tag, k)
			vals, vecs := symTopKAtWorkers(t, tag, tc.a, k)
			full, _, err := SymEig(tc.a)
			if err != nil {
				t.Fatal(err)
			}
			checkTopKEigenvalues(t, tag, vals, full)
			scale := math.Max(maxAbs(full), 1e-300)
			if d := maxAbsDiff(matrix.TMul(vecs, vecs), matrix.Identity(k)); d > 1e-12 {
				t.Fatalf("%s: ‖VᵀV−I‖ = %g", tag, d)
			}
			if d := maxAbsDiff(matrix.Mul(tc.a, vecs), matrix.Mul(vecs, matrix.Diag(vals))); d > 1e-12*scale {
				t.Fatalf("%s: ‖A·V−V·diag(λ)‖ = %g, max|λ| = %g", tag, d, scale)
			}
		}
	}
}
