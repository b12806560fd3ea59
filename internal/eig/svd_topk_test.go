package eig

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/matrix"
	"repro/internal/parallel"
)

// topKAtWorkers runs SVDWith(a, k, SolverFull) at workers 1, 2 and 8,
// fails unless the three results are bitwise equal and a is left
// unmodified, and returns the result.
func topKAtWorkers(t *testing.T, tag string, a *matrix.Dense, k int) *SVDResult {
	t.Helper()
	orig := a.Clone()
	var first *SVDResult
	for _, workers := range []int{1, 2, 8} {
		parallel.SetWorkers(workers)
		got, err := SVDWith(a, k, SolverFull)
		parallel.SetWorkers(0)
		if err != nil {
			t.Fatalf("%s workers=%d: %v", tag, workers, err)
		}
		if len(got.S) != k || got.U.Cols != k || got.V.Cols != k || got.U.Rows != a.Rows || got.V.Rows != a.Cols {
			t.Fatalf("%s workers=%d: got U %d×%d, %d values, V %d×%d for a %d×%d input at k=%d",
				tag, workers, got.U.Rows, got.U.Cols, len(got.S), got.V.Rows, got.V.Cols, a.Rows, a.Cols, k)
		}
		if first == nil {
			first = got
			continue
		}
		for i := range got.S {
			if math.Float64bits(got.S[i]) != math.Float64bits(first.S[i]) {
				t.Fatalf("%s workers=%d: S[%d] differs from workers=1", tag, workers, i)
			}
		}
		if !denseBitsEqual(got.U, first.U) || !denseBitsEqual(got.V, first.V) {
			t.Fatalf("%s workers=%d: factors differ from workers=1", tag, workers)
		}
	}
	if !denseBitsEqual(a, orig) {
		t.Fatalf("%s: SVDWith modified its input", tag)
	}
	return first
}

// checkTopKSingularValues asserts S is bitwise the leading k values of
// the full SVD: the top-k kernel shares its QR recurrence.
func checkTopKSingularValues(t *testing.T, tag string, got, full *SVDResult) {
	t.Helper()
	for i, s := range got.S {
		if math.Float64bits(s) != math.Float64bits(full.S[i]) {
			t.Fatalf("%s: S[%d] = %v, full SVD %v", tag, i, s, full.S[i])
		}
	}
}

func maxAbsDiff(a, b *matrix.Dense) float64 {
	d := 0.0
	for i, x := range a.Data {
		d = math.Max(d, math.Abs(x-b.Data[i]))
	}
	return d
}

// TestSVDTopKMatchesFull checks the dense solver below full rank against
// the truncated full decomposition: S bitwise, U and V within 1e-12
// max-abs, on the serving endpoints and on random wide and tall inputs.
func TestSVDTopKMatchesFull(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	type input struct {
		tag string
		a   *matrix.Dense
	}
	var inputs []input
	seeds := []int64{1, 2, 3, 4}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		eps := servingEndpoints(t, seed)
		for _, side := range []string{"lo", "hi", "mid"} {
			inputs = append(inputs, input{fmt.Sprintf("seed %d %s", seed, side), eps[side]})
		}
	}
	inputs = append(inputs,
		input{"wide", randDense(r, 23, 40)},
		input{"tall", randDense(r, 61, 17)},
		input{"square", randDense(r, 20, 20)},
	)
	for _, in := range inputs {
		full, err := SVD(in.a)
		if err != nil {
			t.Fatal(err)
		}
		minDim := len(full.S)
		for _, k := range []int{1, 5, 10, minDim - 1} {
			tag := fmt.Sprintf("%s k=%d", in.tag, k)
			got := topKAtWorkers(t, tag, in.a, k)
			checkTopKSingularValues(t, tag, got, full)
			want := full.Truncate(k)
			if d := maxAbsDiff(got.U, want.U); d > 1e-12 {
				t.Fatalf("%s: U differs from the truncated full SVD by %g", tag, d)
			}
			if d := maxAbsDiff(got.V, want.V); d > 1e-12 {
				t.Fatalf("%s: V differs from the truncated full SVD by %g", tag, d)
			}
		}
	}
}

// TestSVDTopKDegenerate checks the top-k factors on inputs whose
// singular vectors are not unique (rank deficiency, zero columns, a tie
// straddling k) or whose shape is extreme, where agreement with the full
// SVD is not the contract: columns stay orthonormal (U's only where σ is
// nonzero) and A·V = U·diag(S) to 1e-12·σ₁.
func TestSVDTopKDegenerate(t *testing.T) {
	r := rand.New(rand.NewSource(43))
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
	// σ = 3, 3, 3, 1, 1, 0 in a random orthogonal frame, so the ties are
	// not already aligned with the coordinate axes.
	repeated := matrix.New(9, 6)
	for i, s := range []float64{3, 3, 3, 1, 1, 0} {
		repeated.Set(i, i, s)
	}
	qu, err := SVD(randDense(r, 9, 9))
	if err != nil {
		t.Fatal(err)
	}
	qv, err := SVD(randDense(r, 6, 6))
	if err != nil {
		t.Fatal(err)
	}
	repeated = matrix.Mul(matrix.Mul(qu.U, repeated), qv.V.T())
	cases := []struct {
		tag string
		a   *matrix.Dense
		ks  []int
	}{
		{"rank-def-tall", lowRank(50, 20, 4), []int{1, 3, 4, 5, 10}},
		{"rank-def-wide", lowRank(20, 50, 4), []int{1, 3, 4, 5, 10}},
		{"zero-cols-tall", zeroCols(randDense(r, 25, 12), 0, 5, 11), []int{1, 5, 9, 10}},
		{"zero-cols-wide", zeroCols(randDense(r, 12, 25), 3, 4, 24), []int{1, 5, 9, 10}},
		{"repeated-tie", repeated, []int{1, 2, 4}},
		{"repeated-tie-wide", repeated.T(), []int{1, 2, 4}},
		{"zero", matrix.New(6, 4), []int{1, 3}},
		{"1xn", randDense(r, 1, 9), []int{1}},
		{"nx1", randDense(r, 9, 1), []int{1}},
		{"2xn", randDense(r, 2, 9), []int{1}},
		{"nx2", randDense(r, 9, 2), []int{1}},
	}
	for _, tc := range cases {
		full, err := SVD(tc.a)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range tc.ks {
			tag := fmt.Sprintf("%s k=%d", tc.tag, k)
			got := topKAtWorkers(t, tag, tc.a, k)
			checkTopKSingularValues(t, tag, got, full)
			sigma1 := got.S[0]
			if d := maxAbsDiff(matrix.TMul(got.V, got.V), matrix.Identity(k)); d > 1e-12 {
				t.Fatalf("%s: ‖VᵀV−I‖ = %g", tag, d)
			}
			gram := matrix.TMul(got.U, got.U)
			for i := 0; i < k; i++ {
				for j := 0; j < k; j++ {
					if got.S[i] == 0 || got.S[j] == 0 {
						continue
					}
					want := 0.0
					if i == j {
						want = 1
					}
					if d := math.Abs(gram.At(i, j) - want); d > 1e-12 {
						t.Fatalf("%s: (UᵀU−I)[%d][%d] = %g", tag, i, j, d)
					}
				}
			}
			if d := maxAbsDiff(matrix.Mul(tc.a, got.V), matrix.Mul(got.U, matrix.Diag(got.S))); d > 1e-12*sigma1 {
				t.Fatalf("%s: ‖A·V−U·diag(S)‖ = %g, σ₁ = %g", tag, d, sigma1)
			}
		}
	}
}
