package eig

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/sparse"
)

// benchGram builds an n×n PSD matrix as the Gram of a 64×n data block
// with geometrically scaled rows — the ISVD workload shape (Gram of a
// wide data matrix with spectral decay, intrinsic rank 64).
func benchGram(n int) *matrix.Dense {
	rng := rand.New(rand.NewSource(91))
	w := matrix.New(64, n)
	scale := 1.0
	for i := 0; i < 64; i++ {
		row := w.RowView(i)
		for j := range row {
			row[j] = scale * rng.NormFloat64()
		}
		scale *= 0.9
	}
	return matrix.TMul(w, w)
}

// BenchmarkEigFullSymEig is the full-solver baseline of BENCH_eig.json
// (seed column: the solver every consumer ran before the truncated path).
func BenchmarkEigFullSymEig(b *testing.B) {
	for _, n := range []int{256, 512, 1024} {
		a := benchGram(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := SymEig(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTruncatedSymEig(b *testing.B) {
	for _, n := range []int{256, 512, 1024} {
		a := benchGram(n)
		op := NewDenseSymOp(a)
		b.Run(fmt.Sprintf("n=%d/r=20", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := TruncatedSymEig(op, 20); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchWide(n int) *matrix.Dense {
	rng := rand.New(rand.NewSource(93))
	w := matrix.New(64, n)
	scale := 1.0
	for i := 0; i < 64; i++ {
		row := w.RowView(i)
		for j := range row {
			row[j] = scale * rng.NormFloat64()
		}
		scale *= 0.9
	}
	return w
}

// BenchmarkEigFullSVD / BenchmarkTruncatedSVD compare the endpoint-SVD
// path (ISVD0/1) on a wide 64×n data matrix.
func BenchmarkEigFullSVD(b *testing.B) {
	for _, n := range []int{256, 512, 1024} {
		a := benchWide(n)
		b.Run(fmt.Sprintf("64x%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SVD(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSVDServingShape times the dense SVD at the serving shape: the
// densified 94×168 lo endpoint of the MovieLensLike×0.1 CF matrix, which
// every serving refresh falls back to on flat CF spectra. serial and
// pooled time the full SVD at one worker and on the default pool;
// topk_r10 times the rank-10 solve a refresh actually runs
// (SVDWith at SolverFull), at one worker.
func BenchmarkSVDServingShape(b *testing.B) {
	a := servingEndpoints(b, 1)["lo"]
	topK := func(a *matrix.Dense) (*SVDResult, error) { return SVDWith(a, 10, SolverFull) }
	for _, bc := range []struct {
		name    string
		workers int
		svd     func(*matrix.Dense) (*SVDResult, error)
	}{{"serial", 1, SVD}, {"pooled", 0, SVD}, {"topk_r10", 1, topK}} {
		b.Run(bc.name, func(b *testing.B) {
			parallel.SetWorkers(bc.workers)
			defer parallel.SetWorkers(0)
			b.ReportAllocs()
			for b.Loop() {
				if _, err := bc.svd(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSymEigTopK times the dense symmetric eigensolver on the lo
// endpoint Gram of the MovieLensLike CF matrix at ×0.1 (n = 168, the
// serving tenants' Gram) and ×0.3 (n = 504, the offline sparse
// decompose's), where the truncated attempt does not converge and
// ISVD2–4 fall back to the dense solver: topk_r10 is the rank-10 solve
// that fallback runs (SymEigWith at SolverFull), full the n-vector
// SymEig, both at one worker.
func BenchmarkSymEigTopK(b *testing.B) {
	topK := func(a *matrix.Dense) ([]float64, *matrix.Dense, error) { return SymEigWith(a, 10, SolverFull) }
	for _, scale := range []float64{0.1, 0.3} {
		a, _ := cfEndpointGrams(b, scale, 1)
		for _, bc := range []struct {
			name string
			eig  func(*matrix.Dense) ([]float64, *matrix.Dense, error)
		}{{"full", SymEig}, {"topk_r10", topK}} {
			b.Run(fmt.Sprintf("n=%d/%s", a.Rows, bc.name), func(b *testing.B) {
				parallel.SetWorkers(1)
				defer parallel.SetWorkers(0)
				b.ReportAllocs()
				for b.Loop() {
					if _, _, err := bc.eig(a); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkTruncatedSVD(b *testing.B) {
	for _, n := range []int{256, 512, 1024} {
		a := benchWide(n)
		op := NewDenseOp(a)
		b.Run(fmt.Sprintf("64x%d/r=20", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := TruncatedSVD(op, 20); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// sparseDecayOp builds an n×n CSR operator (the production
// sparse.Operator) with a fixed stored-entry budget regardless of n:
// decaying rank-1 patches of 8×8 cells. Per-sweep solver cost is
// O(NNZ·(r+p)), so ns/op should stay roughly flat as n² grows — the
// matrix-free scaling the ISVD sparse path relies on.
func sparseDecayOp(n, nnz int) (Op, int) {
	rng := rand.New(rand.NewSource(97))
	acc := map[[2]int]float64{}
	scale := 1.0
	for len(acc) < nnz {
		ris := rng.Perm(n)[:8]
		cis := rng.Perm(n)[:8]
		for _, r := range ris {
			for _, c := range cis {
				acc[[2]int{r, c}] += scale * rng.NormFloat64()
			}
		}
		scale *= 0.85
		if scale < 1e-4 {
			scale = 1e-4
		}
	}
	ts := make([]sparse.Triplet, 0, len(acc))
	for rc, v := range acc {
		ts = append(ts, sparse.Triplet{Row: rc[0], Col: rc[1], Val: v})
	}
	csr, err := sparse.FromCOO(n, n, ts)
	if err != nil {
		panic(err)
	}
	return sparse.NewOperator(csr), csr.NNZ()
}

func BenchmarkTruncatedSVDSparseFixedNNZ(b *testing.B) {
	const nnz = 40000
	for _, n := range []int{512, 1024, 2048} {
		op, gotNNZ := sparseDecayOp(n, nnz)
		b.Run(fmt.Sprintf("n=%d/nnz=%d/r=20", n, gotNNZ), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := TruncatedSVD(op, 20); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
