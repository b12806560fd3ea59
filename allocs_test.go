package ivmf_test

// Allocation regression guards for the workspace-reuse PR: the NMF
// multiplicative-update loop and the ISVD4 pipeline must stay at least
// 50% below their pre-blocking allocation counts (nmf.Train: 1006
// objects/run at the seed for this shape, ISVD4: 2994). The savings
// come from the destination-passing kernels (internal/matrix), the
// fused endpoint products (internal/imatrix), and the hoisted sweep
// closures in internal/eig. Runs are pinned to one worker so counts
// are deterministic.

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eig"
	"repro/internal/imatrix"
	"repro/internal/matrix"
	"repro/internal/nmf"
	"repro/internal/parallel"
	"repro/internal/recommend"
	"repro/internal/sparse"
)

func TestNMFTrainAllocationBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := matrix.New(60, 45)
	for i := range m.Data {
		m.Data[i] = rng.Float64()
	}
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(0)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := nmf.Train(m, nmf.Config{Rank: 6, Iterations: 50}, rand.New(rand.NewSource(2))); err != nil {
			t.Fatal(err)
		}
	})
	// Seed baseline: 1006. Workspace reuse leaves ~8 pool-closure
	// allocations per iteration plus setup.
	if allocs > 503 {
		t.Fatalf("nmf.Train allocated %.0f objects/run, want <= 503 (50%% of the 1006 pre-workspace baseline)", allocs)
	}
}

func TestISVD4AllocationBudget(t *testing.T) {
	m := dataset.MustGenerateUniform(dataset.DefaultSynthetic(), rand.New(rand.NewSource(4)))
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(0)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := core.Decompose(m, core.ISVD4, core.Options{Rank: 20, Target: core.TargetB}); err != nil {
			t.Fatal(err)
		}
	})
	// Seed baseline: 2994, dominated by per-iteration sweep closures in
	// the eigensolver plus the four endpoint-product temporaries.
	if allocs > 1497 {
		t.Fatalf("ISVD4 allocated %.0f objects/run, want <= 1497 (50%% of the 2994 pre-blocking baseline)", allocs)
	}
}

// TestTopNAllocationBudget guards the serving-path TopN rewrite: the
// size-n selection heap lives in preallocated Predictor scratch, so a
// warmed-up TopN call allocates only its result slice (the pre-heap
// implementation appended every unexcluded column into a fresh
// candidate slice — ~10 allocations per call at 200 columns, growing
// with the catalog).
func TestTopNAllocationBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	x := matrix.New(50, 4)
	y := matrix.New(4, 200)
	for i := range x.Data {
		x.Data[i] = math.Abs(rng.NormFloat64())
	}
	for i := range y.Data {
		y.Data[i] = math.Abs(rng.NormFloat64())
	}
	lo := matrix.Mul(x, y)
	ratings := sparse.FromIMatrix(imatrix.FromEndpoints(lo, lo.Scale(1.2)))
	p, err := recommend.BuildSparseISVD(ratings, core.ISVD2, core.Options{Rank: 4, Target: core.TargetB}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.TopN(7, 10, nil); err != nil { // warm the scratch heap
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := p.TopN(7, 10, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("TopN allocated %.1f objects/call, want <= 2 (result slice only)", allocs)
	}
	// TopNSparse excludes the row's stored cells with an advancing
	// pointer over the sorted CSR columns — no exclusion map, so the
	// same budget holds.
	allocs = testing.AllocsPerRun(20, func() {
		if _, err := p.TopNSparse(7, 10, ratings); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("TopNSparse allocated %.1f objects/call, want <= 2 (result slice only)", allocs)
	}
}

// TestWideSVDAllocationBudget guards the wide-matrix branch of eig.SVD:
// the input is copied once into the column-major workspace that the SVD
// core then consumes in place and hands back as a factor, instead of
// allocating a transposed copy and cloning it again. For this 80×200
// input the decomposition allocates ~198 KB/run; reintroducing an extra
// m·n copy (+128 KB) trips the budget.
func TestWideSVDAllocationBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := matrix.New(80, 200)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	bytesPerRun := svdBytesPerRun(t, func() error {
		_, err := eig.SVD(m)
		return err
	})
	if bytesPerRun > 250000 {
		t.Fatalf("wide SVD allocated %.0f bytes/run, want <= 250000 (one transpose workspace, no extra clone)", bytesPerRun)
	}
}

// TestTopKSVDAllocationBudget guards the rank-bounded dense SVD at the
// serving shape (the densified 94×168 MovieLensLike×0.1 lo endpoint,
// rank 10): it logs the QR phase's Givens rotations in fixed-size
// chunks, ~490 KB/run in all. A log that grows by doubling and copying
// allocates 1.1–2.1 MB/run and trips the budget.
func TestTopKSVDAllocationBudget(t *testing.T) {
	data, err := dataset.GenerateRatings(dataset.MovieLensLike().Scaled(0.1), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	m := data.CFIntervalsCSR().LoCSR().ToDense()
	if m.Rows != 94 || m.Cols != 168 {
		t.Fatalf("endpoint is %d×%d, want 94×168", m.Rows, m.Cols)
	}
	bytesPerRun := svdBytesPerRun(t, func() error {
		_, err := eig.SVDWith(m, 10, eig.SolverFull)
		return err
	})
	if bytesPerRun > 600000 {
		t.Fatalf("rank-10 SVD allocated %.0f bytes/run, want <= 600000 (chunked rotation log)", bytesPerRun)
	}
}

// TestTopKSymEigAllocationBudget guards the rank-bounded dense
// eigensolver at the offline sparse decompose's shape (the 504×504 lo
// endpoint Gram of MovieLensLike×0.3, rank 10): one workspace clone plus
// the QL phase's chunked rotation log, ~4.3 MB/run, where the full
// SymEig allocates ~6.1 MB/run (clone, transposed copy and sorted
// vectors, all n×n). Building the n×n vectors again, or a log that grows
// by doubling and copying, trips the budget.
func TestTopKSymEigAllocationBudget(t *testing.T) {
	data, err := dataset.GenerateRatings(dataset.MovieLensLike().Scaled(0.3), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	g := sparse.GramEndpoints(data.CFIntervalsCSR()).Lo
	if g.Rows != 504 {
		t.Fatalf("endpoint Gram is %d×%d, want 504×504", g.Rows, g.Cols)
	}
	bytesPerRun := svdBytesPerRun(t, func() error {
		_, _, err := eig.SymEigWith(g, 10, eig.SolverFull)
		return err
	})
	if bytesPerRun > 5400000 {
		t.Fatalf("rank-10 SymEig allocated %.0f bytes/run, want <= 5400000 (no n×n vectors, chunked rotation log)", bytesPerRun)
	}
}

// svdBytesPerRun returns the bytes one call of svd (any dense
// decomposition) allocates on one worker, averaged over 10 calls after a
// warm-up call.
func svdBytesPerRun(t *testing.T, svd func() error) float64 {
	t.Helper()
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(0)
	if err := svd(); err != nil {
		t.Fatal(err)
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := svd(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs
}
