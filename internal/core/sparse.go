package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/eig"
	"repro/internal/imatrix"
	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/sparse"
)

// sparseOperand plugs ICSR storage into the shared ISVD0-4 pipeline.
// Every product against the input runs on the CSR kernels (O(NNZ)-shaped),
// and on the truncated-solver path the endpoint Gram matrices are applied
// matrix-free — a sparse ISVD decomposition then never materializes a
// dense Gram matrix, so its transient memory is O(NNZ + (n+m)·r) instead
// of O(m²). Only the factor matrices (n×r, m×r) are dense.
type sparseOperand struct{ m *sparse.ICSR }

func (o sparseOperand) rows() int { return o.m.Rows }
func (o sparseOperand) cols() int { return o.m.Cols }

func (o sparseOperand) svdMid(opts Options) (*eig.SVDResult, time.Duration, time.Duration, error) {
	t0 := time.Now()
	mid := o.m.MidCSR()
	pre := time.Since(t0)
	t0 = time.Now()
	res, err := sparseSVD(mid, opts.Rank, opts.Solver)
	return res, pre, time.Since(t0), err
}

func (o sparseOperand) svdEndpoints(opts Options) (lo, hi *eig.SVDResult, err error) {
	var errLo, errHi error
	parallel.DoWith(opts.Workers,
		func() { lo, errLo = sparseSVD(o.m.LoCSR(), opts.Rank, opts.Solver) },
		func() { hi, errHi = sparseSVD(o.m.HiCSR(), opts.Rank, opts.Solver) },
	)
	if errLo != nil {
		return nil, nil, fmt.Errorf("min side: %w", errLo)
	}
	if errHi != nil {
		return nil, nil, fmt.Errorf("max side: %w", errHi)
	}
	return lo, hi, nil
}

func (o sparseOperand) gramEig(opts Options) (vLo, vHi *matrix.Dense, sLo, sHi []float64, pre, dec time.Duration, err error) {
	matrixFree := func() (eig.SymOp, eig.SymOp) {
		// For non-negative data (ratings, counts — the workloads sparse
		// storage serves) the Algorithm 1 endpoint Gram is exactly
		// [Loᵀ·Lo, Hiᵀ·Hi], so each side iterates on two CSR matvecs per
		// sweep: O(NNZ·(r+p)) per sweep, no m×m matrix.
		if !o.m.NonNegative() {
			return nil, nil
		}
		return eig.NewGramOp(sparse.NewOperator(o.m.LoCSR())),
			eig.NewGramOp(sparse.NewOperator(o.m.HiCSR()))
	}
	materialize := func() *imatrix.IMatrix {
		// Built from sparse storage: O(NNZ·m) work, dense m×m output.
		return sparse.GramEndpoints(o.m)
	}
	return gramEigRouted(opts, o.m.Cols, matrixFree, materialize)
}

func (o sparseOperand) mulEndpointsRight(s *matrix.Dense, opts Options) *imatrix.IMatrix {
	return sparse.MulEndpointsDense(o.m, s)
}

func (o sparseOperand) mulEndpointsLeft(s *matrix.Dense, opts Options) *imatrix.IMatrix {
	return sparse.MulDenseEndpoints(s, o.m)
}

func (o sparseOperand) applyLo(v *matrix.Dense) *matrix.Dense {
	return sparse.MulDense(o.m.LoCSR(), v)
}

func (o sparseOperand) applyHi(v *matrix.Dense) *matrix.Dense {
	return sparse.MulDense(o.m.HiCSR(), v)
}

func (o sparseOperand) toICSR() *sparse.ICSR { return o.m }

// sparseSVD decomposes one endpoint CSR at the given rank: through the
// matrix-free truncated solver when the routing selects it (O(NNZ·r) per
// sweep, never densified), through the dense Golub–Reinsch solver on a
// one-off dense expansion otherwise. That solver builds only the rank
// kept singular vectors when rank < min(m, n) (eig.SVDWith), but it
// bidiagonalizes the whole dense matrix, so SolverFull (or an auto
// routing at near-full rank) is only sensible for matrices that fit
// densely.
func sparseSVD(a *sparse.CSR, rank int, solver eig.Solver) (*eig.SVDResult, error) {
	minDim := a.Rows
	if a.Cols < minDim {
		minDim = a.Cols
	}
	if solver.UseTruncated(rank, minDim) {
		res, err := eig.TruncatedSVD(sparse.NewOperator(a), rank)
		if err == nil {
			return res, nil
		}
		if err != eig.ErrNoConvergence {
			return nil, err
		}
	}
	// Densifying fallback (eig.SVDWith with the solver forced full: the
	// matrix-free attempt above already failed or was not routed).
	return eig.SVDWith(a.ToDense(), rank, eig.SolverFull)
}

// ValidateSparseInput checks that a sparse interval matrix is a legal
// decomposition input: finite stored endpoints and Lo <= Hi everywhere.
func ValidateSparseInput(m *sparse.ICSR) error {
	for p, lo := range m.Lo {
		hi := m.Hi[p]
		if math.IsNaN(lo) || math.IsInf(lo, 0) || math.IsNaN(hi) || math.IsInf(hi, 0) {
			return fmt.Errorf("core: sparse input contains NaN or Inf endpoints")
		}
		if lo > hi {
			return fmt.Errorf("core: sparse input contains misordered intervals (lo > hi)")
		}
	}
	return nil
}

// DecomposeSparse runs the selected ISVD method directly on sparse
// interval storage (unstored cells are scalar zero, the ratings/CF
// convention). The pipeline is the same as Decompose's — same align,
// solve, and construct steps on the dense factor matrices — but every
// product against the input runs on the CSR kernels, and with the
// truncated solver (the default routing whenever Rank is small relative
// to the matrix) the endpoint Gram matrices are applied matrix-free and
// never materialized, keeping transient memory at O(NNZ + (rows+cols)·
// rank). That memory bound is a property of spectra the truncated solver
// converges on (decay past Rank — pinned by the bytes-regression test):
// if the spectrum is too flat, or the solver routes to full, the
// pipeline falls back to materializing the dense cols×cols interval Gram
// (ISVD2-4) or densifying an endpoint (ISVD0/1) rather than failing. The
// dense fallback still builds only the Rank kept eigen/singular vectors
// (eig.SymEigWith, eig.SVDWith), never all cols of them.
// ExactAlgebra is not supported on sparse storage; call Decompose on
// m.ToIMatrix() for the exact interval product semantics.
func DecomposeSparse(m *sparse.ICSR, method Method, opts Options) (*Decomposition, error) {
	if err := ValidateSparseInput(m); err != nil {
		return nil, err
	}
	opts = opts.withDefaultsDims(m.Rows, m.Cols)
	if opts.ExactAlgebra {
		return nil, fmt.Errorf("core: DecomposeSparse: ExactAlgebra requires dense storage (use Decompose on m.ToIMatrix())")
	}
	if err := validateUpdatable(method, opts, m.NonNegative); err != nil {
		return nil, err
	}
	op := sparseOperand{m}
	switch method {
	case ISVD0:
		return decomposeISVD0(op, opts)
	case ISVD1:
		return decomposeISVD1(op, opts)
	case ISVD2:
		return decomposeISVD2(op, opts)
	case ISVD3:
		return decomposeISVD3(op, opts)
	case ISVD4:
		return decomposeISVD4(op, opts)
	default:
		return nil, fmt.Errorf("core: unknown method %v", method)
	}
}
