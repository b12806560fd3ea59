//go:build race

package eig

// raceEnabled reports that the race detector instruments this test
// binary, which slows the O(n³) kernels ~20×; the largest fixtures
// shrink under it.
const raceEnabled = true
