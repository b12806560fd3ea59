package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/sparse"
)

// ackedUpdate is one update job the server acknowledged: its job ID
// (admission order), the snapshot version it was published in, and the
// cell patch it carried.
type ackedUpdate struct {
	ID      uint64
	Version uint64
	Patch   []sparse.ITriplet
}

// versionGroups groups acknowledged updates by the version that
// published them — one group per execution unit, since the server
// coalesces jobs into a unit that publishes one snapshot — in version
// order, each group in admission (job ID) order.
func versionGroups(jobs []ackedUpdate) [][]ackedUpdate {
	s := append([]ackedUpdate(nil), jobs...)
	sort.Slice(s, func(a, b int) bool {
		if s[a].Version != s[b].Version {
			return s[a].Version < s[b].Version
		}
		return s[a].ID < s[b].ID
	})
	var groups [][]ackedUpdate
	for i, j := range s {
		if i == 0 || j.Version != s[i-1].Version {
			groups = append(groups, nil)
		}
		groups[len(groups)-1] = append(groups[len(groups)-1], j)
	}
	return groups
}

// mergeLastWins merges one unit's patches the way the service's
// executor does: jobs in admission order, each job's cells sorted by
// (row, col) as admission parses them, a later write of a cell
// overwriting the earlier one in place, cells kept in first-touch order.
func mergeLastWins(group []ackedUpdate) []sparse.ITriplet {
	var out []sparse.ITriplet
	at := make(map[sparse.Cell]int)
	for _, j := range group {
		patch := append([]sparse.ITriplet(nil), j.Patch...)
		sort.Slice(patch, func(a, b int) bool {
			if patch[a].Row != patch[b].Row {
				return patch[a].Row < patch[b].Row
			}
			return patch[a].Col < patch[b].Col
		})
		for _, t := range patch {
			c := sparse.Cell{Row: t.Row, Col: t.Col}
			if i, ok := at[c]; ok {
				out[i] = t
				continue
			}
			at[c] = len(out)
			out = append(out, t)
		}
	}
	return out
}

// offlineChain rebuilds a tenant's served model without the server:
// the decomposition the tenant was created with (version 1), then one
// Update per later published version, in version order. The versions
// must be contiguous from 2, or the chain would silently skip a unit.
// step, when set, sees every step: prev is nil for the decomposition.
// It returns the final model and its version.
func offlineChain(base *sparse.ICSR, rank int, jobs []ackedUpdate,
	step func(v uint64, prev, next *core.Decomposition, took time.Duration)) (*core.Decomposition, uint64, error) {
	t0 := time.Now()
	d, err := core.DecomposeSparse(base, core.ISVD4, core.Options{Rank: rank, Target: core.TargetB, Updatable: true})
	if err != nil {
		return nil, 0, fmt.Errorf("offline decompose: %w", err)
	}
	if step != nil {
		step(1, nil, d, time.Since(t0))
	}
	v := uint64(1)
	for _, g := range versionGroups(jobs) {
		if g[0].Version != v+1 {
			return nil, 0, fmt.Errorf("offline chain: acknowledged versions skip from %d to %d", v, g[0].Version)
		}
		v = g[0].Version
		t0 = time.Now()
		next, err := d.Update(core.Delta{Patch: mergeLastWins(g)}, core.Options{})
		if err != nil {
			return nil, 0, fmt.Errorf("offline update to version %d: %w", v, err)
		}
		if step != nil {
			step(v, d, next, time.Since(t0))
		}
		d = next
	}
	return d, v, nil
}
