package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/recommend"
	"repro/internal/service"
	"repro/internal/sparse"
)

func TestVersionGroupsAndLastWins(t *testing.T) {
	tr := func(i, j int, v float64) sparse.ITriplet { return sparse.ITriplet{Row: i, Col: j, Lo: v, Hi: v + 1} }
	jobs := []ackedUpdate{
		{ID: 7, Version: 3, Patch: []sparse.ITriplet{tr(0, 0, 9)}},
		{ID: 5, Version: 2, Patch: []sparse.ITriplet{tr(2, 2, 2), tr(1, 1, 1)}},
		{ID: 6, Version: 2, Patch: []sparse.ITriplet{tr(1, 1, 5), tr(0, 3, 3)}},
		{ID: 4, Version: 2, Patch: []sparse.ITriplet{tr(2, 2, 0)}},
	}
	groups := versionGroups(jobs)
	if len(groups) != 2 || len(groups[0]) != 3 || len(groups[1]) != 1 {
		t.Fatalf("groups = %v, want versions 2 (3 jobs) and 3 (1 job)", groups)
	}
	for i, want := range []uint64{4, 5, 6} {
		if groups[0][i].ID != want {
			t.Errorf("version 2 job %d has ID %d, want admission order %d", i, groups[0][i].ID, want)
		}
	}
	// Job 4 touches (2,2) first; job 5 overwrites it and adds (1,1)
	// (sorted ahead of (2,2) within job 5, but (2,2) was touched first);
	// job 6 overwrites (1,1) and adds (0,3).
	got := mergeLastWins(groups[0])
	want := []sparse.ITriplet{tr(2, 2, 2), tr(1, 1, 5), tr(0, 3, 3)}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("merge = %v, want %v", got, want)
	}
}

// TestOfflineChainMatchesService drives a real in-process service: a
// burst of overlapping updates admitted before the executor starts (so
// they coalesce into one unit), then single updates. The offline chain
// built from the acknowledged job infos must serve bitwise-identical
// predictions for every cell.
func TestOfflineChainMatchesService(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data, err := dataset.GenerateRatings(dataset.MovieLensLike().Scaled(0.1), rng)
	if err != nil {
		t.Fatal(err)
	}
	m := data.CFIntervalsCSR()
	base, deltas, err := dataset.StreamSplit(m, 0.1, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Make the burst overlap: the second job re-patches the first job's
	// cells with other values.
	overlap := make([]sparse.ITriplet, len(deltas[0]))
	for i, c := range deltas[0] {
		overlap[i] = sparse.ITriplet{Row: c.Row, Col: c.Col, Lo: 1, Hi: 1.5}
	}
	deltas[1] = append(deltas[1], overlap...)
	baseCSR, err := sparse.FromICOO(m.Rows, m.Cols, base)
	if err != nil {
		t.Fatal(err)
	}
	var coo strings.Builder
	if err := dataset.WriteIntervalCOO(&coo, baseCSR); err != nil {
		t.Fatal(err)
	}
	parsedBase, err := dataset.ReadIntervalCOO(strings.NewReader(coo.String()))
	if err != nil {
		t.Fatal(err)
	}

	svc := service.New(service.Config{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	c := &service.Client{Base: srv.URL}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	dec, err := c.Submit(ctx, service.Request{Tenant: "t", Kind: "decompose", Method: "ISVD4", Rank: 10,
		Target: "b", Min: 1, Max: 5, COO: coo.String()})
	if err != nil {
		t.Fatal(err)
	}
	var ids []uint64
	var patches [][]sparse.ITriplet
	submit := func(cells []sparse.ITriplet) uint64 {
		var db strings.Builder
		if err := dataset.WriteDeltaCOO(&db, m.Rows, m.Cols, cells); err != nil {
			t.Fatal(err)
		}
		patch, err := parseDelta(db.String())
		if err != nil {
			t.Fatal(err)
		}
		info, err := c.Submit(ctx, service.Request{Tenant: "t", Kind: "update", Delta: db.String()})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
		patches = append(patches, patch)
		return info.ID
	}
	for _, d := range deltas[:3] {
		submit(d)
	}
	svc.Start()
	defer func() {
		if err := svc.Drain(context.Background()); err != nil {
			t.Error(err)
		}
	}()
	if info, err := c.WaitJob(ctx, dec.ID, time.Millisecond); err != nil || info.State != service.JobDone {
		t.Fatalf("decompose: %+v %v", info, err)
	}
	for _, d := range deltas[3:] {
		id := submit(d)
		if _, err := c.WaitJob(ctx, id, time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}

	var jobs []ackedUpdate
	coalesced := false
	for i, id := range ids {
		info, err := c.WaitJob(ctx, id, time.Millisecond)
		if err != nil || info.State != service.JobDone {
			t.Fatalf("update %d: %+v %v", id, info, err)
		}
		jobs = append(jobs, ackedUpdate{ID: info.ID, Version: info.Version, Patch: patches[i]})
	}
	for _, g := range versionGroups(jobs) {
		coalesced = coalesced || len(g) > 1
	}
	if !coalesced {
		t.Fatalf("the pre-start burst did not coalesce: %+v", jobs)
	}

	d, last, err := offlineChain(parsedBase, 10, jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := recommend.FromSparseDecomposition(d, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m.Rows; i++ {
		cells := make([][2]int, m.Cols)
		for j := range cells {
			cells[j] = [2]int{i, j}
		}
		resp, err := c.Predict(ctx, "t", cells)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Version != last {
			t.Fatalf("served version %d, offline chain ends at %d", resp.Version, last)
		}
		for j, p := range resp.Predictions {
			iv, err := pred.PredictInterval(i, j)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(iv.Lo) != math.Float64bits(p.Lo) || math.Float64bits(iv.Hi) != math.Float64bits(p.Hi) {
				t.Fatalf("cell (%d,%d): served [%v,%v], offline [%v,%v]", i, j, p.Lo, p.Hi, iv.Lo, iv.Hi)
			}
		}
	}
}
