package wcm

import (
	"reflect"
	"testing"
)

// TestRunDeterministicAcrossWorkers pins the tentpole guarantee of the
// parallel hot path: the full flow's outputs — the wrapper plan, every
// per-phase statistic and the share model read from the same sweep — are
// bit-identical no matter how many workers build the cones, sweep the
// pairs and load the sharing graph.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	for _, tc := range []struct {
		name                string
		gates, ffs, in, out int
		seed                int64
		mutate              func(*Options)
	}{
		{name: "default", gates: 400, ffs: 20, in: 12, out: 12, seed: 3},
		{name: "outbound-heavy", gates: 300, ffs: 12, in: 4, out: 10, seed: 5},
		{name: "no-overlap", gates: 350, ffs: 16, in: 10, out: 8, seed: 7,
			mutate: func(o *Options) { o.AllowOverlap = false; o.Timing = TimingCapOnly }},
		{name: "first-edge", gates: 350, ffs: 16, in: 10, out: 8, seed: 9,
			mutate: func(o *Options) { o.Merge = MergeFirstEdge }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := prep(t, tc.gates, tc.ffs, tc.in, tc.out, tc.seed)
			var ref *Result
			var refModel *ShareModel
			for _, workers := range []int{1, 2, 3, 8} {
				opts := DefaultOptions()
				if tc.mutate != nil {
					tc.mutate(&opts)
				}
				opts.Workers = workers
				res, err := Run(in, opts)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				model, err := BuildShareModel(in, opts, nil)
				if err != nil {
					t.Fatalf("workers=%d: share model: %v", workers, err)
				}
				model.Opts.Workers = 0 // the one field that echoes the worker count
				if ref == nil {
					ref, refModel = res, model
					continue
				}
				if !reflect.DeepEqual(model, refModel) {
					t.Errorf("workers=%d: ShareModel differs from workers=1", workers)
				}
				if !reflect.DeepEqual(res.Assignment, ref.Assignment) {
					t.Errorf("workers=%d: Assignment differs from workers=1", workers)
				}
				if !reflect.DeepEqual(res.Phases, ref.Phases) {
					t.Errorf("workers=%d: PhaseStats differ from workers=1:\n got %+v\nwant %+v",
						workers, res.Phases, ref.Phases)
				}
				if res.ReusedFFs != ref.ReusedFFs || res.AdditionalCells != ref.AdditionalCells {
					t.Errorf("workers=%d: totals (%d,%d) != (%d,%d)", workers,
						res.ReusedFFs, res.AdditionalCells, ref.ReusedFFs, ref.AdditionalCells)
				}
			}
		})
	}
}

// TestGoldenPhaseStats pins the graph the flow builds for one fixed die to
// exact golden numbers, at several worker counts. Any change to cone
// construction, edge admission order, or pair selection that shifts a
// single node, edge, merge, or clique shows up here.
func TestGoldenPhaseStats(t *testing.T) {
	in := prep(t, 500, 30, 14, 14, 42)
	want := []PhaseStats{
		{Inbound: true, Nodes: 44, Edges: 347, OverlapEdges: 36, Cliques: 5, Merges: 14},
		{Inbound: false, Nodes: 39, Edges: 426, OverlapEdges: 6, Cliques: 6, Merges: 14, EdgeDeletes: 8},
	}
	for _, workers := range []int{1, 2, 4, 8} {
		opts := DefaultOptions()
		opts.Workers = workers
		res, err := Run(in, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(res.Phases, want) {
			t.Errorf("workers=%d:\n got %+v\nwant %+v", workers, res.Phases, want)
		}
	}
}
