package wcm

import (
	"testing"

	"wcm3d/internal/netlist"
)

// BenchmarkGraphBuild measures Algorithm 1 in isolation — item filters,
// cone precomputation, the O(items × (items+ffs)) edge sweep and the
// graph load — on a large synthetic die, serially and across all cores.
func BenchmarkGraphBuild(b *testing.B) {
	in := prep(b, 6000, 300, 80, 80, 1)
	available := make(map[netlist.SignalID]bool, len(in.Netlist.FlipFlops()))
	for _, ff := range in.Netlist.FlipFlops() {
		available[ff] = true
	}
	for _, bc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			opts := DefaultOptions()
			opts.Workers = bc.workers
			opts = opts.withDefaults()
			var stats PhaseStats
			for i := 0; i < b.N; i++ {
				ph := &phaseRunner{in: in, opts: opts, inbound: true, available: available}
				stats = PhaseStats{Inbound: true}
				if err := ph.buildGraph(&stats); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(stats.Nodes), "nodes")
			b.ReportMetric(float64(stats.Edges), "edges")
		})
	}
}
