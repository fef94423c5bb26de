package wcmgraph

import (
	"math/rand"
	"testing"
)

// graphSpec is a reusable recipe for rebuilding identical graphs cheaply
// inside a benchmark loop (no RNG on the hot path).
type graphSpec struct {
	nodes int
	ff    []bool
	edges []edge
}

func makeSpec(nodes int, density float64, seed int64) *graphSpec {
	rng := rand.New(rand.NewSource(seed))
	sp := &graphSpec{nodes: nodes, ff: make([]bool, nodes)}
	for i := range sp.ff {
		sp.ff[i] = i%3 == 2
	}
	for a := 0; a < nodes; a++ {
		for b := a + 1; b < nodes; b++ {
			if rng.Float64() < density {
				sp.edges = append(sp.edges, edge{a: a, b: b, overlap: rng.Intn(4) == 0})
			}
		}
	}
	return sp
}

func (sp *graphSpec) build() *Graph {
	g := New(sp.nodes)
	for i := 0; i < sp.nodes; i++ {
		node := Node{}
		if sp.ff[i] {
			node.HasFF = true
			node.FF = int32(i)
		}
		if _, err := g.AddNode(node); err != nil {
			panic(err)
		}
	}
	loadEdges(g, sp.edges)
	return g
}

// partitionLoop mimics Algorithm 2's consumption pattern: take the
// selected pair, merge it three times out of four, delete the edge
// otherwise. Selection order is identical for both pickers (pinned by the
// equivalence tests), so the mutation work is the same and the benchmark
// difference is the selection cost alone.
func partitionLoop(b *testing.B, g *Graph, pick func() (int, int, bool)) int {
	steps := 0
	for {
		n1, n2, ok := pick()
		if !ok {
			return steps
		}
		if steps%4 == 3 {
			g.DeleteEdge(n1, n2)
		} else if _, err := g.Merge(n1, n2); err != nil {
			b.Fatal(err)
		}
		steps++
	}
}

// BenchmarkPartition compares min-degree pair selection via the
// degree-bucket index against the linear-scan reference on a 2k-node
// sharing graph — the Algorithm 2 bottleneck this PR attacks.
func BenchmarkPartition(b *testing.B) {
	sp := makeSpec(2048, 0.004, 1)
	b.Logf("graph: %d nodes, %d edges", sp.nodes, len(sp.edges))
	b.Run("indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := sp.build()
			partitionLoop(b, g, g.MinDegreePair)
		}
	})
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := sp.build()
			partitionLoop(b, g, g.minDegreePairScan)
		}
	})
}
