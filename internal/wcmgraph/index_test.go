package wcmgraph

import (
	"math/rand"
	"testing"
)

// randomGraph builds a graph of n nodes (every third one a flip-flop) with
// random clean and overlap edges at the given density.
func randomGraph(rng *rand.Rand, n int, density float64) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		node := Node{}
		if i%3 == 2 {
			node.HasFF = true
			node.FF = int32(i)
		}
		if _, err := g.AddNode(node); err != nil {
			panic(err)
		}
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if rng.Float64() >= density {
				continue
			}
			if rng.Intn(4) == 0 {
				g.AddOverlapEdge(a, b)
			} else {
				g.AddEdge(a, b)
			}
		}
	}
	return g
}

// TestMinDegreePairMatchesScan drives randomized graphs through full
// partition runs, asserting at every single iteration that the
// degree-bucket index and candidate cache pick exactly the pair the
// linear-scan reference picks — same tier order, same lowest-id
// tie-breaking — while merges and edge deletions mutate the graph
// underneath.
func TestMinDegreePairMatchesScan(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 40+rng.Intn(80), 0.02+rng.Float64()*0.15)
		for step := 0; ; step++ {
			i1, i2, iok := g.MinDegreePair()
			s1, s2, sok := g.minDegreePairScan()
			if iok != sok || i1 != s1 || i2 != s2 {
				t.Fatalf("seed %d step %d: index picked (%d,%d,%v), scan picked (%d,%d,%v)",
					seed, step, i1, i2, iok, s1, s2, sok)
			}
			if !iok {
				break
			}
			// Alternate merge and delete like the partitioner does when
			// mergeFits flips, so both mutation paths exercise the index.
			if rng.Intn(3) != 0 {
				if _, err := g.Merge(i1, i2); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			} else {
				g.DeleteEdge(i1, i2)
			}
		}
	}
}

// TestMinDegreePairIdempotent pins that a pick does not consume the
// candidate it returns: two MinDegreePair calls with no mutation in
// between return the same pair, at every step of a delete-heavy run.
func TestMinDegreePairIdempotent(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 40+rng.Intn(80), 0.05+rng.Float64()*0.2)
		for step := 0; ; step++ {
			n1, n2, ok := g.MinDegreePair()
			r1, r2, rok := g.MinDegreePair()
			if ok != rok || n1 != r1 || n2 != r2 {
				t.Fatalf("seed %d step %d: first pick (%d,%d,%v), repeated pick (%d,%d,%v)",
					seed, step, n1, n2, ok, r1, r2, rok)
			}
			if !ok {
				break
			}
			if rng.Intn(5) == 0 {
				if _, err := g.Merge(n1, n2); err != nil {
					t.Fatal(err)
				}
			} else {
				g.DeleteEdge(n1, n2)
			}
		}
	}
}

// TestPickCacheLongDeleteRuns drives the pick cache through the workload
// it exists for — long runs of consecutive DeleteEdge calls between rare
// merges, deeper than the candidate capacity so exhaustion-rescans are
// exercised — pinning every pick against the scan oracle.
func TestPickCacheLongDeleteRuns(t *testing.T) {
	for seed := int64(300); seed < 310; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 120, 0.6) // dense: degrees far above pickCacheCap
		for step := 0; ; step++ {
			i1, i2, iok := g.MinDegreePair()
			s1, s2, sok := g.minDegreePairScan()
			if iok != sok || i1 != s1 || i2 != s2 {
				t.Fatalf("seed %d step %d: cached (%d,%d,%v) != scan (%d,%d,%v)",
					seed, step, i1, i2, iok, s1, s2, sok)
			}
			if !iok {
				break
			}
			if rng.Intn(40) == 0 {
				if _, err := g.Merge(i1, i2); err != nil {
					t.Fatal(err)
				}
			} else {
				g.DeleteEdge(i1, i2)
			}
		}
	}
}

// TestMinDegreePlaneMatchesScanPerTier pins each of the four tiers
// individually, including the tiers the combined MinDegreePair would have
// short-circuited past.
func TestMinDegreePlaneMatchesScanPerTier(t *testing.T) {
	for seed := int64(100); seed < 110; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 64, 0.08)
		for step := 0; step < 200; step++ {
			for _, tier := range []struct{ clean, noFF bool }{
				{true, true}, {true, false}, {false, true}, {false, false},
			} {
				i1, i2, iok := g.minDegreePlane(tier.clean, tier.noFF)
				s1, s2, sok := g.minDegreePlaneScan(tier.clean, tier.noFF)
				if iok != sok || i1 != s1 || i2 != s2 {
					t.Fatalf("seed %d step %d tier %+v: index (%d,%d,%v) != scan (%d,%d,%v)",
						seed, step, tier, i1, i2, iok, s1, s2, sok)
				}
			}
			n1, n2, ok := g.MinDegreePair()
			if !ok {
				break
			}
			switch rng.Intn(4) {
			case 0:
				g.DeleteEdge(n1, n2)
			case 1:
				// Re-adding a deleted edge exercises index insertions on
				// nodes whose degree dropped to zero and came back.
				a, b := rng.Intn(64), rng.Intn(64)
				if a != b && g.nodes[a].alive && g.nodes[b].alive {
					g.AddEdge(a, b)
				}
			default:
				if _, err := g.Merge(n1, n2); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestDegreeIndexConsistency cross-checks the index contents against the
// node counters after a long random mutation sequence: every alive node
// with positive degree must be found, with its exact degree, in the right
// views.
func TestDegreeIndexConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 100, 0.05)
	for step := 0; step < 300; step++ {
		n1, n2, ok := g.MinDegreePair()
		if !ok {
			break
		}
		if step%2 == 0 {
			g.DeleteEdge(n1, n2)
		} else if _, err := g.Merge(n1, n2); err != nil {
			t.Fatal(err)
		}
	}
	for plane, degOf := range map[int]func(*Node) int32{
		planeAll:   func(n *Node) int32 { return n.deg },
		planeClean: func(n *Node) int32 { return n.cleanDeg },
	} {
		for filter := 0; filter < 2; filter++ {
			idx := &g.degIdx[plane][filter]
			want := 0
			for i := range g.nodes {
				n := &g.nodes[i]
				member := n.alive && degOf(n) > 0 && !(filter == 1 && n.HasFF)
				if member {
					want++
				}
				d := degOf(n)
				inBucket := false
				if int(d) < len(idx.buckets) && idx.buckets[d] != nil {
					inBucket = idx.buckets[d][i>>6]&(1<<(uint(i)&63)) != 0
				}
				if member != inBucket {
					t.Errorf("plane %d filter %d node %d: member=%v inBucket=%v (deg %d)",
						plane, filter, i, member, inBucket, d)
				}
			}
			if idx.size != want {
				t.Errorf("plane %d filter %d: size %d, want %d", plane, filter, idx.size, want)
			}
		}
	}
}
