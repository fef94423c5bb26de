package wcmgraph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// edge is one edge of a test graph; overlap marks overlap quality.
type edge struct {
	a, b    int
	overlap bool
}

// clean and overlapped build test edges.
func clean(a, b int) edge      { return edge{a: a, b: b} }
func overlapped(a, b int) edge { return edge{a: a, b: b, overlap: true} }

// loadEdges loads an edge list into a graph whose nodes are all added,
// through the one bulk path (BulkRows, then FinishBulkEdges). Self-loops
// and repeated pairs are skipped; a repeated pair keeps its first quality.
func loadEdges(g *Graph, edges []edge) {
	for _, e := range edges {
		if e.a == e.b || g.HasEdge(e.a, e.b) {
			continue
		}
		for _, p := range [2][2]int{{e.a, e.b}, {e.b, e.a}} {
			adj, cl := g.BulkRows(p[0])
			adj[p[1]>>6] |= 1 << (uint(p[1]) & 63)
			if !e.overlap {
				cl[p[1]>>6] |= 1 << (uint(p[1]) & 63)
			}
		}
	}
	g.FinishBulkEdges()
}

func TestAddNodesAndEdges(t *testing.T) {
	g := New(4)
	ids := make([]int, 4)
	for i := range ids {
		id, err := g.AddNode(Node{})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	loadEdges(g, []edge{
		clean(ids[0], ids[1]),
		clean(ids[1], ids[2]),
		clean(ids[0], ids[1]), // repeated pair skipped
		clean(ids[0], ids[0]), // self-loop skipped
	})
	if g.NumEdges() != 2 {
		t.Errorf("edges = %d, want 2", g.NumEdges())
	}
	if !g.HasEdge(ids[0], ids[1]) || g.HasEdge(ids[0], ids[2]) {
		t.Error("adjacency wrong")
	}
	if g.Node(ids[1]).Degree() != 2 {
		t.Errorf("deg(1) = %d, want 2", g.Node(ids[1]).Degree())
	}
	g.DeleteEdge(ids[0], ids[1])
	if g.NumEdges() != 1 || g.Node(ids[0]).Degree() != 0 {
		t.Error("DeleteEdge bookkeeping wrong")
	}
	g.DeleteEdge(ids[0], ids[1]) // idempotent
	if g.NumEdges() != 1 {
		t.Error("double delete changed count")
	}
}

func TestMinDegreePair(t *testing.T) {
	g := New(4)
	a, _ := g.AddNode(Node{})
	b, _ := g.AddNode(Node{})
	c, _ := g.AddNode(Node{})
	d, _ := g.AddNode(Node{})
	// a-b, b-c, c-d, b-d: degrees a=1 b=3 c=2 d=2.
	loadEdges(g, []edge{clean(a, b), clean(b, c), clean(c, d), clean(b, d)})
	n1, n2, ok := g.MinDegreePair()
	if !ok {
		t.Fatal("expected a pair")
	}
	if n1 != a || n2 != b {
		t.Errorf("pair = (%d,%d), want (a=%d, b=%d)", n1, n2, a, b)
	}
}

func TestMinDegreePairEmpty(t *testing.T) {
	g := New(2)
	g.AddNode(Node{})
	g.AddNode(Node{})
	if _, _, ok := g.MinDegreePair(); ok {
		t.Error("no edges: no pair")
	}
}

func TestMergeKeepsCliqueInvariant(t *testing.T) {
	// Triangle a-b-c plus pendant a-d. Merging a,b must keep only c (the
	// common neighbor); d drops away.
	g := New(4)
	a, _ := g.AddNode(Node{HasFF: true, FF: 7})
	b, _ := g.AddNode(Node{Members: []int32{5}})
	c, _ := g.AddNode(Node{Members: []int32{6}})
	d, _ := g.AddNode(Node{Members: []int32{9}})
	loadEdges(g, []edge{clean(a, b), clean(b, c), clean(a, c), clean(a, d)})
	m, err := g.Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	mn := g.Node(m)
	if !mn.HasFF || mn.FF != 7 {
		t.Error("merged node must inherit the flip-flop")
	}
	if len(mn.Members) != 1 || mn.Members[0] != 5 {
		t.Errorf("Members = %v, want [5]", mn.Members)
	}
	if g.Node(a).Alive() || g.Node(b).Alive() {
		t.Error("merged-away nodes must die")
	}
	if !g.HasEdge(m, c) {
		t.Error("common neighbor c must stay adjacent")
	}
	if g.HasEdge(m, d) {
		t.Error("non-common neighbor d must not be adjacent")
	}
	if g.Node(d).Degree() != 0 {
		t.Errorf("deg(d) = %d, want 0", g.Node(d).Degree())
	}
	if g.NumEdges() != 1 {
		t.Errorf("edges = %d, want 1 (m-c)", g.NumEdges())
	}
}

func TestMergeNonAdjacentFails(t *testing.T) {
	g := New(2)
	a, _ := g.AddNode(Node{})
	b, _ := g.AddNode(Node{})
	if _, err := g.Merge(a, b); err == nil {
		t.Error("merging non-adjacent nodes must fail")
	}
}

func TestCapacityBound(t *testing.T) {
	g := New(1)
	if _, err := g.AddNode(Node{}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddNode(Node{}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddNode(Node{}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddNode(Node{}); err == nil {
		t.Error("capacity 2n+1 = 3 must reject the 4th node")
	}
}

// TestRandomMergeInvariants drives random merges and checks the degree and
// edge-count bookkeeping stays consistent with a brute-force recount.
func TestRandomMergeInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		n := 30
		g := New(n)
		ids := make([]int, n)
		for i := range ids {
			ids[i], _ = g.AddNode(Node{})
		}
		edges := make([]edge, n*3)
		for i := range edges {
			edges[i] = clean(ids[rng.Intn(n)], ids[rng.Intn(n)])
		}
		loadEdges(g, edges)
		for step := 0; step < 20; step++ {
			n1, n2, ok := g.MinDegreePair()
			if !ok {
				break
			}
			if rng.Intn(4) == 0 {
				g.DeleteEdge(n1, n2)
			} else {
				if _, err := g.Merge(n1, n2); err != nil {
					t.Fatal(err)
				}
			}
			checkConsistency(t, g)
		}
	}
}

func checkConsistency(t *testing.T, g *Graph) {
	t.Helper()
	edges := 0
	for i := range g.nodes {
		if !g.nodes[i].alive {
			if g.nodes[i].deg != 0 {
				t.Fatalf("dead node %d has degree %d", i, g.nodes[i].deg)
			}
			continue
		}
		deg := 0
		g.Neighbors(i, func(nb int) {
			if !g.nodes[nb].alive {
				t.Fatalf("node %d adjacent to dead node %d", i, nb)
			}
			if !g.HasEdge(nb, i) {
				t.Fatalf("asymmetric edge %d-%d", i, nb)
			}
			deg++
		})
		if deg != int(g.nodes[i].deg) {
			t.Fatalf("node %d degree counter %d, actual %d", i, g.nodes[i].deg, deg)
		}
		edges += deg
	}
	if edges/2 != g.edges {
		t.Fatalf("edge counter %d, actual %d", g.edges, edges/2)
	}
}

func TestOverlapEdgesConsumedLast(t *testing.T) {
	// a-b clean; a-c overlap. MinDegreePair must offer the clean pair
	// first even though c has lower degree.
	g := New(3)
	a, _ := g.AddNode(Node{})
	b, _ := g.AddNode(Node{})
	c, _ := g.AddNode(Node{})
	loadEdges(g, []edge{clean(a, b), overlapped(a, c)})
	n1, n2, ok := g.MinDegreePair()
	if !ok {
		t.Fatal("expected a pair")
	}
	pair := map[int]bool{n1: true, n2: true}
	if !pair[a] || !pair[b] {
		t.Errorf("first pair must be the clean edge (a,b), got (%d,%d)", n1, n2)
	}
	// After the clean edge is gone, the overlap edge is offered.
	m, err := g.Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	_ = m
	n1, n2, ok = g.MinDegreePair()
	if ok {
		// c lost its only edge when a died (a-c was not common to a and
		// b), so there may be nothing left; if there is, it must
		// involve c.
		if n1 != c && n2 != c {
			t.Errorf("remaining pair (%d,%d) should involve c", n1, n2)
		}
	}
}

func TestMergePreservesOverlapQuality(t *testing.T) {
	// Clique (a,b) merged; a-x clean, b-x overlap => merged-x must be
	// overlap quality (NOT clean), since one member's relation is weak.
	g := New(3)
	a, _ := g.AddNode(Node{})
	b, _ := g.AddNode(Node{})
	x, _ := g.AddNode(Node{})
	loadEdges(g, []edge{clean(a, b), clean(a, x), overlapped(b, x)})
	m, err := g.Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(m, x) {
		t.Fatal("common neighbor lost")
	}
	if g.Node(m).cleanDeg != 0 {
		t.Errorf("merged-x edge must be overlap quality, cleanDeg=%d", g.Node(m).cleanDeg)
	}
	checkConsistency(t, g)
}

func TestFFLastSelection(t *testing.T) {
	// TSV-TSV edges must be merged before FF-TSV edges.
	g := New(3)
	ff, _ := g.AddNode(Node{HasFF: true, FF: 1})
	t1, _ := g.AddNode(Node{Members: []int32{0}})
	t2, _ := g.AddNode(Node{Members: []int32{1}})
	loadEdges(g, []edge{clean(ff, t1), clean(t1, t2)})
	n1, n2, ok := g.MinDegreePair()
	if !ok {
		t.Fatal("expected a pair")
	}
	if n1 == ff || n2 == ff {
		t.Errorf("pure TSV pair must be selected before the flip-flop, got (%d,%d)", n1, n2)
	}
}

func TestFirstEdgePair(t *testing.T) {
	g := New(3)
	a, _ := g.AddNode(Node{})
	b, _ := g.AddNode(Node{})
	c, _ := g.AddNode(Node{})
	loadEdges(g, []edge{clean(b, c)})
	_ = a
	n1, n2, ok := g.FirstEdgePair()
	if !ok || (n1 != b && n1 != c) || n1 == n2 {
		t.Errorf("FirstEdgePair = (%d,%d,%v)", n1, n2, ok)
	}
}

// TestQuickMergeMonotonics: random merge sequences preserve the structural
// invariant that member counts are conserved into the merged clique.
func TestQuickMergeMonotonics(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + int(nRaw%24)
		g := New(n)
		totalMembers := 0
		for i := 0; i < n; i++ {
			m := []int32{int32(i)}
			totalMembers++
			if _, err := g.AddNode(Node{Members: m}); err != nil {
				return false
			}
		}
		edges := make([]edge, n*2)
		for i := range edges {
			edges[i] = clean(rng.Intn(n), rng.Intn(n))
		}
		loadEdges(g, edges)
		for {
			a, b, ok := g.MinDegreePair()
			if !ok {
				break
			}
			na, nb := g.Node(a), g.Node(b)
			wantMembers := len(na.Members) + len(nb.Members)
			m, err := g.Merge(a, b)
			if err != nil {
				return false
			}
			if len(g.Node(m).Members) != wantMembers {
				return false
			}
		}
		// All members conserved across the final cliques.
		got := 0
		for _, id := range g.Cliques() {
			got += len(g.Node(id).Members)
		}
		return got == totalMembers
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
