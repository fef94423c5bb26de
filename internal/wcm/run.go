package wcm

import (
	"fmt"
	"math"
	"sync"

	"wcm3d/internal/netlist"
	"wcm3d/internal/par"
	"wcm3d/internal/scan"
	"wcm3d/internal/wcmgraph"
)

// Run executes the full WCM flow on a die and returns the wrapper plan.
func Run(in Input, opts Options) (*Result, error) {
	return run(in, opts, nil)
}

// run is Run with optional session state (see Session). A nil state keeps
// every phase on the plain from-scratch path; the produced plan is
// identical either way.
func run(in Input, opts Options, st *sessionState) (*Result, error) {
	opts = opts.withDefaults()
	if err := in.validate(opts); err != nil {
		return nil, err
	}
	n := in.Netlist
	firstInbound := opts.Order.inboundFirst(len(n.InboundTSVs()), len(n.OutboundTSVs()))

	available := make(map[netlist.SignalID]bool, len(n.FlipFlops()))
	for _, ff := range n.FlipFlops() {
		available[ff] = true
	}

	// Every cone, source mask and masked-cone bitset a phase builds dies
	// with the phase, so their word storage routes through one arena and
	// returns to the global pools at phase end — repeated runs (the batch
	// sweep) then recycle instead of reallocating. Nothing reachable from
	// Result ever comes from the arena.
	arena := netlist.NewArena()
	defer arena.Release()

	res := &Result{Assignment: &scan.Assignment{}, Options: opts}
	phases := []bool{firstInbound, !firstInbound}
	for pi, isInbound := range phases {
		var memo *phaseMemo
		var sc *stageCache
		if st != nil {
			memo = &st.outboundMemo
			if isInbound {
				memo = &st.inboundMemo
			}
			sc = &st.stages[pi]
		}
		ph := &phaseRunner{in: in, opts: opts, inbound: isInbound, available: available, arena: arena, memo: memo}
		ph.collect()
		var stats PhaseStats
		if sc != nil && sc.replay(ph, res.Assignment) {
			// The phase's exact inputs — item and flip-flop membership and
			// their memo slots (never-reused slot ids certify the cached
			// verdicts) — match a previously computed phase, whose emitted
			// groups are replayed without touching the graph.
			stats = sc.stats
		} else {
			if sc != nil {
				sc.valid = false
			}
			c0, o0 := len(res.Assignment.Control), len(res.Assignment.Observe)
			var err error
			stats, err = ph.run(res.Assignment)
			arena.Release() // phase 2 re-draws the words phase 1 returned
			if err != nil {
				return nil, err
			}
			if sc != nil {
				sc.fill(ph, stats, res.Assignment, c0, o0)
			}
		}
		res.Phases = append(res.Phases, stats)
		if pi == 0 && in.RefreshTiming != nil {
			refreshed, err := in.RefreshTiming(res.Assignment)
			if err != nil {
				return nil, fmt.Errorf("wcm: refreshing timing after first phase: %w", err)
			}
			if refreshed != nil {
				in.Timing = refreshed
			}
		}
	}
	// The wire-aware planner knows where its long test runs are, so it
	// plans repeatered (buffered) test routing; the capacitance-only
	// baseline cannot, and its plan ships unbuffered.
	res.Assignment.BufferedRouting = opts.Timing == TimingCapWire
	res.ReusedFFs = res.Assignment.ReusedFFs()
	res.AdditionalCells = res.Assignment.AdditionalCells()
	if err := res.Assignment.Validate(n); err != nil {
		return nil, fmt.Errorf("wcm: produced invalid plan: %w", err)
	}
	if !res.Assignment.Covered(n) {
		return nil, fmt.Errorf("wcm: plan does not cover every TSV")
	}
	return res, nil
}

// phaseRunner builds and partitions the sharing graph for one TSV set.
type phaseRunner struct {
	in        Input
	opts      Options
	inbound   bool
	available map[netlist.SignalID]bool
	// arena supplies recycled word storage for every phase-lifetime
	// bitset (cones, source mask, masked cones). May be nil (benchmarks
	// drive phaseRunner directly): everything degrades to plain
	// allocation.
	arena *netlist.Arena
	// memo, when non-nil, caches masked cones and edge verdicts across
	// runs of a replan session (see Session). Memoized masked cones are
	// plain-allocated — they outlive the arena.
	memo *phaseMemo

	// per-run state
	collected bool
	// maxMembers is the largest TSV count a clique may hold: Algorithm
	// 2's accumulated-load bound, with every member adding the same
	// post-bond drive load (see mergeFits).
	maxMembers int
	items      []int              // item indices that passed the node filter
	excluded   []int              // item indices excluded to dedicated cells
	ffs        []netlist.SignalID // available, eligible flip-flops
	usedFFs    []netlist.SignalID // flip-flops the plan assembly consumed
	tsvSignals []netlist.SignalID // cone anchor per TSV item
	tsvPorts   []int              // outbound only: port index per item
	cones      *netlist.ConeSet
	sourceMask *netlist.BitSet // sources excluded from cone-overlap tests
	graph      *wcmgraph.Graph
	// nodeMasked and nodeAnchor index the sharing-relevant cone and
	// anchor signal by graph node id, so the O(n²) edge sweep does two
	// array loads per pair instead of map lookups. nodeMasked is the cone
	// with shared-source signals already stripped (cone &^ sourceMask),
	// so the pair test is one AND per word instead of a double-mask pass.
	// Valid for the initial (pre-merge) nodes only — exactly the ones the
	// sweep visits.
	nodeMasked []*netlist.BitSet
	nodeAnchor []netlist.SignalID
	// nodeSlot maps graph node id to the session memo slot (memo != nil).
	nodeSlot []int32
}

func (ph *phaseRunner) run(asn *scan.Assignment) (PhaseStats, error) {
	stats := PhaseStats{Inbound: ph.inbound}
	defer func() {
		if ph.graph != nil {
			ph.graph.Release() // adjacency rows back to the word pools
		}
	}()
	_, excluded, err := ph.buildGraph(&stats)
	if err != nil {
		return stats, err
	}

	// ----- Heuristic clique partitioning (Algorithm 2).
	if err := ph.partition(&stats); err != nil {
		return stats, err
	}

	// ----- Plan assembly.
	for _, cid := range ph.graph.Cliques() {
		node := ph.graph.Node(cid)
		if len(node.Members) == 0 {
			continue // unused flip-flop
		}
		stats.Cliques++
		ffSig := netlist.InvalidSignal
		if node.HasFF {
			ffSig = netlist.SignalID(node.FF)
			ph.available[ffSig] = false
			ph.usedFFs = append(ph.usedFFs, ffSig)
		}
		ph.emitGroup(asn, ffSig, node.Members)
	}
	for _, i := range excluded {
		ph.emitGroup(asn, netlist.InvalidSignal, []int32{int32(i)})
	}
	return stats, nil
}

// collect runs Algorithm 1's item collection and node filters (lines
// 1-14) plus flip-flop eligibility, leaving the phase's membership lists
// in ph.items/ph.excluded/ph.ffs. Idempotent: the session probes a
// phase's membership before deciding whether to replay it from cache, and
// buildGraph reuses the collected lists.
func (ph *phaseRunner) collect() {
	if ph.collected {
		return
	}
	ph.collected = true
	n := ph.in.Netlist
	if ph.inbound {
		for _, t := range n.InboundTSVs() {
			ph.tsvSignals = append(ph.tsvSignals, t)
		}
		// The node filter guards the wrapper mux's drive capability: the
		// mux takes over driving the pad's downstream pins, so a pad
		// whose pin load exceeds what a library mux can drive is
		// excluded (it gets a dedicated, appropriately-sized wrapper
		// cell). Pin capacitance only — long functional nets carry
		// buffers in a real flow, so wire load is not a drive concern
		// here; the wire-aware budgets police everything timing.
		for i, t := range ph.tsvSignals {
			pinLoad := 0.0
			for _, fo := range n.Fanouts()[t] {
				pinLoad += ph.in.Lib.Of(n.TypeOf(fo)).InputCapFF
			}
			if pinLoad < ph.opts.PadCapThFF {
				ph.items = append(ph.items, i)
			} else {
				ph.excluded = append(ph.excluded, i)
			}
		}
	} else {
		for _, p := range n.OutboundTSVs() {
			ph.tsvPorts = append(ph.tsvPorts, p)
			ph.tsvSignals = append(ph.tsvSignals, n.Outputs[p].Signal)
		}
		// A port may enter the graph when its driver's slack covers the
		// observation tap (an XOR pin plus one repeater segment slow the
		// driver; the delta rides every functional path through it) on
		// top of the s_th reserve. The fold-XOR chain itself is a
		// test-mode path and is not held to functional slack.
		for i, sig := range ph.tsvSignals {
			if ph.in.Timing.SlackPS(sig)-ph.opts.SlackThPS > ph.tapCostPS(sig) {
				ph.items = append(ph.items, i)
			} else {
				ph.excluded = append(ph.excluded, i)
			}
		}
	}
	for _, ff := range n.FlipFlops() {
		if ph.available[ff] && ph.ffEligible(ff) {
			ph.ffs = append(ph.ffs, ff)
		}
	}
	load := ph.itemLoadFF()
	for ph.maxMembers < len(ph.items) && float64(ph.maxMembers+1)*load < ph.opts.CapThFF {
		ph.maxMembers++
	}
}

// itemLoadFF is the post-bond drive load one TSV adds to a shared wrapper
// cell: its pillar plus the mux (control) or fold-XOR (observe) pin.
func (ph *phaseRunner) itemLoadFF() float64 {
	lib := ph.in.Lib
	if ph.inbound {
		return lib.TSVCapFF + lib.Of(netlist.GateMux2).InputCapFF
	}
	return lib.TSVCapFF + lib.Of(netlist.GateXor).InputCapFF
}

// buildGraph runs Algorithm 1 end to end — item collection and node
// filters, cone precomputation, node construction, and the parallel edge
// sweep — leaving the constructed sharing graph in ph.graph. It returns
// the item indices that entered the graph and the ones excluded to
// dedicated cells. Split from run so the graph-construction hot path can
// be measured (BenchmarkGraphBuild) apart from the partitioner.
func (ph *phaseRunner) buildGraph(stats *PhaseStats) (items, excluded []int, err error) {
	n := ph.in.Netlist
	ph.collect()
	items, excluded, ffs := ph.items, ph.excluded, ph.ffs
	stats.FilteredTSVs = len(excluded)

	// Cones: fan-out side for control sharing, fan-in side for
	// observation sharing.
	ffConeSig := func(ff netlist.SignalID) netlist.SignalID {
		if ph.inbound {
			return ff
		}
		return n.Gate(ff).Fanin[0]
	}
	var coneSignals []netlist.SignalID
	if ph.memo == nil {
		coneSignals = append(coneSignals, ph.tsvSignals...)
		for _, ff := range ffs {
			coneSignals = append(coneSignals, ffConeSig(ff))
		}
	} else {
		// A session run only traverses cones its memo has never seen;
		// everything else is served from the cached masked cones.
		for _, i := range items {
			if _, ok := ph.memo.slots[slotKey{ff: false, sig: ph.tsvSignals[i]}]; !ok {
				coneSignals = append(coneSignals, ph.tsvSignals[i])
			}
		}
		for _, ff := range ffs {
			if _, ok := ph.memo.slots[slotKey{ff: true, sig: ff}]; !ok {
				coneSignals = append(coneSignals, ffConeSig(ff))
			}
		}
	}
	ph.cones = netlist.NewConeSetArena(n, coneSignals, ph.opts.Workers, ph.arena)
	ph.sourceMask = ph.arena.NewBitSet(n.NumGates())
	for i := range n.Gates {
		id := netlist.SignalID(i)
		if n.TypeOf(id).IsSource() || n.TypeOf(id) == netlist.GateDFF {
			ph.sourceMask.Set(id)
		}
	}

	// ----- Node construction.
	ph.graph = wcmgraph.New(len(items) + len(ffs))
	tsvNode := make([]int, len(ph.tsvSignals))
	for i := range tsvNode {
		tsvNode[i] = -1
	}
	for _, i := range items {
		node := ph.placedNode(ph.tsvSignals[i])
		node.Members = []int32{int32(i)}
		id, err := ph.graph.AddNode(node)
		if err != nil {
			return nil, nil, err
		}
		tsvNode[i] = id
	}
	ffNode := make([]int, 0, len(ffs))
	for _, ff := range ffs {
		node := ph.placedNode(ff)
		node.HasFF, node.FF = true, int32(ff)
		id, err := ph.graph.AddNode(node)
		if err != nil {
			return nil, nil, err
		}
		ffNode = append(ffNode, id)
	}
	stats.Nodes = ph.graph.NumAlive()

	// ----- Edge construction (Algorithm 1, lines 16-26). The pair space
	// is O(items × (items + ffs)) evaluations of edgeAllowed — pure reads
	// over the precomputed cones and node fields — so rows are striped
	// across a worker pool, each worker writing verdicts into its rows of
	// a flat buffer. The verdicts are then applied to the graph in the
	// serial (i, j) order, so the graph and the running stats come out
	// byte-identical at every worker count.
	nNodes := len(items) + len(ffs)
	ph.nodeMasked = make([]*netlist.BitSet, nNodes)
	ph.nodeAnchor = make([]netlist.SignalID, nNodes)
	for id := 0; id < nNodes; id++ {
		ph.nodeAnchor[id] = ph.anchor(id)
	}
	if ph.memo == nil {
		nodeCone := make([]*netlist.BitSet, nNodes)
		for id := 0; id < nNodes; id++ {
			nodeCone[id] = ph.coneOf(id)
		}
		par.Do(ph.opts.Workers, nNodes, func(_, id int) {
			ph.nodeMasked[id] = nodeCone[id].AndNotInto(ph.sourceMask, ph.arena.NewBitSet(n.NumGates()))
		})
	} else {
		ph.nodeSlot = make([]int32, nNodes)
		for id := 0; id < nNodes; id++ {
			var key slotKey
			if node := ph.graph.Node(id); node.HasFF {
				key = slotKey{ff: true, sig: netlist.SignalID(node.FF)}
			} else {
				key = slotKey{ff: false, sig: ph.tsvSignals[node.Members[0]]}
			}
			slot, hit := ph.memo.slotFor(key)
			ph.nodeSlot[id] = slot
			if !hit {
				// Plain allocation: the memoized masked cone outlives
				// this phase's arena.
				ph.memo.masked[slot] = ph.coneOf(id).AndNotInto(ph.sourceMask, netlist.NewBitSet(n.NumGates()))
			}
			ph.nodeMasked[id] = ph.memo.masked[slot]
		}
		ph.memo.verd.ensure(len(ph.memo.masked))
	}
	if ph.memo != nil {
		// Session runs assemble the graph in bulk from the verdict matrix
		// instead of replaying per-edge insertions.
		return items, excluded, ph.buildEdgesBulk(stats, len(items), nNodes)
	}
	offs := make([]int, len(items)+1)
	for i := 0; i < len(items); i++ {
		offs[i+1] = offs[i] + (len(items) - 1 - i) + len(ffNode)
	}
	verdicts := getVerdicts(offs[len(items)])
	defer putVerdicts(verdicts)
	par.Do(ph.opts.Workers, len(items), func(_, i int) {
		k := offs[i]
		for j := i + 1; j < len(items); j++ {
			verdicts[k] = ph.edgeVerdict(tsvNode[items[i]], tsvNode[items[j]])
			k++
		}
		for _, fid := range ffNode {
			verdicts[k] = ph.edgeVerdict(tsvNode[items[i]], fid)
			k++
		}
	})
	apply := func(a, b int, v uint8) {
		switch v {
		case edgeClean:
			ph.graph.AddEdge(a, b)
		case edgeOverlap:
			ph.graph.AddOverlapEdge(a, b)
			stats.OverlapEdges++
		}
	}
	for i := 0; i < len(items); i++ {
		k := offs[i]
		for j := i + 1; j < len(items); j++ {
			apply(tsvNode[items[i]], tsvNode[items[j]], verdicts[k])
			k++
		}
		for _, fid := range ffNode {
			apply(tsvNode[items[i]], fid, verdicts[k])
			k++
		}
	}
	stats.Edges = ph.graph.NumEdges()
	return items, excluded, nil
}

// buildEdgesBulk is the session-run edge constructor. The verdict matrix
// is the authoritative, order-independent edge set: unknown cells (pairs
// involving a slot the memo has never priced, or old slots never
// co-present in one run) are computed and filled in first, then every
// node's adjacency row is written directly from the matrix — row-local
// writes, so rows build in parallel at any worker count — and the degree
// indexes are built in one pass. The resulting graph state is
// bit-identical to the per-edge path: bitset rows are sets, counters are
// popcounts, and the degree buckets hold the same members, so the
// partitioner's pick sequence is unchanged. Item nodes occupy ids
// [0, nItems); their rows span all nodes. Flip-flop rows only carry item
// bits — flip-flop pairs are never in the pair space.
func (ph *phaseRunner) buildEdgesBulk(stats *PhaseStats, nItems, nNodes int) error {
	memo := ph.memo
	var unkA, unkB []int32
	for a := 0; a < nItems; a++ {
		sa := ph.nodeSlot[a]
		for b := a + 1; b < nNodes; b++ {
			sb := ph.nodeSlot[b]
			if sa == sb {
				// Distinct nodes sharing an anchor (outbound ports on one
				// driver): edgeAllowed rejects equal anchors
				// unconditionally, so no cell is stored.
				continue
			}
			if memo.verd.get(sa, sb) == verdUnknown {
				unkA = append(unkA, int32(a))
				unkB = append(unkB, int32(b))
			}
		}
	}
	if len(unkA) > 0 {
		buf := getVerdicts(len(unkA))
		par.Do(ph.opts.Workers, len(unkA), func(_, k int) {
			buf[k] = ph.edgeVerdict(int(unkA[k]), int(unkB[k]))
		})
		for k := range unkA {
			memo.verd.set(ph.nodeSlot[unkA[k]], ph.nodeSlot[unkB[k]], buf[k])
		}
		putVerdicts(buf)
	}
	par.Do(ph.opts.Workers, nNodes, func(_, id int) {
		adjRow, cleanRow := ph.graph.BulkRows(id)
		sa := ph.nodeSlot[id]
		hi := nNodes
		if id >= nItems {
			hi = nItems
		}
		for b := 0; b < hi; b++ {
			sb := ph.nodeSlot[b]
			if b == id || sa == sb {
				continue
			}
			switch memo.verd.get(sa, sb) {
			case edgeClean:
				adjRow[b>>6] |= 1 << (uint(b) & 63)
				cleanRow[b>>6] |= 1 << (uint(b) & 63)
			case edgeOverlap:
				adjRow[b>>6] |= 1 << (uint(b) & 63)
			}
		}
	})
	edges, cleanEdges := ph.graph.FinishBulkEdges()
	stats.Edges = edges
	stats.OverlapEdges = edges - cleanEdges
	return nil
}

// placedNode returns a fresh node whose bounding box is the placed
// position of sig (a point; zero without a placement).
func (ph *phaseRunner) placedNode(sig netlist.SignalID) wcmgraph.Node {
	var node wcmgraph.Node
	if ph.in.Placement != nil {
		pt := ph.in.Placement.Coords[sig]
		node.X, node.Y = pt.X, pt.Y
		node.X2, node.Y2 = pt.X, pt.Y
	}
	return node
}

// tapCostPS is the functional delay penalty a fold tap puts on the
// observed signal's driver: an XOR pin plus one repeater segment of wire.
func (ph *phaseRunner) tapCostPS(sig netlist.SignalID) float64 {
	if ph.opts.Timing != TimingCapWire {
		return 0 // the capacitance-only model cannot see it
	}
	lib := ph.in.Lib
	xor := lib.Of(netlist.GateXor)
	drive := lib.Of(ph.in.Netlist.TypeOf(sig)).DriveResKOhm
	return drive * (xor.InputCapFF + lib.DriverWireCapFF(lib.TestBufferDistUM))
}

// ffEligible applies the per-flip-flop functional checks of the accurate
// timing model: the control-side test run hangs one repeater segment plus
// a mux pin on Q (spending launch slack), and observe-side reuse inserts a
// mux on the D path (spending capture slack). Under the capacitance-only
// model flip-flops are always eligible — that blindness is what Table III
// punishes.
func (ph *phaseRunner) ffEligible(ff netlist.SignalID) bool {
	if ph.opts.Timing != TimingCapWire {
		return true
	}
	lib := ph.in.Lib
	if ph.inbound {
		r := lib.Of(netlist.GateDFF).DriveResKOhm
		deltaPS := r * (lib.DriverWireCapFF(lib.TestBufferDistUM) + lib.Of(netlist.GateMux2).InputCapFF)
		return deltaPS <= ph.opts.SlackSpendFrac*ph.in.Timing.SlackPS(ff)
	}
	d := ph.in.Netlist.Gate(ff).Fanin[0]
	mux := lib.Of(netlist.GateMux2)
	muxDelay := mux.IntrinsicPS + mux.DriveResKOhm*lib.Of(netlist.GateDFF).InputCapFF
	return muxDelay <= ph.in.Timing.SlackPS(d)-ph.opts.SlackThPS
}

// Edge verdicts recorded by the parallel sweep and replayed serially.
const (
	edgeNone uint8 = iota
	edgeClean
	edgeOverlap
)

// verdictPool recycles the O(items × nodes) verdict buffer across phases
// and runs — at a few MB per large die it is the single biggest transient
// allocation outside the bitsets.
var verdictPool sync.Pool

// getVerdicts returns an uninitialized buffer: the parallel sweep writes
// every slot before the serial replay reads any, so no zeroing pass is
// needed.
func getVerdicts(n int) []uint8 {
	if v, _ := verdictPool.Get().(*[]uint8); v != nil && cap(*v) >= n {
		return (*v)[:n]
	}
	return make([]uint8, n)
}

func putVerdicts(v []uint8) {
	v = v[:0]
	verdictPool.Put(&v)
}

// edgeVerdict evaluates one pair for the parallel sweep.
func (ph *phaseRunner) edgeVerdict(a, b int) uint8 {
	ok, overlap := ph.edgeAllowed(a, b)
	switch {
	case !ok:
		return edgeNone
	case overlap:
		return edgeOverlap
	default:
		return edgeClean
	}
}

// edgeAllowed evaluates Algorithm 1's edge conditions for two graph nodes.
// It performs only reads (graph nodes, precomputed cones, the netlist), so
// the edge sweep may call it from many workers at once.
func (ph *phaseRunner) edgeAllowed(a, b int) (ok, overlap bool) {
	na, nb := ph.graph.Node(a), ph.graph.Node(b)
	// Distance threshold: the merged clique's span must stay within d_th
	// so no member's test wiring runs farther than that.
	if !math.IsInf(ph.opts.DistThUM, 1) && ph.in.Placement != nil {
		if wcmgraph.BBoxUnionDiameter(na, nb) >= ph.opts.DistThUM {
			return false, false
		}
	}
	// The pair must be mergeable at all under the load bound, otherwise
	// the edge only wastes partitioning effort.
	if !ph.mergeFits(na, nb) {
		return false, false
	}
	// Cone conditions.
	if ph.nodeAnchor[a] == ph.nodeAnchor[b] {
		return false, false // identical signal: XOR folding would cancel
	}
	// Overlap means shared combinational logic; shared sources (a PI
	// feeding both cones, a flip-flop read by both) are independently
	// controllable and do not make sharing unsafe by themselves — the
	// precomputed masked cones have sources already stripped.
	ca, cb := ph.nodeMasked[a], ph.nodeMasked[b]
	if !ca.Intersects(cb) {
		return true, false
	}
	if !ph.opts.AllowOverlap {
		return false, false
	}
	covLoss, patInc := SharePenalty(ph.in.Netlist, ca.IntersectCount(cb))
	if covLoss < ph.opts.CovThFrac && patInc < ph.opts.PatThCount {
		return true, true
	}
	return false, false
}

// coneOf returns the sharing-relevant cone of a (non-merged) graph node.
func (ph *phaseRunner) coneOf(id int) *netlist.BitSet {
	n := ph.in.Netlist
	node := ph.graph.Node(id)
	if node.HasFF {
		ff := netlist.SignalID(node.FF)
		if ph.inbound {
			return ph.cones.Fanout(ff)
		}
		return ph.cones.Fanin(n.Gate(ff).Fanin[0])
	}
	sig := ph.tsvSignals[node.Members[0]]
	if ph.inbound {
		return ph.cones.Fanout(sig)
	}
	return ph.cones.Fanin(sig)
}

// anchor returns the signal a node anchors on. Two nodes can share an
// anchor on the outbound side, when a flip-flop's D driver also feeds a
// TSV port; such pairs never get an edge.
func (ph *phaseRunner) anchor(id int) netlist.SignalID {
	node := ph.graph.Node(id)
	if node.HasFF {
		if ph.inbound {
			return netlist.SignalID(node.FF)
		}
		return ph.in.Netlist.Gate(netlist.SignalID(node.FF)).Fanin[0]
	}
	return ph.tsvSignals[node.Members[0]]
}

// partition runs paper Algorithm 2: repeatedly take the minimum-degree
// node and its minimum-degree neighbor; merge them when the merged clique
// fits the load bound, otherwise delete the edge; stop when no edges
// remain.
func (ph *phaseRunner) partition(stats *PhaseStats) error {
	g := ph.graph
	for {
		var n1, n2 int
		var ok bool
		if ph.opts.Merge == MergeFirstEdge {
			n1, n2, ok = g.FirstEdgePair()
		} else {
			n1, n2, ok = g.MinDegreePair()
		}
		if !ok {
			return nil
		}
		if ph.mergeFits(g.Node(n1), g.Node(n2)) {
			if _, err := g.Merge(n1, n2); err != nil {
				return err
			}
			stats.Merges++
		} else {
			g.DeleteEdge(n1, n2)
			stats.EdgeDeletes++
		}
	}
}

// mergeFits applies the merge test of Algorithm 2 ("cap + 1 < cap_th")
// to the post-bond drive load a shared wrapper cell must supply. Every
// member TSV adds the same load and a flip-flop adds none, so the bound
// is a member count. Span is policed by d_th at edge construction, and
// the functional costs of sharing are per node (the item filters and
// ffEligible): buffered test routing keeps them from growing with the
// clique.
func (ph *phaseRunner) mergeFits(a, b *wcmgraph.Node) bool {
	return len(a.Members)+len(b.Members) <= ph.maxMembers
}

// emitGroup appends one clique to the plan.
func (ph *phaseRunner) emitGroup(asn *scan.Assignment, ff netlist.SignalID, members []int32) {
	if ph.inbound {
		grp := scan.ControlGroup{ReusedFF: ff}
		for _, m := range members {
			grp.TSVs = append(grp.TSVs, ph.tsvSignals[m])
		}
		asn.Control = append(asn.Control, grp)
		return
	}
	grp := scan.ObserveGroup{ReusedFF: ff}
	for _, m := range members {
		grp.Ports = append(grp.Ports, ph.tsvPorts[m])
	}
	asn.Observe = append(asn.Observe, grp)
}
