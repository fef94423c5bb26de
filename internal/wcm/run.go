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
	// The node arrays describe the phase's nodes by id — items in
	// admission order [0, len(items)), then flip-flops — so the O(n²)
	// edge sweep does array loads per pair instead of map lookups.
	// nodeAnchor is the cone anchor, nodePlaced the signal whose placed
	// cell d_th measures (a flip-flop's own cell, also on the observe
	// side where its anchor is the D driver), and nodeMasked the cone
	// with shared-source signals already stripped (cone &^ sourceMask),
	// so the pair test is one AND per word instead of a double-mask pass.
	nodeAnchor []netlist.SignalID
	nodePlaced []netlist.SignalID
	nodeMasked []*netlist.BitSet
	// nodeSlot maps node id to the session memo slot (memo != nil).
	nodeSlot []int32
}

func (ph *phaseRunner) run(asn *scan.Assignment) (PhaseStats, error) {
	stats := PhaseStats{Inbound: ph.inbound}
	defer func() {
		if ph.graph != nil {
			ph.graph.Release() // adjacency rows back to the word pools
		}
	}()
	if err := ph.buildGraph(&stats); err != nil {
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
	for _, i := range ph.excluded {
		ph.emitGroup(asn, netlist.InvalidSignal, []int32{int32(i)})
	}
	return stats, nil
}

// collect runs Algorithm 1's item collection and node filters (lines
// 1-14) plus flip-flop eligibility, leaving the phase's membership lists
// in ph.items/ph.excluded/ph.ffs. Idempotent: the session probes a
// phase's membership before deciding whether to replay it from cache, and
// sweep reuses the collected lists.
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

// sweep runs Algorithm 1 up to its edge verdicts — item collection and
// node filters, cone precomputation, the node arrays, and the parallel
// edge sweep (lines 16-26) — and returns the verdict table every sharing
// graph is loaded from. The caller releases the table.
func (ph *phaseRunner) sweep() *verdictTable {
	n := ph.in.Netlist
	ph.collect()
	nItems := len(ph.items)
	nNodes := nItems + len(ph.ffs)
	ph.nodeAnchor = make([]netlist.SignalID, nNodes)
	ph.nodePlaced = make([]netlist.SignalID, nNodes)
	for id, i := range ph.items {
		ph.nodeAnchor[id] = ph.tsvSignals[i]
		ph.nodePlaced[id] = ph.tsvSignals[i]
	}
	for k, ff := range ph.ffs {
		// An observe-side flip-flop shares through its D input: its cone
		// and anchor are its D driver's.
		anchor := ff
		if !ph.inbound {
			anchor = n.Gate(ff).Fanin[0]
		}
		ph.nodeAnchor[nItems+k] = anchor
		ph.nodePlaced[nItems+k] = ff
	}

	// Cones: fan-out side for control sharing, fan-in side for
	// observation sharing. A session run only traverses cones its memo
	// has never seen; everything else is served from the cached masked
	// cones.
	var coneSignals []netlist.SignalID
	for id, sig := range ph.nodeAnchor {
		if ph.memo == nil {
			coneSignals = append(coneSignals, sig)
		} else if _, ok := ph.memo.slots[ph.slotKey(id)]; !ok {
			coneSignals = append(coneSignals, sig)
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
	ph.nodeMasked = make([]*netlist.BitSet, nNodes)
	if ph.memo != nil {
		return ph.sweepSession(nNodes)
	}
	par.Do(ph.opts.Workers, nNodes, func(_, id int) {
		ph.nodeMasked[id] = ph.coneOf(id).AndNotInto(ph.sourceMask, ph.arena.NewBitSet(n.NumGates()))
	})

	// ----- Edge construction. The pair space is every item paired with
	// every later node: O(items × (items + ffs)) evaluations of
	// edgeAllowed, pure reads over the node arrays. Rows are striped
	// across a worker pool, each worker writing verdicts into its rows of
	// a flat triangle, so the table is identical at every worker count.
	vt := &verdictTable{nItems: nItems, nNodes: nNodes}
	vt.tri = getVerdicts(vt.triOffset(nItems))
	par.Do(ph.opts.Workers, nItems, func(_, a int) {
		row := vt.tri[vt.triOffset(a):]
		for b := a + 1; b < nNodes; b++ {
			row[b-a-1] = ph.edgeVerdict(a, b)
		}
	})
	return vt
}

// sweepSession is the sweep of a session run. The memo's verdict matrix
// is the authoritative, order-independent edge set: only unknown cells
// (pairs involving a slot the memo has never priced, or old slots never
// co-present in one run) are computed and filled in.
func (ph *phaseRunner) sweepSession(nNodes int) *verdictTable {
	n := ph.in.Netlist
	memo := ph.memo
	nItems := len(ph.items)
	ph.nodeSlot = make([]int32, nNodes)
	for id := 0; id < nNodes; id++ {
		slot, hit := memo.slotFor(ph.slotKey(id))
		ph.nodeSlot[id] = slot
		if !hit {
			// Plain allocation: the memoized masked cone outlives this
			// phase's arena.
			memo.masked[slot] = ph.coneOf(id).AndNotInto(ph.sourceMask, netlist.NewBitSet(n.NumGates()))
		}
		ph.nodeMasked[id] = memo.masked[slot]
	}
	memo.verd.ensure(len(memo.masked))
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
	return &verdictTable{nItems: nItems, nNodes: nNodes, memo: memo, slot: ph.nodeSlot}
}

// slotKey is node id's session memo key.
func (ph *phaseRunner) slotKey(id int) slotKey {
	if id < len(ph.items) {
		return slotKey{ff: false, sig: ph.nodeAnchor[id]}
	}
	return slotKey{ff: true, sig: ph.nodePlaced[id]}
}

// buildGraph sweeps the phase and loads the verdicts into the sharing
// graph ph.graph: one node per item, then one per flip-flop, so graph ids
// are node ids. Every node's adjacency row is written straight from the
// verdict table — row-local writes, so rows load in parallel at any
// worker count — and the degree indexes are derived in one pass, so the
// graph is identical at every worker count. Split from run so graph
// construction can be measured (BenchmarkGraphBuild) apart from the
// partitioner.
func (ph *phaseRunner) buildGraph(stats *PhaseStats) error {
	vt := ph.sweep()
	defer vt.release()
	stats.FilteredTSVs = len(ph.excluded)
	ph.graph = wcmgraph.New(vt.nNodes)
	for _, i := range ph.items {
		if _, err := ph.graph.AddNode(wcmgraph.Node{Members: []int32{int32(i)}}); err != nil {
			return err
		}
	}
	for _, ff := range ph.ffs {
		if _, err := ph.graph.AddNode(wcmgraph.Node{HasFF: true, FF: int32(ff)}); err != nil {
			return err
		}
	}
	stats.Nodes = vt.nNodes
	par.Do(ph.opts.Workers, vt.nNodes, func(_, id int) {
		adjRow, cleanRow := ph.graph.BulkRows(id)
		for b, end := 0, vt.rowEnd(id); b < end; b++ {
			if b == id {
				continue
			}
			switch vt.get(id, b) {
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

// Edge verdicts recorded by the sweep.
const (
	edgeNone uint8 = iota
	edgeClean
	edgeOverlap
)

// verdictTable is a phase's edge verdicts, the one source its sharing
// graph and its share model load from. Pairs are node ids with at least
// one item: flip-flop pairs are never in the pair space. A plain run
// keeps the verdicts in a per-run triangle whose row a holds the pairs
// (a, a+1 … nNodes-1) of item a; a session run reads its memo's
// slot × slot matrix.
type verdictTable struct {
	nItems, nNodes int
	tri            []uint8
	memo           *phaseMemo
	slot           []int32
}

// triOffset is the start of item row a in the triangle; triOffset(nItems)
// is the triangle's size.
func (vt *verdictTable) triOffset(a int) int {
	return a * (2*vt.nNodes - a - 1) / 2
}

// rowEnd bounds node id's pair partners: every node for an item, only
// the items for a flip-flop.
func (vt *verdictTable) rowEnd(id int) int {
	if id < vt.nItems {
		return vt.nNodes
	}
	return vt.nItems
}

// get returns the verdict of the pair (a, b), a ≠ b, in either order.
func (vt *verdictTable) get(a, b int) uint8 {
	if a > b {
		a, b = b, a
	}
	if vt.memo == nil {
		return vt.tri[vt.triOffset(a)+b-a-1]
	}
	sa, sb := vt.slot[a], vt.slot[b]
	if sa == sb {
		return edgeNone // one anchor: see sweepSession
	}
	return vt.memo.verd.get(sa, sb)
}

// release returns a plain run's triangle to the pool.
func (vt *verdictTable) release() {
	if vt.tri != nil {
		putVerdicts(vt.tri)
		vt.tri = nil
	}
}

// verdictPool recycles the O(items × nodes) verdict buffer across phases
// and runs — at a few MB per large die it is the single biggest transient
// allocation outside the bitsets.
var verdictPool sync.Pool

// getVerdicts returns an uninitialized buffer: the sweep writes every
// slot before any reader sees it, so no zeroing pass is needed.
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

// edgeAllowed evaluates Algorithm 1's edge conditions for the nodes a < b
// (a is always an item). It reads only the node arrays, the netlist and
// the placement, so the edge sweep may call it from many workers at once.
func (ph *phaseRunner) edgeAllowed(a, b int) (ok, overlap bool) {
	// Distance threshold: the pair's span must stay within d_th so no
	// member's test wiring runs farther than that.
	if !math.IsInf(ph.opts.DistThUM, 1) && ph.in.Placement != nil &&
		ph.in.Placement.Distance(ph.nodePlaced[a], ph.nodePlaced[b]) >= ph.opts.DistThUM {
		return false, false
	}
	// The pair must be mergeable at all under the load bound (mergeFits),
	// otherwise the edge only wastes partitioning effort: two items make
	// a two-member clique, an item and a flip-flop a one-member one.
	members := 2
	if b >= len(ph.items) {
		members = 1
	}
	if members > ph.maxMembers {
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

// coneOf returns the sharing-relevant cone of a node: fan-out on the
// control side, fan-in on the observe side, traversed from its anchor.
func (ph *phaseRunner) coneOf(id int) *netlist.BitSet {
	if ph.inbound {
		return ph.cones.Fanout(ph.nodeAnchor[id])
	}
	return ph.cones.Fanin(ph.nodeAnchor[id])
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
