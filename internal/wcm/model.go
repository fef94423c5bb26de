package wcm

import (
	"wcm3d/internal/netlist"
	"wcm3d/internal/par"
	"wcm3d/internal/sta"
)

// ShareModel is the two-phase sharing problem a WCM run partitions, exported
// as data: per phase, the TSV items admitted to the sharing graph (plus the
// ones excluded to dedicated cells), the pairwise edge-admissibility between
// items, and every flip-flop eligible for reuse with its per-item
// adjacency. The model is what the anytime refinement layer
// (internal/refine) searches over — a candidate plan is a partition of each
// phase's items into pairwise-adjacent blocks under the load budget, plus an
// assignment of flip-flops to blocks they are adjacent to.
//
// The model is read from the same Algorithm 1 edge sweep wcm.Run loads its
// sharing graph from (cones, thresholds, node filters, one verdict per
// pair), without building a graph, so its edges are exactly the edges the
// greedy partitioner saw — with one deliberate difference: every eligible
// flip-flop appears in both phases' candidate lists. Cross-phase
// exclusivity (a flip-flop reused by phase one is gone for phase two) is a
// matching constraint for the consumer, not baked into the model.
type ShareModel struct {
	// Opts echoes the effective configuration (WithDefaults applied).
	Opts Options
	// Phases holds both sides in processing order (Phases[0] is the set
	// the configured OrderPolicy handles first).
	Phases [2]*SharePhase
}

// SharePhase is one TSV set's sharing problem.
type SharePhase struct {
	// Inbound reports which TSV set the phase covers.
	Inbound bool
	// Items are the TSVs admitted to the sharing graph.
	Items []ShareItem
	// Excluded are the TSVs the node filters routed to dedicated wrapper
	// cells; they are fixed singletons in every plan.
	Excluded []ShareItem
	// ItemAdj[i] lists the item indices j adjacent to item i (Algorithm
	// 1's edge conditions hold for the pair), sorted ascending. The
	// relation is symmetric and irreflexive.
	ItemAdj [][]int32
	// FFs are the flip-flops eligible for reuse in this phase, with their
	// item adjacency.
	FFs []ShareFF
	// MaxMembers is the largest item count a shared group may hold: the
	// greedy partitioner's own bound, the largest k with k × (TSV pillar
	// plus a mux or XOR pin) strictly under cap_th, capped at len(Items).
	MaxMembers int
}

// ShareItem identifies one TSV of a phase.
type ShareItem struct {
	// Sig is the pad signal (inbound) or the observed port's driving
	// signal (outbound).
	Sig netlist.SignalID
	// Port is the outbound port index, -1 on the inbound side.
	Port int
}

// ShareFF is one reuse-eligible flip-flop of a phase.
type ShareFF struct {
	// Sig is the flip-flop's signal.
	Sig netlist.SignalID
	// Adj lists the item indices the flip-flop may share a group with,
	// sorted ascending.
	Adj []int32
}

// BuildShareModel extracts the sharing problem wcm.Run would solve for the
// input. The first phase prices against in.Timing; the second against
// secondTiming when non-nil (callers with a RefreshTiming pipeline pass the
// analysis refreshed from the first phase's committed hardware), falling
// back to in.Timing. Every scan flip-flop is treated as available in both
// phases — consumers enforce one-reuse-per-flip-flop across the whole plan.
func BuildShareModel(in Input, opts Options, secondTiming *sta.Result) (*ShareModel, error) {
	opts = opts.withDefaults()
	if err := in.validate(opts); err != nil {
		return nil, err
	}
	n := in.Netlist
	firstInbound := opts.Order.inboundFirst(len(n.InboundTSVs()), len(n.OutboundTSVs()))
	m := &ShareModel{Opts: opts}
	timings := [2]*sta.Result{in.Timing, in.Timing}
	if secondTiming != nil {
		timings[1] = secondTiming
	}
	for pi, inbound := range [2]bool{firstInbound, !firstInbound} {
		phIn := in
		phIn.Timing = timings[pi]
		m.Phases[pi] = buildSharePhase(phIn, opts, inbound)
	}
	return m, nil
}

// buildSharePhase runs one phase's Algorithm 1 edge sweep with every
// flip-flop available and reads the verdicts back as plain data. Node ids
// are the sweep's: items in admission order, then flip-flops.
func buildSharePhase(in Input, opts Options, inbound bool) *SharePhase {
	n := in.Netlist
	available := make(map[netlist.SignalID]bool, len(n.FlipFlops()))
	for _, ff := range n.FlipFlops() {
		available[ff] = true
	}
	ph := &phaseRunner{in: in, opts: opts, inbound: inbound, available: available}
	vt := ph.sweep()
	defer vt.release()
	sp := &SharePhase{Inbound: inbound, MaxMembers: ph.maxMembers}
	itemOf := func(i int) ShareItem {
		it := ShareItem{Sig: ph.tsvSignals[i], Port: -1}
		if !inbound {
			it.Port = ph.tsvPorts[i]
		}
		return it
	}
	for _, i := range ph.items {
		sp.Items = append(sp.Items, itemOf(i))
	}
	for _, i := range ph.excluded {
		sp.Excluded = append(sp.Excluded, itemOf(i))
	}
	nItems := len(ph.items)
	sp.ItemAdj = make([][]int32, nItems)
	if len(ph.ffs) > 0 {
		sp.FFs = make([]ShareFF, len(ph.ffs))
	}
	// Every node's adjacency lists only items, sorted ascending; rows are
	// independent, so they read in parallel.
	par.Do(opts.Workers, vt.nNodes, func(_, id int) {
		var adj []int32
		for nb := 0; nb < nItems; nb++ {
			if nb != id && vt.get(id, nb) != edgeNone {
				adj = append(adj, int32(nb))
			}
		}
		if id < nItems {
			sp.ItemAdj[id] = adj
		} else {
			sp.FFs[id-nItems] = ShareFF{Sig: ph.ffs[id-nItems], Adj: adj}
		}
	})
	return sp
}
