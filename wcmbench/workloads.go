package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"wcm3d"
	"wcm3d/internal/cells"
	"wcm3d/internal/faults"
	"wcm3d/internal/netgen"
	"wcm3d/internal/netlist"
	"wcm3d/internal/place"
	"wcm3d/internal/scan"
	"wcm3d/internal/sta"
	"wcm3d/internal/wcm"
)

// largeDies are the three Table II dies every workload shares: one from each
// large family, each with hundreds of dedicated cells left after the greedy
// plan, and together covering the range of cone locality. The b18 dies are
// left out because one of them costs 6-14 s to prepare and up to 7 s to
// solve, which would leave a run too few passes for a steady median.
var largeDies = []string{"b20/1", "b21/2", "b22/2"}

// smallDies are the eight b11/b12 dies: cheap, but each a full prepare.
var smallDies = []string{"b11/0", "b11/1", "b11/2", "b11/3", "b12/0", "b12/1", "b12/2", "b12/3"}

// workload is one closed loop: a pass runs op on each die in turn, and the
// next operation starts when the previous one returns.
type workload struct {
	name string
	dies []string
	// setup builds what the timed passes consume; it runs several times
	// and only the last state is kept.
	setup func(r *runner) error
	op    func(r *runner, i int, tr *tracer) (dieResult, error)
}

var workloads = []workload{
	{name: "prepare", dies: append(slices.Clone(smallDies), largeDies...), setup: setupPrepare, op: prepareOp},
	{name: "solve", dies: largeDies, setup: setupSolve, op: solveOp},
	{name: "refine", dies: largeDies, setup: setupRefine, op: refineOp},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// dieResult is what one die operation leaves for the pass: the plan's
// cells and a signature of every count that must repeat exactly.
type dieResult struct {
	cells int
	sig   string
}

// refineOptions fix the portfolio's work: a per-strategy step cap and a
// wall budget that never binds, so plans and step counts repeat exactly.
// One worker runs the strategies in turn, so which strategy wins an
// equal-cost admission race is deterministic too.
func refineOptions(seed int64) wcm3d.RefineOptions {
	return wcm3d.RefineOptions{Budget: time.Hour, MaxSteps: 256, Seed: seed, Workers: 1}
}

// setupPrepare warms the heap and the netlist word pools with one die so the
// first timed pass does not pay for them; prepare has no other set-up.
func setupPrepare(r *runner) error {
	_, err := wcm3d.PrepareDie(r.profiles[len(r.profiles)-1], r.cfg.seed)
	return err
}

func setupSolve(r *runner) error {
	dies, err := wcm3d.PrepareSuite(r.profiles, r.cfg.seed)
	if err != nil {
		return err
	}
	r.dies = dies
	r.opts = make([]wcm3d.MinimizeOptions, len(dies))
	for i, d := range dies {
		r.opts[i] = wcm3d.OurOptions(d, wcm3d.TightTiming)
	}
	return nil
}

func setupRefine(r *runner) error {
	if err := setupSolve(r); err != nil {
		return err
	}
	r.greedy = make([]*wcm3d.MinimizeResult, len(r.dies))
	for i, d := range r.dies {
		res, err := wcm3d.MinimizeWith(d, r.opts[i])
		if err != nil {
			return fmt.Errorf("greedy plan for %s: %w", r.profiles[i].Name(), err)
		}
		r.greedy[i] = res
	}
	return nil
}

// prepareOp prepares one die cold. Untraced it calls wcm3d.PrepareDie; traced
// it replays PrepareDie's stage calls with a span around each and checks the
// replayed die against the last untraced output, so a replay that drifts
// from the library fails loudly.
func prepareOp(r *runner, i int, tr *tracer) (dieResult, error) {
	p := r.profiles[i]
	if tr == nil {
		d, err := wcm3d.PrepareDie(p, r.cfg.seed)
		if err != nil {
			return dieResult{}, err
		}
		if r.cfg.trace {
			r.prepared[i] = d
		}
		st := netlist.CollectStats(d.Netlist)
		if err := checkProfile(p, st, repeaters(d.Netlist)); err != nil {
			return dieResult{}, err
		}
		return dieResult{cells: st.TSVs(), sig: fmt.Sprintf("%+v faults=%d/%d", st, len(d.StuckAt), len(d.Transition))}, nil
	}
	rep, err := replayPrepare(p, r.cfg.seed, tr)
	if err != nil {
		return dieResult{}, err
	}
	st := netlist.CollectStats(rep.netlist)
	if err := checkProfile(p, st, repeaters(rep.netlist)); err != nil {
		return dieResult{}, err
	}
	if err := rep.matches(r.prepared[i]); err != nil {
		return dieResult{}, err
	}
	return dieResult{cells: st.TSVs(), sig: fmt.Sprintf("%+v faults=%d/%d", st, rep.stuckAt, rep.transition)}, nil
}

// replica is what the traced replay of die preparation produces.
type replica struct {
	netlist             *netlist.Netlist
	clockPS, marginPS   float64
	arrival, required   []float64
	stuckAt, transition int
}

// replayPrepare mirrors experiments.PrepareNetlistOpts call by call.
func replayPrepare(p wcm3d.Profile, seed int64, tr *tracer) (*replica, error) {
	var n *netlist.Netlist
	if err := tr.do("netgen.generate", func() (err error) {
		n, err = netgen.Generate(p, seed)
		return err
	}); err != nil {
		return nil, err
	}
	tr.add("netgen.gates", float64(n.NumLogicGates()))
	lib := cells.Default45nm()
	var pl *place.Placement
	if err := tr.do("place.place", func() (err error) {
		pl, err = place.Place(n, place.Options{Seed: seed})
		return err
	}); err != nil {
		return nil, err
	}
	before := n.NumGates()
	if err := tr.do("place.repeaters", func() error { return place.InsertRepeaters(n, pl, lib) }); err != nil {
		return nil, err
	}
	tr.add("place.repeaters_added", float64(n.NumGates()-before))
	var fn *netlist.Netlist
	var fpl *place.Placement
	if err := tr.do("scan.functional_mode", func() (err error) {
		fn, fpl, err = scan.ApplyFunctionalMode(n, pl, lib, scan.FullWrap(n))
		return err
	}); err != nil {
		return nil, err
	}
	var tie []netlist.SignalID
	if id, ok := fn.SignalByName(scan.TestEnableName); ok {
		tie = []netlist.SignalID{id}
	}
	analyze := func(n *netlist.Netlist, cfg sta.Config) (res *sta.Result, err error) {
		tr.add("sta.analyses", 1)
		err = tr.do("sta.analyze", func() error {
			res, err = sta.Analyze(n, lib, cfg)
			return err
		})
		return res, err
	}
	probe, err := analyze(fn, sta.Config{ClockPS: 1e9, Placement: fpl, TieLow: tie})
	if err != nil {
		return nil, err
	}
	const setupPS = 30
	cp := probe.CriticalPathPS()
	margin := 0.05 * cp
	clock := cp + setupPS + margin
	if _, err := analyze(n, sta.Config{ClockPS: clock, Placement: pl}); err != nil {
		return nil, err
	}
	fwTimed, err := analyze(fn, sta.Config{ClockPS: clock, Placement: fpl, TieLow: tie})
	if err != nil {
		return nil, err
	}
	rep := &replica{
		netlist:  n,
		clockPS:  clock,
		marginPS: margin,
		arrival:  fwTimed.ArrivalPS[:n.NumGates()],
		required: fwTimed.RequiredPS[:n.NumGates()],
	}
	_ = tr.do("faults.enumerate", func() error {
		rep.stuckAt = len(faults.CollapsedList(n))
		rep.transition = len(faults.TransitionList(n))
		return nil
	})
	tr.add("faults.count", float64(rep.stuckAt+rep.transition))
	return rep, nil
}

// matches compares the replay with wcm3d.PrepareDie's output for the same
// profile and seed.
func (rep *replica) matches(d *wcm3d.Die) error {
	if d == nil {
		return fmt.Errorf("no untraced die to compare the replay with")
	}
	if got, want := netlist.CollectStats(rep.netlist), netlist.CollectStats(d.Netlist); got != want {
		return fmt.Errorf("replayed netlist stats %+v, PrepareDie has %+v", got, want)
	}
	if rep.clockPS != d.ClockPS || rep.marginPS != d.MarginPS {
		return fmt.Errorf("replayed clock %v ps (margin %v), PrepareDie has %v (margin %v)",
			rep.clockPS, rep.marginPS, d.ClockPS, d.MarginPS)
	}
	if !slices.Equal(rep.arrival, d.Timing.ArrivalPS) || !slices.Equal(rep.required, d.Timing.RequiredPS) {
		return fmt.Errorf("replayed arrival/required times differ from PrepareDie's")
	}
	if rep.stuckAt != len(d.StuckAt) || rep.transition != len(d.Transition) {
		return fmt.Errorf("replayed fault lists %d/%d, PrepareDie has %d/%d",
			rep.stuckAt, rep.transition, len(d.StuckAt), len(d.Transition))
	}
	return nil
}

// repeaters counts the buffers place.InsertRepeaters added (it names them
// fbuf<n>); they are the only gates a prepared die has beyond its profile.
func repeaters(n *netlist.Netlist) int {
	c := 0
	for i := range n.Gates {
		if n.Gates[i].Type == netlist.GateBuf && strings.HasPrefix(n.Gates[i].Name, "fbuf") {
			c++
		}
	}
	return c
}

// checkProfile compares a prepared die's counters with its Table II profile.
func checkProfile(p wcm3d.Profile, st netlist.Stats, repeaters int) error {
	got := [...]int{st.ScanFFs, st.LogicGates - repeaters, st.InboundTSVs, st.OutboundTSVs, st.PIs, st.POs}
	want := [...]int{p.ScanFFs, p.Gates, p.InboundTSVs, p.OutboundTSVs, p.PIs, p.POs}
	if got != want {
		return fmt.Errorf("stats (FFs, gates, in, out, PIs, POs) = %v, profile has %v", got, want)
	}
	return nil
}

// solveOp runs the greedy plan under the paper's tight configuration and
// verifies it with signoff. Traced, it also replays the cone build wcm.Run
// performs (see replayCones).
func solveOp(r *runner, i int, tr *tracer) (dieResult, error) {
	d, opts := r.dies[i], r.opts[i]
	if tr != nil {
		replayCones(d.Netlist, opts.Workers, tr)
	}
	var res *wcm3d.MinimizeResult
	if err := tr.do("wcm.run", func() (err error) {
		res, err = wcm3d.MinimizeWith(d, opts)
		return err
	}); err != nil {
		return dieResult{}, err
	}
	if r.cfg.mutate != nil {
		r.cfg.mutate(res)
	}
	if err := verifyPlan(d, res, tr); err != nil {
		return dieResult{}, err
	}
	name := r.profiles[i].Name()
	if want, ok := r.want[name]; ok && res.AdditionalCells != want {
		return dieResult{}, fmt.Errorf("%d cells, results/table3.txt has %d at seed 1", res.AdditionalCells, want)
	}
	pairs := 0
	for _, ph := range res.Phases {
		tr.add("wcm.nodes", float64(ph.Nodes))
		tr.add("wcm.edges", float64(ph.Edges))
		tr.add("wcm.overlap_edges", float64(ph.OverlapEdges))
		tr.add("wcm.filtered_tsvs", float64(ph.FilteredTSVs))
		tr.add("wcm.merges", float64(ph.Merges))
		tr.add("wcm.edge_deletes", float64(ph.EdgeDeletes))
		tr.add("wcm.cliques", float64(ph.Cliques))
		pairs += ph.Nodes * (ph.Nodes - 1) / 2
	}
	tr.add("wcm.node_pairs", float64(pairs))
	return dieResult{cells: res.AdditionalCells, sig: fmt.Sprintf("%+v cells=%d reused=%d", res.Phases, res.AdditionalCells, res.ReusedFFs)}, nil
}

// replayCones builds the cones wcm.Run's two phases build, for every TSV
// and flip-flop rather than only those that pass the node filters, so
// netlist.NewConeSet gets a span of its own. Like wcm.Run it draws the
// bitsets from an arena and hands them back after each phase, so the
// replay leaves no garbage for the timed call that follows.
func replayCones(n *netlist.Netlist, workers int, tr *tracer) {
	var in, out []netlist.SignalID
	in = append(in, n.InboundTSVs()...)
	for _, p := range n.OutboundTSVs() {
		out = append(out, n.Outputs[p].Signal)
	}
	for _, ff := range n.FlipFlops() {
		in = append(in, ff)
		out = append(out, n.Gate(ff).Fanin[0])
	}
	_ = tr.do("netlist.cones", func() error {
		arena := netlist.NewArena()
		for _, sigs := range [][]netlist.SignalID{in, out} {
			netlist.NewConeSetArena(n, sigs, workers, arena)
			arena.Release()
		}
		return nil
	})
}

// verifyPlan certifies a plan against the configuration it claims, with
// functional-mode signoff.
func verifyPlan(d *wcm3d.Die, res *wcm3d.MinimizeResult, tr *tracer) error {
	var vr *wcm3d.VerifyResult
	if err := tr.do("verify.plan", func() (err error) {
		vr, err = wcm3d.VerifyPlan(d, res, wcm3d.VerifyOptions{Signoff: true})
		return err
	}); err != nil {
		return err
	}
	if !vr.OK() {
		return fmt.Errorf("plan fails verification: %v", vr.Violations[0])
	}
	return nil
}

// refineOp runs the solver portfolio over the greedy plan from set-up and
// verifies the winner. Traced, it also replays the timing refresh and the
// sharing-model build refine.Run starts with, so wcm.BuildShareModel gets a
// span of its own.
func refineOp(r *runner, i int, tr *tracer) (dieResult, error) {
	d, opts, greedy := r.dies[i], r.opts[i], r.greedy[i]
	if tr != nil {
		if err := replayShareModel(d, opts, greedy, tr); err != nil {
			return dieResult{}, err
		}
	}
	var rr *wcm3d.RefineResult
	if err := tr.do("refine.run", func() (err error) {
		rr, err = wcm3d.Refine(context.Background(), d, opts, greedy, refineOptions(r.cfg.seed))
		return err
	}); err != nil {
		return dieResult{}, err
	}
	winner := &wcm3d.MinimizeResult{
		Assignment:      rr.Assignment,
		ReusedFFs:       rr.ReusedFFs,
		AdditionalCells: rr.AdditionalCells,
		Options:         greedy.Options,
	}
	if r.cfg.mutate != nil {
		r.cfg.mutate(winner)
	}
	if err := verifyPlan(d, winner, tr); err != nil {
		return dieResult{}, err
	}
	if rr.AdditionalCells > greedy.AdditionalCells {
		return dieResult{}, fmt.Errorf("refined plan has %d cells, greedy had %d", rr.AdditionalCells, greedy.AdditionalCells)
	}
	var sig strings.Builder
	fmt.Fprintf(&sig, "cells=%d winner=%s", rr.AdditionalCells, rr.Strategy)
	for _, s := range rr.Strategies {
		if s.Deadline || s.Err != "" {
			return dieResult{}, fmt.Errorf("strategy %s: deadline=%v err=%q", s.Name, s.Deadline, s.Err)
		}
		tr.add("refine."+s.Name+".steps", float64(s.Steps))
		tr.add("refine.proposed", float64(s.Proposed))
		tr.add("refine.admitted", float64(s.Admitted))
		tr.add("refine.rejected", float64(s.Rejected))
		tr.add("refine.stale", float64(s.Stale))
		tr.add("refine.verify_calls", float64(s.Admitted+s.Rejected+s.Stale))
		fmt.Fprintf(&sig, " %+v", s)
	}
	tr.add("refine.cells_saved", float64(rr.CellsSaved))
	if rr.Improved {
		tr.add("refine.wins."+rr.Strategy, 1)
	}
	return dieResult{cells: rr.AdditionalCells, sig: sig.String()}, nil
}

// replayShareModel mirrors the set-up refine.Run performs before searching:
// refresh timing against the greedy plan's first-phase hardware, then build
// the sharing model.
func replayShareModel(d *wcm3d.Die, opts wcm3d.MinimizeOptions, greedy *wcm3d.MinimizeResult, tr *tracer) error {
	in := d.Input()
	partial := &scan.Assignment{}
	if len(greedy.Phases) > 0 && greedy.Phases[0].Inbound {
		partial.Control = greedy.Assignment.Control
	} else {
		partial.Observe = greedy.Assignment.Observe
	}
	var second *sta.Result
	tr.add("sta.analyses", 1)
	if err := tr.do("sta.analyze", func() (err error) {
		second, err = in.RefreshTiming(partial)
		return err
	}); err != nil {
		return err
	}
	return tr.do("wcm.share_model", func() error {
		_, err := wcm.BuildShareModel(in, opts.WithDefaults(), second)
		return err
	})
}

// table3Cells reads the ours/tight cell column of results/table3.txt, the
// committed seed-1 plans.
func table3Cells(root string) (map[string]int, error) {
	f, err := os.Open(filepath.Join(root, "results", "table3.txt"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	want := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 10 || !strings.Contains(fields[0], "/Die") {
			continue
		}
		// The last column is the optional violation mark; ours/tight
		// cells is the last number on the row.
		last := fields[len(fields)-1]
		if last == "X" {
			last = fields[len(fields)-2]
		}
		v, err := strconv.Atoi(last)
		if err != nil {
			return nil, fmt.Errorf("results/table3.txt: %q: %w", sc.Text(), err)
		}
		want[fields[0]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(want) == 0 {
		return nil, fmt.Errorf("results/table3.txt: no die rows")
	}
	return want, nil
}
