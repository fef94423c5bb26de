package wcm

import (
	"math"
	"slices"
	"testing"

	"wcm3d/internal/scan"

	"wcm3d/internal/cells"
	"wcm3d/internal/netgen"
	"wcm3d/internal/netlist"
	"wcm3d/internal/place"
	"wcm3d/internal/sta"
)

// prep builds a placed, timed die with the given profile knobs.
func prep(t testing.TB, gates, ffsN, in, out int, seed int64) Input {
	t.Helper()
	n, err := netgen.Random(netgen.RandomOptions{
		Gates: gates, FFs: ffsN, PIs: 5, POs: 3,
		InboundTSVs: in, OutboundTSVs: out, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	lib := cells.Default45nm()
	pl, err := place.Place(n, place.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	// Loose clock: plenty of slack everywhere.
	base, err := sta.Analyze(n, lib, sta.Config{ClockPS: 1e5, Placement: pl})
	if err != nil {
		t.Fatal(err)
	}
	return Input{Netlist: n, Lib: lib, Placement: pl, Timing: base}
}

func TestRunProducesValidCoveringPlan(t *testing.T) {
	in := prep(t, 300, 12, 8, 8, 1)
	res, err := Run(in, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Assignment.Validate(in.Netlist); err != nil {
		t.Fatalf("invalid plan: %v", err)
	}
	if !res.Assignment.Covered(in.Netlist) {
		t.Error("plan must cover every TSV")
	}
	if res.ReusedFFs == 0 {
		t.Error("expected some flip-flop reuse on a loose-timing die")
	}
	total := res.ReusedFFs + res.AdditionalCells
	_ = total
	if len(res.Phases) != 2 {
		t.Fatalf("phases = %d, want 2", len(res.Phases))
	}
}

func TestReuseBeatsFullWrap(t *testing.T) {
	// The whole point: fewer additional cells than one-per-TSV.
	in := prep(t, 400, 20, 12, 12, 3)
	res, err := Run(in, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.AdditionalCells >= 24 {
		t.Errorf("additional cells = %d, want < 24 (full wrap)", res.AdditionalCells)
	}
}

func TestOrderPolicyRespected(t *testing.T) {
	in := prep(t, 300, 12, 4, 10, 5) // outbound larger
	res, err := Run(in, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases[0].Inbound {
		t.Error("larger-first must process the outbound set first here")
	}
	opts := DefaultOptions()
	opts.Order = OrderInboundFirst
	res2, err := Run(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Phases[0].Inbound {
		t.Error("inbound-first must process inbound first")
	}
	opts.Order = OrderSmallerFirst
	res3, err := Run(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res3.Phases[0].Inbound {
		t.Error("smaller-first must process the inbound set first here")
	}
}

func TestOverlapExpandsSolutionSpace(t *testing.T) {
	// Figure 7's claim: allowing overlapped cones adds edges, and the
	// extra freedom never increases additional wrapper cells.
	in := prep(t, 500, 16, 14, 14, 7)
	on := DefaultOptions()
	off := DefaultOptions()
	off.AllowOverlap = false
	rOn, err := Run(in, on)
	if err != nil {
		t.Fatal(err)
	}
	rOff, err := Run(in, off)
	if err != nil {
		t.Fatal(err)
	}
	if rOn.TotalEdges() < rOff.TotalEdges() {
		t.Errorf("overlap must not shrink the graph: %d < %d", rOn.TotalEdges(), rOff.TotalEdges())
	}
	if rOff.TotalOverlapEdges() != 0 {
		t.Error("no-overlap run must have zero overlap edges")
	}
	if rOn.TotalOverlapEdges() == 0 {
		t.Log("note: no overlap edges admitted on this die (thresholds tight)")
	}
}

func TestTightCapThresholdForcesDedicatedCells(t *testing.T) {
	in := prep(t, 300, 12, 8, 8, 9)
	opts := DefaultOptions()
	opts.CapThFF = 1e-3 // nothing can share or even enter the graph
	res, err := Run(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	// cap_th gates the inbound side only: every control group must be a
	// dedicated cell; the outbound side is governed by slack.
	for _, g := range res.Assignment.Control {
		if g.Reused() {
			t.Errorf("inbound reuse under an impossible cap threshold")
		}
	}
	if res.AdditionalCells < 8 {
		t.Errorf("additional cells = %d, want >= 8 (one per inbound TSV)", res.AdditionalCells)
	}
}

// TestCapThresholdBoundary pins Algorithm 2's merge rule at its edge: a
// clique of k TSVs fits iff k × itemLoad < cap_th, so cap_th = 3 × itemLoad
// caps every group at 2 TSVs and one hundredth of a femtofarad more admits
// 3 on the control side (an observe-side item is heavier by the XOR-mux
// pin difference, so 3 × 26.8 fF stays over either threshold). The share
// model exports the same bound. internal/verify's TestCertifyWCMPlans
// certifies plans at both thresholds with the verifier's own load sum.
func TestCapThresholdBoundary(t *testing.T) {
	in := prep(t, 400, 20, 12, 12, 3)
	itemLoad := in.Lib.TSVCapFF + in.Lib.Of(netlist.GateMux2).InputCapFF
	for _, tc := range []struct {
		capTh         float64
		inMax, outMax int
	}{
		{3 * itemLoad, 2, 2},
		{3*itemLoad + 0.01, 3, 2},
	} {
		opts := DefaultOptions()
		opts.CapThFF = tc.capTh
		res, err := Run(in, opts)
		if err != nil {
			t.Fatal(err)
		}
		inLargest, outLargest := 0, 0
		for _, g := range res.Assignment.Control {
			inLargest = max(inLargest, len(g.TSVs))
		}
		for _, g := range res.Assignment.Observe {
			outLargest = max(outLargest, len(g.Ports))
		}
		if inLargest != tc.inMax || outLargest != tc.outMax {
			t.Errorf("cap_th %v: largest groups %d inbound / %d outbound, want %d / %d",
				tc.capTh, inLargest, outLargest, tc.inMax, tc.outMax)
		}
		model, err := BuildShareModel(in, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range model.Phases {
			want := tc.outMax
			if sp.Inbound {
				want = tc.inMax
			}
			if sp.MaxMembers != want {
				t.Errorf("cap_th %v: inbound=%v MaxMembers = %d, want %d", tc.capTh, sp.Inbound, sp.MaxMembers, want)
			}
		}
	}
}

func TestSlackThresholdFiltersOutbound(t *testing.T) {
	in := prep(t, 300, 12, 8, 8, 11)
	opts := DefaultOptions()
	opts.SlackThPS = math.Inf(1) // no outbound TSV has infinite slack
	res, err := Run(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	var outPhase *PhaseStats
	for i := range res.Phases {
		if !res.Phases[i].Inbound {
			outPhase = &res.Phases[i]
		}
	}
	if outPhase.FilteredTSVs != 8 {
		t.Errorf("filtered outbound TSVs = %d, want 8", outPhase.FilteredTSVs)
	}
	if !res.Assignment.Covered(in.Netlist) {
		t.Error("filtered TSVs still need dedicated wrapper cells")
	}
}

func TestCapWireStricterThanCapOnly(t *testing.T) {
	// With wire costs included, the same thresholds admit at most as
	// many edges.
	in := prep(t, 400, 16, 10, 10, 13)
	wire := DefaultOptions()
	wire.DistThUM = math.Inf(1)
	capOnly := wire
	capOnly.Timing = TimingCapOnly
	rWire, err := Run(in, wire)
	if err != nil {
		t.Fatal(err)
	}
	rCap, err := Run(in, capOnly)
	if err != nil {
		t.Fatal(err)
	}
	// First phase only: the second phase sees different leftover FFs.
	if rWire.Phases[0].Edges > rCap.Phases[0].Edges {
		t.Errorf("wire-aware first-phase edges %d > cap-only edges %d",
			rWire.Phases[0].Edges, rCap.Phases[0].Edges)
	}
}

func TestDistanceThresholdPrunesEdges(t *testing.T) {
	in := prep(t, 400, 16, 10, 10, 15)
	near := DefaultOptions()
	near.DistThUM = 30
	far := DefaultOptions()
	far.DistThUM = math.Inf(1)
	rNear, err := Run(in, near)
	if err != nil {
		t.Fatal(err)
	}
	rFar, err := Run(in, far)
	if err != nil {
		t.Fatal(err)
	}
	// Compare the first phase only: by the second phase the two runs
	// have consumed different flip-flop sets, so totals are not nested.
	if rNear.Phases[0].Edges >= rFar.Phases[0].Edges {
		t.Errorf("d_th=30µm first-phase edges %d, want < unlimited %d",
			rNear.Phases[0].Edges, rFar.Phases[0].Edges)
	}

	// Boundary: the test is distance < d_th, so a TSV–flip-flop pair
	// exactly d_th apart gets no edge and one ulp more of d_th admits it.
	model, err := BuildShareModel(in, far, nil)
	if err != nil {
		t.Fatal(err)
	}
	fi, item, dist := -1, int32(-1), 0.0
	for f, ff := range model.Phases[0].FFs {
		for _, k := range ff.Adj {
			if d := in.Placement.Distance(model.Phases[0].Items[k].Sig, ff.Sig); d > 0 {
				fi, item, dist = f, k, d
				break
			}
		}
		if fi >= 0 {
			break
		}
	}
	if fi < 0 {
		t.Fatal("no TSV–flip-flop edge at a positive distance")
	}
	for _, tc := range []struct {
		dth  float64
		want bool
	}{
		{dist, false},
		{math.Nextafter(dist, math.Inf(1)), true},
	} {
		opts := far
		opts.DistThUM = tc.dth
		m, err := BuildShareModel(in, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := slices.Contains(m.Phases[0].FFs[fi].Adj, item); got != tc.want {
			t.Errorf("pair %v apart, d_th %v: edge = %v, want %v", dist, tc.dth, got, tc.want)
		}
	}
}

func TestNoFFDoubleUseAcrossPhases(t *testing.T) {
	in := prep(t, 400, 6, 12, 12, 17) // few FFs, many TSVs: contention
	res, err := Run(in, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Assignment.Validate already rejects double use; belt and braces:
	seen := map[netlist.SignalID]bool{}
	for _, g := range res.Assignment.Control {
		if g.Reused() {
			if seen[g.ReusedFF] {
				t.Fatalf("FF %d reused twice", g.ReusedFF)
			}
			seen[g.ReusedFF] = true
		}
	}
	for _, g := range res.Assignment.Observe {
		if g.Reused() {
			if seen[g.ReusedFF] {
				t.Fatalf("FF %d reused twice", g.ReusedFF)
			}
			seen[g.ReusedFF] = true
		}
	}
}

func TestInputValidation(t *testing.T) {
	in := prep(t, 100, 4, 2, 2, 19)
	if _, err := Run(Input{}, DefaultOptions()); err == nil {
		t.Error("empty input must fail")
	}
	// Wire timing without placement must fail.
	noPl := in
	noPl.Placement = nil
	if _, err := Run(noPl, DefaultOptions()); err == nil {
		t.Error("wire timing without placement must fail")
	}
	// Cap-only without placement is fine when d_th is infinite.
	opts := DefaultOptions()
	opts.Timing = TimingCapOnly
	opts.DistThUM = math.Inf(1)
	baseNoPl, err := sta.Analyze(in.Netlist, in.Lib, sta.Config{ClockPS: 1e5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Input{Netlist: in.Netlist, Lib: in.Lib, Timing: baseNoPl}, opts); err != nil {
		t.Errorf("cap-only without placement should work: %v", err)
	}
}

func TestStructuralEstimatorMonotone(t *testing.T) {
	n, err := netgen.Random(netgen.RandomOptions{Gates: 100, FFs: 4, PIs: 4, POs: 2, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	cov0, pat0 := SharePenalty(n, 0)
	covS, patS := SharePenalty(n, 4)
	covB, patB := SharePenalty(n, 40)
	if cov0 != 0 || pat0 != 0 {
		t.Error("disjoint cones must cost nothing")
	}
	if !(covS < covB) || !(patS <= patB) {
		t.Errorf("penalty must grow with overlap: (%v,%d) vs (%v,%d)", covS, patS, covB, patB)
	}
}

func TestDeterministic(t *testing.T) {
	in := prep(t, 300, 12, 8, 8, 23)
	r1, err := Run(in, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(in, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r1.ReusedFFs != r2.ReusedFFs || r1.AdditionalCells != r2.AdditionalCells ||
		r1.TotalEdges() != r2.TotalEdges() {
		t.Error("WCM run must be deterministic")
	}
}

func scanFullWrap(in Input) *scan.Assignment { return scan.FullWrap(in.Netlist) }

func TestAreaAccountsReuseSavings(t *testing.T) {
	in := prep(t, 300, 12, 8, 8, 25)
	res, err := Run(in, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	full := &Result{Assignment: scanFullWrap(in)}
	lib := in.Lib
	if res.AreaUM2(lib) >= full.AreaUM2(lib) {
		t.Errorf("reuse area %.1f must undercut full wrap %.1f",
			res.AreaUM2(lib), full.AreaUM2(lib))
	}
	if res.AreaUM2(lib) <= 0 {
		t.Error("non-trivial plan must cost some area")
	}
}
