package netgen

import (
	"fmt"
	"math/rand"
	"testing"

	"wcm3d/internal/netlist"
)

// everyTypeDie builds an acyclic die that uses every gate type, constants
// included, with random fanin drawn from earlier signals.
func everyTypeDie(t *testing.T, seed int64) *netlist.Netlist {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := netlist.New(fmt.Sprintf("every%d", seed))
	sigs := []netlist.SignalID{
		n.MustAddGate(netlist.GateConst0, "c0"),
		n.MustAddGate(netlist.GateConst1, "c1"),
	}
	for i := 0; i < 4; i++ {
		sigs = append(sigs, n.MustAddGate(netlist.GateInput, fmt.Sprintf("pi%d", i)))
		sigs = append(sigs, n.MustAddGate(netlist.GateTSVIn, fmt.Sprintf("tin%d", i)))
	}
	var ffs []netlist.SignalID
	for i := 0; i < 3; i++ {
		ff := n.MustAddGate(netlist.GateDFF, fmt.Sprintf("ff%d", i), sigs[2])
		ffs = append(ffs, ff)
		sigs = append(sigs, ff)
	}
	types := []netlist.GateType{
		netlist.GateBuf, netlist.GateNot, netlist.GateAnd, netlist.GateNand,
		netlist.GateOr, netlist.GateNor, netlist.GateXor, netlist.GateXnor,
		netlist.GateMux2,
	}
	for i := 0; i < 120; i++ {
		typ := types[i%len(types)]
		nIn := 2 + rng.Intn(3)
		switch typ {
		case netlist.GateBuf, netlist.GateNot:
			nIn = 1
		case netlist.GateMux2:
			nIn = 3
		}
		fanin := make([]netlist.SignalID, nIn)
		for j := range fanin {
			fanin[j] = sigs[rng.Intn(len(sigs))]
		}
		sigs = append(sigs, n.MustAddGate(typ, fmt.Sprintf("g%d", i), fanin...))
	}
	for _, ff := range ffs {
		if err := n.RewireFanin(ff, 0, sigs[len(sigs)-1-rng.Intn(20)]); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestEvalWordsMatchesEvaluate: the packed simulator deconstant runs agrees
// bit for bit with the scalar reference model, on every signal, for
// patterns in both words (including the 64–95 tail deconstant masks).
func TestEvalWordsMatchesEvaluate(t *testing.T) {
	const w = 2
	dies := []*netlist.Netlist{everyTypeDie(t, 1), everyTypeDie(t, 2)}
	for seed := int64(1); seed <= 3; seed++ {
		n, err := Random(RandomOptions{Gates: 300, FFs: 12, InboundTSVs: 10, OutboundTSVs: 10, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		dies = append(dies, n)
	}
	rng := rand.New(rand.NewSource(7))
	for _, n := range dies {
		vals := make([]uint64, w*n.NumGates())
		var srcs []netlist.SignalID
		for i, g := range n.Gates {
			switch g.Type {
			case netlist.GateInput, netlist.GateTSVIn, netlist.GateDFF:
				srcs = append(srcs, netlist.SignalID(i))
				vals[w*i], vals[w*i+1] = rng.Uint64(), rng.Uint64()
			}
		}
		evalWords(n, vals, w)
		for _, p := range []int{0, 1, 31, 63, 64, 65, 80, 95} {
			assign := make(map[netlist.SignalID]bool, len(srcs))
			for _, s := range srcs {
				assign[s] = vals[w*int(s)+p/64]>>(p%64)&1 == 1
			}
			ref, err := n.Evaluate(assign)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range ref {
				if got := vals[w*i+p/64]>>(p%64)&1 == 1; got != v {
					t.Fatalf("%s pattern %d: %s (%s) = %v, Evaluate says %v",
						n.Name, p, n.Gates[i].Name, n.Gates[i].Type, got, v)
				}
			}
		}
	}
}

// TestSpliceSeesEarlierSplices: splicing root r1 into T grows the fan-in
// cone of the later root r2 (which reads T) by r1's cone, which holds the
// XOR gate X. A cone computed before the first splice would let r2 widen X
// and close the loop X → r1 → T → r2 → X.
func TestSpliceSeesEarlierSplices(t *testing.T) {
	n := netlist.New("splice")
	a := n.MustAddGate(netlist.GateInput, "a")
	b := n.MustAddGate(netlist.GateInput, "b")
	c := n.MustAddGate(netlist.GateInput, "c")
	d := n.MustAddGate(netlist.GateInput, "d")
	x := n.MustAddGate(netlist.GateXor, "x", a, b)
	tg := n.MustAddGate(netlist.GateXor, "t", c, d)
	r1 := n.MustAddGate(netlist.GateAnd, "r1", x, c)
	r2 := n.MustAddGate(netlist.GateOr, "r2", tg, d)
	for _, o := range []struct {
		name string
		sig  netlist.SignalID
	}{{"po_x", x}, {"po_t", tg}} {
		if err := n.AddOutput(o.name, o.sig, netlist.PortPO); err != nil {
			t.Fatal(err)
		}
	}

	for seed := int64(1); seed <= 8; seed++ {
		m := n.Clone()
		noClusters := make([]int32, m.NumGates())
		for i := range noClusters {
			noClusters[i] = -1
		}
		if err := spliceDanglers(m, rand.New(rand.NewSource(seed)), noClusters); err != nil {
			t.Fatal(err)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("seed %d: splice closed a cycle: %v", seed, err)
		}
		if !contains(m.Gate(tg).Fanin, r1) {
			t.Errorf("seed %d: r1 not spliced into t: t fanin %v", seed, m.Gate(tg).Fanin)
		}
		if contains(m.Gate(x).Fanin, r2) {
			t.Errorf("seed %d: r2 spliced into x through a stale cone", seed)
		}
	}
}
