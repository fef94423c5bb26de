package wcm

import (
	"wcm3d/internal/netlist"
)

// Constants of the structural share-penalty estimate (see SharePenalty).
const (
	// covFaultsPerOverlapGate is the number of faults one shared gate is
	// charged as losing to aliasing.
	covFaultsPerOverlapGate = 2.0
	// overlapGatesPerPattern is the number of shared gates that cost one
	// extra targeted pattern.
	overlapGatesPerPattern = 4
)

// SharePenalty estimates the testability cost of letting two nodes whose
// cones overlap in overlapGates combinational gates share a wrapper cell
// (paper Algorithm 1 lines 21-23: fault_coverage(n1,n2) and
// #test_patterns(n1,n2)): the fault-coverage decrease as a fraction of
// the fault universe, and the pattern-count increase. The paper consults a
// commercial ATPG tool here; this reproduction uses a structural estimate
// from the size of the overlap, validated against exact incremental ATPG
// (experiments.ExactSharePenalty) in the test suite. Each shared gate
// contributes potential aliasing (a fault whose effect reaches the
// observation point along both shared paths can cancel) and potential
// input correlation (a fault needing independent values on the two cones
// may lose its test): aliasing kills a small fraction of the faults in the
// overlap region, and recovering coverage costs roughly one extra pattern
// per handful of overlapped gates.
func SharePenalty(n *netlist.Netlist, overlapGates int) (covLoss float64, patInc int) {
	if overlapGates <= 0 {
		return 0, 0
	}
	// The fault universe is roughly two collapsed faults per gate.
	universe := float64(2 * n.NumGates())
	covLoss = covFaultsPerOverlapGate * float64(overlapGates) / universe
	patInc = 1 + overlapGates/overlapGatesPerPattern
	return covLoss, patInc
}
