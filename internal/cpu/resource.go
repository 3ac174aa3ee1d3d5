// Package cpu implements the simulated SMT out-of-order core: an 8-wide,
// 12-stage pipeline with three shared issue queues, shared physical register
// files, a shared reorder buffer, functional units, branch prediction and a
// cache hierarchy — the substrate on which the paper's fetch and resource
// allocation policies run.
package cpu

import "fmt"

// Resource enumerates the shared resources that allocation policies control.
// The first five are the paper's DCRA-managed resources; the ROB is included
// so static partitioning (SRA) can cap it as well.
type Resource int

// Shared resources. The issue queues come first, in isa.Queue order, so a
// queue's isa.Queue value is its Resource.
const (
	RIntIQ Resource = iota
	RFPIQ
	RLSIQ
	RIntRegs
	RFPRegs
	RROB
	NumResources
)

var resourceNames = [...]string{"intIQ", "fpIQ", "lsIQ", "intRegs", "fpRegs", "rob"}

func (r Resource) String() string {
	if r >= 0 && int(r) < len(resourceNames) {
		return resourceNames[r]
	}
	return fmt.Sprintf("Resource(%d)", int(r))
}

// DCRAResources lists the five resources DCRA's sharing model manages.
var DCRAResources = [...]Resource{RIntIQ, RFPIQ, RLSIQ, RIntRegs, RFPRegs}

// IsFP reports whether the resource belongs to the floating-point subsystem
// (the paper tracks activity only for FP resources).
func (r Resource) IsFP() bool { return r == RFPIQ || r == RFPRegs }
