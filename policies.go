package dcra

import (
	"fmt"

	"dcra/internal/policy"
)

// PolicyName identifies a policy for NewPolicy.
type PolicyName string

// Available policies.
const (
	PolicyRoundRobin PolicyName = "RR"
	PolicyICount     PolicyName = "ICOUNT"
	PolicyStall      PolicyName = "STALL"
	PolicyFlush      PolicyName = "FLUSH"
	PolicyFlushPP    PolicyName = "FLUSH++"
	PolicyDG         PolicyName = "DG"
	PolicyPDG        PolicyName = "PDG"
	PolicySRA        PolicyName = "SRA"
	PolicyDCRA       PolicyName = "DCRA"
)

// NewPolicy constructs a fresh policy by name. DCRA uses the latency-tuned
// options for cfg's memory latency (paper Section 5.3). Policies carry
// per-run state: construct a new instance per machine.
func NewPolicy(name PolicyName, cfg Config) (Policy, error) {
	p, err := policy.New(string(name), cfg)
	if err != nil {
		return nil, fmt.Errorf("dcra: %w", err)
	}
	return p, nil
}

// PolicyNames lists every policy NewPolicy accepts, sorted.
func PolicyNames() []string { return policy.Names() }
