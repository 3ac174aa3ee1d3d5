package dcra

import (
	"fmt"

	"dcra/internal/policy"
)

// PolicyName identifies a policy for NewPolicy.
type PolicyName string

// Available policies, named as internal/policy names them.
const (
	PolicyRoundRobin PolicyName = policy.NameRR
	PolicyICount     PolicyName = policy.NameICount
	PolicyStall      PolicyName = policy.NameStall
	PolicyFlush      PolicyName = policy.NameFlush
	PolicyFlushPP    PolicyName = policy.NameFlushPP
	PolicyDG         PolicyName = policy.NameDG
	PolicyPDG        PolicyName = policy.NamePDG
	PolicySRA        PolicyName = policy.NameSRA
	PolicyDCRA       PolicyName = policy.NameDCRA
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
