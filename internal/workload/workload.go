// Package workload encodes the paper's Table 4: the multiprogrammed
// workloads used in every multithreaded experiment, organised as 9 workload
// types (2/3/4 threads x ILP/MIX/MEM) with 4 randomly drawn groups each.
package workload

import (
	"fmt"
	"sync"

	"dcra/internal/trace"
)

// Kind is the memory character of a workload.
type Kind string

// Workload kinds, following the paper's taxonomy.
const (
	ILP Kind = "ILP" // only high-ILP threads
	MIX Kind = "MIX" // mixture of ILP and MEM threads
	MEM Kind = "MEM" // only memory-bounded threads
)

// Kinds lists the workload kinds in the paper's presentation order.
var Kinds = []Kind{ILP, MIX, MEM}

// Workload is one multiprogrammed combination of benchmarks.
type Workload struct {
	Threads int
	Kind    Kind
	Group   int // 1..4, the paper's workload group
	Names   []string
}

// ID returns a stable identifier like "MEM2.g1".
func (w Workload) ID() string {
	return fmt.Sprintf("%s%d.g%d", w.Kind, w.Threads, w.Group)
}

// Profiles resolves the benchmark names to trace profiles.
func (w Workload) Profiles() []trace.Profile {
	ps := make([]trace.Profile, len(w.Names))
	for i, n := range w.Names {
		ps[i] = trace.MustProfile(n)
	}
	return ps
}

// table4 is the verbatim content of the paper's Table 4.
var table4 = map[int]map[Kind][4][]string{
	2: {
		ILP: {
			{"gzip", "bzip2"},
			{"wupwise", "gcc"},
			{"fma3d", "mesa"},
			{"apsi", "gcc"},
		},
		MIX: {
			{"gzip", "twolf"},
			{"wupwise", "twolf"},
			{"lucas", "crafty"},
			{"equake", "bzip2"},
		},
		MEM: {
			{"mcf", "twolf"},
			{"art", "vpr"},
			{"art", "twolf"},
			{"swim", "mcf"},
		},
	},
	3: {
		ILP: {
			{"gcc", "eon", "gap"},
			{"gcc", "apsi", "gzip"},
			{"crafty", "perl", "wupwise"},
			{"mesa", "vortex", "fma3d"},
		},
		MIX: {
			{"twolf", "eon", "vortex"},
			{"lucas", "gap", "apsi"},
			{"equake", "perl", "gcc"},
			{"mcf", "apsi", "fma3d"},
		},
		MEM: {
			{"mcf", "twolf", "vpr"},
			{"swim", "twolf", "equake"},
			{"art", "twolf", "lucas"},
			{"equake", "vpr", "swim"},
		},
	},
	4: {
		ILP: {
			{"gzip", "bzip2", "eon", "gcc"},
			{"mesa", "gzip", "fma3d", "bzip2"},
			{"crafty", "fma3d", "apsi", "vortex"},
			{"apsi", "gap", "wupwise", "perl"},
		},
		MIX: {
			{"gzip", "twolf", "bzip2", "mcf"},
			{"mcf", "mesa", "lucas", "gzip"},
			{"art", "gap", "twolf", "crafty"},
			{"swim", "fma3d", "vpr", "bzip2"},
		},
		MEM: {
			{"mcf", "twolf", "vpr", "parser"},
			{"art", "twolf", "equake", "mcf"},
			{"equake", "parser", "mcf", "lucas"},
			{"art", "mcf", "vpr", "swim"},
		},
	},
}

// Get returns the paper's workload for (threads, kind, group). Group is
// 1-based as in the text ("the MEM2 result is the mean of ... groups").
func Get(threads int, kind Kind, group int) (Workload, error) {
	byKind, ok := table4[threads]
	if !ok {
		return Workload{}, fmt.Errorf("workload: no %d-thread workloads", threads)
	}
	groups, ok := byKind[kind]
	if !ok {
		return Workload{}, fmt.Errorf("workload: unknown kind %q", kind)
	}
	if group < 1 || group > len(groups) {
		return Workload{}, fmt.Errorf("workload: group %d out of range", group)
	}
	return Workload{Threads: threads, Kind: kind, Group: group, Names: groups[group-1]}, nil
}

// Groups returns the four workload groups of one (threads, kind) type.
func Groups(threads int, kind Kind) []Workload {
	ws := make([]Workload, 0, 4)
	for g := 1; g <= 4; g++ {
		w, err := Get(threads, kind, g)
		if err != nil {
			panic(err)
		}
		ws = append(ws, w)
	}
	return ws
}

// All returns every workload of the paper's Table 4 in deterministic order
// (threads ascending, kind ILP/MIX/MEM, group 1..4): 36 workloads.
func All() []Workload {
	var ws []Workload
	for _, n := range []int{2, 3, 4} {
		for _, k := range Kinds {
			ws = append(ws, Groups(n, k)...)
		}
	}
	return ws
}

// idIndex maps Workload.ID() strings back to workloads, built once.
var idIndex = sync.OnceValue(func() map[string]Workload {
	m := make(map[string]Workload)
	for _, w := range All() {
		m[w.ID()] = w
	}
	return m
})

// ByID resolves a Workload.ID() string (e.g. "MEM2.g1") back to the
// workload. Campaign cells carry workload identity as these strings.
func ByID(id string) (Workload, error) {
	w, ok := idIndex()[id]
	if !ok {
		return Workload{}, fmt.Errorf("workload: unknown workload id %q", id)
	}
	return w, nil
}
