package rng

// Views of GeomDist's internals for the external differential tests, which
// import the trace profiles (trace imports rng, so they cannot live in this
// package).

var GeomFromUniform = geomFromUniform

func (g *GeomDist) At(k uint64) int      { return g.at(k) }
func (g *GeomDist) Thresholds() []uint64 { return g.thr }
