package trace

import (
	"reflect"
	"sync"
	"testing"

	"dcra/internal/isa"
)

// ckptIdentities are the stream identities the checkpoint tests cover: a
// call-heavy profile (deep, churning call stacks), a MEM profile, both in
// two thread slots and under two seeds.
func ckptIdentities() []streamID {
	calls := MustProfile("gcc")
	calls.Name = "gcc-calls"
	calls.CallFrac = 0.3
	mem := MustProfile("mcf")
	var ids []streamID
	for _, p := range []Profile{calls, mem} {
		for _, slot := range []int{0, 1} {
			for _, seed := range []uint64{7, 0x5eed} {
				ids = append(ids, streamID{p, slot, seed})
			}
		}
	}
	return ids
}

// leg is one stretch of a stream's walk: skim through SkipUops up to
// canonical index to, then generate gen uops through At and release them.
type leg struct{ to, gen uint64 }

// walk drives s through legs, calling before and after (when set) around
// every SkipUops.
func walk(s *Stream, legs []leg, before func(to uint64), after func()) {
	var u isa.Uop
	for _, l := range legs {
		if before != nil {
			before(l.to)
		}
		s.SkipUops(l.to-s.Frontier(), &u)
		if after != nil {
			after()
		}
		for i := uint64(0); i < l.gen; i++ {
			s.At(s.Frontier())
			s.Release(s.Frontier())
		}
	}
}

// sameState reports whether a and b are in the same generator state: every
// field equal except the retained window's backing array and the
// checkpoint store handle, which by design differ. A generator field that
// checkpoints forget to carry shows up here.
//
// The class memo is compared completed: which entries a stream has filled
// depends on the PCs it walked, and walking is exactly what a restore
// skips, but every filled entry must agree with the pure class function.
func sameState(a, b *Stream) bool {
	x, y := *a, *b
	x.buf, y.buf = nil, nil
	x.ck, y.ck = ckptHandle{}, ckptHandle{}
	x.classTab, y.classTab = completedClasses(a), completedClasses(b)
	return reflect.DeepEqual(x, y)
}

// completedClasses returns a copy of s's class memo with every unfilled
// entry filled.
func completedClasses(s *Stream) []uint8 {
	tab := append([]uint8(nil), s.classTab...)
	for i, c := range tab {
		if c == 0xff {
			tab[i] = uint8(s.classAtSlow(s.codeBase + 4*uint64(i)))
		}
	}
	return tab
}

// TestCheckpointRestoreMatchesSkim fills a store from two streams that skim
// ragged, overlapping stretches (none aligned to the checkpoint stride, with
// generated stretches in between), then walks a third stream through skims
// that restore from it — some ending exactly on a stored checkpoint, so
// nothing is skimmed after the restore — overlap it and run past its
// recorded prefix. After every skim the restoring stream must be in exactly
// the state of a stream that advanced uop by uop without a store, and the
// 10 000 uops that follow must be identical.
func TestCheckpointRestoreMatchesSkim(t *testing.T) {
	fillers := [][]leg{
		{{1500, 300}, {6800, 0}, {7577, 40}, {16618, 0}},
		{{4000, 100}, {7433, 2}, {19780, 0}},
	}
	restorer := []leg{
		{2500, 17}, {3 * ckptStride, 0}, {9000, 900}, {9901, 0}, {13 * ckptStride, 3},
		{33000, 5}, {37096, 0}, {38095, 0},
	}
	for _, id := range ckptIdentities() {
		store := NewCheckpoints()
		for _, legs := range fillers {
			s := NewStream(id.prof, id.slot, id.seed)
			s.UseCheckpoints(store)
			walk(s, legs, nil, nil)
		}
		line := store.line(id)
		if len(line.at) == 0 {
			t.Fatalf("%s: the fillers recorded no checkpoints", id.prof.Name)
		}

		s := NewStream(id.prof, id.slot, id.seed)
		s.UseCheckpoints(store)
		ref := NewStream(id.prof, id.slot, id.seed)
		var u isa.Uop
		restorable := 0
		countRestorable := func(to uint64) {
			// Count skims with a stored checkpoint to restore, so the
			// schedule provably exercises the restore path.
			for k := s.Frontier()/ckptStride + 1; k <= to/ckptStride && k < uint64(len(line.at)); k++ {
				if line.at[k] != nil {
					restorable++
					return
				}
			}
		}
		walk(s, restorer, countRestorable, func() {
			for ref.Frontier() < s.Frontier() {
				ref.SkipUop(&u)
			}
			if !sameState(s, ref) {
				t.Fatalf("%s slot %d seed %#x: state at index %d differs from an uncheckpointed walk:\n%+v\nvs\n%+v",
					id.prof.Name, id.slot, id.seed, s.Frontier(), *s, *ref)
			}
		})
		if restorable < 3 {
			t.Fatalf("%s: only %d skims could restore a checkpoint", id.prof.Name, restorable)
		}
		for i, end := s.Frontier(), s.Frontier()+10_000; i < end; i++ {
			if got, want := *s.At(i), *ref.At(i); got != want {
				t.Fatalf("%s: uop %d after restores = %+v, want %+v", id.prof.Name, i, got, want)
			}
		}
	}
}

// TestCheckpointStoreConcurrent has streams of one identity share a store
// from concurrent goroutines, each on its own ragged schedule, and checks
// each against a private store-less stream after every skim. Run under
// -race it checks the store's synchronisation.
func TestCheckpointStoreConcurrent(t *testing.T) {
	id := ckptIdentities()[0]
	store := NewCheckpoints()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g uint64) {
			defer wg.Done()
			s := NewStream(id.prof, id.slot, id.seed)
			s.UseCheckpoints(store)
			ref := NewStream(id.prof, id.slot, id.seed)
			var legs []leg
			front := uint64(0)
			for i := uint64(0); i < 12; i++ {
				to := front + 1000 + 733*((g+i)%5)
				legs = append(legs, leg{to: to, gen: 37 * g})
				front = to + 37*g
			}
			var u isa.Uop
			walk(s, legs, nil, func() {
				ref.SkipUops(s.Frontier()-ref.Frontier(), &u)
				if !sameState(s, ref) {
					t.Errorf("goroutine %d: state at index %d differs from an uncheckpointed walk", g, s.Frontier())
				}
			})
		}(uint64(g))
	}
	wg.Wait()
}
