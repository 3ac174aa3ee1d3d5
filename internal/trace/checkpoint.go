package trace

import (
	"sync"

	"dcra/internal/rng"
)

// ckptStride is the canonical-index spacing of stored checkpoints. Finer
// strides restore a little more of each skim but cost proportionally more
// memory: on the quick sampled Figure 5, 4096 restored 66% of the skimmed
// uops, 1024 restored 72% and 256 restored 73% (PERFORMANCE.md).
const ckptStride = 1024

// Checkpoints stores generator checkpoints of canonical streams, so a skim
// (Stream.SkipUops) can resume from the state another stream of the same
// identity already reached instead of re-deriving it draw by draw.
//
// The generator state at canonical index i is a pure function of the
// stream identity (profile, thread slot, seed) and i: every canonical draw
// and every generator mutation happens once per index, in index order,
// whether the uop was generated, warm-skipped or skimmed, and the
// wrong-path generator is separate. Restoring a checkpoint therefore
// yields bit-identically the state a skim would have reached.
//
// Each stream identity holds one checkpoint per ckptStride indices that
// some skim passed, about 120 bytes plus 8 per call-stack entry each, kept
// for the life of the store. A Checkpoints is safe for concurrent use by
// the streams of many machines; its zero value is not usable (see
// NewCheckpoints).
type Checkpoints struct {
	mu    sync.Mutex
	lines map[streamID]*ckptLine
}

// NewCheckpoints returns an empty store.
func NewCheckpoints() *Checkpoints {
	return &Checkpoints{lines: make(map[streamID]*ckptLine)}
}

// streamID is a stream's identity: what NewStream's arguments fix.
type streamID struct {
	prof Profile
	slot int
	seed uint64
}

// line returns the checkpoint line of stream identity id, creating it on
// first use.
func (c *Checkpoints) line(id streamID) *ckptLine {
	c.mu.Lock()
	defer c.mu.Unlock()
	l := c.lines[id]
	if l == nil {
		l = new(ckptLine)
		c.lines[id] = l
	}
	return l
}

// ckptLine holds the checkpoints of one stream identity: at[k] is the
// generator state at canonical index k*ckptStride, nil until a skim passes
// that index (at[0] stays nil: index 0 is init's state).
type ckptLine struct {
	mu sync.Mutex
	at []*checkpoint
}

// checkpoint is the generator state at one canonical index: every Stream
// field the canonical draws mutate. Everything else is fixed by the
// identity (layout, samplers; classTab only memoises a function of it) or
// untouched by the canonical walk (the wrong-path generator).
type checkpoint struct {
	rg        rng.Source
	pc        uint64
	callStack []uint64
	sinceLoad int
	slow      bool
	phaseLeft int
	lastAddr  [3]uint64
}

// ckptHandle is a stream's link to a checkpoint store: the store its owner
// attached, and the stream identity's line in it, looked up on the first
// skim after each (re)bind.
type ckptHandle struct {
	store *Checkpoints
	line  *ckptLine
}

// UseCheckpoints attaches checkpoint store c to the stream (nil detaches);
// the attachment survives Rebind. Skims then record and restore
// checkpoints in c, with results bit-identical to skimming without one.
func (s *Stream) UseCheckpoints(c *Checkpoints) {
	s.ck = ckptHandle{store: c}
}

// ckptLine returns the stream identity's checkpoint line, or nil when no
// store is attached.
func (s *Stream) ckptLine() *ckptLine {
	if s.ck.line == nil && s.ck.store != nil {
		s.ck.line = s.ck.store.line(streamID{s.prof, s.slot, s.seed})
	}
	return s.ck.line
}

// restore moves s, which holds no retained uops, to the latest checkpoint
// at an index in (s.next, end], if there is one.
func (l *ckptLine) restore(s *Stream, end uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	lo := s.next / ckptStride
	for k := min(end/ckptStride+1, uint64(len(l.at))); k > lo+1; {
		k--
		c := l.at[k]
		if c == nil {
			continue
		}
		*s.rg = c.rg
		s.pc = c.pc
		s.callStack = append(s.callStack[:0], c.callStack...)
		s.sinceLoad, s.slow, s.phaseLeft = c.sinceLoad, c.slow, c.phaseLeft
		s.lastAddr = c.lastAddr
		s.base, s.next = k*ckptStride, k*ckptStride
		return
	}
}

// record stores s's state as the checkpoint at s.next, a multiple of
// ckptStride, unless one is already there.
func (l *ckptLine) record(s *Stream) {
	k := s.next / ckptStride
	l.mu.Lock()
	defer l.mu.Unlock()
	if k < uint64(len(l.at)) && l.at[k] != nil {
		return
	}
	if n := uint64(len(l.at)); k >= n {
		l.at = append(l.at, make([]*checkpoint, k+1-n)...)
	}
	l.at[k] = &checkpoint{
		rg:        *s.rg,
		pc:        s.pc,
		callStack: append([]uint64(nil), s.callStack...),
		sinceLoad: s.sinceLoad,
		slow:      s.slow,
		phaseLeft: s.phaseLeft,
		lastAddr:  s.lastAddr,
	}
}
