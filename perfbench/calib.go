package main

import (
	"bytes"
	"compress/flate"
	"io"
	"strconv"
	"sync"
	"time"
)

// The host the benchmark runs on is shared. For minutes at a time the same
// single-threaded pass runs up to twice as slow (README.md, Baseline), with
// hypervisor steal far below the slowdown, and no repetition inside a run
// averages that away. So every run also times slices of a fixed computation
// that the benchmark owns, one before each cell it computes, outside the
// cell's time, and reports its CPU-bound host times scaled by how much
// slower than the reference speed the pass's slices ran. The program never
// executes this code, so a change to the program moves a scaled time
// exactly as much as the raw one.
//
// A slice compresses and decompresses a fixed text with DEFLATE. Over four
// minutes in which a fixed set of exact cells slowed and sped up by ±30%,
// the log of the cells' time moved 1.2 times as much as the log of a
// DEFLATE slice's, against 0.65 times for JSON encoding and 2.8 times for a
// mix of SHA-256 with random memory traffic in L2 and L3: DEFLATE slows
// down most nearly in proportion with the simulator.
const (
	calibTextBytes = 32 << 10 // bytes of text per slice
	calibSlices    = 100      // slices per block
	// calibRefMs is a round figure near a slice's median time on the box
	// the baseline was measured on. It sets only the scale: a scaled time
	// reads as the raw time a host running slices in calibRefMs would have
	// measured.
	calibRefMs = 2.5
)

// calibText is the text a slice compresses, built on first use so that a
// process that only sets a workload up never pays for it.
var calibText = sync.OnceValue(func() []byte {
	words := []string{"fetch", "issue", "queue", "thread", "policy", "cache", "miss", "branch",
		"commit", "rename", "register", "load", "store", "the", "a", "of", "and", "cycle"}
	var text bytes.Buffer
	x := uint64(0x9e3779b97f4a7c15)
	for text.Len() < calibTextBytes {
		x = x*6364136223846793005 + 1442695040888963407
		text.WriteString(words[(x>>33)%uint64(len(words))])
		if (x>>40)%7 == 0 {
			text.WriteString(strconv.FormatUint(x>>50, 10))
		}
		text.WriteByte(' ')
	}
	return text.Bytes()[:calibTextBytes]
})

// calibCodec is a compressor and a decompressor, reused so that a timed
// slice allocates nothing. campaign's workers time slices concurrently, so
// each takes its own from calibCodecs.
type calibCodec struct {
	buf bytes.Buffer
	w   *flate.Writer
	r   io.ReadCloser
}

var calibCodecs = sync.Pool{New: func() any {
	c := &calibCodec{r: flate.NewReader(nil)}
	c.w, _ = flate.NewWriter(&c.buf, flate.DefaultCompression) // the level is valid
	return c
}}

// calibration is the slice times a run, a pass or a campaign worker has
// collected. It is not safe for concurrent use.
type calibration struct {
	sliceMs []float64
}

// slice times one slice.
func (c *calibration) slice() {
	text := calibText()
	m := calibCodecs.Get().(*calibCodec)
	defer calibCodecs.Put(m)
	t0 := time.Now()
	m.buf.Reset()
	m.w.Reset(&m.buf)
	m.w.Write(text) // writes to a bytes.Buffer do not fail
	m.w.Close()
	m.r.(flate.Resetter).Reset(&m.buf, nil)
	n, err := io.Copy(io.Discard, m.r)
	if err != nil || n != calibTextBytes {
		panic("perfbench: calibration text did not round-trip")
	}
	c.sliceMs = append(c.sliceMs, float64(time.Since(t0))/float64(time.Millisecond))
}

// block times calibSlices slices.
func (c *calibration) block() {
	for i := 0; i < calibSlices; i++ {
		c.slice()
	}
}

// scale is the factor that converts host times to the reference speed:
// above 1 when the host ran the slices faster than the reference, below 1
// when it ran them slower.
func (c *calibration) scale() float64 {
	return ratio(calibRefMs, median(c.sliceMs))
}
