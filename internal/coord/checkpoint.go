package coord

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"dcra/internal/campaign"
)

// checkpoint is the coordinator's crash-safe state file. Completion is
// deliberately absent: the store itself is the durable record of which cells
// are done (New re-scans it), so the checkpoint only carries what the store
// cannot reconstruct — retry accounting. Leases are absent too: they die
// with the coordinator and simply expire into re-leases on the next life.
type checkpoint struct {
	Version   int             `json:"version"`
	Campaign  string          `json:"campaign"`
	SweepHash string          `json:"sweep_hash"`
	Params    campaign.Params `json:"params"`
	Retries   int             `json:"retries"`
	Attempts  map[string]int  `json:"attempts,omitempty"`  // cell key -> failed attempts
	Exhausted []string        `json:"exhausted,omitempty"` // cell keys out of budget
}

const checkpointVersion = 1

// loadCheckpoint restores retry accounting from opts.Checkpoint, if the file
// exists. A checkpoint for a different campaign, sweep or protocol is
// refused rather than silently merged into the wrong run.
func (c *Coordinator) loadCheckpoint() error {
	path := c.opts.Checkpoint
	if path == "" {
		return nil
	}
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("coord: reading checkpoint %s: %w", path, err)
	}
	var ck checkpoint
	if err := json.Unmarshal(data, &ck); err != nil {
		return fmt.Errorf("coord: parsing checkpoint %s: %w", path, err)
	}
	switch {
	case ck.Version != checkpointVersion:
		return fmt.Errorf("coord: checkpoint %s has version %d, this binary speaks %d", path, ck.Version, checkpointVersion)
	case ck.Campaign != c.name:
		return fmt.Errorf("coord: checkpoint %s is for campaign %q, coordinating %q", path, ck.Campaign, c.name)
	case ck.SweepHash != c.hash:
		return fmt.Errorf("coord: checkpoint %s enumerates sweep %s, coordinating %s (spec changed? delete the checkpoint)", path, ck.SweepHash, c.hash)
	case ck.Params != c.store.Params():
		return fmt.Errorf("coord: checkpoint %s was measured with %+v, store holds %+v", path, ck.Params, c.store.Params())
	}
	c.retries = ck.Retries
	for key, n := range ck.Attempts {
		if i, ok := c.cellByKy[key]; ok && !c.cells[i].done {
			c.cells[i].attempts = n
		}
	}
	for _, key := range ck.Exhausted {
		if i, ok := c.cellByKy[key]; ok && !c.cells[i].done && !c.cells[i].exhausted {
			c.cells[i].exhausted = true
			c.exhaust++
		}
	}
	c.logf("resumed from checkpoint %s: %d prior retries, %d cells exhausted", path, c.retries, c.exhaust)
	return nil
}

// saveCheckpointLocked persists retry accounting atomically. Checkpointing
// is best-effort: a failed write costs retry history on the next restart,
// not correctness, so it logs instead of failing the campaign.
func (c *Coordinator) saveCheckpointLocked() {
	path := c.opts.Checkpoint
	if path == "" {
		return
	}
	ck := checkpoint{
		Version:   checkpointVersion,
		Campaign:  c.name,
		SweepHash: c.hash,
		Params:    c.store.Params(),
		Retries:   c.retries,
		Attempts:  make(map[string]int),
	}
	for _, cs := range c.cells {
		if cs.attempts > 0 && !cs.done {
			ck.Attempts[cs.key] = cs.attempts
		}
		if cs.exhausted {
			ck.Exhausted = append(ck.Exhausted, cs.key)
		}
	}
	data, err := json.MarshalIndent(ck, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("coord: marshalling checkpoint: %v", err))
	}
	// Written atomically, so a crashed coordinator never leaves a torn
	// checkpoint.
	err = os.MkdirAll(filepath.Dir(path), 0o755)
	if err == nil {
		err = campaign.WriteFileAtomic(path, append(data, '\n'))
	}
	if err != nil {
		c.logf("checkpoint write failed (continuing): %v", err)
	}
}
