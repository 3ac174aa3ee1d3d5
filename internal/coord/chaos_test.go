package coord_test

import (
	"fmt"
	"testing"
	"time"

	"dcra/internal/campaign"
	"dcra/internal/coord"
	"dcra/internal/coord/faults"
)

// TestChaosMatrixBitIdentical is the contract the whole control plane is
// built around: every fault plan (kind × seed), injected into a 3-worker
// in-process fleet, must end with a store bit-identical to an unfaulted
// single-process run — 100% of cells present, every byte equal. Crashes,
// expiries, stragglers, corruption and coordinator restarts may only cost
// duplicated work, never results.
func TestChaosMatrixBitIdentical(t *testing.T) {
	const workers = 3
	sweep := chaosSweep(18)
	want := referenceCells(t, sweep)

	for _, kind := range faults.Kinds() {
		for _, seed := range []uint64{1, 2} {
			t.Run(fmt.Sprintf("%s/seed%d", kind, seed), func(t *testing.T) {
				t.Parallel()
				f := faults.Derive(kind, seed, workers, 120*time.Millisecond)
				t.Logf("fault plan: %s", f)

				dir := t.TempDir()
				st, err := campaign.Open(dir, chaosParams)
				if err != nil {
					t.Fatal(err)
				}
				opts := fastOpts(t, dir, seed)
				co, err := coord.New("chaos", sweep, st, opts)
				if err != nil {
					t.Fatal(err)
				}
				lb := coord.NewLoopback(co)
				runner := newSlowRunner(10 * time.Millisecond)

				// CoordinatorRestart is a harness-level fault: kill the
				// coordinator once the campaign-wide completion count
				// reaches the trigger, keep it down long enough for workers
				// to notice, then restart it from checkpoint + store.
				restartDone := make(chan struct{})
				if f.Kind == faults.CoordinatorRestart {
					go func() {
						defer close(restartDone)
						for co.Status().Done < f.After {
							time.Sleep(2 * time.Millisecond)
						}
						lb.Swap(nil)
						time.Sleep(30 * time.Millisecond)
						st2, err := campaign.Open(dir, chaosParams)
						if err != nil {
							t.Errorf("reopening store: %v", err)
							return
						}
						co2, err := coord.New("chaos", sweep, st2, opts)
						if err != nil {
							t.Errorf("restarting coordinator: %v", err)
							return
						}
						lb.Swap(co2)
					}()
				} else {
					close(restartDone)
				}

				done := make(chan error, workers)
				for i := 0; i < workers; i++ {
					w := &coord.Worker{
						ID:        fmt.Sprintf("w%d", i),
						Transport: lb,
						NewRunner: runnerFactory(runner),
					}
					if f.Kind != faults.CoordinatorRestart && f.Worker == i {
						in := faults.NewInjector(f)
						w.Hooks = in.Hooks()
						w.Transport = in.Wrap(lb)
					}
					go func() { done <- w.Run() }()
				}
				for i := 0; i < workers; i++ {
					if err := <-done; err != nil && err != coord.ErrKilled {
						t.Errorf("worker exited: %v", err)
					}
				}
				<-restartDone

				assertStoresIdentical(t, want, readCells(t, dir))
			})
		}
	}
}
