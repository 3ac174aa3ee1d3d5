package sim

import (
	"fmt"
	"os"
	"testing"

	"dcra/internal/config"
	"dcra/internal/policy"
	"dcra/internal/trace"
)

// TestCalibrationReport prints per-benchmark single-thread behaviour next to
// the paper's Table 3 targets. It always passes unless a benchmark lands on
// the wrong side of the MEM/ILP split (the property the workload taxonomy
// depends on); the printed report drives profile calibration.
//
// Run with -v (and CALIBRATE=1 for the full suite) to see the table.
func TestCalibrationReport(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration run is slow")
	}
	names := trace.Names()
	if os.Getenv("CALIBRATE") == "" {
		// A representative subset keeps the default test run fast.
		names = []string{"mcf", "twolf", "parser", "art", "swim", "equake", "gzip", "gcc", "apsi", "eon"}
	}
	r := NewRunner()
	r.Warmup = 100_000
	r.Measure = 200_000
	cfg := config.Baseline()
	fmt.Printf("%-8s %5s  %6s %6s %7s %7s %7s %6s\n",
		"bench", "type", "ipc", "bmr%", "l1d%", "l2mr%", "paper%", "mlp")
	for _, n := range names {
		p := trace.MustProfile(n)
		m, err := r.RunMachine(cfg, []trace.Profile{p}, policy.NewICount())
		if err != nil {
			t.Fatal(err)
		}
		st := m.Stats()
		ts := &st.Threads[0]
		l1dRate := 0.0
		if acc := m.Hierarchy().L1D.Accesses; acc > 0 {
			l1dRate = m.Hierarchy().L1D.MissRate()
		}
		l2mr := ts.L2MissRate()
		fmt.Printf("%-8s %5s  %6.3f %6.1f %7.1f %7.1f %7.1f %6.2f\n",
			n, p.Type(), ts.IPC(st.Cycles), ts.MispredictRate(), l1dRate, l2mr,
			p.PaperL2MissRate, st.AvgMLP())
		// The taxonomy property: MEM benchmarks above 1%, ILP below 5%.
		if p.Mem && l2mr < 1.0 {
			t.Errorf("%s: MEM benchmark measured L2 miss rate %.2f%% < 1%%", n, l2mr)
		}
		if !p.Mem && l2mr > 5.0 {
			t.Errorf("%s: ILP benchmark measured L2 miss rate %.2f%% > 5%%", n, l2mr)
		}
	}
}
