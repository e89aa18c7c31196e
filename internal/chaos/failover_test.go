package chaos

import (
	"fmt"
	"testing"

	hft "repro"
)

// sweepTimes spreads n failstop times over [lo, hi) with a golden-ratio
// low-discrepancy sequence, so a sweep lands on boundaries, mid-epochs
// and I/O windows without a fixed stride's aliasing.
func sweepTimes(lo, hi hft.Duration, n int) []hft.Duration {
	out := make([]hft.Duration, n)
	x := 0.0
	for i := range out {
		x += 0.6180339887498949
		x -= float64(int(x))
		out[i] = lo + hft.Duration(x*float64(hi-lo))
	}
	return out
}

// TestFailPrimarySweep is the paper's core §2 claim under fire: no
// matter when the primary failstops — mid-epoch, mid-I/O, inside the
// two-generals window, during boundary coordination — the backup takes
// over and the run completes with the bare machine's checksum and
// transcript. Each sweep spans its workload's healthy run time.
func TestFailPrimarySweep(t *testing.T) {
	for _, c := range []struct {
		workload string
		proto    hft.Protocol
		epoch    uint64
		lo, hi   hft.Duration
		n        int
	}{
		{"write", hft.ProtocolOld, 4096, 100 * hft.Microsecond, 130 * hft.Millisecond, 12},
		{"read", hft.ProtocolOld, 2048, 200 * hft.Microsecond, 140 * hft.Millisecond, 8},
		// The revised protocol's window (§4.3): unacknowledged messages
		// plus failstop. The I/O gate must keep the environment
		// consistent.
		{"write", hft.ProtocolNew, 4096, 100 * hft.Microsecond, 125 * hft.Millisecond, 8},
		{"cpu", hft.ProtocolOld, 1024, 50 * hft.Microsecond, 80 * hft.Millisecond, 6},
	} {
		name := fmt.Sprintf("%s-%v-el%d", c.workload, c.proto, c.epoch)
		t.Run(name, func(t *testing.T) {
			failovers := 0
			for _, at := range sweepTimes(c.lo, c.hi, c.n) {
				var m Metrics
				rep := ExecuteOpts(Schedule{
					Seed: 1, Workload: c.workload, Epoch: c.epoch,
					Protocol: c.proto, Link: "ethernet", Backups: 1,
					Steps: []Step{{At: Coord{Time: at}, Op: OpFailPrimary}},
				}, ExecOptions{Metrics: &m})
				if rep.Failed() {
					t.Errorf("fail primary at %v: %v", at, rep.Violation)
				}
				failovers += m.Failovers
			}
			if failovers == 0 {
				t.Error("sweep never exercised failover")
			}
		})
	}
}
