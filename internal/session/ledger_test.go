package session

import (
	"testing"

	"repro/internal/guest"
	"repro/internal/replication"
)

// TestAcksCountedOnDelivery pins the coordinator's single
// acknowledgement path. Acks are counted as they are delivered, so a
// completed healthy single-backup run reports one ack per message sent.
// The sent-epoch ledger, sampled at every commit, holds exactly the
// just-shipped epoch under the old protocol's boundary wait and at most
// Window epochs under output commit.
func TestAcksCountedOnDelivery(t *testing.T) {
	write := Options{
		Seed:        1,
		Program:     WorkloadProgram(guest.DiskWrite(16, 1)),
		EpochLength: 1024,
		Protocol:    replication.ProtocolNew,
	}
	cases := []struct {
		name string
		o    Options
	}{
		{"cpu-old", cpuOpts(2000)},
		{"write-new", write},
		{"serve-oc-w1", ocServeOpts(16, 1, false)},
		{"serve-oc-w8-adaptive", ocServeOpts(16, 8, true)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var e *Engine
			var commits int
			tc.o.Observer = func(ev Event) {
				if ev.Kind != EventEpochCommitted {
					return
				}
				commits++
				n := len(e.pri.CaptureState().Sent)
				switch {
				case tc.o.OutputCommit.Enabled:
					if w := max(tc.o.OutputCommit.Window, 1); n > w {
						t.Errorf("epoch %d: ledger holds %d epochs, window is %d", ev.Epoch, n, w)
					}
				case tc.o.Protocol == replication.ProtocolOld:
					if n != 1 {
						t.Errorf("epoch %d: ledger holds %d epochs, want 1", ev.Epoch, n)
					}
				}
			}
			e = New(tc.o)
			defer e.Close()
			if err := e.RunToCompletion(nil); err != nil {
				t.Fatal(err)
			}
			if commits == 0 {
				t.Fatal("no epoch committed")
			}
			s := e.Snapshot()
			if s.MessagesSent == 0 || s.AcksReceived != s.MessagesSent {
				t.Fatalf("acks received %d, messages sent %d", s.AcksReceived, s.MessagesSent)
			}
		})
	}
}
