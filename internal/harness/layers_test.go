package harness

import (
	"reflect"
	"testing"

	"repro/internal/replication"
	"repro/internal/session"
)

// TestHostLayersInvisible pins that superblock trace dispatch is a pure
// host-side layer: every §4 workload, bare, replicated under both
// protocols and under output commit, gives the same completion time,
// guest result, console transcript and protocol and hypervisor
// statistics with traces off (Machine.NoTraces) as with the default
// configuration.
func TestHostLayersInvisible(t *testing.T) {
	scale := QuickScale()
	run := func(o session.Options) RunResult {
		e := session.New(o)
		defer e.Close()
		return finish(e)
	}
	for _, wl := range []string{"cpu", "write", "read"} {
		for _, mode := range []struct {
			name string
			o    session.Options
		}{
			{"bare", session.Options{Bare: true}},
			{"old", session.Options{Protocol: replication.ProtocolOld}},
			{"new", session.Options{Protocol: replication.ProtocolNew}},
			{"oc", session.Options{OutputCommit: replication.OutputCommit{Enabled: true, Window: 4, Adaptive: true}}},
		} {
			base := mode.o
			base.Seed = 1
			base.Program = session.WorkloadProgram(scale.workload(workloadKinds[wl]))
			base.Disk = scale.Disk
			base.EpochLength = 2048
			want := run(base)

			noTraces := base
			noTraces.Machine.NoTraces = true
			if got := run(noTraces); !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s with NoTraces differs from the default:\ngot  %+v\nwant %+v", wl, mode.name, got, want)
			}
		}
	}
}
