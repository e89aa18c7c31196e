package main

import "testing"

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "run", Start: 0, End: 100},
		// Two overlapping children (two workers) cover [10, 60].
		{ID: 2, Parent: 1, Name: "shard", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "shard", Start: 20, End: 60},
		// A grandchild only reduces its own parent.
		{ID: 4, Parent: 2, Name: "inner", Start: 15, End: 25},
	}
	selfTimes(spans)
	for i, want := range []float64{50, 30, 40, 10} {
		if spans[i].Self != want {
			t.Errorf("span %d self = %v, want %v", spans[i].ID, spans[i].Self, want)
		}
	}
	sum := summarize(spans)
	if sum[0].Name != "shard" || sum[0].Count != 2 || sum[0].SelfUS != 70 || sum[1].Name != "run" {
		t.Errorf("summary = %+v", sum)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.start(0, "x")
	tr.finish(id)
	ran := false
	tr.timed(id, "y", func(int) { ran = true })
	if id != 0 || !ran {
		t.Errorf("nil tracer: id %d, ran %v", id, ran)
	}
}

func TestShareOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/machine.(*Machine).Run":        "machine",
		"repro/internal/sim.(*Proc).Sleep.func1":       "sim",
		"repro/internal/hypervisor.(*HV).RunEpoch":     "hypervisor",
		"repro/internal/replication.(*Primary).run":    "replication",
		"runtime.mallocgc":                             "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall": "runtime",
		"repro/internal/session.(*Engine).Boot":        "other",
		"repro/internal/simx.F":                        "other",
		"sync.(*Mutex).Lock":                           "other",
	} {
		if got := shareOf(fn); got != want {
			t.Errorf("shareOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
