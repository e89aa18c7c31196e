package harness

import (
	"math"
	"sync/atomic"
	"testing"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, w := range []int{1, 3, 8} {
		scale := QuickScale()
		scale.Workers = w
		var hits [57]atomic.Int64
		scale.forEach(len(hits), func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", w, i, got)
			}
		}
	}
}

func TestForEachPropagatesPanic(t *testing.T) {
	scale := QuickScale()
	scale.Workers = 4
	defer func() {
		if recover() == nil {
			t.Fatal("worker panic was swallowed")
		}
	}()
	scale.forEach(8, func(i int) {
		if i == 5 {
			panic("boom")
		}
	})
}

// TestParallelExperimentsDeterministic is the -parallel acceptance
// check in miniature: the same experiment fanned across 4 workers must
// produce results identical to the serial run.
func TestParallelExperimentsDeterministic(t *testing.T) {
	serial, par := QuickScale(), QuickScale()
	serial.Workers, par.Workers = 1, 4
	f2serial, endSerial := Figure2(serial)
	f2par, endPar := Figure2(par)
	if len(f2serial) != len(f2par) {
		t.Fatalf("point counts differ: %d vs %d", len(f2serial), len(f2par))
	}
	for i := range f2serial {
		a, b := f2serial[i], f2par[i]
		if a.EL != b.EL || a.Predicted != b.Predicted ||
			(math.IsNaN(a.Measured) != math.IsNaN(b.Measured)) ||
			(!math.IsNaN(a.Measured) && a.Measured != b.Measured) {
			t.Fatalf("figure2 point %d differs: serial %+v parallel %+v", i, a, b)
		}
	}
	if endSerial.Predicted != endPar.Predicted {
		t.Fatalf("figure2 endpoint differs")
	}
}
