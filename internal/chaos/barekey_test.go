package chaos

import (
	"testing"

	"repro/internal/sched"
)

// TestBareKeySound proves bareKey holds everything a bare run reads.
// For every canonical shape it runs uncached bare sessions over a grid
// of kernel seeds and epoch lengths, with the epoch length passed to
// the session, and requires each to equal the cached baseline for its
// key. Serve is the one shape whose key keeps the seed: at least two
// serve seeds must produce different baselines, so the test fails both
// if serve's seed is dropped from the key and if a new seeded consumer
// (or an epoch-length reader) enters bare runs of the other shapes.
func TestBareKeySound(t *testing.T) {
	seeds := []int64{2, 77, 123456789, 1 << 30}
	epochs := []uint64{256, 1024, 4096}
	for _, w := range Workloads() {
		distinct := map[baseline]bool{}
		for _, seed := range seeds {
			want := bareBaseline(w, seed)
			if want.err != nil {
				t.Fatalf("%s seed %d: %v", w.Name, seed, want.err)
			}
			distinct[want] = true
			for _, el := range epochs {
				o := bareOptions(w, seed)
				o.EpochLength = el
				if got := runBare(w, o); got != want {
					t.Errorf("%s seed %d epoch %d: uncached bare run %+v, cached baseline %+v",
						w.Name, seed, el, got, want)
				}
			}
		}
		if w.ClientLoad != nil && len(distinct) < 2 {
			t.Errorf("%s: every seed gave the same baseline; the seed would not belong in its key", w.Name)
		}
	}
}

// TestBareKeyComputedOnce pins the cache's concurrency contract: many
// shards of one shape, fanned across workers with distinct seeds and
// epoch lengths, compute that shape's baseline exactly once.
func TestBareKeyComputedOnce(t *testing.T) {
	w, err := ParseWorkload("cpu")
	if err != nil {
		t.Fatal(err)
	}
	bareMu.Lock()
	delete(bareCache, keyFor(w, 0))
	bareMu.Unlock()

	const shards = 64
	got := make([]baseline, shards)
	before := bareRuns.Load()
	sched.ForEach(4, shards, func(i int) {
		sum, cons, replies, err := Bare(w, int64(1000+i), uint64(256<<(i%3)))
		got[i] = baseline{checksum: sum, console: cons, replies: replies, err: err}
	})
	if n := bareRuns.Load() - before; n != 1 {
		t.Fatalf("%d shards computed the %s baseline %d times, want once", shards, w.Name, n)
	}
	for i, b := range got {
		if b != got[0] {
			t.Fatalf("shard %d saw baseline %+v, shard 0 saw %+v", i, b, got[0])
		}
	}
}
