package machine

import (
	"testing"

	"repro/internal/isa"
)

// TestOneRAMBacking pins copy-on-write frames as the only RAM backing:
// a machine with no image starts with every page on the shared zero
// frame, the first differing store faults exactly one page, RAM past a
// short image reads zero and stays shared, and Release recycles only
// the frames faulted private — never a shared one.
func TestOneRAMBacking(t *testing.T) {
	const mem = 64 << 10
	const npages = mem >> isa.PageShift
	m := New(Config{MemBytes: mem})
	if got := m.SharedPages(); got != npages {
		t.Fatalf("no-image machine starts with %d shared pages, want %d", got, npages)
	}
	m.StorePhys32(0x1000, 0)
	if got := m.SharedPages(); got != npages {
		t.Fatalf("storing the zero already present faulted: %d shared pages, want %d", got, npages)
	}
	m.StorePhys32(0x1004, 0xdeadbeef)
	if got := m.SharedPages(); got != npages-1 {
		t.Fatalf("first differing store left %d shared pages, want %d", got, npages-1)
	}
	if got := m.LoadPhys32(0x1004); got != 0xdeadbeef {
		t.Fatalf("faulted page reads %#x, want 0xdeadbeef", got)
	}
	fresh := New(Config{MemBytes: mem})
	if got := fresh.LoadPhys32(0x1004); got != 0 {
		t.Fatalf("another machine's store reached a fresh machine: reads %#x", got)
	}
	zero := fresh.frames[0]

	img := InternImage([]byte{1, 2, 3, 4, 5})
	c := New(Config{Image: img, MemBytes: mem})
	if got := c.LoadPhys32(0); got != 0x04030201 {
		t.Fatalf("image word reads %#x, want 0x04030201", got)
	}
	for pa := uint32(4); pa < mem; pa += 4 {
		want := uint32(0)
		if pa == 4 {
			want = 5
		}
		if got := c.LoadPhys32(pa); got != want {
			t.Fatalf("RAM at %#x past a 5-byte image reads %#x, want %#x", pa, got, want)
		}
	}
	if got := c.SharedPages(); got != npages {
		t.Fatalf("reads past the image faulted: %d shared pages, want %d", got, npages)
	}
	for idx := 1; idx < npages; idx++ {
		if c.frames[idx] != zero {
			t.Fatalf("page %d past the image is not the shared zero frame", idx)
		}
	}

	for idx := uint32(0); idx < 16; idx++ {
		m.StorePhys32(idx<<isa.PageShift+8, idx+1)
	}
	faulted := map[*ramPage]bool{}
	for idx := range m.frames {
		if m.ownedPage(uint32(idx)) {
			faulted[m.frames[idx]] = true
		}
	}
	if len(faulted) != 16 {
		t.Fatalf("%d pages faulted, want 16", len(faulted))
	}
	shared := map[*ramPage]bool{zero: true, &img.frames[0].data: true}
	m.Release()
	c.Release()
	seen := 0
	for i := 0; i < 4*len(faulted)+64; i++ {
		fr := grabFrame()
		if shared[fr] {
			t.Fatal("Release recycled a shared frame")
		}
		if faulted[fr] {
			seen++
		}
	}
	if seen == 0 {
		t.Fatal("Release recycled none of the faulted frames")
	}
}
