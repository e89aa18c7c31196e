// COW base-image tests: shards sharing one immutable image must be
// perfectly isolated (differential against a machine with no image that
// loads the program itself, so every kernel page is faulted private,
// and against pinned digests, including self-modifying code that forces
// decode invalidation across the COW fault), snapshots must round-trip
// across the sharing boundary, and a thousand shards must cost a small
// fraction of a full RAM copy each.
package machine_test

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/asm"
	"repro/internal/machine"
)

// smcProgram is a self-modifying loop whose behavior is steered by a
// parameter block on a separate page: two instruction variants are
// alternately stored over an executing slot, so every iteration forces
// a COW-aware decode invalidation of the code page.
func smcProgram(t *testing.T) *asm.Program {
	t.Helper()
	w1 := cowWord(t, "addi r3, r3, 1")
	w2 := cowWord(t, "xor  r3, r3, r5")
	src := fmt.Sprintf(`
		la   r10, params
		ldw  r7, 0(r10)   ; variant A instruction word
		ldw  r8, 4(r10)   ; variant B instruction word
		ldw  r5, 8(r10)   ; iteration count
		la   r6, site
	loop:
		stw  r7, 0(r6)
	site:
		nop              ; overwritten by the store two words back
		stw  r8, 0(r6)
		stw  r3, 12(r10) ; scribble the running value next to the params
		xor  r7, r7, r8
		xor  r8, r7, r8
		xor  r7, r7, r8
		addi r5, r5, -1
		bne  r5, r0, loop
		halt
	.org 0x2000
	params:
		.word %#x, %#x, 0, 0
	`, w1, w2)
	p, err := asm.Assemble("cow.s", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

func cowWord(t *testing.T, src string) uint32 {
	t.Helper()
	p, err := asm.Assemble("word.s", src)
	if err != nil {
		t.Fatal(err)
	}
	return p.Words[0]
}

// imageFor builds (and interns) a base image holding the program: it
// covers the program's extent only, RAM past it reads as zero.
func imageFor(p *asm.Program) *machine.BaseImage {
	flat := make([]byte, p.Origin+uint32(4*len(p.Words)))
	for i, w := range p.Words {
		binary.LittleEndian.PutUint32(flat[p.Origin+uint32(4*i):], w)
	}
	return machine.InternImage(flat)
}

// bootCOW creates a memBytes machine over img (nil: all-zero RAM, so
// loading faults every program page private) and loads/starts the
// program.
func bootCOW(p *asm.Program, img *machine.BaseImage, memBytes uint32) *machine.Machine {
	m := machine.New(machine.Config{Image: img, MemBytes: memBytes})
	m.LoadProgram(p.Origin, p.Words, p.Origin)
	return m
}

// configure writes a shard's divergent parameters (iteration count and
// a per-shard xor seed in r5's slot via the variant words' data page).
func configureShard(m *machine.Machine, iters uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], iters)
	m.WriteBytes(0x2000+8, b[:])
}

func runToHalt(t *testing.T, m *machine.Machine, max uint64) {
	t.Helper()
	for !m.Halted() && m.Cycles() < max {
		m.Run(10_000)
	}
	if !m.Halted() {
		t.Fatalf("no halt within %d cycles (PC=%#x)", max, m.PC)
	}
}

// TestCOWIsolationDifferential runs two shards off ONE base image with
// divergent self-modifying workloads, alongside a control for each
// built with no image: every shard's final state and memory digests
// must be byte-identical to its control's and to the values private
// flat RAM produced before COW became the only backing, the shards
// must actually have diverged from each other, and the base image must
// come out untouched.
func TestCOWIsolationDifferential(t *testing.T) {
	p := smcProgram(t)
	const mem = 1 << 20
	img := imageFor(p)
	pristine := bootCOW(p, img, mem).DigestMemory()

	type shard struct {
		iters        uint32
		digest, dmem uint64 // pinned from the private-RAM control
		cow          *machine.Machine
		ctl          *machine.Machine
	}
	shards := []shard{
		{iters: 40, digest: 0xc294ef680892daec, dmem: 0x50193c473f27c48f},
		{iters: 173, digest: 0xef3e320429920011, dmem: 0x16e1bb8f3f4aaa97},
	}
	for i := range shards {
		s := &shards[i]
		s.cow = bootCOW(p, img, mem)
		s.ctl = bootCOW(p, nil, mem)
		configureShard(s.cow, s.iters)
		configureShard(s.ctl, s.iters)
	}
	for i := range shards {
		s := &shards[i]
		runToHalt(t, s.cow, 4_000_000)
		runToHalt(t, s.ctl, 4_000_000)
		if got, want := s.cow.DigestMemory(), s.ctl.DigestMemory(); got != want {
			t.Fatalf("shard %d: COW memory digest %#x, no-image control %#x", i, got, want)
		}
		if s.cow.Digest() != s.ctl.Digest() {
			t.Fatalf("shard %d: full state digest diverges from no-image control", i)
		}
		if got, got2 := s.cow.Digest(), s.cow.DigestMemory(); got != s.digest || got2 != s.dmem {
			t.Fatalf("shard %d: digests %#x/%#x, pinned %#x/%#x", i, got, got2, s.digest, s.dmem)
		}
		if s.cow.SharedPages() == 0 {
			t.Fatalf("shard %d: no pages left shared — COW never engaged", i)
		}
	}
	if shards[0].cow.DigestMemory() == shards[1].cow.DigestMemory() {
		t.Fatal("divergent workloads produced identical memory — the differential is vacuous")
	}
	// The base image is immutable: a shard booted after the others ran
	// sees exactly the pristine contents.
	if got := bootCOW(p, img, mem).DigestMemory(); got != pristine {
		t.Fatalf("base image mutated by shard runs: digest %#x, pristine %#x", got, pristine)
	}
}

// TestCOWSnapshotRoundTrip captures a COW-backed machine mid-run
// (pages split between shared and privatized) and restores it onto a
// fresh COW machine AND onto a machine with no image: both must match
// the source byte-for-byte, now and at halt, and the halt digests must
// equal the values private flat RAM produced.
func TestCOWSnapshotRoundTrip(t *testing.T) {
	p := smcProgram(t)
	const mem = 1 << 20
	const haltDigest, haltDigestMemory = 0xc294ef680892daec, 0x6db96b1bd6422b2f
	img := imageFor(p)

	src := bootCOW(p, img, mem)
	configureShard(src, 200)
	for src.Cycles() < 500 && !src.Halted() {
		src.Step()
	}
	if src.Halted() {
		t.Fatal("program halted before the mid-run capture point")
	}
	st := src.CaptureState()

	cow := bootCOW(p, img, mem)
	if err := cow.RestoreState(st); err != nil {
		t.Fatalf("restore onto COW machine: %v", err)
	}
	ctl := bootCOW(p, nil, mem)
	if err := ctl.RestoreState(st); err != nil {
		t.Fatalf("restore onto no-image machine: %v", err)
	}
	for name, m := range map[string]*machine.Machine{"cow": cow, "no-image": ctl} {
		if m.Digest() != src.Digest() || m.DigestMemory() != src.DigestMemory() {
			t.Fatalf("restored %s machine differs from source before resuming", name)
		}
	}
	if cow.SharedPages() == 0 {
		t.Fatal("restore privatized every page — the re-share path never engaged")
	}

	// All three continue in lockstep to halt.
	for !src.Halted() {
		src.Step()
		cow.Step()
		ctl.Step()
		if src.Digest() != cow.Digest() || src.Digest() != ctl.Digest() {
			t.Fatalf("digests diverge at cycle %d", src.Cycles())
		}
	}
	if !cow.Halted() || !ctl.Halted() {
		t.Fatal("restored machines did not halt with the source")
	}
	if src.DigestMemory() != cow.DigestMemory() || src.DigestMemory() != ctl.DigestMemory() {
		t.Fatal("final memory digests diverge")
	}
	if src.Digest() != haltDigest || src.DigestMemory() != haltDigestMemory {
		t.Fatalf("halt digests %#x/%#x, pinned %#x/%#x", src.Digest(), src.DigestMemory(), uint64(haltDigest), uint64(haltDigestMemory))
	}
}

// TestThousandSharedMachines is the fleet-scale acceptance check: 1000
// 8 MiB machines boot off one base image, each costing a small
// fraction of a full RAM copy, all byte-identical to a control built
// with no image.
func TestThousandSharedMachines(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-machine boot is not -short material")
	}
	p := smcProgram(t)
	const mem = 8 << 20
	img := imageFor(p)
	control := bootCOW(p, nil, mem)
	want := control.DigestMemory()

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	const n = 1000
	ms := make([]*machine.Machine, n)
	for i := range ms {
		ms[i] = bootCOW(p, img, mem)
	}

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	perShard := (after.HeapAlloc - before.HeapAlloc) / n
	// A full copy is 8 MiB of RAM alone; shared shards carry only page
	// tables and the machine struct. Allow 1/8 of a copy as a generous
	// ceiling (observed ~tens of KiB).
	if perShard > mem/8 {
		t.Fatalf("per-shard heap %d bytes — not a small fraction of the %d-byte RAM copy", perShard, mem)
	}
	t.Logf("heap per shard: %d bytes (full copy: %d)", perShard, mem)

	for _, i := range []int{0, 1, n / 2, n - 1} {
		if got := ms[i].DigestMemory(); got != want {
			t.Fatalf("shard %d boots with digest %#x, no-image control %#x", i, got, want)
		}
	}
	// Dirtying one shard must not leak into its neighbors or the image.
	ms[0].WriteBytes(0x3000, []byte{0xde, 0xad, 0xbe, 0xef})
	if got := ms[1].DigestMemory(); got != want {
		t.Fatal("write to shard 0 leaked into shard 1")
	}
	for _, m := range ms {
		m.Release()
	}
}
