package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"

	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/machine"
)

// guestCapture boots the guest kernel on a bare 1 MiB machine, runs the
// CPU workload to its halt with hardware trap delivery, and captures
// the machine: a real image with kernel text, data and stack pages.
func guestCapture() machine.State {
	m := machine.New(machine.Config{MemBytes: 1 << 20, TLBSize: 8})
	p := guest.Program()
	m.LoadProgram(p.Origin, p.Words, 0)
	guest.Configure(m, guest.CPUIntensive(4000))
	for !m.Halted() && m.Cycles() < 1_000_000 {
		rr := m.Run(256)
		if rr.Trap != isa.TrapNone {
			m.DeliverTrap(rr.Trap, rr.ISR, rr.IOR)
		}
	}
	return m.CaptureState()
}

// TestRAMEncodingPinned pins putRAM's sparse encoding byte for byte
// (length and SHA-256, recorded from the original byte-loop encoder)
// and checks ram decodes each image back exactly.
func TestRAMEncodingPinned(t *testing.T) {
	lastByte := make([]byte, 3*isa.PageSize)
	lastByte[2*isa.PageSize-1] = 0xA5
	partial := make([]byte, 2*isa.PageSize+100)
	partial[7] = 1
	partial[2*isa.PageSize+99] = 0x5A
	cases := []struct {
		name string
		mem  []byte
		n    int
		sha  string
	}{
		{"all-zero", make([]byte, 4*isa.PageSize), 8, "46386ff0eccd7a7871daa3122b418bbf8e0d0180eca74808a53b2c3ed970f50e"},
		{"last-byte-only", lastByte, 4112, "5517f4013262fc750c6989f92d7fc94970f85a498baa98828a7dca4e31cbf72b"},
		{"partial-final", partial, 4220, "a0ea241cfda5032c92811657d78d00042cb7d8f39aac0dbc3f9c7df7dfbe0d69"},
		{"guest-1MiB", guestCapture().Mem, 20528, "6b4e6c4f052e68f5ebc8afe0cf7d34c8a30a4b4cd279ad3aa54ac551a8549b1f"},
	}
	for _, c := range cases {
		w := &Writer{}
		putRAM(w, c.mem)
		sum := sha256.Sum256(w.buf)
		if got := hex.EncodeToString(sum[:]); len(w.buf) != c.n || got != c.sha {
			t.Errorf("%s: encoded %d bytes sha256 %s, want %d bytes sha256 %s", c.name, len(w.buf), got, c.n, c.sha)
		}
		r := &Reader{b: w.buf}
		back := ram(r, uint32(len(c.mem)))
		if r.Err() != nil || r.Remaining() != 0 || !bytes.Equal(back, c.mem) {
			t.Errorf("%s: decode err %v, %d bytes left, equal %v", c.name, r.Err(), r.Remaining(), bytes.Equal(back, c.mem))
		}
	}
}

// TestRAMDecodeBounds pins ram's structural gates: every malformed or
// oversized image is refused with ErrCorrupt before it is allocated
// (or before a non-canonical page lands in it).
func TestRAMDecodeBounds(t *testing.T) {
	page := func(w *Writer, idx uint32, data []byte) {
		w.U32(idx)
		w.Bytes(data)
	}
	one := bytes.Repeat([]byte{1}, isa.PageSize)
	cases := []struct {
		name string
		want uint32 // the capture's MemBytes field
		enc  func(w *Writer)
	}{
		{"size differs from MemBytes", 2 * isa.PageSize, func(w *Writer) { w.U32(isa.PageSize); w.U32(0) }},
		{"size over the ceiling", maxRAMBytes + isa.PageSize, func(w *Writer) { w.U32(maxRAMBytes + isa.PageSize); w.U32(0) }},
		{"2 GiB claim", 1 << 31, func(w *Writer) { w.U32(1 << 31); w.U32(0) }},
		{"more pages than RAM holds", isa.PageSize, func(w *Writer) {
			w.U32(isa.PageSize)
			w.U32(2)
			page(w, 0, one)
			page(w, 0, one)
		}},
		{"page count past the data", 4 * isa.PageSize, func(w *Writer) { w.U32(4 * isa.PageSize); w.U32(2); page(w, 0, one) }},
		{"page index past RAM", 2 * isa.PageSize, func(w *Writer) { w.U32(2 * isa.PageSize); w.U32(1); page(w, 2, one) }},
		{"pages out of order", 2 * isa.PageSize, func(w *Writer) {
			w.U32(2 * isa.PageSize)
			w.U32(2)
			page(w, 1, one)
			page(w, 0, one)
		}},
		{"short page", 2 * isa.PageSize, func(w *Writer) { w.U32(2 * isa.PageSize); w.U32(1); page(w, 0, one[:10]) }},
		{"long final page", isa.PageSize + 100, func(w *Writer) { w.U32(isa.PageSize + 100); w.U32(1); page(w, 1, one) }},
		{"zero page written", isa.PageSize, func(w *Writer) { w.U32(isa.PageSize); w.U32(1); page(w, 0, make([]byte, isa.PageSize)) }},
	}
	for _, c := range cases {
		w := &Writer{}
		c.enc(w)
		r := &Reader{b: w.buf}
		if mem := ram(r, c.want); mem != nil || !errors.Is(r.Err(), ErrCorrupt) {
			t.Errorf("%s: decoded %d bytes, err %v; want ErrCorrupt", c.name, len(mem), r.Err())
		}
	}
}
