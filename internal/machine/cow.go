package machine

// Copy-on-write guest RAM. A fleet of machines booting the same kernel
// image should pay for that image once, not once per machine: RAM is
// page-granular, every page frame is a pointer, and every machine
// starts with every frame pointing into a shared, immutable BaseImage.
// An image covers a prefix of RAM; every frame past it — and every
// frame of a machine built with no image — points at one shared
// all-zero frame. The first store that CHANGES a page's contents
// faults the page — copies the frame private and flips its ownership
// bit — after which the page is writable in place. A store that writes
// back the bytes already present is a no-op: page contents are
// unchanged, so nothing observable (decoded pages, traces, digests)
// can depend on it. That rule is what lets the boot loader replay the
// kernel image over a shared base without faulting a single page.
//
// Frames are interned by content across all base images (64-bit FNV-1a
// hash, full compare on collision), so a thousand shards booting the
// same kernel share one copy of each page — and all-zero pages map to
// the single zero frame without being hashed. Each shared frame also
// carries a lazily built, immutable decoded image of its instruction
// slots (the shared decoded-page cache): when a machine first executes
// an unfaulted shared page, its private decodedPage is seeded by
// copying the shared decode instead of re-decoding word by word. The
// copy is semantically identical to what lazy fill() would build —
// same insts, words, priv and resync bits — except that every
// decodable slot is valid up front; extra valid bits only skip fill
// calls that would have produced the same entries. Superblock traces
// stay per-machine: they are built in the machine's own decodedPage
// and never shared.

import (
	"encoding/binary"
	"sync"

	"repro/internal/isa"
)

// ramPage is one page-sized frame of guest RAM.
type ramPage = [isa.PageSize]byte

// sharedFrame is one immutable, interned page of a BaseImage plus its
// lazily built shared decoded image. The data never changes after
// interning; machines that diverge copy the frame private first.
type sharedFrame struct {
	data ramPage
	once sync.Once
	dec  *sharedDecode
}

// sharedDecode is the immutable decoded image of a shared frame: the
// subset of decodedPage that is a pure function of page contents.
type sharedDecode struct {
	insts  [instsPerPage]isa.Inst
	words  [instsPerPage]uint32
	valid  [instsPerPage / 64]uint64
	priv   [instsPerPage / 64]uint64
	resync [instsPerPage / 64]uint64
}

// decoded returns the frame's shared decode, building it on first use.
// The build mirrors fill() exactly: slots that do not decode stay
// invalid (they trap out of the fast loop on fetch), priv marks
// privileged-class instructions, resync marks the instructions that
// can invalidate hoisted fast-loop state.
func (f *sharedFrame) decoded() *sharedDecode {
	f.once.Do(func() {
		d := &sharedDecode{}
		for slot := 0; slot < instsPerPage; slot++ {
			w := binary.LittleEndian.Uint32(f.data[slot*4:])
			in, err := isa.Decode(w)
			if err != nil {
				continue
			}
			bit := uint64(1) << (slot & 63)
			d.insts[slot] = in
			d.words[slot] = w
			if isa.Privileged(in.Op) {
				d.priv[slot>>6] |= bit
			}
			switch in.Op {
			case isa.OpMTCTL, isa.OpRFI, isa.OpITLBI, isa.OpPTLB:
				d.resync[slot>>6] |= bit
			}
			d.valid[slot>>6] |= bit
		}
		f.dec = d
	})
	return f.dec
}

// copyInto seeds a fresh per-machine decodedPage from the shared
// decode. Trace state (traceAt/cover/traces/gen) is per-machine and
// already reset by grabPage.
func (d *sharedDecode) copyInto(pg *decodedPage) {
	pg.insts = d.insts
	pg.words = d.words
	pg.valid = d.valid
	pg.priv = d.priv
	pg.resync = d.resync
}

// BaseImage is an immutable guest RAM image shared read-only by any
// number of machines (Config.Image). It covers a prefix of RAM: Size
// need not be page-aligned (the last frame is zero-padded), and RAM
// past it reads as zero.
type BaseImage struct {
	size   uint32
	frames []*sharedFrame
}

// Size returns the image size in bytes (the default RAM size of
// machines built over it).
func (img *BaseImage) Size() uint32 { return img.size }

// zeroFrame is the shared all-zero frame: every page past an image's
// extent, and every page of a machine with no image, starts on it.
var zeroFrame = &sharedFrame{}

// frame returns the shared frame backing page idx: the image's own
// frame within its extent, the zero frame past it (or with no image).
func (img *BaseImage) frame(idx uint32) *sharedFrame {
	if img != nil && int(idx) < len(img.frames) {
		return img.frames[idx]
	}
	return zeroFrame
}

// frameIntern deduplicates frames by content across all base images.
var frameIntern struct {
	sync.Mutex
	byHash map[uint64][]*sharedFrame
}

// internFrame returns the canonical shared frame for the given page
// contents (zero-padded to a full page).
func internFrame(data []byte) *sharedFrame {
	var page ramPage
	copy(page[:], data)
	if page == zeroFrame.data {
		return zeroFrame
	}
	h := fnv64a(page[:])
	frameIntern.Lock()
	defer frameIntern.Unlock()
	if frameIntern.byHash == nil {
		frameIntern.byHash = make(map[uint64][]*sharedFrame)
	}
	for _, f := range frameIntern.byHash[h] {
		if f.data == page {
			return f
		}
	}
	f := &sharedFrame{data: page}
	frameIntern.byHash[h] = append(frameIntern.byHash[h], f)
	return f
}

// fnv64a is the 64-bit FNV-1a hash (content key for frame interning;
// only equality after a full compare is ever trusted).
func fnv64a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// InternImage builds a base image over a flat RAM prefix, interning
// each page: images holding the same bytes share every frame and its
// decode, so the image itself is only a table of pointers.
func InternImage(mem []byte) *BaseImage {
	npages := (len(mem) + isa.PageSize - 1) >> isa.PageShift
	img := &BaseImage{size: uint32(len(mem)), frames: make([]*sharedFrame, npages)}
	for i := 0; i < npages; i++ {
		lo := i << isa.PageShift
		hi := lo + isa.PageSize
		if hi > len(mem) {
			hi = len(mem)
		}
		img.frames[i] = internFrame(mem[lo:hi])
	}
	return img
}

// ownedPage reports whether physical page idx is private to this
// machine (writable in place).
func (m *Machine) ownedPage(idx uint32) bool {
	return m.owned[idx>>6]&(1<<(idx&63)) != 0
}

// faultPage makes page idx private (the copy-on-write fault): the
// shared frame's contents are copied into a fresh frame and the
// ownership bit is set. Idempotent on pages already owned.
func (m *Machine) faultPage(idx uint32) *ramPage {
	fr := m.frames[idx]
	if m.ownedPage(idx) {
		return fr
	}
	priv := grabFrame()
	*priv = *fr
	m.frames[idx] = priv
	m.owned[idx>>6] |= 1 << (idx & 63)
	return priv
}

// SharedPages returns the number of RAM pages still backed by a shared
// frame (the base image's or the zero frame). Tests and fleet metrics
// use it to verify sharing.
func (m *Machine) SharedPages() int {
	n := 0
	for i := range m.frames {
		if !m.ownedPage(uint32(i)) {
			n++
		}
	}
	return n
}
