package machine

// This file implements deterministic capture and restore of complete
// machine state, the substrate of the snapshot/state-transfer subsystem:
// a repaired processor rejoining the replica set receives the acting
// coordinator's machine image (Bressoud & Schneider §5 assume failed
// components are repaired and reintegrated; VMware FT ships live VM
// state the same way), and a checkpointed session verifies its replayed
// state against the captured one.
//
// The capture is exhaustive over ARCHITECTED and MICROARCHITECTURAL
// state that can influence future execution or timing: registers, PC,
// PSW, control registers, all of physical RAM, the halt latch, the
// retired-instruction counter, statistics, and the full TLB including
// replacement-policy recency state (LRU stamps, round-robin cursor) and
// the deferred fetch-touch slot. It deliberately EXCLUDES derived
// caches: the decoded-page translation cache and the word-decode memo
// are pure functions of RAM contents and instruction words, so
// RestoreState drops them and they rebuild on demand — restoring into a
// machine that previously executed different code is safe.

import (
	"bytes"
	"fmt"

	"repro/internal/isa"
)

// TLBSlotState is one captured TLB slot with its recency stamp.
type TLBSlotState struct {
	Entry TLBEntry
	// LastUse is the LRU policy's recency stamp for the slot (zero for
	// non-LRU policies).
	LastUse uint64
}

// TLBState is the complete captured TLB: contents, replacement-policy
// state and statistics.
type TLBState struct {
	// Policy is the replacement policy name ("lru", "roundrobin",
	// "random"). Restore requires the target machine to use the same
	// policy; "random" is not restorable (its stream is chip-private,
	// modelling the §3.2 nondeterminism — there is nothing deterministic
	// to transfer).
	Policy string
	Slots  []TLBSlotState
	// Stamp is the LRU policy's clock.
	Stamp uint64
	// Next is the round-robin policy's cursor.
	Next int
	// Pending is the deferred fetch-touch slot (-1 none) — part of the
	// recency order, so it must travel with the contents.
	Pending int
	Stats   TLBStats
}

// State is a complete, self-contained capture of one machine. All
// fields are deep copies; mutating the source machine after capture
// does not alter the State.
type State struct {
	MemBytes uint32
	Regs     [isa.NumRegs]uint32
	PC       uint32
	PSW      uint32
	CRs      [isa.NumCRs]uint32
	Halted   bool
	Cycles   uint64
	Stats    Stats
	// Mem is the full physical RAM image.
	Mem []byte
	TLB TLBState
}

// CaptureState snapshots the machine. Read-only: capture has no effect
// on subsequent execution.
func (m *Machine) CaptureState() State {
	s := State{
		MemBytes: m.cfg.MemBytes,
		Regs:     m.Regs,
		PC:       m.PC,
		PSW:      m.PSW,
		CRs:      m.CRs,
		Halted:   m.halted,
		Cycles:   m.cycles,
		Stats:    m.Stats,
		Mem:      make([]byte, m.memSize),
	}
	// Materialize RAM page-wise: shared and private frames alike copy
	// out the bytes the machine holds.
	for i, fr := range m.frames {
		base := uint32(i) << isa.PageShift
		n := m.memSize - base
		if n > isa.PageSize {
			n = isa.PageSize
		}
		copy(s.Mem[base:], fr[:n])
	}
	s.TLB = m.TLB.captureState()
	return s
}

// RestoreState overwrites the machine's state with a capture. The
// target must be configured compatibly (same RAM size, TLB geometry and
// replacement policy); the decoded-page cache and decode memo are
// invalidated, and the machine's own CPUID is preserved — processor
// identity belongs to the chip, not the transferred virtual-machine
// state (the hypervisor virtualizes CPUID anyway).
func (m *Machine) RestoreState(s State) error {
	if s.MemBytes != m.memSize {
		return fmt.Errorf("machine: restore: RAM size %d into machine with %d", s.MemBytes, m.memSize)
	}
	if len(s.Mem) != int(m.memSize) {
		return fmt.Errorf("machine: restore: image has %d RAM bytes, want %d", len(s.Mem), m.memSize)
	}
	if err := m.TLB.checkRestorable(s.TLB); err != nil {
		return err
	}
	m.Regs = s.Regs
	m.PC = s.PC
	m.PSW = s.PSW
	m.CRs = s.CRs
	m.CRs[isa.CRCPUID] = m.cfg.CPUID // chip identity stays local
	m.halted = s.Halted
	m.cycles = s.Cycles
	m.Stats = s.Stats
	// Restore RAM page-wise. Pages whose restored contents equal the
	// shared frame (the base image's, or the zero frame past it) stay
	// (or become again) shared — restoring a capture of a lightly
	// diverged machine re-deduplicates it — and only differing pages
	// hold (or fault) a private frame.
	for i := range m.frames {
		idx := uint32(i)
		base := idx << isa.PageShift
		n := m.memSize - base
		if n > isa.PageSize {
			n = isa.PageSize
		}
		src := s.Mem[base : base+n]
		shared := &m.img.frame(idx).data
		if bytes.Equal(src, shared[:n]) {
			if m.ownedPage(idx) {
				framePool.Put(m.frames[i])
				m.frames[i] = shared
				m.owned[idx>>6] &^= 1 << (idx & 63)
			}
			continue
		}
		m.faultPage(idx)
		copy(m.frames[i][:n], src)
	}
	// The decoded-page cache is derived from RAM: drop it wholesale so
	// stale images of the previous contents cannot be dispatched.
	for i := range m.pages {
		m.pages[i] = nil
	}
	m.TLB.restoreState(s.TLB)
	return nil
}

// captureState snapshots the TLB including policy recency state.
func (t *TLB) captureState() TLBState {
	s := TLBState{
		Policy:  t.policy.Name(),
		Slots:   make([]TLBSlotState, len(t.slots)),
		Pending: t.pending,
		Stats:   t.Stats,
	}
	for i, e := range t.slots {
		s.Slots[i].Entry = e
	}
	switch p := t.policy.(type) {
	case *LRUPolicy:
		s.Stamp = p.stamp
		for i := range s.Slots {
			s.Slots[i].LastUse = p.last[i]
		}
	case *RoundRobinPolicy:
		s.Next = p.next
	}
	return s
}

// checkRestorable verifies geometry and policy compatibility.
func (t *TLB) checkRestorable(s TLBState) error {
	if len(s.Slots) != len(t.slots) {
		return fmt.Errorf("machine: restore: TLB has %d slots, capture has %d", len(t.slots), len(s.Slots))
	}
	if s.Policy != t.policy.Name() {
		return fmt.Errorf("machine: restore: TLB policy %q into machine with %q", s.Policy, t.policy.Name())
	}
	if s.Policy == "random" {
		return fmt.Errorf("machine: restore: random TLB replacement is chip-private and not restorable")
	}
	return nil
}

// restoreState overwrites the TLB from a capture (pre-validated).
func (t *TLB) restoreState(s TLBState) {
	for i := range t.slots {
		t.slots[i] = s.Slots[i].Entry
	}
	t.pending = s.Pending
	t.Stats = s.Stats
	switch p := t.policy.(type) {
	case *LRUPolicy:
		p.stamp = s.Stamp
		for i := range p.last {
			p.last[i] = s.Slots[i].LastUse
		}
	case *RoundRobinPolicy:
		p.next = s.Next
	}
}
