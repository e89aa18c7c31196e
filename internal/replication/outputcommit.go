package replication

// This file implements the output-commit latency engine: the VMware-FT
// style output rule (Scales et al.) layered over the paper's epoch
// protocol. Three coordinated mechanisms, all opt-in and byte-identical
// to the classic engines when disabled:
//
//   - Deferred output with pipelined acknowledgment: the coordinator
//     never blocks an epoch boundary on acknowledgements. Environment
//     output generated in epoch E is deferred (hypervisor-side buffer)
//     and released only when E's frame is acknowledged by every live
//     peer; meanwhile execution runs ahead into epochs E+1..E+W.
//   - Coalesced framing: [Tme_p], [end, E] and the epoch's interrupt
//     records travel as ONE pooled multi-record frame instead of 2+k
//     messages, collapsing the per-peer controller set-up cost from
//     (2+k)·SetupTime to SetupTime per epoch.
//   - Output-triggered boundaries (hypervisor.Config.AdaptiveBoundary):
//     an environment output cuts the epoch CutSlack instructions later,
//     so output latency is bounded by the frame round-trip instead of
//     the remaining epoch length.
//
// Exactly-once across promotion, extended to the pipelined window: the
// coordinator's release watermark (epochHead.Released) tells each backup
// which suppressed-output prefix has provably been emitted; the backup
// drops that prefix and retains the rest. At failover the promotion
// flush re-emits the retained tail through the devices' ordinal dedup,
// so output the dead coordinator already performed is dropped and output
// it never released is emitted — each operation exactly once. Epochs the
// dead coordinator executed beyond the backup's failover epoch released
// no output (release requires an acknowledgement the backup, by FIFO
// order, never sent), so they are invisible to the environment and the
// new coordinator re-executes from a consistent cut.

import (
	"fmt"

	"repro/internal/hypervisor"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// OutputCommit configures the output-commit engine. The zero value is
// "off": the engines behave byte-identically to the classic protocol.
type OutputCommit struct {
	// Enabled turns deferred output, pipelined acknowledgment and
	// coalesced framing on.
	Enabled bool
	// Window is the maximum number of epochs the coordinator may run
	// ahead of the oldest unacknowledged epoch (minimum and default 1).
	Window int
	// Adaptive enables output-triggered epoch boundaries; it must be
	// mirrored into hypervisor.Config.AdaptiveBoundary on EVERY replica
	// (the session layer does this) so all replicas cut identically.
	Adaptive bool
}

// epochHead is the header of a coalesced epoch frame: the classic
// [Tme_p] and [end, E] messages folded together, plus the output-commit
// bookkeeping.
type epochHead struct {
	Seq    uint64
	Epoch  uint64
	Tme    uint32
	Digest uint64
	Halted bool
	// Cut is the absolute guest-instruction coordinate the epoch ended
	// at. Under adaptive boundaries every replica must choose the same
	// cut; the backup verifies its own coordinate against this.
	Cut uint64
	// Released/HaveReleased is the coordinator's output-release
	// watermark: deferred output through epoch Released has been
	// emitted. Backups drop their suppressed copies up to it and retain
	// the rest as the promotion flush set.
	Released     uint64
	HaveReleased bool
}

// epochFrame is the pooled wire representation of one epoch: header plus
// the epoch's captured interrupt records.
type epochFrame = netsim.Frame[epochHead, hypervisor.Interrupt]

// epochBatch is a pooled second-level coalescing unit: when the transmit
// queue has a backlog (the guest produced epoch boundaries faster than
// the controller's per-message set-up cost can ship them), every queued
// epoch frame is folded into ONE wire message, so the set-up cost is
// paid once per batch instead of once per epoch. Self-clocking: a
// backlog only forms when frames outpace the link, and batching then
// collapses it — the replication stream never bufferbloats behind the
// controller.
type epochBatch = netsim.Frame[struct{}, *epochFrame]

// ocPending is one epoch in the commit window: sent, awaiting the
// acknowledgement that releases its deferred output.
type ocPending struct {
	epoch uint64
	seq   uint64
}

// enqueueFrame stamps one coalesced epoch frame with the next sequence
// number and hands it to the transmit process. The coordinator does NOT
// sleep here: the per-peer controller set-up cost is paid by the
// dedicated transmit process (txLoop), the way a DMA-capable controller
// works a queue while the CPU runs on — under output commit the guest
// resumes the next epoch immediately instead of stalling SetupTime per
// peer at every boundary. Sequence numbers are assigned in enqueue
// order and the single transmit process preserves it, so the FIFO
// acknowledgement watermark semantics are unchanged.
func (c *coordinator) enqueueFrame(f *epochFrame) {
	if len(c.s.peers) == 0 {
		f.Retain(1)
		f.Release()
		return
	}
	c.s.seq++
	f.Head.Seq = c.s.seq
	c.txq = append(c.txq, f)
	c.txSig.Broadcast()
}

// txLoop is the coordinator's transmit process: it drains the frame
// queue in FIFO order, paying the per-peer controller set-up cost — the
// framing win: the classic path pays it per message, (2 + interrupts)
// times, and on the guest's own critical path. It exits on coordinator
// failstop (queued frames die with the processor, exactly as writes a
// failstopped CPU never posted to its controller) or once the queue is
// drained after runOC closes it.
func (c *coordinator) txLoop(p *sim.Proc) {
	for {
		if c.stopped() {
			return
		}
		if len(c.txq) == 0 {
			if c.txClose {
				return
			}
			p.WaitTimeout(c.txSig, 10*sim.Millisecond)
			continue
		}
		if len(c.txq) == 1 {
			f := c.txq[0]
			c.txq[0] = nil
			c.txq = c.txq[:0]
			c.s.transmitFrame(p, f, c.stopped)
			c.ocSig.Broadcast() // wake a join barrier watching txq drain
			continue
		}
		// Backlog: coalesce everything queued into one batch message.
		b := c.bpool.Get()
		for i, f := range c.txq {
			b.Recs = append(b.Recs, f)
			b.Size += f.Size
			c.txq[i] = nil
		}
		b.Size += 8 // batch header
		c.txq = c.txq[:0]
		c.s.transmitBatch(p, b, c.stopped)
		c.ocSig.Broadcast() // wake a join barrier watching txq drain
	}
}

// transmitFrame fans one stamped frame out to every peer. One reference
// per live receiver plus the sender's own; a link that goes down
// mid-fanout drops its copy without releasing, the frame leaks to the
// GC and the pool self-heals (see netsim.FramePool).
func (s *sender) transmitFrame(p *sim.Proc, f *epochFrame, stopped func() bool) {
	live := int32(0)
	for _, ps := range s.peers {
		if !ps.peer.TX.Down() {
			live++
		}
	}
	f.Retain(live + 1)
	for _, ps := range s.peers {
		if stopped != nil && stopped() {
			// Failstop mid-fanout: remaining peers never receive this
			// frame (their references leak to the GC, as above).
			break
		}
		s.stats.MessagesSent++
		s.stats.BytesSent += uint64(f.Size)
		ps.peer.TX.Send(f, f.Size)
		p.Sleep(ps.peer.TX.Config().SetupTime)
	}
	f.Release()
}

// transmitBatch fans one batch message out to every peer. The batch
// carries one reference per live receiver plus the sender's; each inner
// epoch frame carries one per live receiver (each receiver files and
// releases the inner frames individually, then releases the batch).
func (s *sender) transmitBatch(p *sim.Proc, b *epochBatch, stopped func() bool) {
	live := int32(0)
	for _, ps := range s.peers {
		if !ps.peer.TX.Down() {
			live++
		}
	}
	b.Retain(live + 1)
	for _, f := range b.Recs {
		f.Retain(live)
	}
	for _, ps := range s.peers {
		if stopped != nil && stopped() {
			break
		}
		s.stats.MessagesSent++
		s.stats.BytesSent += uint64(b.Size)
		ps.peer.TX.Send(b, b.Size)
		p.Sleep(ps.peer.TX.Config().SetupTime)
	}
	b.Release()
}

// ackHandler returns the delivery hook for one peer's acknowledgement
// channel. It runs in simulation-event context (no blocking): update the
// ack watermark, then release whatever the new watermark commits.
func (c *coordinator) ackHandler(ps *peerState) func(netsim.Message) {
	return func(raw netsim.Message) {
		if !ps.absorb(raw, c.s.seq, c.stats) {
			return
		}
		// A failstopped coordinator must not emit: an acknowledgement
		// already in flight when the processor stopped still arrives
		// (links deliver what was sent), but releasing output for it
		// would be a zombie interaction with the environment.
		if c.stopped() {
			return
		}
		c.ocRelease()
		c.ocSig.Broadcast()
	}
}

// attachPeer splices a late joiner into the fan-out and, under output
// commit, wires its acknowledgement channel into the release path.
func (c *coordinator) attachPeer(p Peer) {
	ps := c.s.addPeer(p)
	if c.oc.Enabled && c.ocSig != nil {
		ps.peer.RX.OnDeliver = c.ackHandler(ps)
	}
}

// ocRelease advances the release watermark: every pending epoch whose
// frame all live peers acknowledged has its deferred output emitted, in
// order. Called from the acknowledgement delivery hook and from the
// coordinator's own wait ticks; safe in both contexts (device output and
// link sends do not block).
func (c *coordinator) ocRelease() {
	ma := c.s.minAcked()
	n := 0
	for n < len(c.ocPend) && c.ocPend[n].seq <= ma {
		pe := c.ocPend[n]
		cnt, firstAt := c.hv.ReleaseDeferredThrough(pe.epoch)
		c.released, c.haveReleased = pe.epoch, true
		c.ackedThrough, c.haveAcked = pe.epoch, true
		c.stats.OutputsReleased += uint64(cnt)
		n++
		if c.hooks != nil && c.hooks.OutputCommitted != nil {
			now := c.k.Now()
			var lat sim.Time
			if cnt > 0 && firstAt > 0 {
				lat = now - firstAt
			}
			c.hooks.OutputCommitted(c.node, pe.epoch, now, lat, cnt, len(c.ocPend)-n)
		}
	}
	if n > 0 {
		m := copy(c.ocPend, c.ocPend[n:])
		c.ocPend = c.ocPend[:m]
		if c.haveAcked && c.ackedThrough+1 > archiveResyncKeep {
			c.archive.trim(c.ackedThrough + 1 - archiveResyncKeep)
		}
	}
}

// ocWait blocks until cond holds, waking on acknowledgement arrivals and
// ticking the liveness detector through silences. Returns false if the
// coordinator stopped while waiting.
func (c *coordinator) ocWait(p *sim.Proc, cond func() bool) bool {
	if cond() {
		return true
	}
	start := p.Now()
	c.stats.AckWaits++
	for !cond() {
		if c.stopped() {
			c.stats.AckWaitTime += p.Now() - start
			return false
		}
		if !p.WaitTimeout(c.ocSig, 10*sim.Millisecond) {
			// Silence: peers may have died, or their links gone down —
			// both advance minAcked by exclusion.
			c.s.livenessTick(p.Now())
			c.ocRelease()
		}
	}
	c.stats.AckWaitTime += p.Now() - start
	return true
}

// runOC is the coordinator loop under output commit: execute epochs
// back-to-back inside the commit window, ship each as one coalesced
// frame, and let acknowledgements release deferred output asynchronously.
func (c *coordinator) runOC(p *sim.Proc, tme0 uint32) {
	hv := c.hv
	hv.SetTODBase(tme0)
	w := c.oc.Window
	if w < 1 {
		w = 1
	}
	for !hv.Halted() && !c.stopped() {
		// Window admission: at most w epochs awaiting acknowledgement.
		if !c.ocWait(p, func() bool { return len(c.ocPend) < w }) {
			return
		}
		b := hv.RunEpoch(p)
		if c.stopped() {
			return
		}
		c.stats.Epochs++
		tme := b.TOD

		// Build the coalesced frame. The interrupt records are snapshotted
		// BEFORE timer synthesis: backups compute timer interrupts from
		// Tme themselves, exactly as in the classic protocol.
		f := c.pool.Get()
		f.Head = epochHead{
			Epoch: b.Epoch, Tme: tme, Digest: b.Digest, Halted: b.Halted,
			Cut:      b.GuestInstr,
			Released: c.released, HaveReleased: c.haveReleased,
		}
		for _, i := range hv.Buffered() {
			f.Recs = append(f.Recs, i)
			f.Size += i.WireSize()
		}
		hv.TimerInterruptsDue(tme)
		var delivered []hypervisor.Interrupt
		if buf := hv.Buffered(); len(buf) > 0 {
			delivered = append([]hypervisor.Interrupt(nil), buf...)
		}
		hv.DeliverBuffered()
		c.archive.record(SyncEpoch{
			Epoch: b.Epoch, Tme: tme, Ints: delivered,
			Digest: b.Digest, Halted: b.Halted,
		})
		c.enqueueFrame(f)
		c.ocPend = append(c.ocPend, ocPending{epoch: b.Epoch, seq: c.s.seq})
		// Unlike the classic loop, no virtual time passed since the
		// epoch ended (the transmit process pays the fan-out cost), so a
		// failstop cannot land mid-boundary; the re-check is kept for
		// the event-context stops delivered during RunEpoch's device
		// polling.
		if c.stopped() {
			return
		}
		c.ocRelease()
		if c.stopped() {
			return
		}
		if c.joinBarrier {
			// A reintegration wants this boundary as its state-transfer
			// point: hold here until the stream drains, so the captured
			// image never certifies an epoch that would be lost — and
			// re-executed differently by a promoted backup — were this
			// processor to failstop now. Draining BEFORE the commit hook
			// lets the session's boundary-sampled stop predicate observe
			// the drained state.
			if !c.ocWait(p, func() bool { return c.drained() }) {
				return
			}
		}
		if c.hooks != nil && c.hooks.EpochCommitted != nil {
			c.hooks.EpochCommitted(c.node, b.Epoch, tme, p.Now(), b.Halted)
		}
		hv.ChargeBoundary(p)
		hv.SetTODBase(tme)
	}
	// Drain: the guest halted (or stopped) with epochs still in flight —
	// wait their acknowledgements out so the final output is released,
	// then let the transmit process exit.
	c.ocWait(p, func() bool { return len(c.ocPend) == 0 })
	c.txClose = true
	c.txSig.Broadcast()
}

// fileFrame files one received epoch frame: the coalesced equivalent of
// one msgTme, one msgEnd, and the epoch's msgInterrupt stream.
func (bk *Backup) fileFrame(f *epochFrame) {
	h := f.Head
	r := bk.rec(h.Epoch)
	if r.verbatim == nil {
		bk.Stats.IntsReceived += uint64(len(f.Recs))
		for i := range f.Recs {
			r.ints[uint32(i)] = f.Recs[i]
		}
		tme := h.Tme
		r.tme = &tme
		r.end = &message{
			Kind: msgEnd, Seq: h.Seq, Epoch: h.Epoch,
			Digest: h.Digest, Halted: h.Halted,
			Cut: h.Cut, HasCut: true,
			Released: h.Released, HaveReleased: h.HaveReleased,
		}
	}
	f.Release()
}

// checkCut verifies the backup's epoch-boundary coordinate against the
// coordinator's (adaptive boundaries must be chosen identically).
func (bk *Backup) checkCut(e uint64, end *message, ours uint64) bool {
	if !end.HasCut || end.Cut == ours {
		return true
	}
	bk.Stats.Divergences++
	if bk.OnDivergence != nil {
		bk.OnDivergence(e, end.Cut, ours)
		return false
	}
	panic(fmt.Sprintf("replication: boundary divergence at epoch %d: primary cut %d backup cut %d",
		e, end.Cut, ours))
}
