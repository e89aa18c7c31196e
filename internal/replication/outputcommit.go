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

// windowOpen reports whether another epoch may start: fewer than
// Window (minimum 1) epochs await acknowledgement.
func (c *coordinator) windowOpen() bool {
	return len(c.sent) < max(c.oc.Window, 1)
}

// newFrame builds an epoch's coalesced frame. The interrupt records are
// snapshotted BEFORE timer synthesis: backups compute timer interrupts
// from Tme themselves, exactly as in the classic protocol.
func (c *coordinator) newFrame(b hypervisor.Boundary) *epochFrame {
	f := c.pool.Get()
	f.Head = epochHead{
		Epoch: b.Epoch, Tme: b.TOD, Digest: b.Digest, Halted: b.Halted,
		Cut:      b.GuestInstr,
		Released: c.released, HaveReleased: c.haveReleased,
	}
	for _, i := range c.hv.Buffered() {
		f.Recs = append(f.Recs, i)
		f.Size += i.WireSize()
	}
	return f
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
// drained after run closes it.
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
			c.ackSig.Broadcast() // wake a join barrier watching txq drain
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
		c.ackSig.Broadcast() // wake a join barrier watching txq drain
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

// release emits retired epoch e's deferred output and reports it to the
// OutputCommitted hook; inflight is how many epochs remain in the
// commit window afterwards.
func (c *coordinator) release(e uint64, inflight int) {
	cnt, firstAt := c.hv.ReleaseDeferredThrough(e)
	c.released, c.haveReleased = e, true
	c.stats.OutputsReleased += uint64(cnt)
	if c.hooks != nil && c.hooks.OutputCommitted != nil {
		now := c.k.Now()
		var lat sim.Time
		if cnt > 0 && firstAt > 0 {
			lat = now - firstAt
		}
		c.hooks.OutputCommitted(c.node, e, now, lat, cnt, inflight)
	}
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
