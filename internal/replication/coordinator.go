package replication

import (
	"fmt"
	"sort"

	"repro/internal/hypervisor"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// epochArchive retains, per epoch, exactly what was delivered at its
// boundary. A promoted backup uses it to bring lower-priority backups
// onto its stream (msgSync). Bounded: entries older than windowEpochs
// are pruned — a lagging backup further behind than the window cannot be
// resynchronized (it detects this and withdraws).
type epochArchive struct {
	entries map[uint64]SyncEpoch
	oldest  uint64
	newest  uint64
	window  uint64
}

const defaultArchiveWindow = 4096

// archiveResyncKeep is how many fully-acknowledged epochs a coordinator
// retains beyond the hard window. An epoch every live peer has
// acknowledged end-to-end can never need replaying (FIFO channels: the
// ack proves the peer holds everything for it), so the archive stays at
// this depth in steady state instead of growing to the window.
const archiveResyncKeep = 8

func newEpochArchive() *epochArchive {
	return &epochArchive{entries: map[uint64]SyncEpoch{}, window: defaultArchiveWindow}
}

// record stores one epoch's delivery history.
func (a *epochArchive) record(e SyncEpoch) {
	if a == nil {
		return
	}
	if len(a.entries) == 0 || e.Epoch < a.oldest {
		a.oldest = e.Epoch
	}
	if e.Epoch > a.newest {
		a.newest = e.Epoch
	}
	a.entries[e.Epoch] = e
	for a.newest-a.oldest >= a.window {
		delete(a.entries, a.oldest)
		a.oldest++
	}
}

// trim drops every entry older than keepFrom (acknowledged history).
func (a *epochArchive) trim(keepFrom uint64) {
	if a == nil || len(a.entries) == 0 {
		return
	}
	if keepFrom > a.newest+1 {
		keepFrom = a.newest + 1
	}
	for a.oldest < keepFrom {
		delete(a.entries, a.oldest)
		a.oldest++
	}
}

// len reports how many epochs are retained (tests).
func (a *epochArchive) len() int { return len(a.entries) }

// since returns archived epochs >= from, in order.
func (a *epochArchive) since(from uint64) []SyncEpoch {
	var out []SyncEpoch
	for e := range a.entries {
		if e >= from {
			out = append(out, a.entries[e])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Epoch < out[j].Epoch })
	return out
}

// coordinator runs the primary side of the protocol: rules P1 and P2
// (or the §4.3 revision) against a hypervisor, fanning messages out to a
// set of backups through a sender. It is shared between the initial
// Primary engine and a Backup that has been promoted and must continue
// coordinating lower-priority backups. One boundary loop serves every
// protocol; the only fork is how a boundary is shipped — inline
// [Tme_p]/[end,E] messages (classic), or one coalesced frame queued for
// the transmit process (output commit, outputcommit.go).
type coordinator struct {
	hv      *hypervisor.Hypervisor
	s       *sender
	proto   Protocol
	stats   *Stats
	stopped func() bool
	archive *epochArchive
	// hooks/node observe epoch commits (hooks points at the owning
	// engine's Hooks so late assignment is seen).
	hooks *Hooks
	node  int
	k     *sim.Kernel

	intIndex uint32 // capture index within the current epoch

	// sent is the ledger of shipped epochs awaiting acknowledgement,
	// oldest first: each epoch with the sequence number of the message
	// that completed it ([end, E], or the epoch frame under output
	// commit). retire pops the prefix every live peer acknowledged;
	// ackedThrough is the newest epoch every live peer provably holds
	// end to end (FIFO links: acking the completing message implies
	// holding everything before it). Drives archive trimming.
	sent         []SentEpoch
	ackedThrough uint64
	haveAcked    bool
	// ackSig is broadcast by every acknowledgement delivery (and by the
	// transmit process as its queue drains); waitAcked sleeps on it.
	ackSig *sim.Signal

	// Output-commit state (outputcommit.go): configuration, the release
	// watermark and the frame pool.
	oc           OutputCommit
	released     uint64
	haveReleased bool
	pool         *netsim.FramePool[epochHead, hypervisor.Interrupt]
	// txq/txSig/txClose drive the dedicated transmit process (txLoop):
	// stamped frames awaiting fan-out, its wakeup signal, and the
	// end-of-run close flag. Not captured by snapshots — restore replays
	// the run deterministically, which reproduces the queue.
	txq     []*epochFrame
	txSig   *sim.Signal
	txClose bool
	bpool   *netsim.FramePool[struct{}, *epochFrame]

	// joinBarrier makes the coordinator hold at each epoch boundary until
	// the replication stream is fully drained (transmit queue flushed,
	// every pending frame acknowledged by every live peer). A
	// reintegration sets it while quiescing: the state-transfer image must
	// be captured at a boundary the survivors can reconstruct, and under
	// output commit an ordinary boundary is NOT one — frames may still sit
	// in the transmit queue, dying with the processor on a failstop.
	joinBarrier bool
}

// drained reports whether every epoch the coordinator has committed is
// provably replicated: nothing queued for transmit and nothing awaiting
// acknowledgement. The classic path transmits inline and (for the old
// protocol) gates on acknowledgements, so it is vacuously drained at
// every boundary.
func (c *coordinator) drained() bool {
	if !c.oc.Enabled {
		return true
	}
	return len(c.txq) == 0 && len(c.sent) == 0
}

// install hooks the coordinator into the hypervisor and every peer's
// acknowledgement channel. Call once, with the driving process, before
// run.
func (c *coordinator) install(p *sim.Proc) {
	c.s.proc = p
	c.k = p.Kernel()
	c.ackSig = c.k.NewSignal("coord.ack")
	for _, ps := range c.s.peers {
		ps.peer.RX.OnDeliver = c.ackHandler(ps)
	}
	hv := c.hv
	if c.oc.Enabled {
		// Output commit: interrupts ride the coalesced epoch frame (no
		// per-capture forwarding), and output is deferred instead of
		// gated (the protocol variants behave identically).
		hv.OnCapture = nil
		hv.OnBeforeIO = nil
		hv.SetOutputDeferral(p.Now)
		c.pool = &netsim.FramePool[epochHead, hypervisor.Interrupt]{}
		c.bpool = &netsim.FramePool[struct{}, *epochFrame]{}
		c.txSig = c.k.NewSignal("oc.tx")
		c.k.Spawn(fmt.Sprintf("oc-tx%d", c.node), c.txLoop)
	} else {
		// P1: forward every captured interrupt immediately.
		hv.OnCapture = func(i hypervisor.Interrupt) {
			if c.stopped() {
				return
			}
			c.stats.IntsForwarded++
			c.s.send(message{Kind: msgInterrupt, Epoch: hv.Epoch(), IntIndex: c.intIndex, Int: i})
			c.intIndex++
		}
		if c.proto == ProtocolNew {
			hv.OnBeforeIO = func() {
				if c.stopped() {
					return
				}
				start := p.Now()
				c.stats.IOGateWaits++
				c.waitAcked(p, c.s.fullyAcked)
				c.stats.IOGateWaitTime += p.Now() - start
			}
		} else {
			hv.OnBeforeIO = nil
		}
	}
	hv.Stop = c.stopped
	hv.SetIOActive(true)
}

// run executes epochs until the guest halts or the coordinator is
// stopped. tme0 is the clock base for the first epoch it runs.
func (c *coordinator) run(p *sim.Proc, tme0 uint32) {
	hv := c.hv
	hv.SetTODBase(tme0)
	for !hv.Halted() && !c.stopped() {
		// Output commit: window admission, at most Window epochs
		// awaiting acknowledgement.
		if c.oc.Enabled && !c.waitAcked(p, c.windowOpen) {
			return
		}
		b := hv.RunEpoch(p)
		if c.stopped() {
			return
		}
		c.stats.Epochs++
		tme := b.TOD

		var f *epochFrame
		if c.oc.Enabled {
			f = c.newFrame(b)
		} else {
			// --- Rule P2 ---
			c.s.send(message{Kind: msgTme, Epoch: b.Epoch, Tme: tme})
			if c.proto == ProtocolOld && !c.waitAcked(p, c.s.fullyAcked) {
				return
			}
			// send charges per-peer setup time, so virtual time passed
			// and a failstop may have landed mid-boundary. A failstopped
			// processor halts where it stands: it must not deliver,
			// archive, or commit the epoch — a zombie commit would feed
			// observers (the session's commit coordinates, AddBackup's
			// state capture) an epoch the replica set never saw,
			// because the End message died with the severed links.
			if c.stopped() {
				return
			}
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
		if f != nil {
			c.enqueueFrame(f)
		} else {
			c.s.send(message{Kind: msgEnd, Epoch: b.Epoch, Digest: b.Digest, Halted: b.Halted})
		}
		c.sent = append(c.sent, SentEpoch{Epoch: b.Epoch, Seq: c.s.seq})
		// Classic: the End send slept, and a failstop landing there
		// means no peer holds this epoch's End — the commit must not be
		// observed. Output commit paid no time here; the check covers
		// the event-context stops delivered during RunEpoch.
		if c.stopped() {
			return
		}
		c.retire()
		if c.stopped() {
			return
		}
		// A reintegration wants this boundary as its state-transfer
		// point: hold here until the stream drains, so the captured image
		// never certifies an epoch that would be lost — and re-executed
		// differently by a promoted backup — were this processor to
		// failstop now. Draining BEFORE the commit hook lets the
		// session's boundary-sampled stop predicate observe the drained
		// state.
		if c.joinBarrier && !c.waitAcked(p, c.drained) {
			return
		}
		if c.hooks != nil && c.hooks.EpochCommitted != nil {
			c.hooks.EpochCommitted(c.node, b.Epoch, tme, p.Now(), b.Halted)
		}
		hv.ChargeBoundary(p)
		hv.SetTODBase(tme)
		c.intIndex = 0
	}
	if c.oc.Enabled {
		// Drain: the guest halted (or stopped) with epochs still in
		// flight — wait their acknowledgements out so the final output
		// is released, then let the transmit process exit.
		c.waitAcked(p, func() bool { return len(c.sent) == 0 })
		c.txClose = true
		c.txSig.Broadcast()
	}
}

// ackHandler returns the delivery hook for one peer's acknowledgement
// channel. It runs in simulation-event context (no blocking): update the
// ack watermark, retire what the new watermark covers, and wake a
// waiting coordinator.
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
		c.retire()
		c.ackSig.Broadcast()
	}
}

// attachPeer splices a late joiner into the fan-out and, once the
// coordinator is installed, wires its acknowledgement channel in.
func (c *coordinator) attachPeer(p Peer) {
	ps := c.s.addPeer(p)
	if c.ackSig != nil {
		ps.peer.RX.OnDeliver = c.ackHandler(ps)
	}
}

// retire pops every ledger epoch whose completing message all live
// peers acknowledged, advances ackedThrough and prunes archive history
// more than archiveResyncKeep epochs behind it — an epoch every live
// peer holds can never need replaying, so a healthy coordinator's
// archive stays a short tail (the window cap in record remains the
// backstop for lagging peers). Under output commit each retired epoch's
// deferred output is released, in order. Safe in event and process
// context alike (device output and link sends do not block).
func (c *coordinator) retire() {
	ma := c.s.minAcked()
	n := 0
	for n < len(c.sent) && c.sent[n].Seq <= ma {
		e := c.sent[n].Epoch
		c.ackedThrough, c.haveAcked = e, true
		n++
		if c.oc.Enabled {
			c.release(e, len(c.sent)-n)
		}
	}
	if n == 0 {
		return
	}
	// Compact survivors to the front so the backing array is reused.
	m := copy(c.sent, c.sent[n:])
	c.sent = c.sent[:m]
	if c.ackedThrough+1 > archiveResyncKeep {
		c.archive.trim(c.ackedThrough + 1 - archiveResyncKeep)
	}
}

// waitAcked blocks until cond holds, waking on acknowledgement arrivals
// and ticking the liveness detector through silences: rule P2's wait,
// the §4.3 I/O gate, output-commit window admission, the join barrier
// and the end-of-run drain. Returns false if the coordinator stopped
// while waiting.
func (c *coordinator) waitAcked(p *sim.Proc, cond func() bool) bool {
	if cond() {
		return true
	}
	start := p.Now()
	c.stats.AckWaits++
	defer func() { c.stats.AckWaitTime += p.Now() - start }()
	for !cond() {
		if c.stopped() {
			return false
		}
		if !p.WaitTimeout(c.ackSig, 10*sim.Millisecond) {
			// Silence: peers may have died, or their links gone down —
			// both advance minAcked by exclusion.
			c.s.livenessTick(p.Now())
			c.retire()
		}
	}
	return true
}
