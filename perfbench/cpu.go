package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	hft "repro"
	"repro/internal/guest"
	"repro/internal/netsim"
	"repro/internal/replication"
	"repro/internal/session"
)

// cpu-lockstep: the paper's Figure 2 point. The CPU-intensive guest on
// one primary and one backup under the original protocol over the
// 10 Mbps Ethernet model at EL=1024, with the classic lock-step
// coordinator, plus the bare reference run. No devices and no clients:
// interpreter and boundary costs dominate.

const (
	cpuBaseIters = 200000 // ~7.0 M guest instructions per replica
	cpuEpoch     = 1024
	// cpuPaperNP is the paper's measured normalized performance at
	// EL=1024 (Figure 2 / Table 1).
	cpuPaperNP = 22.24
)

// cpuIters derives the iteration count from the seed, so each seed is
// a different input (and checksum) of essentially the same size.
func cpuIters(seed int64) uint32 { return cpuBaseIters + uint32(uint64(seed)%1024) }

func cpuOptions(seed int64, bare bool, instr *uint64) session.Options {
	prog := countedProgram{session.WorkloadProgram(guest.CPUIntensive(cpuIters(seed))), instr}
	if bare {
		return session.Options{Seed: seed, Bare: true, Program: prog}
	}
	return session.Options{
		Seed:        seed,
		Program:     prog,
		EpochLength: cpuEpoch,
		Protocol:    replication.ProtocolOld,
		Link:        netsim.Ethernet10("ethernet10"),
	}
}

func runCPULockstep(seed int64, tr *tracer, r *repResult) (extras func()) {
	root := tr.start(0, "cpu-lockstep")
	defer tr.finish(root)
	var bareInstr, replInstr uint64
	var divergences int
	replO := cpuOptions(seed, false, &replInstr)
	replO.OnDivergence = func(uint64, uint64, uint64) { divergences++ }

	setup := tr.start(root, "setup")
	t0 := time.Now()
	bare, _, berr := bootEngine(tr, setup, "bare", cpuOptions(seed, true, &bareInstr))
	repl, bootD, rerr := bootEngine(tr, setup, "replicated", replO)
	r.SetupS = time.Since(t0).Seconds()
	tr.finish(setup)
	if berr != nil || rerr != nil {
		r.checked("boot", problem(berr), problem(rerr))
		return nil
	}
	defer bare.Close()
	defer repl.Close()

	run := tr.start(root, "run")
	alloc0 := totalAlloc(tr)
	t1 := time.Now()
	br, bareD, berr := runEngine(tr, run, "bare", bare)
	rr, replD, rerr := runEngine(tr, run, "replicated", repl)
	r.RunS = time.Since(t1).Seconds()
	tr.finish(run)
	alloc := totalAlloc(tr) - alloc0

	r.checked("bare run",
		problem(berr),
		expect(br.Guest.Panic == 0, "guest panic %#x", br.Guest.Panic))
	r.checked("replicated run",
		problem(rerr),
		expect(rr.Guest.Panic == 0, "guest panic %#x", rr.Guest.Panic),
		expect(rr.Guest.Checksum == br.Guest.Checksum, "checksum %#x, bare %#x", rr.Guest.Checksum, br.Guest.Checksum),
		expect(rr.Console == br.Console, "console transcript differs from bare"),
		expect(divergences == 0, "%d state-digest divergences", divergences),
		expect(!rr.Promoted, "unexpected failover"))
	if berr != nil || rerr != nil || br.Time == 0 {
		return nil
	}
	r.Virtual["np"] = float64(rr.Time) / float64(br.Time)
	r.Virtual["replicated_ms"] = float64(rr.Time) / 1e6
	r.Virtual["bare_ms"] = float64(br.Time) / 1e6
	r.Virtual["epochs"] = float64(rr.HVStats.Epochs)
	r.Digest = fmt.Sprintf("checksum=%08x replicated=%d bare=%d instr=%d", rr.Guest.Checksum, rr.Time, br.Time, replInstr)
	r.Info["paper_np"] = cpuPaperNP
	r.Info["guest_instructions"] = float64(replInstr)

	if tr == nil {
		return nil
	}
	vtBreakdown(r, rr, repl.CommitLatencies())
	r.Layers["clientsim.retransmits"] = 0
	r.Layers["session.boot_us"] = bootD * 1e6
	if bareInstr > 0 {
		r.Layers["hypervisor.bare_ns_per_instr"] = bareD * 1e9 / float64(bareInstr)
	}
	if rr.HVStats.Epochs > 0 {
		r.Layers["replication.host_us_per_epoch"] = (replD - bareD) * 1e6 / float64(rr.HVStats.Epochs)
	}
	r.Layers["machine.alloc_per_shard_bytes"] = float64(alloc) / 2
	return func() {
		snap := tr.start(0, "snapshot")
		snapshotCPU(seed, tr, snap, r, br.Guest.Checksum, rr.HVStats.Epochs)
		tr.finish(snap)
	}
}

// snapshotCPU checkpoints a cpu-lockstep cluster halfway through its
// epochs, restores it, and checks the restored cluster finishes with
// the bare checksum.
func snapshotCPU(seed int64, tr *tracer, parent int, r *repResult, want uint32, epochs uint64) {
	c, err := hft.NewCluster(
		hft.WithWorkload(hft.CPUIntensive(cpuIters(seed))),
		hft.WithSeed(seed),
		hft.WithEpochLength(cpuEpoch),
		hft.WithProtocol(hft.ProtocolOld),
		hft.WithLink(hft.Ethernet10()))
	if err != nil {
		r.checked("snapshot", err.Error())
		return
	}
	defer c.Close()
	if _, err := c.RunUntil(func(s hft.Snapshot) bool { return s.Commits >= epochs/2 }); err != nil {
		r.checked("snapshot", err.Error())
		return
	}
	if st, ok := saveRestore(tr, parent, r, c, func(res hft.Result) string {
		return expect(res.Checksum == want, "restored checksum %#x, bare %#x", res.Checksum, want)
	}); ok {
		st.record(r)
	}
}

// snapTiming is one checkpoint round trip.
type snapTiming struct {
	saveS, restoreS float64
	size            int
}

func (st snapTiming) record(r *repResult) {
	r.Layers["snapshot.save_ms"] = st.saveS * 1e3
	r.Layers["snapshot.restore_ms"] = st.restoreS * 1e3
	r.Layers["snapshot.bytes"] = float64(st.size)
}

// saveRestore times Cluster.Save and hft.Restore on c, drives the
// restored cluster to completion and checks its result with check.
func saveRestore(tr *tracer, parent int, r *repResult, c *hft.Cluster, check func(hft.Result) string) (snapTiming, bool) {
	var st snapTiming
	var buf bytes.Buffer
	var err error
	st.saveS = tr.timed(parent, "hft.Cluster.Save", func(int) { err = c.Save(&buf) })
	st.size = buf.Len()
	if err != nil {
		r.checked("save", err.Error())
		return st, false
	}
	var restored *hft.Cluster
	st.restoreS = tr.timed(parent, "hft.Restore", func(int) { restored, err = hft.Restore(bytes.NewReader(buf.Bytes())) })
	if err != nil {
		r.checked("restore", err.Error())
		return st, false
	}
	defer restored.Close()
	res, err := restored.Wait(context.Background())
	if err != nil {
		r.checked("restored run", err.Error())
		return st, false
	}
	r.checked("restored run", check(res))
	return st, true
}
