package main

import (
	"fmt"
	"strings"
	"time"

	hft "repro"
	"repro/internal/clientsim"
	"repro/internal/guest"
	"repro/internal/netsim"
	"repro/internal/replication"
	"repro/internal/session"
	"repro/internal/sim"
)

// service-oc: the ServeRequests guest behind the NIC under open-loop
// clientsim load, replicated with the output-commit engine (window 16,
// adaptive boundaries, EL=256, original protocol, Ethernet). The
// nominal-rate run failstops the primary mid-load; a bare run is the
// reference, and a healthy rate ladder finds the highest rate whose
// p99 meets a fixed limit. Host time goes to the sim kernel and
// hypervisor emulation more than to the interpreter.

const (
	svcWork     = 50   // guest compute iterations per request
	svcClients  = 8    // logical client connections
	svcRequests = 2000 // nominal run: p99 has 20 samples beyond it
	svcRate     = 8000 // nominal offered rate, req/s
	svcEpoch    = 256
	svcWindow   = 16
	// svcTimeout is the client retransmission timeout: above the
	// healthy tail, below the failover outage.
	svcTimeout = 5 * sim.Millisecond
	svcDetect  = 3 * sim.Millisecond
	svcStart   = 200 * sim.Microsecond
	// svcLadderRequests per rung: p99 has 10 samples beyond it.
	svcLadderRequests = 1000
	svcP99Limit       = 3 * sim.Millisecond
)

// svcLadder is the healthy open-loop rate ladder in req/s; it brackets
// the knee near 12k req/s.
var svcLadder = []int{6000, 8000, 10000, 11000, 12000, 13000, 14000}

func gapFor(rate int) sim.Time { return sim.Time(int64(sim.Second) / int64(rate)) }

// svcFailAt is the nominal run's failstop: halfway through the load.
func svcFailAt() sim.Time { return svcStart + gapFor(svcRate)*svcRequests/2 }

func svcOptions(seed int64, requests, rate int, bare bool, instr *uint64) session.Options {
	cl := &clientsim.Config{
		Clients:  svcClients,
		Requests: requests,
		Start:    svcStart,
		MeanGap:  gapFor(rate),
		Timeout:  svcTimeout,
	}
	prog := countedProgram{session.WorkloadProgram(guest.ServeRequests(uint32(requests), svcWork)), instr}
	if bare {
		return session.Options{Seed: seed, Bare: true, Program: prog, ClientLoad: cl}
	}
	return session.Options{
		Seed:          seed,
		Program:       prog,
		ClientLoad:    cl,
		EpochLength:   svcEpoch,
		Protocol:      replication.ProtocolOld,
		Link:          netsim.Ethernet10("ethernet10"),
		OutputCommit:  replication.OutputCommit{Enabled: true, Window: svcWindow, Adaptive: true},
		DetectTimeout: svcDetect,
	}
}

func runServiceOC(seed int64, tr *tracer, r *repResult) (extras func()) {
	root := tr.start(0, "service-oc")
	defer tr.finish(root)
	var bareInstr, instr, ladderInstr uint64
	var divergences int
	onDiv := func(uint64, uint64, uint64) { divergences++ }
	nomO := svcOptions(seed, svcRequests, svcRate, false, &instr)
	nomO.FailPrimaryAt = svcFailAt()
	nomO.OnDivergence = onDiv

	setup := tr.start(root, "setup")
	t0 := time.Now()
	bare, _, berr := bootEngine(tr, setup, "bare", svcOptions(seed, svcRequests, svcRate, true, &bareInstr))
	nom, nomBoot, nerr := bootEngine(tr, setup, "nominal", nomO)
	engines := []*session.Engine{bare, nom}
	boots := []float64{nomBoot}
	ladder := make([]*session.Engine, len(svcLadder))
	errs := []error{berr, nerr}
	for i, rate := range svcLadder {
		o := svcOptions(seed, svcLadderRequests, rate, false, &ladderInstr)
		o.OnDivergence = onDiv
		var d float64
		var err error
		ladder[i], d, err = bootEngine(tr, setup, fmt.Sprintf("ladder.%d", rate), o)
		engines = append(engines, ladder[i])
		boots = append(boots, d)
		errs = append(errs, err)
	}
	r.SetupS = time.Since(t0).Seconds()
	tr.finish(setup)
	for _, e := range engines {
		if e != nil {
			defer e.Close()
		}
	}
	for _, err := range errs {
		if err != nil {
			r.checked("boot", err.Error())
			return nil
		}
	}

	run := tr.start(root, "run")
	alloc0 := totalAlloc(tr)
	t1 := time.Now()
	br, bareD, berr := runEngine(tr, run, "bare", bare)
	bm := bare.Clients().Measure()
	nr, nomD, nerr := runEngine(tr, run, "nominal", nom)
	nm := nom.Clients().Measure()
	type rung struct {
		res session.Result
		m   clientsim.Latencies
		err error
	}
	rungs := make([]rung, len(svcLadder))
	for i, rate := range svcLadder {
		rungs[i].res, _, rungs[i].err = runEngine(tr, run, fmt.Sprintf("ladder.%d", rate), ladder[i])
		rungs[i].m = ladder[i].Clients().Measure()
	}
	r.RunS = time.Since(t1).Seconds()
	tr.finish(run)
	alloc := totalAlloc(tr) - alloc0

	r.checked("bare run",
		problem(berr),
		expect(br.Guest.Panic == 0, "guest panic %#x", br.Guest.Panic),
		expect(bm.Answered == svcRequests, "%d of %d requests answered", bm.Answered, svcRequests))
	promotedAt := nr.BackupStats.PromotedAtTime
	r.checked("nominal run",
		problem(nerr),
		expect(nr.Guest.Panic == 0, "guest panic %#x", nr.Guest.Panic),
		expect(nr.Promoted, "the primary failstop produced no promotion"),
		expect(nr.Guest.Checksum == br.Guest.Checksum, "checksum %#x, bare %#x", nr.Guest.Checksum, br.Guest.Checksum),
		expect(nr.NetReplies == br.NetReplies, "reply transcript differs from bare (%d vs %d bytes)", len(nr.NetReplies), len(br.NetReplies)),
		expect(nm.Answered == svcRequests, "%d of %d requests answered", nm.Answered, svcRequests))
	maxRate := 0
	for i, rate := range svcLadder {
		g := rungs[i]
		// Replies carry [request id, payload checksum] in request order,
		// so a shorter run's transcript is a prefix of the bare run's.
		r.checked(fmt.Sprintf("ladder %d req/s", rate),
			problem(g.err),
			expect(g.res.Guest.Panic == 0, "guest panic %#x", g.res.Guest.Panic),
			expect(g.m.Answered == svcLadderRequests, "%d of %d requests answered", g.m.Answered, svcLadderRequests),
			expect(g.res.NetReplies != "" && strings.HasPrefix(br.NetReplies, g.res.NetReplies), "reply transcript is not a prefix of the bare run's"))
		if g.err == nil && g.m.Answered == svcLadderRequests && g.m.P99 <= svcP99Limit {
			maxRate = rate
		}
		r.Virtual[fmt.Sprintf("ladder_p99_us.%d", rate)] = float64(g.m.P99) / float64(sim.Microsecond)
	}
	if berr != nil || nerr != nil || br.Time == 0 {
		return nil
	}
	us := func(t sim.Time) float64 { return float64(t) / float64(sim.Microsecond) }
	r.Virtual["np"] = float64(nr.Time) / float64(br.Time)
	r.Virtual["client_p50_us"] = us(nm.P50)
	r.Virtual["client_p99_us"] = us(nm.P99)
	r.Virtual["blackout_us"] = us(nom.Clients().Blackout(promotedAt))
	r.Virtual["max_rate_rps"] = float64(maxRate)
	r.Virtual["bare_p50_us"] = us(bm.P50)
	r.Virtual["bare_p99_us"] = us(bm.P99)
	r.Virtual["retransmits"] = float64(nm.Retransmits)
	r.Digest = fmt.Sprintf("checksum=%08x replies=%s nominal=%d bare=%d", nr.Guest.Checksum, digestString(nr.NetReplies), nr.Time, br.Time)
	r.Info["requests"] = svcRequests
	r.Info["rate_rps"] = svcRate
	r.Info["clients"] = svcClients
	r.Info["failstop_us"] = us(svcFailAt())
	r.Info["p99_limit_us"] = us(svcP99Limit)
	r.Info["ladder_requests"] = svcLadderRequests

	if tr == nil {
		return nil
	}
	vtBreakdown(r, nr, nom.CommitLatencies())
	r.Layers["clientsim.retransmits"] = float64(nm.Retransmits)
	r.Layers["session.boot_us"] = median(boots) * 1e6
	if bareInstr > 0 {
		r.Layers["hypervisor.bare_ns_per_instr"] = bareD * 1e9 / float64(bareInstr)
	}
	if nr.HVStats.Epochs > 0 {
		r.Layers["replication.host_us_per_epoch"] = (nomD - bareD) * 1e6 / float64(nr.HVStats.Epochs)
	}
	r.Layers["machine.alloc_per_shard_bytes"] = float64(alloc) / float64(len(engines))
	return func() {
		snap := tr.start(0, "snapshot")
		snapshotService(seed, tr, snap, r, br)
		tr.finish(snap)
	}
}

// snapshotService checkpoints a healthy service-oc cluster mid-load,
// restores it, and checks the restored cluster's replies and checksum
// against the bare run.
func snapshotService(seed int64, tr *tracer, parent int, r *repResult, want session.Result) {
	c, err := hft.NewCluster(
		hft.WithWorkload(hft.ServeRequests(svcRequests, svcWork)),
		hft.WithSeed(seed),
		hft.WithEpochLength(svcEpoch),
		hft.WithProtocol(hft.ProtocolOld),
		hft.WithLink(hft.Ethernet10()),
		hft.WithOutputCommit(hft.OutputCommit{Window: svcWindow, Adaptive: true}),
		hft.WithClientLoad(hft.ClientLoad{Clients: svcClients, Start: svcStart, MeanGap: gapFor(svcRate), Timeout: svcTimeout}))
	if err != nil {
		r.checked("snapshot", err.Error())
		return
	}
	defer c.Close()
	if _, err := c.RunFor(svcFailAt()); err != nil {
		r.checked("snapshot", err.Error())
		return
	}
	if st, ok := saveRestore(tr, parent, r, c, func(res hft.Result) string {
		return expect(res.Checksum == want.Guest.Checksum && res.NetReplies == want.NetReplies,
			"restored service diverged from bare (checksum %#x vs %#x)", res.Checksum, want.Guest.Checksum)
	}); ok {
		st.record(r)
	}
}
