package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	hft "repro"
	"repro/internal/chaos"
	"repro/internal/clientsim"
	"repro/internal/console"
	"repro/internal/sched"
	"repro/internal/scsi"
	"repro/internal/session"
	"repro/internal/sim"
)

// fleet-chaos: many replicated clusters at once, each running a chaos
// schedule (faults, AddBackup, Save/Restore) on shared copy-on-write
// images across the work-stealing scheduler. Set-up, COW construction,
// snapshots and the per-shard bare reference reruns dominate; the
// write, read and copy shapes use the disk path.
//
// The shards' fault schedules are a fixed draw: chaos.ScheduleAt over
// fleetScheduleSeed, hftbench's default fleet seed, stratified so the
// mix is balanced (per shape, epoch length and protocol: six pairs and
// one cluster each with two and three backups). The benchmark seed
// feeds every shard's simulation seed, which seeds the serve shards'
// client populations and keys each shard's bare reference run. Drawing
// the schedules from the benchmark seed instead made the fleet's work
// vary by a tenth or more from seed to seed (instructions, link storms,
// failovers), more than run_s's bound allows.
const fleetScheduleSeed = 19951203

var fleetQuota = map[int]int{1: 6, 2: 1, 3: 1}

const fleetScanLimit = 1 << 16

// fleetWorkers is the scheduler width: at most two, and no more than
// the host's processors.
func fleetWorkers() int { return min(2, runtime.NumCPU()) }

type stratum struct {
	shape   string
	epoch   uint64
	proto   hft.Protocol
	backups int
}

// fleetSchedules returns stratified shard schedules: for each stratum,
// the earliest draws of chaos.ScheduleAt(fleetScheduleSeed, i) up to
// the quota by backup count. Shard j's simulation seed is derived from
// seed and j.
func fleetSchedules(seed int64, shapes []string, epochs []uint64, quota map[int]int) ([]chaos.Schedule, error) {
	need := map[stratum]int{}
	total := 0
	for _, sh := range shapes {
		for _, el := range epochs {
			for _, p := range []hft.Protocol{hft.ProtocolOld, hft.ProtocolNew} {
				for b, q := range quota {
					need[stratum{sh, el, p, b}] = q
					total += q
				}
			}
		}
	}
	var out []chaos.Schedule
	for i := 0; len(out) < total; i++ {
		if i == fleetScanLimit {
			return nil, fmt.Errorf("fleet: %d of %d strata slots unfilled after %d draws", total-len(out), total, i)
		}
		s := chaos.ScheduleAt(fleetScheduleSeed, i)
		k := stratum{s.Workload, s.Epoch, s.Protocol, s.Backups}
		if need[k] > 0 {
			need[k]--
			s.Seed = shardSeed(seed, len(out))
			out = append(out, s)
		}
	}
	return out, nil
}

// shardSeed derives shard j's simulation seed: positive, like the
// generator's, and distinct across shards and benchmark seeds.
func shardSeed(seed int64, j int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(j)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return 1 + int64(x%(1<<31-1))
}

func shapeNames() []string {
	var out []string
	for _, w := range chaos.Workloads() {
		out = append(out, w.Name)
	}
	return out
}

// shardOut is one shard's outcome.
type shardOut struct {
	m         chaos.Metrics
	violation string
	dur       float64
}

// runShards executes the schedules on the work-stealing scheduler,
// one span per shard.
func runShards(tr *tracer, parent int, scheds []chaos.Schedule, workers int) []shardOut {
	out := make([]shardOut, len(scheds))
	sched.ForEach(workers, len(scheds), func(i int) {
		out[i].dur = tr.timed(parent, "chaos.ExecuteOpts/"+scheds[i].Workload, func(int) {
			rep := chaos.ExecuteOpts(scheds[i], chaos.ExecOptions{SharedImage: true, Metrics: &out[i].m})
			if rep.Violation != nil {
				out[i].violation = rep.Violation.String()
			}
		})
	})
	return out
}

// shardLayers records the fleet and scheduler layer metrics of one
// traced fleet pass.
func shardLayers(r *repResult, out []shardOut, wallS float64, workers int) {
	durs := make([]float64, len(out))
	sum := 0.0
	for i, o := range out {
		durs[i] = o.dur * 1e3
		sum += o.dur
	}
	r.Layers["fleet.shard_ms_p50"] = median(durs)
	r.Layers["fleet.shard_ms_max"] = percentile(durs, 100)
	if wallS > 0 {
		r.Layers["sched.efficiency"] = sum / (wallS * float64(workers))
	}
}

// shapeOptions is a shape's replicated cluster at the fleet's default
// coordinates, on the shared image.
func shapeOptions(w chaos.Workload, seed int64) []hft.Option {
	return append(w.ClusterOptions(seed, 1024, hft.ProtocolOld, hft.Ethernet10(), 1), hft.WithSharedImage())
}

func runFleetChaos(seed int64, tr *tracer, r *repResult) (extras func()) {
	root := tr.start(0, "fleet-chaos")
	defer tr.finish(root)
	workers := fleetWorkers()

	// Set-up: draw the shard schedules and boot one cluster per shape,
	// which interns the shared guest images every shard maps.
	setup := tr.start(root, "setup")
	t0 := time.Now()
	var scheds []chaos.Schedule
	var err error
	tr.timed(setup, "chaos.ScheduleAt", func(int) {
		scheds, err = fleetSchedules(seed, shapeNames(), []uint64{1024, 4096}, fleetQuota)
	})
	var boots []float64
	for _, w := range chaos.Workloads() {
		d := tr.timed(setup, "hft.NewCluster+boot/"+w.Name, func(int) {
			c, cerr := hft.NewCluster(shapeOptions(w, seed)...)
			if cerr == nil {
				_, cerr = c.RunFor(0)
				c.Close()
			}
			if cerr != nil && err == nil {
				err = fmt.Errorf("boot %s: %w", w.Name, cerr)
			}
		})
		boots = append(boots, d)
	}
	r.SetupS = time.Since(t0).Seconds()
	tr.finish(setup)
	if err != nil {
		r.checked("setup", err.Error())
		return nil
	}

	run := tr.start(root, "run")
	alloc0 := totalAlloc(tr)
	t1 := time.Now()
	out := runShards(tr, run, scheds, workers)
	r.RunS = time.Since(t1).Seconds()
	tr.finish(run)
	alloc := totalAlloc(tr) - alloc0

	h := fnv.New64a()
	put := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	var blackouts []float64
	var commits, instructions uint64
	failovers := 0
	for i, o := range out {
		r.checked(fmt.Sprintf("shard %d (%s)", i, scheds[i]), o.violation)
		failovers += o.m.Failovers
		commits += o.m.Commits
		instructions += o.m.Instructions
		if o.m.Failovers > 0 {
			blackouts = append(blackouts, float64(o.m.Blackout)/float64(sim.Microsecond))
		}
		put(uint64(i))
		h.Write([]byte(o.violation))
		put(o.m.Commits)
		put(o.m.Instructions)
		put(uint64(o.m.Time))
		put(uint64(o.m.Failovers))
		put(uint64(o.m.Blackout))
	}
	r.Digest = fmt.Sprintf("%016x", h.Sum64())
	r.Virtual["shards"] = float64(len(out))
	r.Virtual["failovers"] = float64(failovers)
	r.Virtual["shards_failed_over"] = float64(len(blackouts))
	r.Virtual["commits"] = float64(commits)
	r.Virtual["instructions"] = float64(instructions)
	if len(blackouts) > 0 {
		r.Virtual["blackout_us"] = median(blackouts)
	}
	r.Info["workers"] = float64(workers)

	if tr == nil {
		return nil
	}
	shardLayers(r, out, r.RunS, workers)
	r.Layers["session.boot_us"] = median(boots) * 1e6
	r.Layers["machine.alloc_per_shard_bytes"] = float64(alloc) / float64(len(out))
	// The shards' clusters live inside chaos.ExecuteOpts, which reports
	// no protocol or hypervisor counters: those layers read 0 here.
	for _, m := range []string{"hypervisor.epochs", "hypervisor.priv_simulated", "hypervisor.env_simulated",
		"hypervisor.resident_sims", "hypervisor.adaptive_cuts", "replication.msgs_per_epoch",
		"replication.bytes_per_epoch", "replication.acks", "replication.host_us_per_epoch",
		"clientsim.retransmits", "vt.hypervisor_us", "vt.ack_wait_us", "vt.io_gate_wait_us",
		"vt.delivery_delay_us", "vt.commit_p50_us", "vt.residual_us"} {
		r.Layers[m] = 0
	}
	return func() {
		bare := tr.start(0, "bare shapes")
		bareShapes(seed, tr, bare, r)
		tr.finish(bare)
		snap := tr.start(0, "snapshot")
		snapshotShapes(seed, tr, snap, r)
		tr.finish(snap)
	}
}

// shapeBareOptions is the bare reference run chaos performs for a
// shape, on the session engine.
func shapeBareOptions(w chaos.Workload, seed int64, epoch uint64, instr *uint64) session.Options {
	o := session.Options{
		Seed:        seed,
		Bare:        true,
		Program:     countedProgram{session.WorkloadProgram(w.Guest), instr},
		ExtraDisks:  make([]scsi.DiskConfig, w.ExtraDisks),
		EpochLength: epoch,
	}
	for _, in := range w.Terminal {
		o.Terminal = append(o.Terminal, console.Input{At: sim.Time(in.At), Data: []byte(in.Data)})
	}
	if cl := w.ClientLoad; cl != nil {
		o.ClientLoad = &clientsim.Config{Clients: cl.Clients, Requests: int(w.Guest.Ops), PayloadWords: cl.PayloadWords,
			Start: sim.Time(cl.Start), MeanGap: sim.Time(cl.MeanGap), Timeout: sim.Time(cl.Timeout)}
	}
	return o
}

// bareShapes times one bare reference run per shape and records host
// time per bare guest instruction.
func bareShapes(seed int64, tr *tracer, parent int, r *repResult) {
	var secs float64
	var instr uint64
	for _, w := range chaos.Workloads() {
		var n uint64
		e, _, err := bootEngine(tr, parent, "bare/"+w.Name, shapeBareOptions(w, seed, 1024, &n))
		if err != nil {
			r.checked("bare "+w.Name, err.Error())
			continue
		}
		_, d, err := runEngine(tr, parent, "bare/"+w.Name, e)
		e.Close()
		r.checked("bare "+w.Name, problem(err))
		secs += d
		instr += n
	}
	if instr > 0 {
		r.Layers["hypervisor.bare_ns_per_instr"] = secs * 1e9 / float64(instr)
	}
}

// snapshotShapes checkpoints one cluster per shape at commit 24,
// restores it, checks it completes like the bare run, and records the
// median round trip.
func snapshotShapes(seed int64, tr *tracer, parent int, r *repResult) {
	var saves, restores, sizes []float64
	for _, w := range chaos.Workloads() {
		sum, _, _, err := chaos.Bare(w, seed, 1024)
		if err != nil {
			r.checked("bare "+w.Name, err.Error())
			continue
		}
		c, err := hft.NewCluster(shapeOptions(w, seed)...)
		if err != nil {
			r.checked("snapshot "+w.Name, err.Error())
			continue
		}
		if _, err := c.RunUntil(func(s hft.Snapshot) bool { return s.Commits >= 24 }); err != nil {
			r.checked("snapshot "+w.Name, err.Error())
			c.Close()
			continue
		}
		st, ok := saveRestore(tr, parent, r, c, func(res hft.Result) string {
			return expect(res.Checksum == sum, "%s: restored checksum %#x, bare %#x", w.Name, res.Checksum, sum)
		})
		c.Close()
		if ok {
			saves = append(saves, st.saveS)
			restores = append(restores, st.restoreS)
			sizes = append(sizes, float64(st.size))
		}
	}
	if len(saves) > 0 {
		snapTiming{median(saves), median(restores), int(median(sizes))}.record(r)
	}
}
