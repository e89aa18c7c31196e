package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/asm"
	"repro/internal/chaos"
	"repro/internal/guest"
	"repro/internal/hypervisor"
	"repro/internal/machine"
	"repro/internal/platform"
	"repro/internal/session"
	"repro/internal/sim"
)

// Layer probes time one layer's public functions on fixed inputs. They
// run in the traced run of every workload, so each per-layer metric is
// present on each workload; the workload decides only the seed.

const probeReps = 5

// medianOf runs fn probeReps times and returns the median of its
// results.
func medianOf(fn func() float64) float64 {
	xs := make([]float64, probeReps)
	for i := range xs {
		xs[i] = fn()
	}
	return median(xs)
}

var aluLoop = `
loop:
	addi r1, r1, 1
	xor  r2, r2, r1
	slli r3, r1, 2
	add  r2, r2, r3
	b loop
`

// probeMachineRun returns Machine.Run's host time per instruction on a
// fixed ALU loop.
func probeMachineRun() (float64, error) {
	p, err := asm.Assemble("alu.s", aluLoop)
	if err != nil {
		return 0, err
	}
	const n = 4_000_000
	var bad error
	ns := medianOf(func() float64 {
		m := machine.New(machine.Config{})
		m.LoadProgram(p.Origin, p.Words, 0)
		t0 := time.Now()
		for left := uint64(n); left > 0; {
			rr := m.Run(left)
			left -= rr.Executed
			if rr.Trap != 0 || rr.Halted {
				bad = fmt.Errorf("alu loop left Run: %+v", rr.StepResult)
				break
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / n
	})
	return ns, bad
}

// probeMachineNew returns machine.New's host time at GuestMemBytes
// with private RAM and on a shared copy-on-write image of the guest.
func probeMachineNew() (private, cow float64) {
	const n = 32
	private = medianOf(func() float64 {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			machine.New(machine.Config{MemBytes: session.GuestMemBytes})
		}
		return float64(time.Since(t0).Nanoseconds()) / n / 1e3
	})
	p := guest.Program()
	flat := make([]byte, session.GuestMemBytes)
	for i, w := range p.Words {
		binary.LittleEndian.PutUint32(flat[int(p.Origin)+4*i:], w)
	}
	img := machine.InternImage(flat)
	cow = medianOf(func() float64 {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			machine.New(machine.Config{Image: img})
		}
		return float64(time.Since(t0).Nanoseconds()) / n / 1e3
	})
	return private, cow
}

// probeHypervisorEpoch returns the host time of one epoch (RunEpoch
// plus the boundary processing a primary performs) at EL=1024 on the
// CPU guest.
func probeHypervisorEpoch() float64 {
	const epochs = 1000
	return medianOf(func() float64 {
		k := sim.NewKernel(1)
		defer k.Shutdown()
		pair := platform.NewPair(k, platform.Config{
			Machine:    machine.Config{MemBytes: session.GuestMemBytes},
			Hypervisor: hypervisor.Config{EpochLength: 1024},
		})
		hv := pair.Primary.HV
		p := guest.Program()
		hv.Boot(p.Origin, p.Words, 0)
		guest.Configure(pair.Primary.M, guest.CPUIntensive(1<<30))
		var d time.Duration
		k.Spawn("probe", func(pr *sim.Proc) {
			t0 := time.Now()
			for i := 0; i < epochs && !hv.Halted(); i++ {
				hv.RunEpoch(pr)
				hv.TimerInterruptsDue(hv.M.TOD())
				hv.DeliverBuffered()
				hv.ChargeBoundary(pr)
				hv.SetTODBase(hv.M.TOD())
			}
			d = time.Since(t0)
			pr.Kernel().Stop()
		})
		k.Run()
		return float64(d.Nanoseconds()) / epochs / 1e3
	})
}

// probeSimSwitch returns the host time of one switch between two
// processes alternating Sleep.
func probeSimSwitch() float64 {
	const n = 100_000
	return medianOf(func() float64 {
		k := sim.NewKernel(1)
		defer k.Shutdown()
		for _, name := range []string{"a", "b"} {
			k.Spawn(name, func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					p.Sleep(10)
				}
			})
		}
		t0 := time.Now()
		k.Run()
		return float64(time.Since(t0).Nanoseconds()) / (2 * n)
	})
}

// probeSimEvent returns the host time of one event in a Kernel.After
// chain.
func probeSimEvent() float64 {
	const n = 1_000_000
	return medianOf(func() float64 {
		k := sim.NewKernel(1)
		count := 0
		var next func()
		next = func() {
			count++
			if count < n {
				k.After(10, next)
			}
		}
		k.After(10, next)
		t0 := time.Now()
		k.Run()
		return float64(time.Since(t0).Nanoseconds()) / n
	})
}

// probeChaosBare returns the summed host time of one cold chaos.Bare
// per shape. The seed is one no shard schedule draws (they are all
// positive), so the process-global bare cache never holds it.
func probeChaosBare(seed int64, tr *tracer, parent int, r *repResult) float64 {
	total := 0.0
	for _, w := range chaos.Workloads() {
		var err error
		total += tr.timed(parent, "chaos.Bare/"+w.Name, func(int) { _, _, _, err = chaos.Bare(w, -seed, 1024) })
		r.checked("chaos.Bare "+w.Name, problem(err))
	}
	return total * 1e3
}

// runLayerProbes measures every probe-based per-layer metric. The fleet
// probe (one pair per shape and protocol) runs only for workloads that
// do not drive the fleet themselves.
func runLayerProbes(seed int64, tr *tracer, r *repResult, fleetProbe bool) {
	root := tr.start(0, "probes")
	defer tr.finish(root)
	var err error
	tr.timed(root, "machine.Run", func(int) { r.Layers["machine.run_ns_per_instr"], err = probeMachineRun() })
	r.checked("machine.Run probe", problem(err))
	tr.timed(root, "machine.New", func(int) {
		r.Layers["machine.new_us"], r.Layers["machine.new_cow_us"] = probeMachineNew()
	})
	tr.timed(root, "hypervisor.RunEpoch", func(int) { r.Layers["hypervisor.epoch_us"] = probeHypervisorEpoch() })
	tr.timed(root, "sim.Sleep", func(int) { r.Layers["sim.switch_ns"] = probeSimSwitch() })
	tr.timed(root, "sim.After", func(int) { r.Layers["sim.event_ns"] = probeSimEvent() })
	r.Layers["chaos.bare_ms"] = probeChaosBare(seed, tr, root, r)
	if !fleetProbe {
		return
	}
	scheds, err := fleetSchedules(seed, shapeNames(), []uint64{1024}, map[int]int{1: 1})
	if err != nil {
		r.checked("fleet probe", err.Error())
		return
	}
	workers := fleetWorkers()
	run := tr.start(root, "fleet probe")
	t0 := time.Now()
	out := runShards(tr, run, scheds, workers)
	wall := time.Since(t0).Seconds()
	tr.finish(run)
	for i, o := range out {
		r.checked(fmt.Sprintf("fleet probe shard %d", i), o.violation)
	}
	shardLayers(r, out, wall, workers)
}
