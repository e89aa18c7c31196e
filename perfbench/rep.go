package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"

	"repro/internal/guest"
	"repro/internal/machine"
	"repro/internal/session"
	"repro/internal/sim"
)

// repResult is what one repetition of a workload reports to the
// parent process, as one JSON line on standard output.
type repResult struct {
	SetupS   float64 `json:"setup_s"`
	RunS     float64 `json:"run_s"`
	MaxRSSMB float64 `json:"max_rss_mb"`
	// Attempted counts the simulation runs and round trips the
	// repetition performed; Failed those whose output check failed.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// Virtual holds deterministic virtual-time figures and Digest a
	// fingerprint of the checked outputs: both must repeat exactly on
	// every repetition of one seed.
	Virtual map[string]float64 `json:"virtual"`
	Digest  string             `json:"digest"`
	// Info holds figures that are printed but neither bounded nor
	// compared across repetitions (sample counts, rates).
	Info map[string]float64 `json:"info,omitempty"`
	// Layers holds the per-layer metrics of a traced repetition, and
	// ProfileNS its CPU profile's self time per host_share bucket.
	Layers    map[string]float64 `json:"layers,omitempty"`
	ProfileNS map[string]float64 `json:"profile_ns,omitempty"`
	// Spans summarizes the traced repetition's spans by name.
	Spans []spanSummary `json:"spans,omitempty"`
}

func newRepResult() *repResult {
	return &repResult{Virtual: map[string]float64{}, Info: map[string]float64{}, Layers: map[string]float64{}}
}

// checked records one attempted operation and the problems its output
// check found; an operation with any problem counts as one failure.
func (r *repResult) checked(op string, problems ...string) {
	r.Attempted++
	var bad []string
	for _, p := range problems {
		if p != "" {
			bad = append(bad, p)
		}
	}
	if len(bad) > 0 {
		r.Failed++
		for _, p := range bad {
			r.Failures = append(r.Failures, op+": "+p)
		}
	}
}

// problem returns err's text, or "" for a nil error.
func problem(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// totalAlloc returns the cumulative heap allocation in bytes when
// tracing (reading it stops the world, so the untraced run skips it).
func totalAlloc(tr *tracer) uint64 {
	if tr == nil {
		return 0
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// digestString fingerprints a transcript.
func digestString(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}

// expect returns "" when ok holds and the formatted problem otherwise.
func expect(ok bool, format string, args ...any) string {
	if ok {
		return ""
	}
	return fmt.Sprintf(format, args...)
}

// countedProgram wraps a guest program to record how many
// instructions the machine that produced the result retired.
type countedProgram struct {
	session.Program
	instr *uint64
}

func (p countedProgram) Result(m *machine.Machine) guest.Result {
	*p.instr = m.Cycles()
	return p.Program.Result(m)
}

// bootEngine constructs and boots a session inside spans, returning
// the engine and the New+Boot host time in seconds. A panic during
// construction is returned as an error.
func bootEngine(tr *tracer, parent int, name string, o session.Options) (e *session.Engine, secs float64, err error) {
	secs = tr.timed(parent, "boot/"+name, func(sp int) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("%s: boot panic: %v", name, p)
			}
		}()
		tr.timed(sp, "session.New", func(int) { e = session.New(o) })
		tr.timed(sp, "session.Boot", func(int) { e.Boot() })
	})
	return e, secs, err
}

// runEngine drives a booted session to completion inside spans and
// returns its result and host time in seconds. A simulation panic is
// returned as an error.
func runEngine(tr *tracer, parent int, name string, e *session.Engine) (res session.Result, secs float64, err error) {
	secs = tr.timed(parent, "run/"+name, func(sp int) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("%s: simulation panic: %v", name, p)
			}
		}()
		tr.timed(sp, "session.RunToCompletion", func(int) { err = e.RunToCompletion(nil) })
		if err == nil {
			tr.timed(sp, "session.Result", func(int) { res, err = e.Result() })
		}
	})
	return res, secs, err
}

// vtBreakdown records the virtual-time account of a replicated run.
// Hypervisor time, acknowledgement waits and I/O-gate waits are parts
// of the coordinator's timeline; the residual is the completion time
// minus those (guest execution and everything not itemized). Delivery
// delay and commit latency are per-event latencies that overlap the
// timeline, so they are reported as means and medians, not subtracted.
func vtBreakdown(r *repResult, res session.Result, commitLats []sim.Time) {
	us := func(t sim.Time) float64 { return float64(t) / float64(sim.Microsecond) }
	hv := res.HVStats
	ack := res.PrimaryStats.AckWaitTime + res.BackupStats.AckWaitTime
	gate := res.PrimaryStats.IOGateWaitTime + res.BackupStats.IOGateWaitTime
	var commitP50 sim.Time
	if len(commitLats) > 0 {
		s := append([]sim.Time(nil), commitLats...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		commitP50 = s[(len(s)-1)/2]
	}
	r.Layers["vt.hypervisor_us"] = us(hv.HypervisorTime)
	r.Layers["vt.ack_wait_us"] = us(ack)
	r.Layers["vt.io_gate_wait_us"] = us(gate)
	r.Layers["vt.delivery_delay_us"] = us(hv.MeanDeliveryDelay())
	r.Layers["vt.commit_p50_us"] = us(commitP50)
	r.Layers["vt.residual_us"] = us(res.Time - hv.HypervisorTime - ack - gate)

	r.Layers["hypervisor.epochs"] = float64(hv.Epochs)
	r.Layers["hypervisor.priv_simulated"] = float64(hv.PrivSimulated)
	r.Layers["hypervisor.env_simulated"] = float64(hv.EnvSimulated)
	r.Layers["hypervisor.resident_sims"] = float64(hv.ResidentSims)
	r.Layers["hypervisor.adaptive_cuts"] = float64(hv.AdaptiveCuts)
	msgs := res.PrimaryStats.MessagesSent + res.BackupStats.MessagesSent
	bytes := res.PrimaryStats.BytesSent + res.BackupStats.BytesSent
	if hv.Epochs > 0 {
		r.Layers["replication.msgs_per_epoch"] = float64(msgs) / float64(hv.Epochs)
		r.Layers["replication.bytes_per_epoch"] = float64(bytes) / float64(hv.Epochs)
	}
	r.Layers["replication.acks"] = float64(res.PrimaryStats.AcksReceived + res.BackupStats.AcksReceived)
}
