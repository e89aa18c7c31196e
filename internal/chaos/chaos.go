// Package chaos is the property-based campaign driver: it generates
// seeded random perturbation schedules over the public Cluster API,
// executes them at quick scale, and checks every run against the
// invariants the paper's protocol promises regardless of what the
// environment does to the replica set:
//
//  1. Digest — the replicated run's guest checksum equals the bare
//     (unreplicated) run of the same workload: replication is
//     transparent to the computation (§2's whole argument).
//  2. Output — the environment-visible console transcript equals the
//     bare run's byte for byte: output commit is exactly-once, even
//     across promotions and retransmissions (§2.2 case i).
//  3. Progress — the session never wedges: virtual time keeps
//     advancing until the workload completes (bounded by the session
//     watchdogs; a stall names the blocked process).
//  4. Snapshot — a Save/Restore round trip mid-run is byte-identical:
//     re-saving the restored session reproduces the checkpoint
//     exactly (the determinism contract, applied to itself).
//  5. Service — when the workload is a network service under client
//     load, the NIC's reply transcript equals the bare run's byte for
//     byte and every client request is answered exactly once: the
//     client population cannot distinguish the replicated service
//     from a single machine, whatever the schedule did to it.
//
// A violating schedule is automatically shrunk (delta debugging over
// the perturbation list, then coordinate reduction from exact virtual
// times to epoch-commit ordinals) until 1-minimal, and emitted as a
// replayable `hftsim -scenario` script plus the failing seed.
package chaos

import (
	"fmt"
	"sync"
	"sync/atomic"

	hft "repro"
	"repro/internal/clientsim"
	"repro/internal/console"
	"repro/internal/scsi"
	"repro/internal/session"
	"repro/internal/sim"
)

// Workload names the canonical quick-scale workload shapes the
// generator draws from. Each shape fixes the guest benchmark AND its
// device/terminal configuration, so a name + seed + epoch length fully
// determines a run — which is what makes emitted scenarios replayable.
type Workload struct {
	// Name is the shape's identifier ("cpu", "write", "read", "copy",
	// "echo", "serve") — also hftsim's -workload vocabulary.
	Name string
	// Guest is the benchmark program.
	Guest hft.Workload
	// ExtraDisks is the number of additional shared disks the platform
	// must carry (TwoDiskCopy needs one).
	ExtraDisks int
	// Terminal is the scripted console input (TerminalEcho needs a
	// script ending in TerminalEOT).
	Terminal []hft.TerminalInput
	// ClientLoad is the simulated client population (ServeRequests
	// needs one; the request count derives from the guest's op count).
	ClientLoad *hft.ClientLoad
}

// EchoScript is the canonical TerminalEcho input: two bursts, the
// second terminated by EOT so the guest halts. hftsim uses the same
// script for -workload echo, so emitted scenarios replay identically.
func EchoScript() []hft.TerminalInput {
	return []hft.TerminalInput{
		{At: 1 * hft.Millisecond, Data: "chaos"},
		{At: 2 * hft.Millisecond, Data: "run" + string(rune(hft.TerminalEOT))},
	}
}

// ServeLoad is the canonical client population for the serve shape:
// eight connections, arrivals spread wide enough that perturbation
// coordinates land mid-load, and the default (2 ms) retransmission
// timeout — far below the replicated service's healthy latency, so
// every schedule hammers the NIC's receiver-side dedup with live
// retransmissions. hftsim uses the same population for -workload
// serve, so emitted scenarios replay identically.
func ServeLoad() *hft.ClientLoad {
	return &hft.ClientLoad{Clients: 8, MeanGap: 500 * hft.Microsecond}
}

// Workloads returns the canonical shapes, in the generator's draw
// order. Sizes are quick-scale: every shape completes in well under a
// second of wall time so campaigns can run thousands of schedules.
func Workloads() []Workload {
	return []Workload{
		{Name: "cpu", Guest: hft.CPUIntensive(4000)},
		{Name: "write", Guest: hft.DiskWrite(3, 2048)},
		{Name: "read", Guest: hft.DiskRead(3, 2048)},
		{Name: "copy", Guest: hft.TwoDiskCopy(2, 2048), ExtraDisks: 1},
		{Name: "echo", Guest: hft.TerminalEcho(), Terminal: EchoScript()},
		{Name: "serve", Guest: hft.ServeRequests(24, 50), ClientLoad: ServeLoad()},
	}
}

// ParseWorkload resolves a shape by name — shared by the generator,
// the executor, and hftsim's -workload flag, so a scenario emitted
// here reconstructs the identical cluster there.
func ParseWorkload(name string) (Workload, error) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("chaos: unknown workload %q (have cpu, write, read, copy, echo, serve)", name)
}

// ClusterOptions materializes the public options for a replicated run
// of this shape.
func (w Workload) ClusterOptions(seed int64, epoch uint64, proto hft.Protocol, link hft.LinkModel, backups int) []hft.Option {
	opts := []hft.Option{
		hft.WithWorkload(w.Guest),
		hft.WithSeed(seed),
		hft.WithEpochLength(epoch),
		hft.WithProtocol(proto),
		hft.WithLink(link),
		hft.WithBackups(backups),
	}
	for i := 0; i < w.ExtraDisks; i++ {
		opts = append(opts, hft.WithDisk(hft.DiskSpec{}))
	}
	if len(w.Terminal) > 0 {
		opts = append(opts, hft.WithTerminal(w.Terminal...))
	}
	if w.ClientLoad != nil {
		opts = append(opts, hft.WithClientLoad(*w.ClientLoad))
	}
	return opts
}

// clientLoadConfig lowers the public client-load description to the
// session layer's representation; the request count derives from the
// guest's op count, mirroring the public option's validation.
func (w Workload) clientLoadConfig() *clientsim.Config {
	if w.ClientLoad == nil {
		return nil
	}
	cl := w.ClientLoad
	return &clientsim.Config{
		Clients:      cl.Clients,
		Requests:     int(w.Guest.Ops),
		PayloadWords: cl.PayloadWords,
		Start:        sim.Time(cl.Start),
		MeanGap:      sim.Time(cl.MeanGap),
		Timeout:      sim.Time(cl.Timeout),
	}
}

// bareKey identifies a bare baseline by exactly what a bare run reads.
// Bare runs see no network and no failures, so the protocol/link/
// backups axes are irrelevant; a bare session never reads the epoch
// length (it is not even passed on); and the kernel seed's only
// consumer in a bare run is the client population. So the key is the
// shape name, plus the seed only for shapes with a client population.
// TestBareKeySound proves the claim over a grid of seeds and epochs.
type bareKey struct {
	workload string
	seed     int64
}

// bareSeed is the kernel seed of every baseline whose shape has no
// seeded consumer. Fixing it keeps each cached value a pure function
// of its key, whichever shard asked first.
const bareSeed = 1

func keyFor(w Workload, seed int64) bareKey {
	if w.ClientLoad == nil {
		seed = bareSeed
	}
	return bareKey{w.Name, seed}
}

// baseline is what the invariants compare a perturbed replicated run
// against.
type baseline struct {
	checksum uint32
	console  string
	replies  string
	panic    uint32
	err      error
}

// bareEntry computes one key's baseline once, however many fleet
// workers miss on it together.
type bareEntry struct {
	once sync.Once
	b    baseline
}

var (
	bareMu    sync.Mutex
	bareCache = map[bareKey]*bareEntry{}
	// bareRuns counts computed baselines (cache misses).
	bareRuns atomic.Int64
)

// bareBaseline recalls (or computes once) the unreplicated reference
// execution for a shape. Results are cached by bareKey: a campaign or
// fleet executes thousands of schedules over six shapes.
func bareBaseline(w Workload, seed int64) baseline {
	key := keyFor(w, seed)
	bareMu.Lock()
	e := bareCache[key]
	if e == nil {
		e = &bareEntry{}
		bareCache[key] = e
	}
	bareMu.Unlock()
	e.once.Do(func() { e.b = runBare(w, bareOptions(w, key.seed)) })
	return e.b
}

// bareOptions configures the bare session for a shape. The public
// hft.RunBare cannot express multi-disk or terminal configurations, so
// the baseline runs directly on the session engine with Bare set.
func bareOptions(w Workload, seed int64) session.Options {
	return session.Options{
		Seed:       seed,
		Bare:       true,
		Program:    session.WorkloadProgram(w.Guest),
		ExtraDisks: make([]scsi.DiskConfig, w.ExtraDisks),
		Terminal:   terminalInputs(w.Terminal),
		ClientLoad: w.clientLoadConfig(),
	}
}

// runBare executes one bare session to completion. A panic becomes the
// baseline's error, so a cached entry never holds a half-computed value.
func runBare(w Workload, o session.Options) (b baseline) {
	bareRuns.Add(1)
	defer func() {
		if r := recover(); r != nil {
			b = baseline{err: fmt.Errorf("chaos: bare baseline for %q: panic: %v", w.Name, r)}
		}
	}()
	eng := session.New(o)
	defer eng.Close()
	if err := eng.RunToCompletion(nil); err != nil {
		return baseline{err: fmt.Errorf("chaos: bare baseline for %q: %w", w.Name, err)}
	}
	r, err := eng.Result()
	if err != nil {
		return baseline{err: fmt.Errorf("chaos: bare baseline for %q: %w", w.Name, err)}
	}
	return baseline{checksum: r.Guest.Checksum, console: r.Console, replies: r.NetReplies, panic: r.Guest.Panic}
}

// Bare exposes the cached bare reference execution for a shape —
// hftsim's `check` scenario command compares a replayed run against
// it, turning an emitted reproduction into a self-verifying script.
// replies is the NIC reply transcript (empty for shapes without a
// client population). The epoch length is ignored: a bare run never
// reads it. So is the seed, for shapes without a client population.
func Bare(w Workload, seed int64, epoch uint64) (checksum uint32, console, replies string, err error) {
	b := bareBaseline(w, seed)
	return b.checksum, b.console, b.replies, b.err
}

// terminalInputs lowers the public terminal script to the console
// layer's representation (what the session engine consumes).
func terminalInputs(script []hft.TerminalInput) []console.Input {
	var out []console.Input
	for _, ev := range script {
		out = append(out, console.Input{At: sim.Time(ev.At), Data: []byte(ev.Data)})
	}
	return out
}
