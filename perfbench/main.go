// Command perfbench is the repository's benchmark: it runs one named
// workload of the replicated-VM simulator for a fixed host-time budget,
// checks every output, and prints its metrics. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"run_s": {"value": 0.31, "unit": "s"}, ...}}
//
// Usage (from the repository root; run.sh builds and invokes it):
//
//	bash perfbench/run.sh --workload cpu-lockstep --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, medians over
// repetitions that each run in a fresh process. With --trace 1 it
// alternates untraced and traced repetitions and reports the per-layer
// metrics, including the tracing overhead. See README.md.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workload is one named input set of the benchmark.
type workload struct {
	name string
	why  string
	// run performs one repetition: set-up then the timed run, filling r.
	// When tr is non-nil it records spans and per-layer metrics and may
	// return extras: traced-only measurements made after the profiled
	// part (checkpoint round trips, bare shape runs).
	run func(seed int64, tr *tracer, r *repResult) (extras func())
	// virtual lists the virtual-clock metrics the workload reports.
	virtual []string
}

var workloads = []workload{
	{"cpu-lockstep", "the paper's Figure 2 point: interpreter and epoch-boundary cost, no devices or clients",
		runCPULockstep, []string{"np"}},
	{"service-oc", "replicated network service with output commit under open-loop load and a failover: sim kernel and emulation cost, client-visible latency",
		runServiceOC, []string{"np", "client_p50_us", "client_p99_us", "blackout_us", "max_rate_rps"}},
	{"fleet-chaos", "many chaos-perturbed clusters on shared COW images: set-up, snapshots, bare reference reruns, disk path",
		runFleetChaos, []string{"blackout_us"}},
}

// Process limits: the whole invocation ends well inside three minutes
// even when the last repetition starts just before the budget ends.
const (
	wallLimit = 170 * time.Second
	minReps   = 3
)

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload: cpu-lockstep, service-oc or fleet-chaos")
		seed    = flag.Int64("seed", 1, "input seed (>= 0); the simulation, client and fleet seeds derive from it")
		seconds = flag.Int("seconds", 20, "host seconds to spend repeating the workload")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced repetitions")
		out     = flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for span files and CPU profiles")
		child   = flag.Bool("child", false, "internal: run one repetition and print its JSON result")
		traced  = flag.Bool("traced", false, "internal: trace and profile the repetition")
		rep     = flag.Int("rep", 0, "internal: repetition index")
	)
	flag.Parse()
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	switch {
	case wl == nil:
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q\n", *name)
		return 2
	case *seed < 0:
		fmt.Fprintf(os.Stderr, "perfbench: -seed must be >= 0\n")
		return 2
	case *seconds < 1 || *trace < 0 || *trace > 1:
		fmt.Fprintf(os.Stderr, "perfbench: need -seconds >= 1 and -trace 0 or 1\n")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if *child {
		return runChild(wl, *seed, *rep, *traced, *out)
	}
	return runParent(wl, *seed, *seconds, *trace == 1, *out)
}

// simSeed maps the input seed to the simulation seed (never zero,
// which the session API reserves).
func simSeed(seed int64) int64 { return seed + 1 }

// runChild performs one repetition in this process and prints its
// result as one JSON line. The first traced repetition (rep 1) also
// runs the layer probes.
func runChild(wl *workload, seed int64, rep int, traced bool, out string) int {
	r := newRepResult()
	var tr *tracer
	id := fmt.Sprintf("%s-seed%d-rep%d", wl.name, seed, rep)
	var prof *os.File
	if traced {
		tr = newTracer(id)
		var err error
		if prof, err = os.Create(filepath.Join(out, id+".pprof")); err == nil {
			err = pprof.StartCPUProfile(prof)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: cpu profile: %v\n", err)
			return 1
		}
	}
	var extras func()
	func() {
		defer func() {
			if p := recover(); p != nil {
				r.checked("repetition", fmt.Sprintf("panic: %v", p))
			}
		}()
		extras = wl.run(simSeed(seed), tr, r)
	}()
	r.MaxRSSMB = maxRSSMB()
	if traced {
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: cpu profile: %v\n", err)
			return 1
		}
		var err error
		if r.ProfileNS, err = profileCPU(prof.Name()); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		if extras != nil {
			extras()
		}
		if rep == 1 {
			runLayerProbes(simSeed(seed), tr, r, wl.name != "fleet-chaos")
		}
		spans, err := tr.write(filepath.Join(out, id+".spans.json"))
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: spans: %v\n", err)
			return 1
		}
		r.Spans = summarize(spans)
	}
	if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// maxRSSMB returns this process's peak resident set in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// spawn runs one repetition in a fresh process, so every repetition
// starts with empty process-global caches (chaos's bare-baseline cache,
// the COW image intern table, the machine buffer pool).
func spawn(ctx context.Context, wl *workload, seed int64, rep int, traced bool, out string) (*repResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", wl.name, "-seed", fmt.Sprint(seed), "-rep", fmt.Sprint(rep), "-out", out}
	if traced {
		args = append(args, "-traced")
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("repetition %d: %w", rep, err)
	}
	var r repResult
	if err := json.Unmarshal(lastLine(stdout.Bytes()), &r); err != nil {
		return nil, fmt.Errorf("repetition %d: unreadable result: %w", rep, err)
	}
	return &r, nil
}

func lastLine(b []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}

// tally accumulates the repetitions of one invocation.
type tally struct {
	reps              []*repResult
	attempted, failed int
	problems          []string
}

// add folds in one repetition, checking that its deterministic outputs
// repeat the first repetition's exactly.
func (t *tally) add(r *repResult, err error) {
	if err != nil {
		t.attempted++
		t.failed++
		t.problems = append(t.problems, err.Error())
		return
	}
	t.attempted += r.Attempted
	t.failed += r.Failed
	t.problems = append(t.problems, r.Failures...)
	if len(t.reps) > 0 {
		first := t.reps[0]
		t.attempted++
		if r.Digest != first.Digest || !sameValues(r.Virtual, first.Virtual) {
			t.failed++
			t.problems = append(t.problems, fmt.Sprintf("repetition %d: virtual-time outputs differ from repetition 0", len(t.reps)))
		}
	}
	t.reps = append(t.reps, r)
}

func sameValues(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

func (t *tally) column(f func(*repResult) float64) []float64 {
	xs := make([]float64, len(t.reps))
	for i, r := range t.reps {
		xs[i] = f(r)
	}
	return xs
}

// metricJSON is one entry of the result line's metrics object.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func runParent(wl *workload, seed int64, seconds int, trace bool, out string) int {
	ctx, cancel := context.WithTimeout(context.Background(), wallLimit)
	defer cancel()
	budget := time.Duration(seconds) * time.Second
	start := time.Now()
	fmt.Printf("perfbench: workload %s (%s)\n", wl.name, wl.why)
	fmt.Printf("perfbench: seed %d (simulation seed %d), budget %ds, GOMAXPROCS %d, fleet workers %d\n",
		seed, simSeed(seed), seconds, runtime.GOMAXPROCS(0), fleetWorkers())

	var plain, traced tally
	for rep := 0; ; rep++ {
		if ctx.Err() != nil {
			break
		}
		if trace && rep%2 == 1 {
			r, err := spawn(ctx, wl, seed, rep, true, out)
			traced.add(r, err)
		} else {
			r, err := spawn(ctx, wl, seed, rep, false, out)
			plain.add(r, err)
		}
		if time.Since(start) < budget {
			continue
		}
		if trace && len(traced.reps) > 0 && len(plain.reps) > 0 && rep%2 == 1 {
			break
		}
		if !trace && rep+1 >= minReps {
			break
		}
		if time.Since(start) > 2*budget+30*time.Second {
			break // every repetition is failing; report what there is
		}
	}

	if len(plain.reps) == 0 || (trace && len(traced.reps) == 0) {
		fmt.Fprintln(os.Stderr, "perfbench: no repetition completed")
		for _, p := range append(plain.problems, traced.problems...) {
			fmt.Fprintln(os.Stderr, "  "+p)
		}
		return 1
	}
	printProblems(append(plain.problems, traced.problems...))
	res := resultJSON{Metrics: map[string]metricJSON{}}
	if trace {
		reportLayers(&plain, &traced, res.Metrics, out)
	} else {
		reportEndToEnd(wl, &plain, res.Metrics)
	}
	res.Attempted = plain.attempted + traced.attempted
	res.Failed = plain.failed + traced.failed
	res.Correct = res.Failed == 0
	fmt.Printf("error_rate %d/%d = %.4g (failed/attempted)\n", res.Failed, res.Attempted, float64(res.Failed)/float64(res.Attempted))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func printProblems(ps []string) {
	for i, p := range ps {
		if i == 20 {
			fmt.Printf("FAILED ... and %d more\n", len(ps)-i)
			break
		}
		fmt.Printf("FAILED %s\n", p)
	}
}

// describe formats a host timing: its median plus the highest
// percentile with at least ten samples beyond it, with the count.
func describe(xs []float64, unit string) string {
	s := fmt.Sprintf("%.6g %s median", median(xs), unit)
	if p, ok := supportedPercentile(len(xs)); ok {
		s += fmt.Sprintf(", p%g %.6g", p, percentile(xs, p))
	} else {
		s += ", no percentile above the median has 10 samples beyond it"
	}
	q1, _, q3 := quartiles(xs)
	return s + fmt.Sprintf(", quartiles %.6g..%.6g (n=%d)", q1, q3, len(xs))
}

func reportEndToEnd(wl *workload, t *tally, metrics map[string]metricJSON) {
	first := t.reps[0]
	fmt.Printf("end-to-end, host clock (each repetition a fresh process):\n")
	cols := map[string][]float64{
		"setup_s":    t.column(func(r *repResult) float64 { return r.SetupS }),
		"run_s":      t.column(func(r *repResult) float64 { return r.RunS }),
		"max_rss_mb": t.column(func(r *repResult) float64 { return r.MaxRSSMB }),
	}
	for _, m := range endToEnd {
		xs := cols[m.Name]
		fmt.Printf("  %-14s %s\n", m.Name, describe(xs, m.Unit))
		metrics[m.Name] = metricJSON{Value: median(xs), Unit: m.Unit}
	}
	fmt.Printf("end-to-end, virtual clock (deterministic; identical on every repetition):\n")
	for _, name := range wl.virtual {
		var m metricDef
		for _, d := range virtualMetrics {
			if d.Name == name {
				m = d
			}
		}
		v, ok := first.Virtual[name]
		if !ok {
			fmt.Printf("  %-14s not measured\n", name)
			continue
		}
		fmt.Printf("  %-14s %.6g %s%s\n", name, v, m.Unit, virtualNote(wl.name, name, first))
	}
	fmt.Printf("other virtual-clock outputs (identical on every repetition):\n")
	for _, k := range sortedKeys(first.Virtual) {
		if !contains(wl.virtual, k) {
			fmt.Printf("  %-22s %.6g\n", k, first.Virtual[k])
		}
	}
	fmt.Printf("  %-22s %s\n", "digest", first.Digest)
	fmt.Printf("settings:\n")
	for _, k := range sortedKeys(first.Info) {
		fmt.Printf("  %-22s %.6g\n", k, first.Info[k])
	}
}

// virtualNote adds context to a virtual-clock metric.
func virtualNote(wl, name string, r *repResult) string {
	switch {
	case wl == "cpu-lockstep" && name == "np":
		return fmt.Sprintf("   (paper: %.2f at EL=1024; the model is off by %+.0f%%)", cpuPaperNP, 100*(r.Virtual["np"]/cpuPaperNP-1))
	case wl == "service-oc" && (name == "client_p50_us" || name == "client_p99_us"):
		n := int(r.Info["requests"])
		p, ok := supportedPercentile(n)
		s := fmt.Sprintf("   (%d requests; highest supported percentile: ", n)
		if ok {
			s += fmt.Sprintf("p%g)", p)
		} else {
			s += "none)"
		}
		if name == "client_p50_us" {
			s += fmt.Sprintf("; open loop in virtual time at %.0f req/s over %.0f logical clients, each request timed from its scheduled send instant (the generator is never late), primary failstopped at %.0f us",
				r.Info["rate_rps"], r.Info["clients"], r.Info["failstop_us"])
		}
		return s
	case wl == "service-oc" && name == "max_rate_rps":
		return fmt.Sprintf("   (healthy ladder %v req/s, %.0f requests per rung, p99 limit %.0f us)",
			svcLadder, r.Info["ladder_requests"], r.Info["p99_limit_us"])
	case wl == "fleet-chaos" && name == "blackout_us":
		return fmt.Sprintf("   (median over %.0f shards that failed over, of %.0f)", r.Virtual["shards_failed_over"], r.Virtual["shards"])
	}
	return ""
}

func reportLayers(plain, traced *tally, metrics map[string]metricJSON, out string) {
	untracedRun := median(plain.column(func(r *repResult) float64 { return r.RunS }))
	tracedRun := median(traced.column(func(r *repResult) float64 { return r.RunS }))
	// Profiles of short repetitions hold few samples: pool them.
	pooled := map[string]float64{}
	for _, r := range traced.reps {
		for k, v := range r.ProfileNS {
			pooled[k] += v
		}
	}
	for _, r := range traced.reps {
		r.Layers["trace.overhead_s"] = tracedRun - untracedRun
		for k, v := range shares(pooled) {
			r.Layers["host_share."+k] = v
		}
	}
	fmt.Printf("per-layer, median over %d traced repetitions (untraced run_s %.6g s, traced %.6g s, %d untraced repetitions):\n",
		len(traced.reps), untracedRun, tracedRun, len(plain.reps))
	var missing []string
	for _, m := range perLayer {
		var xs []float64
		for _, r := range traced.reps {
			if v, ok := r.Layers[m.Name]; ok {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			missing = append(missing, m.Name)
			continue
		}
		v := median(xs)
		fmt.Printf("  %-32s %-12.6g %-6s %s\n", m.Name, v, m.Unit, m.Clock)
		metrics[m.Name] = metricJSON{Value: v, Unit: m.Unit}
	}
	if len(missing) > 0 {
		// A layer the traced run failed to measure is a failed check.
		traced.failed++
		fmt.Printf("FAILED per-layer metrics not measured: %s\n", strings.Join(missing, ", "))
	}
	fmt.Printf("spans of traced repetition 1 by self time (written to %s):\n", out)
	for i, s := range traced.reps[0].Spans {
		if i == 15 {
			break
		}
		fmt.Printf("  %-36s x%-5d total %10.1f ms  self %10.1f ms\n", s.Name, s.Count, s.TotalUS/1e3, s.SelfUS/1e3)
	}
}

func sortedKeys(m map[string]float64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}
