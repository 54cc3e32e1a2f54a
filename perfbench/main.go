// Command perfbench is the repository's benchmark: it runs one named
// workload against the code users run (serve.Open over loopback TCP, or
// shard.New(...).RunStream), checks every delivered result against a
// per-seed reference, and prints each metric by name and unit. The last
// line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":V,"unit":"U"}}}
//
// With --trace 0 the metrics are the end-to-end ones, from untraced runs;
// with --trace 1 a separate traced pass reports the per-layer metrics.
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload clique-jit --seed 1 --seconds 10 --trace 0
//
// Each measured phase runs in a child process of its own, so a phase's peak
// resident memory, CPU time and allocations are its own.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/serve"
	"repro/internal/shard"
)

// runLimit bounds a whole run: children still running then are killed, and
// the run fails instead of overrunning its caller's limit.
const runLimit = 160 * time.Second

type options struct {
	ctx      context.Context // cancelled at runLimit; kills running children
	workload string
	seed     int64
	seconds  int
	trace    int
	work     string
	child    string
	batch    batchRun
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 20, "how long to measure")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced per-layer pass")
	flag.StringVar(&o.work, "work", ".bench_build/work", "scratch directory inside the checkout")
	flag.StringVar(&o.child, "child", "", "internal: run one phase and print its JSON")
	flag.IntVar(&o.batch.shards, "shards", 0, "internal: batch phase shard count")
	flag.BoolVar(&o.batch.adapt, "adapt", false, "internal: batch phase adaptive re-optimisation")
	flag.BoolVar(&o.batch.disordered, "disordered", false, "internal: batch phase bounded disorder")
	flag.BoolVar(&o.batch.keep, "keep", false, "internal: batch phase retains deliveries for digesting")
	flag.Parse()
	w, err := workloadByName(o.workload)
	if err == nil && o.trace != 0 && o.trace != 1 {
		err = fmt.Errorf("--trace must be 0 or 1")
	}
	if err == nil && o.seconds < 1 {
		err = fmt.Errorf("--seconds must be at least 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if o.child != "" {
		// A child the parent no longer waits for must not linger.
		time.AfterFunc(runLimit, func() { os.Exit(3) })
		if err := runChild(w, o); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s phase: %v\n", o.child, err)
			os.Exit(1)
		}
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	o.ctx = ctx
	time.AfterFunc(runLimit+10*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run did not finish in time")
		os.Exit(3)
	})
	rep, err := run(w, o)
	cancel()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
}

// run sets up a private scratch directory and runs the requested pass.
func run(w workload, o options) (*report, error) {
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.work, w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	o.work = dir
	rep := newReport(w, o)
	list := endToEnd
	switch {
	case o.trace == 1:
		list = perLayer
		err = traced(w, o, rep)
	case w.Served:
		err = endToEndServed(w, o, rep)
	default:
		err = endToEndBatch(w, o, rep)
	}
	if err != nil {
		return nil, err
	}
	return rep, rep.complete(list)
}

// runChild runs one phase in this (child) process and prints its outcome.
func runChild(w workload, o options) error {
	var out *phaseOut
	var err error
	if o.child == "batch" {
		out = runBatch(w, o.seed, o.batch)
	} else {
		fr, ferr := encodeFrames(w.arrivals(o.seed))
		if ferr != nil {
			return ferr
		}
		switch o.child {
		case "saturate", "paced", "nodir":
			dir := ""
			if w.Durable && o.child != "nodir" {
				if dir, err = os.MkdirTemp(o.work, "ck-"); err != nil {
					return err
				}
			}
			pace := 0.0
			if o.child == "paced" {
				pace = w.Speedup
			}
			out, err = runServed(w, w.serveConfig(dir), fr, pace, filepath.Join(o.work, "latency.bin"))
		case "recover":
			ck, rerr := os.ReadFile(ckptPath(o.work, w.resumeIndex()))
			if rerr != nil {
				return rerr
			}
			before, rerr := readUints(filepath.Join(o.work, "before.bin"))
			if rerr != nil {
				return rerr
			}
			out, err = runRecovery(w, fr, ck, before, o.work)
		case "reopen":
			// Time each cut's restore alone. The process exits without
			// shutting the servers down, like the killed servers they
			// replace.
			out = &phaseOut{Phase: "reopen"}
			for i := range w.Cuts {
				ck, rerr := os.ReadFile(ckptPath(o.work, i))
				if rerr != nil {
					return rerr
				}
				t0 := time.Now()
				if _, err := openCheckpoint(w, ck, o.work); err != nil {
					return err
				}
				out.Opens = append(out.Opens, time.Since(t0).Seconds())
			}
		default:
			return fmt.Errorf("unknown phase")
		}
	}
	if err != nil {
		return err
	}
	if out.PeakRSSMB, err = peakRSSMB(); err != nil {
		return err
	}
	out.Seed = o.seed
	return json.NewEncoder(os.Stdout).Encode(out)
}

// child runs one phase in a fresh process and returns its outcome.
func child(w workload, o options, phase string, extra ...string) (*phaseOut, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := append([]string{"--child", phase, "--workload", w.Name,
		"--seed", strconv.FormatInt(o.seed, 10), "--work", o.work}, extra...)
	cmd := exec.CommandContext(o.ctx, self, args...)
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s phase: %w", phase, err)
	}
	var out phaseOut
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, fmt.Errorf("%s phase output: %w", phase, err)
	}
	return &out, nil
}

// loop runs iter at least min times, then again while at least half of
// the previous run still fits in the budget that began at start, so a run
// ends as close to its budget as whole iterations allow.
func loop(start time.Time, seconds, min int, iter func() error) error {
	budget := time.Duration(seconds) * time.Second
	var last time.Duration
	for n := 0; n < min || time.Since(start)+last/2 <= budget; n++ {
		t0 := time.Now()
		if err := iter(); err != nil {
			return err
		}
		last = time.Since(t0)
	}
	return nil
}

// Set-up is timed in setupRounds rounds of setupRound set-ups, setupGap
// apart. A set-up takes well under a millisecond, and how long it takes
// swings with the host from one moment to the next; many small rounds
// spread over a few seconds average over those moments. recoveryReps and
// recoveryBudget bound the restores timed for recovery_s.
const (
	setupRounds    = 50
	setupRound     = 10
	setupGap       = 50 * time.Millisecond
	recoveryReps   = 5
	recoveryBudget = 2 * time.Second
)

// timeSetup runs once setupRounds×setupRound times and returns each
// set-up's time in seconds.
func timeSetup(once func() (float64, error)) ([]float64, error) {
	var d []float64
	for r := 0; r < setupRounds; r++ {
		runtime.GC() // garbage from the round before must not be collected mid-round
		for i := 0; i < setupRound; i++ {
			el, err := once()
			if err != nil {
				return nil, err
			}
			d = append(d, el)
		}
		time.Sleep(setupGap)
	}
	return d, nil
}

// endToEndServed measures a served workload: saturation, paced and, for the
// durable workload, recovery phases, each iteration in fresh child processes.
func endToEndServed(w workload, o options, rep *report) error {
	setup, err := timeSetup(func() (float64, error) { return serveSetup(w, o.work) })
	if err != nil {
		return err
	}
	rep.refs[o.seed], _ = w.reference(o.seed)
	if w.Durable {
		fr, err := encodeFrames(w.arrivals(o.seed))
		if err != nil {
			return err
		}
		if _, err := prepareRecovery(w, fr, o.work); err != nil {
			return err
		}
	}
	// One paced phase, then at least MinSat saturation runs and more while
	// the budget lasts.
	start := time.Now()
	paced, err := child(w, o, "paced")
	if err != nil {
		return err
	}
	var sats []*phaseOut
	err = loop(start, o.seconds, w.MinSat, func() error {
		s, err := child(w, o, "saturate")
		sats = append(sats, s)
		return err
	})
	if err != nil {
		return err
	}
	phases := append([]*phaseOut{paced}, sats...)
	for _, p := range phases {
		rep.check(p)
	}
	rep.checkSame(phases)
	p50, t, n, err := pacedLatency(paced)
	if err != nil {
		return err
	}
	rep.common(setup, sats)
	rep.metric("latency_p50_ms", p50, "ms", fmt.Sprintf("median of %d paced deliveries", n))
	rep.metric("latency_tail_ms", t.Value, "ms", t.String()+"; a sample is a completing arrival at its last result")
	rep.note("paced phase at speed-up %gx: generator lag p99 %.2f ms, end %.2f ms", w.Speedup, paced.LagP99MS, paced.LagEndMS)
	if !w.Durable {
		return nil
	}
	// Exactly once across a restart: resume from the checkpoint.
	rc, err := child(w, o, "recover")
	if err != nil {
		return err
	}
	rep.check(rc)
	recovery, reps, err := recoveryTime(w, o)
	if err != nil {
		return err
	}
	rep.metric("recovery_s", recovery, "s",
		fmt.Sprintf("serve.Open on each of %d fixed checkpoint cuts, median of %d per cut, mean over cuts", len(w.Cuts), reps))
	return nil
}

// pacedLatency reads a paced phase's per-delivery latencies and returns the
// median delivery latency, the tail over completing arrivals and how many
// deliveries were timed.
func pacedLatency(p *phaseOut) (float64, tail, int, error) {
	l, err := readFloats(p.LatencyFile)
	if err != nil {
		return 0, tail{}, 0, err
	}
	var lat []sample
	var all []float64
	for i := 0; i+1 < len(l); i += 2 {
		lat = append(lat, sample{MS: l[i], Event: uint64(l[i+1])})
		all = append(all, l[i])
	}
	sort.Float64s(all)
	return percentile(all, 0.5), tailOf(perEvent(lat)), len(all), nil
}

// prepareRecovery makes the workload's checkpoints at its fixed cuts and
// the resume cut's committed delivery hashes, as files for the recovery
// phases, and returns the resume cut's checkpoint.
func prepareRecovery(w workload, fr *frames, work string) ([]byte, error) {
	cks, before, err := makeCheckpoints(w, fr, mustTemp(work, "mk-"))
	if err != nil {
		return nil, fmt.Errorf("recovery checkpoints: %w", err)
	}
	for i, ck := range cks {
		if err := os.WriteFile(ckptPath(work, i), ck, 0o644); err != nil {
			return nil, err
		}
	}
	if err := writeUints(filepath.Join(work, "before.bin"), before); err != nil {
		return nil, err
	}
	return cks[w.resumeIndex()], nil
}

func ckptPath(work string, i int) string {
	return filepath.Join(work, fmt.Sprintf("ckpt-%02d.jck", i))
}

// recoveryTime restores every checkpoint cut in reopen children, until
// recoveryReps children or recoveryBudget, and returns the mean over cuts
// of each cut's median restore time.
func recoveryTime(w workload, o options) (float64, int, error) {
	per := make([][]float64, len(w.Cuts))
	reps := 0
	for t0 := time.Now(); reps < recoveryReps && (reps < 2 || time.Since(t0) < recoveryBudget); reps++ {
		r, err := child(w, o, "reopen")
		if err != nil {
			return 0, 0, err
		}
		for i, s := range r.Opens {
			per[i] = append(per[i], s)
		}
	}
	var sum float64
	for _, p := range per {
		sum += median(p)
	}
	return sum / float64(len(per)), reps, nil
}

// serveSetup times one serve.Open on an empty checkpoint dir (or none) until
// the server is listening, in seconds.
func serveSetup(w workload, work string) (float64, error) {
	dir := ""
	if w.Durable {
		dir = mustTemp(work, "setup-")
	}
	t0 := time.Now()
	s, err := serve.Open(w.serveConfig(dir))
	el := time.Since(t0).Seconds()
	if err != nil {
		return 0, err
	}
	s.Shutdown()
	return el, nil
}

// endToEndBatch measures the batch workload: a verification run that
// digests every delivery, then timed runs checked against it.
func endToEndBatch(w workload, o options, rep *report) error {
	setup, err := timeSetup(func() (float64, error) {
		t0 := time.Now()
		shard.New(w.build(w.Mode, false), w.shardOptions(w.Shards, w.Adapt, w.Disorder))
		return time.Since(t0).Seconds(), nil
	})
	if err != nil {
		return err
	}
	rep.refs[o.seed], _ = w.reference(o.seed)
	measured := batchRun{shards: w.Shards, adapt: w.Adapt, disordered: w.Disorder > 0}
	verify := measured
	verify.keep = true
	v, err := child(w, o, "batch", batchArgs(verify)...)
	if err != nil {
		return err
	}
	rep.check(v)
	var runs []*phaseOut
	err = loop(time.Now(), o.seconds, 1, func() error {
		b, err := child(w, o, "batch", batchArgs(measured)...)
		runs = append(runs, b)
		return err
	})
	if err != nil {
		return err
	}
	for _, p := range runs {
		rep.check(p)
	}
	rep.checkSame(append([]*phaseOut{v}, runs...))
	rep.common(setup, runs)
	return nil
}

func batchArgs(v batchRun) []string {
	return []string{"--shards", strconv.Itoa(v.shards), "--adapt=" + strconv.FormatBool(v.adapt),
		"--disordered=" + strconv.FormatBool(v.disordered), "--keep=" + strconv.FormatBool(v.keep)}
}

func field(ps []*phaseOut, f func(*phaseOut) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}

func mustTemp(dir, pattern string) string {
	d, err := os.MkdirTemp(dir, pattern)
	if err != nil {
		panic(err) // the scratch directory was just created by run
	}
	return d
}

func provenance(w workload, o options) map[string]string {
	return map[string]string{
		"workload":   w.Name,
		"seed":       strconv.FormatInt(o.seed, 10),
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"git":        gitSHA("."),
		"date":       time.Now().UTC().Format(time.RFC3339),
	}
}
