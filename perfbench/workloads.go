package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/operator"
	"repro/internal/plan"
	"repro/internal/predicate"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/source"
	"repro/internal/stream"
)

// workload is one named input the benchmark runs. Served workloads go
// through serve.Open over loopback TCP; the batch workload goes through
// shard.New(...).RunStream.
type workload struct {
	Name     string
	Why      string   // why it was chosen, in brief; summary adds the rest
	Loads    []string // layers the workload exercises
	Bypasses []string // layers it leaves idle
	Replaces string   // the legacy BENCH_*.json entry it supersedes

	// Query and stream shape (the exp.Params fields of the same names).
	Chain   bool // predicate.Chain instead of the serve/exp clique
	N       int
	Bushy   bool
	Window  stream.Time
	Rate    float64
	DMax    int64
	Horizon stream.Time
	Mode    core.Mode
	Indexed bool
	Zipf    float64

	// Served workloads.
	Served  bool
	Durable bool          // checkpoint dir at jitserver's default cadence (one window)
	Speedup float64       // paced phase: event-time ms per wall ms
	MinSat  int           // saturation phases per run, at least
	Cut     stream.Time   // fixed mid-run cut after the first arrival: durable recovery resumes from it, the traced pass snapshots there
	Cuts    []stream.Time // durable: fixed whole-window cuts whose restores recovery_s averages, ascending, Cut among them

	// Batch workload.
	Shards   int
	Adapt    bool
	Disorder stream.Time
}

var workloads = []workload{
	{
		Name:     "clique-jit",
		Why:      "Canonical JIT: served N=4 clique, scan states, core+feedback bound",
		Loads:    []string{"serve", "plan", "engine", "core", "feedback", "state", "obs"},
		Bypasses: []string{"checkpoint", "shard", "adapt", "source"},
		Replaces: "BENCH_hostile.json baseline",
		N:        4, Bushy: true, Window: 2 * stream.Minute, Rate: 2.5, DMax: 24,
		Horizon: 3 * stream.Minute, Mode: core.JIT(),
		Served: true, Speedup: 6, MinSat: 2,
	},
	{
		Name:     "zipf-durable",
		Why:      "Served REF clique, Zipf values, hash states, window checkpoints",
		Loads:    []string{"serve", "checkpoint", "plan", "engine", "core", "state", "obs"},
		Bypasses: []string{"feedback", "shard", "adapt", "source"},
		Replaces: "BENCH_serve.json ingest+recovery",
		N:        4, Bushy: true, Window: 2 * stream.Minute, Rate: 0.5, DMax: 24,
		Horizon: 60 * stream.Minute, Mode: core.REF(), Indexed: true, Zipf: 1.5,
		Served: true, Durable: true, Speedup: 300, MinSat: 3, Cut: 30 * stream.Minute,
		Cuts: windows(2*stream.Minute, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29),
	},
	{
		Name:     "chain-sharded",
		Why:      "Batch N=4 chain via shard RunStream: 2 shards, adapt on, 10 s disorder",
		Loads:    []string{"shard", "adapt", "source", "plan", "engine", "core", "feedback", "state", "obs"},
		Bypasses: []string{"serve", "checkpoint"},
		Replaces: "BENCH_shard.json chain",
		Chain:    true, N: 4, Bushy: true, Window: 2 * stream.Minute, Rate: 8, DMax: 100,
		Horizon: 150 * stream.Second, Mode: core.JIT(), Indexed: true,
		Shards: 2, Adapt: true, Disorder: 10 * stream.Second, Cut: 75 * stream.Second,
	},
}

// summary is the workload's one-line description in BENCHMARK.json: why it
// was chosen, the legacy entry it supersedes, and the layers it loads and
// bypasses.
func (w workload) summary() string {
	return fmt.Sprintf("%s. Supersedes %s. Loads %s; bypasses %s",
		w.Why, w.Replaces, strings.Join(w.Loads, " "), strings.Join(w.Bypasses, " "))
}

// resumeIndex is the position of the resume cut among the checkpoint cuts.
func (w workload) resumeIndex() int {
	for i, c := range w.Cuts {
		if c == w.Cut {
			return i
		}
	}
	panic("workload " + w.Name + ": resume cut is not a checkpoint cut")
}

// windows lists whole-window offsets: the served checkpoint boundaries.
func windows(w stream.Time, ks ...int) []stream.Time {
	out := make([]stream.Time, len(ks))
	for i, k := range ks {
		out[i] = stream.Time(k) * w
	}
	return out
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// query returns the workload's catalog and predicates.
func (w workload) query() (*stream.Catalog, predicate.Conj) {
	if w.Chain {
		return predicate.Chain(w.N)
	}
	return predicate.Clique(w.N)
}

func (w workload) shape() *plan.Node {
	if w.Bushy {
		return plan.Bushy(w.N)
	}
	return plan.LeftDeep(w.N)
}

// sourceConfig is the generator configuration for a seed; disordered adds
// the workload's bounded disorder (the batch workload's delivered order).
func (w workload) sourceConfig(seed int64, disordered bool) (*stream.Catalog, source.Config) {
	if w.Chain {
		cat, _ := w.query()
		cfg := source.UniformConfig(w.N, w.Rate, w.DMax, w.Horizon, seed)
		if disordered {
			cfg.Disorder = w.Disorder
		}
		return cat, cfg
	}
	p := exp.Params{N: w.N, Bushy: w.Bushy, Window: w.Window, Rate: w.Rate, DMax: w.DMax,
		Horizon: w.Horizon, Seed: seed, Mode: w.Mode, Indexed: w.Indexed, Zipf: w.Zipf}
	if disordered {
		p.Disorder = w.Disorder
	}
	cat, cfg, _ := p.Build()
	return cat, cfg
}

// arrivals generates the workload's stream in timestamp order.
func (w workload) arrivals(seed int64) []*stream.Tuple {
	cat, cfg := w.sourceConfig(seed, false)
	return source.Generate(cat, cfg)
}

// build wires a fresh plan for the workload in the given mode.
func (w workload) build(mode core.Mode, keep bool) *plan.Built {
	cat, conj := w.query()
	return plan.BuildTree(cat, conj, w.shape(), plan.Options{
		Window: w.Window, Mode: mode, NoStateIndex: !w.Indexed, KeepResults: keep,
	})
}

// serveConfig is the server configuration for a served workload; dir
// enables checkpoints (jitserver's default cadence and retention).
func (w workload) serveConfig(dir string) serve.Config {
	return serve.Config{
		N: w.N, Bushy: w.Bushy, Window: w.Window, Mode: w.Mode, Indexed: w.Indexed,
		Addr: "127.0.0.1:0", Dir: dir,
	}
}

// shardOptions is the batch workload's sharded-run configuration.
func (w workload) shardOptions(shards int, adaptOn bool, disorder stream.Time) shard.Options {
	o := shard.Options{Shards: shards, Engine: engine.Options{Drain: true, Disorder: disorder}}
	if adaptOn {
		o.Adapt = &adapt.Config{Epoch: w.Window}
	}
	return o
}

// digestConsumer folds every composite it receives into a delivery digest
// and forwards it, so a reference run never has to retain its results.
type digestConsumer struct {
	d    digest
	next operator.Consumer
}

func (c *digestConsumer) Consume(comp *stream.Composite, p operator.Port) {
	c.d.add([]byte(comp.Key()))
	c.next.Consume(comp, p)
}

// reference computes the per-seed reference delivery multiset: a drained,
// in-order REF run with hash-indexed states (REF delivers the complete
// result set; indexing changes its cost, never its output).
func (w workload) reference(seed int64) (digest, engine.Result) {
	ref := w
	ref.Indexed = true
	b := ref.build(core.REF(), false)
	dc := &digestConsumer{next: b.Sink}
	b.RootJoin().SetConsumer(dc, operator.Left)
	res := engine.NewWithOptions(b, engine.Options{Drain: true}).Run(w.arrivals(seed))
	return dc.d, res
}

// frames is a served workload's stream, NDJSON-encoded ahead of time so
// the timed part of a phase only does socket I/O.
type frames struct {
	buf []byte
	off []int // frame i is buf[off[i]:off[i+1]]
	ids []uint64
	ts  []int64
}

func encodeFrames(arr []*stream.Tuple) (*frames, error) {
	f := &frames{off: make([]int, 0, len(arr)+1), ids: make([]uint64, len(arr)), ts: make([]int64, len(arr))}
	for i, t := range arr {
		vals := make([]int64, len(t.Vals))
		for j, v := range t.Vals {
			vals[j] = int64(v)
		}
		line, err := json.Marshal(serve.Frame{ID: t.ID, Source: int(t.Source), TS: int64(t.TS), Vals: vals})
		if err != nil {
			return nil, err
		}
		f.off = append(f.off, len(f.buf))
		f.buf = append(append(f.buf, line...), '\n')
		f.ids[i], f.ts[i] = t.ID, int64(t.TS)
	}
	f.off = append(f.off, len(f.buf))
	return f, nil
}

func (f *frames) len() int { return len(f.ids) }

func (f *frames) frame(i int) []byte { return f.buf[f.off[i]:f.off[i+1]] }

// after returns the index of the first frame whose ID exceeds id.
func (f *frames) after(id uint64) int {
	return sort.Search(len(f.ids), func(i int) bool { return f.ids[i] > id })
}
