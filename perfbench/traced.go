package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/source"
	"repro/internal/stream"
)

// perLayer lists every per-layer metric the traced pass reports, with its
// unit. Metrics a workload does not exercise read 0 (see README.md).
var perLayer = func() [][2]string {
	m := [][2]string{
		{"serve.decode_ns_per_frame", "ns"}, {"serve.decode_allocs_per_frame", "count"},
		{"serve.overhead_us_per_arrival", "us"}, {"serve.delivery_bytes", "B"},
		{"gen.lag_p99_ms", "ms"}, {"gen.lag_end_ms", "ms"},
		{"run.throughput_aps", "arrivals/s"}, {"run.latency_p50_ms", "ms"}, {"latency.tail_ms", "ms"},
		{"checkpoint.count", "count"}, {"checkpoint.bytes", "B"}, {"checkpoint.encode_ms", "ms"},
		{"checkpoint.decode_ms", "ms"}, {"checkpoint.save_ms", "ms"}, {"checkpoint.share_pct", "%"},
		{"plan.snapshot_ms", "ms"}, {"plan.replay_ms", "ms"},
		{"recovery.rows", "count"}, {"recovery.keys", "count"}, {"recovery.tail", "count"},
		{"engine.us_per_arrival", "us"}, {"engine.sweeps_per_arrival", "count"},
		{"engine.reorder_us_per_arrival", "us"}, {"engine.late_dropped", "count"},
	}
	for i := 1; i <= 3; i++ {
		m = append(m, [2]string{fmt.Sprintf("core.Op%d.self_ms", i), "ms"}, [2]string{fmt.Sprintf("core.Op%d.probes", i), "count"})
	}
	m = append(m, [][2]string{
		{"core.cmp_per_arrival", "count"}, {"core.composites_per_arrival", "count"}, {"core.final_ratio", "ratio"},
		{"feedback.mns_per_arrival", "count"}, {"feedback.lattice_nodes_per_arrival", "count"},
		{"feedback.msgs_per_arrival", "count"}, {"feedback.suspended", "count"}, {"feedback.resumed", "count"},
		{"feedback.resume_ratio", "ratio"}, {"feedback.suppressed_per_suspended", "count"},
		{"feedback.catchup_per_arrival", "count"},
		{"state.peak_kb", "KB"}, {"state.cmp_per_probe", "count"}, {"state.purged_per_arrival", "count"},
		{"shard.speedup_vs_1", "ratio"}, {"shard.parallelism", "ratio"}, {"shard.imbalance", "ratio"},
		{"shard.broadcasts", "count"},
		{"adapt.overhead_pct", "%"}, {"adapt.units", "units"}, {"adapt.share_pct", "%"},
		{"adapt.migrations", "count"}, {"adapt.dups", "count"},
		{"source.ns_per_arrival", "ns"},
		{"obs.trace_overhead_pct", "%"},
	}...)
	for k := obs.Kind(0); k < obs.NumKinds; k++ {
		m = append(m, [2]string{"obs.events." + k.String(), "count"})
	}
	m = append(m, [][2]string{
		{"trace.wall_ms", "ms"}, {"trace.source_self_ms", "ms"}, {"trace.core_self_ms", "ms"},
		{"trace.sink_self_ms", "ms"}, {"trace.unattributed_ms", "ms"}, {"trace.spans", "count"},
		{"twin.served_ms", "ms"}, {"twin.engine_only_ms", "ms"}, {"twin.nodir_ms", "ms"},
		{"twin.one_shard_ms", "ms"}, {"twin.adapt_off_ms", "ms"}, {"twin.sorted_ms", "ms"},
		{"failed_frac", "ratio"},
	}...)
	return m
}()

// layers collects the traced pass's per-layer values.
type layers map[string]float64

// twinReps is how many times the traced pass runs a workload and each of
// its twins, alternating them, so that every share compares medians rather
// than single runs of a noisy host. More would push chain-sharded's traced
// pass, which runs its job four ways, towards the run limit.
const twinReps = 2

// medianWall is the median wall time of the runs, in seconds.
func medianWall(ps []*phaseOut) float64 {
	return median(field(ps, func(p *phaseOut) float64 { return p.WallS }))
}

// traced runs the per-layer pass: the workload's own run plus its
// layer-isolating twins, engine-only runs with span shims and with an
// attached obs.Tracer, and direct timings of each layer's public calls.
func traced(w workload, o options, rep *report) error {
	rep.refs[o.seed], _ = w.reference(o.seed)
	m := layers{}
	var run *phaseOut
	var err error
	if w.Served {
		run, err = tracedServed(w, o, rep, m)
	} else {
		run, err = tracedBatch(w, o, rep, m)
	}
	if err != nil {
		return err
	}
	counterMetrics(run.Result, float64(run.Arrivals), m)
	if err := tracedEngine(w, o, rep, m, run); err != nil {
		return err
	}
	m["failed_frac"] = failedFrac(rep.fail, rep.attempted)
	for _, pl := range perLayer {
		rep.metric(pl[0], m[pl[0]], pl[1], "")
	}
	return nil
}

// counterMetrics derives the count and ratio metrics from a run's counters.
func counterMetrics(res *engine.Result, arr float64, m layers) {
	c := res.Counters
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	for _, op := range res.Ops {
		m["core."+op.Name+".probes"] = float64(op.Stats.Probes)
	}
	m["engine.sweeps_per_arrival"] = float64(c.Sweeps) / arr
	m["engine.late_dropped"] = float64(c.LateDropped)
	m["core.cmp_per_arrival"] = float64(c.Comparisons) / arr
	m["core.composites_per_arrival"] = float64(c.Results) / arr
	m["core.final_ratio"] = ratio(c.FinalResults, c.Results)
	m["feedback.mns_per_arrival"] = float64(c.MNSDetected) / arr
	m["feedback.lattice_nodes_per_arrival"] = float64(c.LatticeNodes) / arr
	m["feedback.msgs_per_arrival"] = float64(c.Feedbacks) / arr
	m["feedback.suspended"] = float64(c.Suspended)
	m["feedback.resumed"] = float64(c.Resumed)
	m["feedback.resume_ratio"] = ratio(c.Resumed, c.Suspended)
	m["feedback.suppressed_per_suspended"] = ratio(c.SuppressedPairs, c.Suspended)
	m["feedback.catchup_per_arrival"] = float64(c.CatchUpJoins) / arr
	m["state.peak_kb"] = res.PeakMemKB
	m["state.cmp_per_probe"] = ratio(c.Comparisons, c.Probes)
	m["state.purged_per_arrival"] = float64(c.Purged) / arr
	m["adapt.units"] = float64(c.AdaptUnits)
	m["adapt.share_pct"] = 100 * ratio(c.AdaptUnits, res.CostUnits)
	m["adapt.migrations"] = float64(c.Migrations)
	m["adapt.dups"] = float64(c.MigrationDups)
}

// tracedServed runs the served phases the per-layer metrics need and the
// serve- and checkpoint-layer timings.
func tracedServed(w workload, o options, rep *report, m layers) (*phaseOut, error) {
	arr := w.arrivals(o.seed)
	fr, err := encodeFrames(arr)
	if err != nil {
		return nil, err
	}
	// The saturation run alternates with its no-checkpoint-dir twin.
	var sats, nodirs []*phaseOut
	for i := 0; i < twinReps; i++ {
		s, err := child(w, o, "saturate")
		if err != nil {
			return nil, err
		}
		rep.check(s)
		sats = append(sats, s)
		if w.Durable {
			n, err := child(w, o, "nodir")
			if err != nil {
				return nil, err
			}
			rep.check(n)
			nodirs = append(nodirs, n)
		}
	}
	sat, served := sats[0], medianWall(sats)
	m["twin.served_ms"] = served * 1000
	m["serve.delivery_bytes"] = float64(sat.LineBytes)
	m["checkpoint.count"] = float64(sat.Ckpts)
	paced, err := child(w, o, "paced")
	if err != nil {
		return nil, err
	}
	rep.check(paced)
	rep.checkSame(append([]*phaseOut{paced}, sats...))
	m["gen.lag_p99_ms"], m["gen.lag_end_ms"] = paced.LagP99MS, paced.LagEndMS
	p50, t, _, err := pacedLatency(paced)
	if err != nil {
		return nil, err
	}
	m["run.throughput_aps"] = float64(sat.Arrivals) / served
	m["run.latency_p50_ms"] = p50
	m["latency.tail_ms"] = t.Value
	rep.note("latency.tail_ms: %s", t)
	if w.Durable {
		nodir := medianWall(nodirs)
		m["twin.nodir_ms"] = nodir * 1000
		m["checkpoint.share_pct"] = 100 * (served - nodir) / served
	}

	// serve.DecodeFrame over the workload's frames.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	var per []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		for i := 0; i < fr.len(); i++ {
			if _, err := serve.DecodeFrame(fr.frame(i)[:len(fr.frame(i))-1]); err != nil {
				return nil, err
			}
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(fr.len()))
	}
	runtime.ReadMemStats(&ms)
	m["serve.decode_ns_per_frame"] = median(per)
	m["serve.decode_allocs_per_frame"] = float64(ms.Mallocs-mallocs) / float64(5*fr.len())

	if !w.Durable {
		return sat, nil
	}
	// The workload's own mid-run checkpoint: encode, decode, save, then
	// the recovery that restores it.
	ckData, err := prepareRecovery(w, fr, o.work)
	if err != nil {
		return nil, err
	}
	m["checkpoint.bytes"] = float64(len(ckData))
	var ck *checkpoint.Checkpoint
	var decErr error
	m["checkpoint.decode_ms"] = medianMS(5, func() { ck, decErr = checkpoint.Decode(ckData) })
	if decErr != nil {
		return nil, decErr
	}
	m["checkpoint.encode_ms"] = medianMS(5, func() { checkpoint.Encode(ck) })
	st, err := checkpoint.OpenStore(mustTemp(o.work, "save-"), 0)
	if err != nil {
		return nil, err
	}
	var saveErr error
	m["checkpoint.save_ms"] = medianMS(5, func() {
		if _, err := st.Save(ck); err != nil && saveErr == nil {
			saveErr = err
		}
	})
	if saveErr != nil {
		return nil, saveErr
	}
	b := w.build(w.Mode, false)
	for _, j := range b.Joins {
		j.SetExact(true)
	}
	b.ReplayInWindow(ck.Rows)
	m["plan.snapshot_ms"] = medianMS(5, func() { b.SnapshotInWindow(ck.Cut) })
	rc, err := child(w, o, "recover")
	if err != nil {
		return nil, err
	}
	rep.check(rc)
	m["plan.replay_ms"] = float64(rc.Recovery.Elapsed) / float64(time.Millisecond)
	m["recovery.rows"], m["recovery.keys"], m["recovery.tail"] = float64(rc.Recovery.Rows), float64(rc.Recovery.Keys), float64(rc.Recovery.Tail)
	return sat, nil
}

// tracedBatch runs the batch job and its twins: one shard, adapt off, and
// the sorted in-order stream.
func tracedBatch(w workload, o options, rep *report, m layers) (*phaseOut, error) {
	measured := batchRun{shards: w.Shards, adapt: w.Adapt, disordered: w.Disorder > 0}
	verify := measured
	verify.keep = true
	v, err := child(w, o, "batch", batchArgs(verify)...)
	if err != nil {
		return nil, err
	}
	rep.check(v)
	// Twins isolate the job's layers: a single-shard run for shard, adapt
	// off for adapt, the sorted in-order stream for the reorder stage. They
	// alternate with the measured job.
	one, off, sorted := measured, measured, measured
	one.shards, off.adapt, sorted.disordered = 1, false, false
	variants := []struct {
		name string
		run  batchRun
	}{{"run", measured}, {"one_shard", one}, {"adapt_off", off}, {"sorted", sorted}}
	runs := map[string][]*phaseOut{}
	for i := 0; i < twinReps; i++ {
		for _, vr := range variants {
			t, err := child(w, o, "batch", batchArgs(vr.run)...)
			if err != nil {
				return nil, err
			}
			rep.check(t)
			runs[vr.name] = append(runs[vr.name], t)
		}
	}
	wall := map[string]float64{}
	for _, vr := range variants {
		wall[vr.name] = medianWall(runs[vr.name])
	}
	for _, tw := range variants[1:] {
		m["twin."+tw.name+"_ms"] = wall[tw.name] * 1000
	}
	// The reorder stage releases exactly the in-order sort, so the sorted
	// twin must match the measured job counter for counter.
	rep.checkSame(append(append([]*phaseOut{v}, runs["run"]...), runs["sorted"]...))
	run := runs["run"][0]
	arr := float64(run.Arrivals)
	m["run.throughput_aps"] = arr / wall["run"]
	m["shard.speedup_vs_1"] = wall["one_shard"] / wall["run"]
	m["shard.parallelism"] = median(field(runs["run"], func(p *phaseOut) float64 {
		var sum float64
		for _, s := range p.Shard.Walls {
			sum += s
		}
		return sum / p.WallS
	}))
	m["shard.imbalance"] = run.Shard.Imbalance
	m["shard.broadcasts"] = float64(run.Shard.Broadcasts)
	m["adapt.overhead_pct"] = 100 * (wall["run"] - wall["adapt_off"]) / wall["adapt_off"]
	m["engine.reorder_us_per_arrival"] = 1e6 * (wall["run"] - wall["sorted"]) / arr
	cat, cfg := w.sourceConfig(o.seed, w.Disorder > 0)
	var n int
	m["source.ns_per_arrival"] = medianMS(3, func() {
		next := source.Stream(cat, cfg)
		for n = 0; ; n++ {
			if _, ok := next(); !ok {
				break
			}
		}
	}) * 1e6 / float64(n)

	// The job's restart from its mid-run cut: snapshot, then the parallel
	// per-shard replay of the in-window rows.
	snap, err := snapshotAt(w, w.arrivals(o.seed), w.Cut)
	if err != nil {
		return nil, err
	}
	m["plan.snapshot_ms"] = snap.snapshotMS
	m["plan.replay_ms"] = float64(restoreBatch(w, snap)) / float64(time.Millisecond)
	m["recovery.rows"] = float64(len(snap.rows))
	return run, nil
}

// tracedEngine runs the workload's plan on one engine three ways on the same
// stream: untraced, with span shims around every layer call, and with an
// obs.Tracer counting events. All three must leave identical counters, and
// for a served workload so must the served run.
func tracedEngine(w workload, o options, rep *report, m layers, run *phaseOut) error {
	var arrivals []*stream.Tuple
	var disorder stream.Time
	newSource := func() func() (*stream.Tuple, bool) {
		i := 0
		return func() (*stream.Tuple, bool) {
			if i == len(arrivals) {
				return nil, false
			}
			i++
			return arrivals[i-1], true
		}
	}
	if w.Served {
		arrivals = w.arrivals(o.seed)
	} else {
		cat, cfg := w.sourceConfig(o.seed, true)
		disorder = w.Disorder
		newSource = func() func() (*stream.Tuple, bool) { return source.Stream(cat, cfg) }
	}
	runOnce := func(setup func(b *plan.Built), wrap func(next func() (*stream.Tuple, bool)) func() (*stream.Tuple, bool)) engine.Result {
		b := w.build(w.Mode, false)
		if w.Served {
			for _, j := range b.Joins {
				j.SetExact(true) // as serve.Open does
			}
		}
		setup(b)
		next := newSource()
		if wrap != nil {
			next = wrap(next)
		}
		return engine.NewWithOptions(b, engine.Options{Drain: true, Disorder: disorder}).RunStream(next)
	}
	// The untraced run alternates with the obs-traced one.
	var plains, counteds []engine.Result
	sinks := &obs.CountingSink{}
	for i := 0; i < twinReps; i++ {
		plains = append(plains, runOnce(func(*plan.Built) {}, nil))
		s := &obs.CountingSink{}
		if i == 0 {
			s = sinks
		}
		counteds = append(counteds, runOnce(func(b *plan.Built) { b.SetTrace(obs.New(obs.Options{Sink: s})) }, nil))
	}
	wallMS := func(rs []engine.Result) float64 {
		d := make([]float64, len(rs))
		for i, r := range rs {
			d[i] = float64(r.WallTime) / float64(time.Millisecond)
		}
		return median(d)
	}
	plain, plainMS := plains[0], wallMS(plains)
	arr := float64(plain.Arrivals)
	m["twin.engine_only_ms"] = plainMS
	m["engine.us_per_arrival"] = plainMS * 1000 / arr
	if w.Served {
		m["serve.overhead_us_per_arrival"] = (m["twin.served_ms"] - plainMS) * 1000 / arr
	}

	log := newSpanLog()
	spanned := runOnce(func(b *plan.Built) { instrument(b, log) }, func(next func() (*stream.Tuple, bool)) func() (*stream.Tuple, bool) {
		return func() (*stream.Tuple, bool) {
			log.begin("source")
			t, ok := next()
			log.end()
			return t, ok
		}
	})
	same := append(append([]engine.Result{spanned}, plains[1:]...), counteds...)
	if w.Served {
		same = append(same, *run.Result)
	}
	for _, r := range same {
		if !reflect.DeepEqual(r.Counters, plain.Counters) {
			rep.fail.Mismatched++
			rep.errs = append(rep.errs, fmt.Sprintf("counters differ from the untraced engine-only run's: %v vs %v", &r.Counters, &plain.Counters))
		}
	}
	m["obs.trace_overhead_pct"] = 100 * (wallMS(counteds) - plainMS) / plainMS
	for k := obs.Kind(0); k < obs.NumKinds; k++ {
		m["obs.events."+k.String()] = float64(sinks.Count(k))
	}
	return spanTotals(log, spanned.WallTime, w, o, rep, m)
}

// spanTotals folds the span log into per-layer self times, checks that they
// and the unattributed remainder add up to the traced wall time, and writes
// the spans out.
func spanTotals(log *spanLog, wall time.Duration, w workload, o options, rep *report, m layers) error {
	ms := func(ns int64) float64 { return float64(ns) / float64(time.Millisecond) }
	names := make([]string, 0, len(log.self))
	for n := range log.self {
		names = append(names, n)
	}
	sort.Strings(names)
	var core, attributed int64
	for _, n := range names {
		ns := log.self[n]
		attributed += ns
		switch {
		case n == "source":
			m["trace.source_self_ms"] = ms(ns)
		case n == "sink":
			m["trace.sink_self_ms"] = ms(ns)
		default:
			core += ns
			m[n+".self_ms"] = ms(ns)
		}
	}
	// The engine's own work — scheduling, sweeps, the reorder stage — runs
	// between the shimmed calls and is the unattributed remainder.
	rest := int64(wall) - attributed
	m["trace.wall_ms"] = ms(int64(wall))
	m["trace.core_self_ms"] = ms(core)
	m["trace.unattributed_ms"] = ms(rest)
	m["trace.spans"] = float64(log.count)
	if rest < 0 {
		rep.fail.Mismatched++
		rep.errs = append(rep.errs, fmt.Sprintf("span self times (%d ns) exceed the traced wall (%d ns)", attributed, wall))
	}
	rep.note("spans: %d recorded, %d kept; self ms by layer %v; unattributed %.3f ms; wall %.3f ms",
		log.count, len(log.spans), selfMS(log), ms(rest), ms(int64(wall)))
	dir := filepath.Join(filepath.Dir(filepath.Dir(o.work)), "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.ndjson", w.Name, o.seed))
	rep.note("span file: %s", path)
	return log.write(path)
}

func selfMS(l *spanLog) map[string]string {
	out := map[string]string{}
	for n, ns := range l.self {
		out[n] = fmt.Sprintf("%.3f", float64(ns)/float64(time.Millisecond))
	}
	return out
}

// medianMS times f reps times and returns the median in milliseconds.
func medianMS(reps int, f func()) float64 {
	var d []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		f()
		d = append(d, float64(time.Since(t0))/float64(time.Millisecond))
	}
	return median(d)
}
