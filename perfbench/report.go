package main

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"
)

// endToEnd lists the gated end-to-end metrics, with units: set-up time and
// the deterministic quantities. Every run also prints throughput, CPU time
// and peak RSS, and the served workloads latency (zipf-durable recovery
// time too), measured the same way, but they are not gated: on a shared
// 2-core host their spread across ten seeds came close to or passed the
// largest admissible bound.
var endToEnd = [][2]string{
	{"setup_s", "s"}, {"cost_units_per_arrival", "units"}, {"allocs_per_arrival", "count"},
	{"bytes_per_arrival", "B"}, {"peak_state_kb", "KB"},
}

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates one pass's metrics and correctness tally.
type report struct {
	w         workload
	prov      map[string]string
	order     []string
	metrics   map[string]metricVal
	about     map[string]string
	notes     []string
	fail      failures
	attempted int
	errs      []string
	refs      map[int64]digest // reference delivery digest by stream seed
	gated     map[string]bool  // metrics that go into the JSON result
}

func newReport(w workload, o options) *report {
	return &report{w: w, prov: provenance(w, o), metrics: map[string]metricVal{}, about: map[string]string{},
		refs: map[int64]digest{}}
}

func (r *report) metric(name string, v float64, unit, about string) {
	if _, dup := r.metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metricVal{Value: v, Unit: unit}
	if about != "" {
		r.about[name] = about
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check tallies one phase against the reference: its failures, and its
// deliveries — a full digest where the phase has one, the count alone for
// timed batch runs (whose counters checkSame ties to the digested run).
func (r *report) check(p *phaseOut) {
	ref, ok := r.refs[p.Seed]
	if !ok {
		panic(fmt.Sprintf("no reference for seed %d", p.Seed)) // every stream's reference is computed first
	}
	r.attempted += p.Arrivals + int(ref.N)
	r.fail.add(p.Fail)
	r.errs = append(r.errs, p.Errors...)
	got := p.Delivered
	if got.Sum1 == 0 && got.Sum2 == 0 && got.N > 0 {
		got = digest{N: got.N, Sum1: ref.Sum1, Sum2: ref.Sum2}
	}
	if f := deliveryFailures(ref, got); f.total() > 0 {
		r.fail.add(f)
		r.errs = append(r.errs, fmt.Sprintf("%s phase delivered %d results, digest %x/%x; reference %d, %x/%x",
			p.Phase, got.N, got.Sum1, got.Sum2, ref.N, ref.Sum1, ref.Sum2))
	}
}

// checkSame requires the deterministic outputs — counters, cost units and
// accounted peak state — to repeat exactly across runs of the same job.
func (r *report) checkSame(ps []*phaseOut) {
	for i := 1; i < len(ps); i++ {
		p := ps[i]
		a, b := ps[0].Result, p.Result
		if !reflect.DeepEqual(a.Counters, b.Counters) || a.CostUnits != b.CostUnits || a.PeakMemKB != b.PeakMemKB {
			r.fail.Mismatched++
			r.errs = append(r.errs, fmt.Sprintf("%s run counters differ from the first run's: %v vs %v", p.Phase, &b.Counters, &a.Counters))
		}
	}
}

// common reports the metrics every workload shares, each the median over
// its timed runs (the deterministic ones differ only between streams).
func (r *report) common(setups []float64, runs []*phaseOut) {
	per := func(f func(p *phaseOut) float64) float64 {
		return median(field(runs, func(p *phaseOut) float64 { return f(p) / float64(p.Arrivals) }))
	}
	r.metric("setup_s", median(setups), "s",
		fmt.Sprintf("median of %d, in %d rounds %v apart", len(setups), setupRounds, setupGap))
	aps := field(runs, func(p *phaseOut) float64 { return float64(p.Arrivals) / p.WallS })
	sort.Float64s(aps)
	r.metric("throughput_aps", median(aps), "arrivals/s",
		fmt.Sprintf("%d arrivals, median of %d runs, range %.6g-%.6g", runs[0].Arrivals, len(runs), aps[0], aps[len(aps)-1]))
	r.metric("cpu_us_per_arrival", per(func(p *phaseOut) float64 { return p.CPUS * 1e6 }), "us", "process user+sys")
	r.metric("cost_units_per_arrival", per(func(p *phaseOut) float64 { return float64(p.Result.CostUnits) }), "units",
		fmt.Sprintf("%d cost units in the first run", runs[0].Result.CostUnits))
	r.metric("allocs_per_arrival", per(func(p *phaseOut) float64 { return float64(p.Mallocs) }), "count", "")
	r.metric("bytes_per_arrival", per(func(p *phaseOut) float64 { return float64(p.Bytes) }), "B", "")
	r.metric("peak_state_kb", median(field(runs, func(p *phaseOut) float64 { return p.Result.PeakMemKB })), "KB",
		"accounted peak (Result.PeakMemKB)")
	r.metric("peak_rss_mb", median(field(runs, func(p *phaseOut) float64 { return p.PeakRSSMB })), "MB",
		"peak RSS of each run's own process, median")
}

// complete checks that the pass reported every listed metric, and marks
// exactly those for the JSON result.
func (r *report) complete(list [][2]string) error {
	r.gated = map[string]bool{}
	for _, m := range list {
		if got, ok := r.metrics[m[0]]; !ok || got.Unit != m[1] {
			return fmt.Errorf("metric %s [%s] missing or in another unit", m[0], m[1])
		}
		r.gated[m[0]] = true
	}
	return nil
}

// print writes the human-readable lines and, last, the JSON result.
func (r *report) print(w io.Writer) {
	keys := make([]string, 0, len(r.prov))
	for k := range r.prov {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "# %s: %s\n", k, r.prov[k])
	}
	fmt.Fprintf(w, "# why: %s\n", r.w.summary())
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	gated := map[string]metricVal{}
	for _, name := range r.order {
		m := r.metrics[name]
		about := r.about[name]
		if r.gated[name] {
			gated[name] = m
		} else {
			about = strings.TrimSpace(about + " (not gated)")
		}
		fmt.Fprintf(w, "%-34s %16.6g %-10s %s\n", name, m.Value, m.Unit, about)
	}
	failed := r.fail.total()
	fmt.Fprintf(w, "%-34s %16.6g %-10s %d of %d attempted %+v\n", "# failed_frac", failedFrac(r.fail, r.attempted), "ratio", failed, r.attempted, r.fail)
	for i, e := range r.errs {
		if i == 10 {
			fmt.Fprintf(w, "! ... %d more\n", len(r.errs)-10)
			break
		}
		fmt.Fprintf(w, "! %s\n", e)
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricVal `json:"metrics"`
	}{failed == 0 && r.attempted > 0, r.attempted, failed, gated}
	b, _ := json.Marshal(out) // plain floats and strings always marshal
	fmt.Fprintf(w, "%s\n", b)
}
