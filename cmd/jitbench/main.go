// Command jitbench regenerates the paper's evaluation figures (10-17).
//
// Usage:
//
//	jitbench [-fig N|all] [-scale F] [-size F] [-seed N] [-ablation]
//
// -scale scales the application-time horizon relative to the paper's 5
// hours (floored at 2.5 windows); -scale 1 reproduces the full runs.
// -size optionally scales window and dmax together for quick looks.
// -ablation adds the DOE and Bloom-JIT modes to the comparison.
// -indexed runs every point with hash-indexed join states (DESIGN.md §3)
// instead of the paper's linear scans; under indexing REF's probe cost
// collapses to the matching pairs, so expect the JIT/REF cost ratios to
// invert relative to the paper's figures.
// -shards runs every point across key-partitioned engine replicas
// (DESIGN.md §5); broadcast sources are then ingested once per shard, so
// the work counters include that duplication and sharded sweeps measure
// scaling rather than the paper's overhead shape.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/exp"
	"repro/internal/stream"
)

func main() {
	fig := flag.String("fig", "all", "figure to run: 10..17 or 'all'")
	scale := flag.Float64("scale", 0.02, "horizon scale relative to the paper's 5 hours")
	size := flag.Float64("size", 1.0, "window/domain size scale (1 = paper-exact)")
	seed := flag.Int64("seed", 1, "workload seed")
	ablation := flag.Bool("ablation", false, "include DOE and Bloom-JIT modes")
	indexed := flag.Bool("indexed", false, "hash-indexed join states instead of the paper's linear scans")
	shards := flag.Int("shards", 1, "run every point across key-partitioned engine replicas (scaling mode, not paper-comparable; DESIGN.md §5)")
	zipf := flag.Float64("zipf", 0, "Zipf-skew value domains with this exponent (> 1; 0 = uniform; hostile mode, DESIGN.md §8)")
	burst := flag.Float64("burst", 0, "burst factor: multiply every source's rate by this during the first half of each burst period (> 1; 0 = stationary)")
	burstPeriod := flag.Float64("burst-period", 0, "burst cycle length in minutes (0 = one window)")
	disorder := flag.Float64("disorder", 0, "deliver every point's stream out of timestamp order with delays up to this many seconds (DESIGN.md §8)")
	band := flag.Int64("band", 0, "replace every equi-join predicate with the band predicate |l-r| <= band (DESIGN.md §8)")
	flag.Parse()

	fail := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "jitbench: "+format+"\n", args...)
		os.Exit(2)
	}
	// Validate before running anything: a bad scale or shard count would
	// otherwise be accepted silently (Scale <= 0 floors every horizon at
	// 2.5 windows, -size 0 silently means 1) or panic mid-sweep.
	switch {
	case *scale <= 0:
		fail("-scale must be positive (fraction of the paper's 5-hour horizon), got %g", *scale)
	case *size <= 0 || *size > 1:
		fail("-size must be in (0,1], got %g", *size)
	case *shards < 1:
		fail("-shards must be at least 1, got %d", *shards)
	}
	m := exp.Mutators{Zipf: *zipf, Burst: *burst, BurstPeriod: *burstPeriod, Disorder: *disorder, Band: float64(*band)}
	if err := m.Check(); err != nil {
		fail("%v", err)
	}

	cfg := exp.Config{Scale: *scale, SizeScale: *size, Seed: *seed, Indexed: *indexed, Shards: *shards, Modes: exp.DefaultModes()}
	cfg.Zipf = *zipf
	cfg.Burst = *burst
	cfg.BurstPeriod = stream.Time(*burstPeriod * float64(stream.Minute))
	cfg.Disorder = stream.Time(*disorder * float64(stream.Second))
	cfg.Band = stream.Value(*band)
	if *ablation {
		cfg.Modes = exp.AblationModes()
	}
	if cfg.Zipf > 1 || cfg.Burst > 1 || cfg.Disorder > 0 || cfg.Band > 0 {
		fmt.Fprintln(os.Stderr, "jitbench: hostile mutators active — figures probe robustness, not the paper's shapes; expect shape deviations")
	}

	var runs []func(exp.Config) *exp.Figure
	if *fig == "all" {
		for id := 10; id <= 17; id++ {
			f, _ := exp.ByID(id)
			runs = append(runs, f)
		}
	} else {
		var id int
		if _, err := fmt.Sscanf(*fig, "%d", &id); err != nil {
			fmt.Fprintf(os.Stderr, "jitbench: bad -fig %q\n", *fig)
			os.Exit(2)
		}
		f, ok := exp.ByID(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "jitbench: unknown figure %d (want 10..17)\n", id)
			os.Exit(2)
		}
		runs = append(runs, f)
	}

	for _, run := range runs {
		start := time.Now()
		f := run(cfg)
		f.Render(os.Stdout)
		fmt.Printf("(elapsed %v)\n", time.Since(start).Round(time.Millisecond))
		if bad := f.CheckShape(); len(bad) > 0 {
			for _, v := range bad {
				fmt.Println("  shape deviation:", v)
			}
		}
		fmt.Println()
	}
}
