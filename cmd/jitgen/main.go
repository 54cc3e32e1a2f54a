// Command jitgen generates a synthetic clique-join workload trace (the
// paper's Sec. VI generator) as CSV on stdout: one line per arrival with
// timestamp (ms), source name, and column values.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"repro/internal/exp"
	"repro/internal/predicate"
	"repro/internal/source"
	"repro/internal/stream"
)

func main() {
	n := flag.Int("n", 4, "number of streaming sources")
	rate := flag.Float64("rate", 1.0, "arrival rate λ (tuples/sec/source)")
	dmax := flag.Int64("dmax", 200, "value domain upper bound")
	horizon := flag.Duration("horizon", 0, "application time horizon (e.g. 30m)")
	minutes := flag.Float64("minutes", 30, "horizon in minutes when -horizon unset")
	seed := flag.Int64("seed", 1, "random seed")
	zipf := flag.Float64("zipf", 0, "Zipf-skew value domains with this exponent (> 1; 0 = uniform; DESIGN.md §8)")
	burst := flag.Float64("burst", 0, "burst factor: multiply each source's rate by this during the first half of every burst period (> 1; 0 = stationary)")
	burstPeriod := flag.Float64("burst-period", 5, "burst cycle length in minutes")
	disorder := flag.Float64("disorder", 0, "emit the trace out of timestamp order with delays up to this many seconds (DESIGN.md §8)")
	flag.Parse()

	fail := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "jitgen: "+format+"\n", args...)
		os.Exit(2)
	}
	h := stream.Time(*minutes * float64(stream.Minute))
	if *horizon != 0 {
		h = stream.Time(horizon.Milliseconds())
	}
	switch {
	case *n < 2:
		fail("-n must be at least 2, got %d", *n)
	case *rate <= 0:
		fail("-rate must be positive, got %g", *rate)
	case *dmax < 1:
		fail("-dmax must be at least 1, got %d", *dmax)
	case h <= 0:
		fail("horizon must be positive (got %v)", h)
	}
	m := exp.Mutators{Zipf: *zipf, Burst: *burst, BurstPeriod: *burstPeriod, Disorder: *disorder, OwnPeriod: true}
	if err := m.Check(); err != nil {
		fail("%v", err)
	}
	cat, _ := predicate.Clique(*n)
	cfg := source.UniformConfig(*n, *rate, *dmax, h, *seed)
	for i := range cfg.Specs {
		if *zipf > 1 {
			cfg.Specs[i].Zipf = *zipf
		}
		if *burst > 1 {
			cfg.Specs[i].BurstFactor = *burst
			cfg.Specs[i].BurstPeriod = stream.Time(*burstPeriod * float64(stream.Minute))
		}
	}
	if *disorder > 0 {
		cfg.Disorder = stream.Time(*disorder * float64(stream.Second))
	}
	arrivals := source.Generate(cat, cfg)

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	for _, t := range arrivals {
		fmt.Fprintf(w, "%d,%s", int64(t.TS), cat.Source(t.Source).Name)
		for _, v := range t.Vals {
			fmt.Fprintf(w, ",%d", v)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(os.Stderr, "jitgen: %d arrivals over %v from %d sources\n", len(arrivals), h, *n)
}
