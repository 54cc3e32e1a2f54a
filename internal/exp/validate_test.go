package exp

import (
	"strings"
	"testing"

	"repro/internal/stream"
)

// TestParamsValidate pins the CLI-facing validation: each rejected
// configuration names the offending parameter, and the valid baseline
// passes.
func TestParamsValidate(t *testing.T) {
	ok := Params{N: 4, Rate: 1, Window: stream.Minute, DMax: 10, Horizon: stream.Minute}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Params)
		want string
	}{
		{"one source", func(p *Params) { p.N = 1 }, "sources"},
		{"zero rate", func(p *Params) { p.Rate = 0 }, "rate"},
		{"negative rate", func(p *Params) { p.Rate = -1 }, "rate"},
		{"zero window", func(p *Params) { p.Window = 0 }, "window"},
		{"zero domain", func(p *Params) { p.DMax = 0 }, "domain"},
		{"zero horizon", func(p *Params) { p.Horizon = 0 }, "horizon"},
		{"negative shards", func(p *Params) { p.Shards = -1 }, "shard"},
		{"drain horizon without drain", func(p *Params) { p.DrainHorizon = stream.Minute }, "drain"},
		{"adapt epoch without adapt", func(p *Params) { p.AdaptEpoch = stream.Minute }, "adapt"},
	}
	for _, tc := range cases {
		p := ok
		tc.mut(&p)
		err := p.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// The drain horizon is legal whenever some path forces the drain on.
	for _, mut := range []func(*Params){
		func(p *Params) { p.Drain = true },
		func(p *Params) { p.Shards = 2 },
		func(p *Params) { p.Adapt = true },
	} {
		p := ok
		p.DrainHorizon = stream.Minute
		mut(&p)
		if err := p.Validate(); err != nil {
			t.Errorf("drain horizon wrongly rejected: %v", err)
		}
	}
}

// TestMutatorChecks pins the one hostile-stream mutator rule set at each
// front-end's edge values: jitbench and jitrun (through Params.Validate)
// treat a zero burst period as "one window" and reject a period without a
// burst; jitgen's period has its own default, so a burst needs a positive
// period and a lone period is ignored. Rejections name the flag.
func TestMutatorChecks(t *testing.T) {
	base := Params{N: 4, Rate: 1, Window: stream.Minute, DMax: 10, Horizon: stream.Minute}
	jitrun := func(m Mutators) error {
		p := base
		p.Zipf, p.Burst = m.Zipf, m.Burst
		p.BurstPeriod = stream.Time(m.BurstPeriod * float64(stream.Minute))
		p.Disorder = stream.Time(m.Disorder * float64(stream.Second))
		p.Band = stream.Value(m.Band)
		return p.Validate()
	}
	check := func(m Mutators) error { return m.Check() }
	jitgen := func(m Mutators) error { m.OwnPeriod = true; return m.Check() }
	fronts := map[string]func(Mutators) error{"jitbench": check, "jitrun": jitrun, "jitgen": jitgen}
	cases := []struct {
		cli  string
		m    Mutators
		want string // "" accepts; otherwise a substring of the rejection
	}{
		{"jitbench", Mutators{}, ""},
		{"jitbench", Mutators{Zipf: 1}, "-zipf"},
		{"jitbench", Mutators{Zipf: 0.5}, "-zipf"},
		{"jitbench", Mutators{Zipf: -1}, "-zipf"},
		{"jitbench", Mutators{Zipf: 1.0001}, ""},
		{"jitbench", Mutators{Burst: 0.5}, "-burst"},
		{"jitbench", Mutators{Burst: -1}, "-burst"},
		{"jitbench", Mutators{Burst: 1}, ""},
		{"jitbench", Mutators{Burst: 2}, ""},
		{"jitbench", Mutators{Burst: 2, BurstPeriod: 3}, ""},
		{"jitbench", Mutators{Burst: 2, BurstPeriod: -1}, "-burst-period"},
		{"jitbench", Mutators{BurstPeriod: 3}, "-burst-period"},
		{"jitbench", Mutators{Burst: 1, BurstPeriod: 3}, "-burst-period"},
		{"jitbench", Mutators{BurstPeriod: -1}, "-burst-period"},
		{"jitbench", Mutators{Disorder: -1}, "-disorder"},
		{"jitbench", Mutators{Disorder: 10}, ""},
		{"jitbench", Mutators{Band: -1}, "-band"},
		{"jitbench", Mutators{Band: 2}, ""},
		{"jitrun", Mutators{}, ""},
		{"jitrun", Mutators{Zipf: 1}, "-zipf"},
		{"jitrun", Mutators{Zipf: 1.5}, ""},
		{"jitrun", Mutators{Burst: 0.5}, "-burst"},
		{"jitrun", Mutators{Burst: 2}, ""},
		{"jitrun", Mutators{Burst: 2, BurstPeriod: 0.5}, ""},
		{"jitrun", Mutators{BurstPeriod: 0.5}, "-burst-period"},
		{"jitrun", Mutators{Burst: 2, BurstPeriod: -1}, "-burst-period"},
		{"jitrun", Mutators{Disorder: -1}, "-disorder"},
		{"jitrun", Mutators{Disorder: 0.001}, ""},
		{"jitrun", Mutators{Band: -1}, "-band"},
		{"jitgen", Mutators{}, ""},
		{"jitgen", Mutators{Zipf: 1}, "-zipf"},
		{"jitgen", Mutators{Zipf: 1.5}, ""},
		{"jitgen", Mutators{Burst: 0.5}, "-burst"},
		{"jitgen", Mutators{Burst: 2, BurstPeriod: 5}, ""},
		{"jitgen", Mutators{Burst: 2, BurstPeriod: 0}, "-burst-period"},
		{"jitgen", Mutators{Burst: 2, BurstPeriod: -1}, "-burst-period"},
		{"jitgen", Mutators{Burst: 1, BurstPeriod: 0}, ""},
		{"jitgen", Mutators{BurstPeriod: 5}, ""},
		{"jitgen", Mutators{BurstPeriod: -1}, ""},
		{"jitgen", Mutators{Disorder: -1}, "-disorder"},
		{"jitgen", Mutators{Disorder: 30}, ""},
	}
	for _, tc := range cases {
		err := fronts[tc.cli](tc.m)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s %+v: rejected: %v", tc.cli, tc.m, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s %+v: accepted, want a %s rejection", tc.cli, tc.m, tc.want)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s %+v: error %q does not name %s", tc.cli, tc.m, err, tc.want)
		}
	}
}
