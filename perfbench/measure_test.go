package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	mk := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	cases := []struct {
		n      int
		level  float64
		value  float64
		beyond int
	}{
		{n: 99, level: 1, value: 99, beyond: 0}, // too few for p90: the maximum
		{n: 100, level: 0.90, value: 90, beyond: 10},
		{n: 999, level: 0.90, value: 900, beyond: 99}, // p99 would leave only 9 beyond
		{n: 1000, level: 0.99, value: 990, beyond: 10},
		{n: 10000, level: 0.999, value: 9990, beyond: 10},
		{n: 100000, level: 0.9999, value: 99990, beyond: 10},
	}
	for _, c := range cases {
		got := tailOf(mk(c.n))
		if got.Level != c.level || got.Value != c.value || got.Beyond != c.beyond || got.N != c.n {
			t.Errorf("n=%d: got %+v, want level %g value %g beyond %d", c.n, got, c.level, c.value, c.beyond)
		}
	}
	if got := tailOf(nil); got.Value != 0 || got.N != 0 {
		t.Errorf("empty: got %+v", got)
	}
}

func TestPerEventCountsABurstOnce(t *testing.T) {
	s := []sample{{5, 1}, {7, 2}, {9, 2}, {8, 2}, {1, 3}, {30, 4}, {31, 4}}
	got := perEvent(s)
	want := []float64{1, 5, 9, 31} // one per arrival, its last result
	if len(got) != len(want) {
		t.Fatalf("perEvent = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("perEvent = %v, want %v", got, want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	for p, want := range map[float64]float64{0.2: 1, 0.5: 3, 0.9: 5, 1: 5} {
		if got := percentile(s, p); got != want {
			t.Errorf("p%g = %g, want %g", p*100, got, want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestDueOffsetsCompressEventTime(t *testing.T) {
	got := dueOffsets([]int64{5000, 5000, 6000, 15000}, 10)
	want := []time.Duration{0, 0, 100 * time.Millisecond, time.Second}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("due[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLagBookkeeping(t *testing.T) {
	var l lagLog
	l.record(10*time.Millisecond, 5*time.Millisecond) // early sends count as on time
	l.record(10*time.Millisecond, 13*time.Millisecond)
	if l.ms[0] != 0 || l.ms[1] != 3 || l.end() != 3 {
		t.Fatalf("lags %v end %g", l.ms, l.end())
	}

	span := 10 * time.Second
	var steady, hiccup, behind lagLog
	for i := 0; i < 400; i++ {
		due := time.Duration(i) * 25 * time.Millisecond
		steady.record(due, due+time.Millisecond)
		h := due
		if i == 200 {
			h += 400 * time.Millisecond // one stall, then caught up
		}
		hiccup.record(due, h)
		behind.record(due, due+time.Duration(i)*time.Millisecond) // falls further behind
	}
	if steady.growing(span) || hiccup.growing(span) {
		t.Errorf("steady or recovered generator flagged as unsustainable")
	}
	if !behind.growing(span) {
		t.Errorf("generator lag growing to %.0f ms not flagged", behind.end())
	}
	if got := hiccup.p99(); got != 0 {
		t.Errorf("one stall in 400 frames moved p99 to %g ms", got)
	}
}

func TestLatestIDAttribution(t *testing.T) {
	for key, want := range map[string]uint64{
		"0:3|1:9|2:11|3:14": 14,
		"0:42|1:7":          42,
		"2:5":               5,
		"0:1000000007|3:9":  1000000007,
	} {
		got, err := latestID([]byte(key))
		if err != nil || got != want {
			t.Errorf("latestID(%q) = %d, %v; want %d", key, got, err, want)
		}
	}
	for _, bad := range []string{"", "0:", "3", "0:1||1:2", "0:x", "0:1|"} {
		if _, err := latestID([]byte(bad)); err == nil {
			t.Errorf("latestID(%q) accepted a malformed key", bad)
		}
	}
}

func TestFailedFrac(t *testing.T) {
	f := failures{Rejected: 1, Protocol: 1, Missing: 2, Extra: 1, LateDrops: 3, FailedPhases: 1, Mismatched: 1}
	if f.total() != 10 {
		t.Fatalf("total = %d", f.total())
	}
	if got := failedFrac(f, 200); got != 0.05 {
		t.Errorf("failedFrac = %g, want 0.05", got)
	}
	if got := failedFrac(failures{}, 200); got != 0 {
		t.Errorf("clean run failedFrac = %g", got)
	}
	if got := failedFrac(failures{}, 0); got != 1 {
		t.Errorf("nothing attempted: failedFrac = %g, want 1", got)
	}
	var sum failures
	sum.add(f)
	sum.add(f)
	if sum.total() != 20 {
		t.Errorf("add: total %d", sum.total())
	}
}

func TestDigestIgnoresOrderAndCatchesDuplicates(t *testing.T) {
	of := func(keys ...string) digest {
		var d digest
		for _, k := range keys {
			d.add([]byte(k))
		}
		return d
	}
	a, b, c := "0:1|1:2", "0:3|1:4", "0:5|1:6"
	if of(a, b, c) != of(c, a, b) {
		t.Error("digest depends on order")
	}
	if of(a, a) == of(a, b) {
		t.Error("a duplicate is indistinguishable from a different key")
	}
	if of(a, b, b) == of(a, b) {
		t.Error("an extra duplicate went unnoticed")
	}
	if f := deliveryFailures(of(a, b), of(a, a)); f.Missing != 1 || f.Extra != 1 {
		t.Errorf("swapped key: %+v", f)
	}
	if f := deliveryFailures(of(a, b), of(a, b, b)); f.Extra != 1 || f.Missing != 0 {
		t.Errorf("duplicate: %+v", f)
	}
	if f := deliveryFailures(of(a, b, c), of(a)); f.Missing != 2 || f.Extra != 0 {
		t.Errorf("missing: %+v", f)
	}
	if f := deliveryFailures(of(a, b), of(b, a)); f.total() != 0 {
		t.Errorf("reordered: %+v", f)
	}
}

func TestParseWire(t *testing.T) {
	w := parseWire([]byte(`{"seq":41,"ts":121500,"key":"0:3|1:9|2:11|3:14"}`))
	if w.kind != "delivery" || w.seq != 41 || string(w.key) != "0:3|1:9|2:11|3:14" {
		t.Errorf("delivery: %+v", w)
	}
	for line, kind := range map[string]string{
		`{"eos":true,"delivered":7}`: "eos",
		`{"error":"serve: lagged"}`:  "error",
		`{"ok":true,"resume_seq":0}`: "greet",
		`{"something":"else"}`:       "other",
	} {
		if got := parseWire([]byte(line)).kind; got != kind {
			t.Errorf("%s: kind %q, want %q", line, got, kind)
		}
	}
}

// TestBenchmarkJSONMatchesReport pins BENCHMARK.json's metric lists to what
// the program reports.
func TestBenchmarkJSONMatchesReport(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		if got, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		} else if got.summary() != w.Why || len(w.Why) > 200 {
			t.Errorf("%s: BENCHMARK.json why %q, program prints %q (at most 200 characters)", w.Name, w.Why, got.summary())
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v, the program runs %d workloads", names, len(workloads))
	}
	want := map[string]string{}
	for _, m := range endToEnd {
		want[m[0]] = m[1]
	}
	if len(bj.EndToEnd) != len(want) {
		t.Errorf("end_to_end has %d metrics, the program reports %d", len(bj.EndToEnd), len(want))
	}
	for _, m := range bj.EndToEnd {
		if want[m.Name] != m.Unit {
			t.Errorf("end_to_end %s [%s]: program reports unit %q", m.Name, m.Unit, want[m.Name])
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Errorf("per_layer has %d metrics, the program reports %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		if i < len(perLayer) && (perLayer[i][0] != m.Name || perLayer[i][1] != m.Unit) {
			t.Errorf("per_layer[%d] = %s [%s], program reports %s [%s]", i, m.Name, m.Unit, perLayer[i][0], perLayer[i][1])
		}
	}
}
