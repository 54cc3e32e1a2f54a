package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of samples
// that are already sorted ascending.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median of unsorted values (the mean of the middle pair for even counts).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLevels are the candidate tail percentiles, lowest first.
var tailLevels = []float64{0.90, 0.99, 0.999, 0.9999}

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported as the tail.
const minBeyond = 10

// sample is one delivery's latency and the arrival that completed it.
type sample struct {
	MS    float64
	Event uint64
}

// perEvent folds deliveries into one latency per completing arrival: the
// latency of the last of its results to be read. A burst of results from
// one arrival is then one sample of the tail, not hundreds. The result is
// sorted ascending.
func perEvent(s []sample) []float64 {
	worst := map[uint64]float64{}
	for _, x := range s {
		if v, ok := worst[x.Event]; !ok || x.MS > v {
			worst[x.Event] = x.MS
		}
	}
	out := make([]float64, 0, len(worst))
	for _, v := range worst {
		out = append(out, v)
	}
	sort.Float64s(out)
	return out
}

// tail is a tail-latency report: the chosen percentile, its value, and how
// many samples lie beyond it.
type tail struct {
	Level  float64 // 0.99 for p99; 1 when no level has minBeyond samples beyond it
	Value  float64
	Beyond int
	N      int
}

func (t tail) String() string {
	name := "max"
	if t.Level < 1 {
		name = "p" + strconv.FormatFloat(t.Level*100, 'f', -1, 64)
	}
	return fmt.Sprintf("%s of %d samples, %d beyond", name, t.N, t.Beyond)
}

// tailOf picks the highest tail percentile that has at least minBeyond
// samples beyond it. With too few samples for even p90 it falls back to the
// maximum, which the report labels as such.
func tailOf(sorted []float64) tail {
	n := len(sorted)
	best := tail{Level: 1, N: n}
	if n > 0 {
		best.Value = sorted[n-1]
	}
	for _, lv := range tailLevels {
		rank := int(math.Ceil(lv * float64(n)))
		if beyond := n - rank; rank >= 1 && beyond >= minBeyond {
			best = tail{Level: lv, Value: sorted[rank-1], Beyond: beyond, N: n}
		}
	}
	return best
}

// dueOffsets is the paced phase's send schedule: frame i is due
// (ts[i]-ts[0])/speedup after the phase starts, so the wall-clock spacing is
// the event-time spacing compressed by the speed-up.
func dueOffsets(ts []int64, speedup float64) []time.Duration {
	out := make([]time.Duration, len(ts))
	if len(ts) == 0 {
		return out
	}
	for i, t := range ts {
		ms := float64(t-ts[0]) / speedup
		out[i] = time.Duration(ms * float64(time.Millisecond))
	}
	return out
}

// lagLog records how late the paced generator sent each frame relative to
// its due time.
type lagLog struct {
	ms []float64 // per frame, in send order
}

func (l *lagLog) record(due, sent time.Duration) {
	lag := sent - due
	if lag < 0 {
		lag = 0
	}
	l.ms = append(l.ms, float64(lag)/float64(time.Millisecond))
}

// p99 is the 99th-percentile lateness in milliseconds.
func (l *lagLog) p99() float64 {
	s := append([]float64(nil), l.ms...)
	sort.Float64s(s)
	return percentile(s, 0.99)
}

// end is the lateness of the final frame in milliseconds.
func (l *lagLog) end() float64 {
	if len(l.ms) == 0 {
		return 0
	}
	return l.ms[len(l.ms)-1]
}

// growing reports an unsustainable rate: the median lateness of the last
// quarter of frames exceeds that of the first quarter by more than the
// larger of 50 ms and 2% of the phase's scheduled span. A generator that
// merely hiccups recovers and stays within the slack; one that falls
// further behind for the rest of the phase does not.
func (l *lagLog) growing(span time.Duration) bool {
	n := len(l.ms)
	if n < 8 {
		return false
	}
	q := n / 4
	first, last := median(l.ms[:q]), median(l.ms[n-q:])
	slack := math.Max(50, 0.02*float64(span)/float64(time.Millisecond))
	return last-first > slack
}

// latestID returns the highest tuple ID named in a delivery key
// ("src:id|src:id|..."). IDs are assigned in timestamp order, so this is the
// constituent whose arrival completed the result.
func latestID(key []byte) (uint64, error) {
	var best, id uint64
	parts, digits, inID := 0, 0, false
	for i := 0; i <= len(key); i++ {
		if i == len(key) || key[i] == '|' {
			if !inID || digits == 0 {
				return 0, fmt.Errorf("bad delivery key %q", key)
			}
			if parts == 0 || id > best {
				best = id
			}
			parts++
			id, digits, inID = 0, 0, false
			continue
		}
		c := key[i]
		switch {
		case c == ':' && !inID:
			inID = true
		case c >= '0' && c <= '9':
			if inID {
				id = id*10 + uint64(c-'0')
				digits++
			}
		default:
			return 0, fmt.Errorf("bad delivery key %q", key)
		}
	}
	return best, nil
}

// failures tallies what went wrong in one benchmark run. failed_frac is
// their sum over the work attempted: frames sent plus reference deliveries.
type failures struct {
	Rejected     int // frames the server rejected
	Protocol     int // protocol error lines and broken exchanges
	Missing      int // reference deliveries not delivered
	Extra        int // deliveries beyond the reference (duplicates included)
	LateDrops    int // arrivals dropped behind the disorder watermark
	FailedPhases int // paced phases whose generator lag kept growing
	Mismatched   int // runs whose counters differ from the reference run's
}

func (f *failures) add(o failures) {
	f.Rejected += o.Rejected
	f.Protocol += o.Protocol
	f.Missing += o.Missing
	f.Extra += o.Extra
	f.LateDrops += o.LateDrops
	f.FailedPhases += o.FailedPhases
	f.Mismatched += o.Mismatched
}

func (f failures) total() int {
	return f.Rejected + f.Protocol + f.Missing + f.Extra + f.LateDrops + f.FailedPhases + f.Mismatched
}

// failedFrac is failures over attempts; zero attempts read as 1 (nothing
// was measured, which is a failure in itself).
func failedFrac(f failures, attempted int) float64 {
	if attempted <= 0 {
		return 1
	}
	return float64(f.total()) / float64(attempted)
}

// digest is an order-independent multiset digest of delivery keys: the
// count plus two wrapping sums of independently mixed key hashes. Order
// never matters (addition commutes); a duplicated key adds its terms twice,
// so a duplicate changes the digest as well as the count.
type digest struct {
	N    uint64 `json:"n"`
	Sum1 uint64 `json:"sum1"`
	Sum2 uint64 `json:"sum2"`
}

// keyHash is the FNV-1a hash of one delivery key.
func keyHash(key []byte) uint64 {
	h := fnv.New64a()
	h.Write(key)
	return h.Sum64()
}

func (d *digest) add(key []byte) { d.addHash(keyHash(key)) }

func (d *digest) addHash(h uint64) {
	d.N++
	d.Sum1 += mix(h, 0x9e3779b97f4a7c15)
	d.Sum2 += mix(h, 0xc2b2ae3d27d4eb4f)
}

// mix is the splitmix64 finalizer over a salted input.
func mix(x, salt uint64) uint64 {
	x += salt
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// deliveryFailures compares a delivered multiset digest with the
// reference's. Counts give the missing/extra split; equal counts with a
// different digest mean at least one key was swapped for another.
func deliveryFailures(ref, got digest) failures {
	var f failures
	switch {
	case got.N < ref.N:
		f.Missing = int(ref.N - got.N)
	case got.N > ref.N:
		f.Extra = int(got.N - ref.N)
	case got != ref:
		f.Missing, f.Extra = 1, 1
	}
	return f
}
