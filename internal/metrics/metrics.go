// Package metrics provides the measurement substrate for the experiments:
// deterministic cost-unit counters (machine-independent analogue of the
// paper's CPU seconds) and exact live-byte accounting with peak tracking
// (analogue of the paper's peak memory consumption).
package metrics

import (
	"fmt"
	"strings"
)

// Counters accumulates the deterministic work units performed by an engine
// run. The relative magnitudes across a parameter sweep reproduce the shape
// of the paper's CPU-time figures without depending on the host machine.
type Counters struct {
	// Probes counts state probes: one per (incoming tuple, opposite state)
	// scan initiated.
	Probes uint64
	// Comparisons counts predicate evaluations between tuple pairs.
	Comparisons uint64
	// Results counts composites constructed (intermediate or final).
	Results uint64
	// FinalResults counts composites delivered to the sink.
	FinalResults uint64
	// Inserted counts tuples inserted into operator states.
	Inserted uint64
	// Purged counts tuples removed from states by window expiry.
	Purged uint64
	// LatticeNodes counts CNS lattice node evaluations in Identify_MNS.
	LatticeNodes uint64
	// BloomChecks counts Bloom filter membership tests.
	BloomChecks uint64
	// MNSDetected counts MNSs reported by consumers.
	MNSDetected uint64
	// Feedbacks counts feedback messages sent (all commands).
	Feedbacks uint64
	// Suspended counts tuples moved into blacklists.
	Suspended uint64
	// Resumed counts tuples reactivated out of blacklists.
	Resumed uint64
	// CatchUpJoins counts comparisons performed during resumption catch-up.
	CatchUpJoins uint64
	// SuppressedPairs counts probe pairs skipped due to suspension marks.
	SuppressedPairs uint64
	// QueueOps counts inter-operator queue pushes.
	QueueOps uint64
	// Sweeps counts operator expiry sweeps fired by the engine. Not part of
	// CostUnits (the work a sweep performs is already charged through
	// Purged/Resumed/...); it measures scheduling overhead — the deadline
	// heap exists to drive this toward the number of sweeps that actually
	// have work to do (DESIGN.md §4).
	Sweeps uint64
	// Migrations counts mid-run plan-shape migrations performed by the
	// adaptive re-optimizer (internal/adapt, DESIGN.md §7). The replay work a
	// migration performs is charged through the ordinary counters above.
	Migrations uint64
	// AdaptUnits is the cost (in CostUnits terms) of the re-optimizer's
	// shadow scoring: the throwaway candidate-plan replays run at each
	// decision epoch. Charged into CostUnits so adaptive runs carry their
	// own decision overhead honestly.
	AdaptUnits uint64
	// MigrationDups counts deliveries the delivery tap (plan.Tap) absorbed
	// across migrations: results the successor plan regenerated during replay
	// (or re-delivered after it) that the run had already emitted (DESIGN.md
	// §7).
	MigrationDups uint64
	// LateDropped counts tuples that arrived behind the engine's disorder
	// watermark (TS < maxSeenTS - bound) and were dropped before ingestion
	// (DESIGN.md §8). Conservation invariant: every arrival is either
	// processed or counted here — never silently lost.
	LateDropped uint64
}

// Add accumulates o into c.
func (c *Counters) Add(o *Counters) {
	c.Probes += o.Probes
	c.Comparisons += o.Comparisons
	c.Results += o.Results
	c.FinalResults += o.FinalResults
	c.Inserted += o.Inserted
	c.Purged += o.Purged
	c.LatticeNodes += o.LatticeNodes
	c.BloomChecks += o.BloomChecks
	c.MNSDetected += o.MNSDetected
	c.Feedbacks += o.Feedbacks
	c.Suspended += o.Suspended
	c.Resumed += o.Resumed
	c.CatchUpJoins += o.CatchUpJoins
	c.SuppressedPairs += o.SuppressedPairs
	c.QueueOps += o.QueueOps
	c.Sweeps += o.Sweeps
	c.Migrations += o.Migrations
	c.AdaptUnits += o.AdaptUnits
	c.MigrationDups += o.MigrationDups
	c.LateDropped += o.LateDropped
}

// CostUnits collapses the counters into a single deterministic work figure.
// Weights approximate relative instruction costs: a comparison is the unit;
// constructing a result composite costs more (allocation + copy); lattice
// node evaluations and bloom checks are cheap; feedback handling carries a
// fixed overhead so that JIT's own bookkeeping is charged honestly.
func (c *Counters) CostUnits() uint64 {
	return c.Comparisons*1 +
		c.Results*8 +
		c.Inserted*2 +
		c.Purged*2 +
		c.LatticeNodes*1 +
		c.BloomChecks*1 +
		c.Feedbacks*16 +
		c.Suspended*4 +
		c.Resumed*4 +
		c.CatchUpJoins*1 +
		c.QueueOps*1 +
		c.AdaptUnits*1
}

// String renders a compact multi-line report.
func (c *Counters) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "probes=%d cmp=%d results=%d final=%d ins=%d purge=%d\n",
		c.Probes, c.Comparisons, c.Results, c.FinalResults, c.Inserted, c.Purged)
	fmt.Fprintf(&b, "lattice=%d bloom=%d mns=%d fb=%d susp=%d res=%d catchup=%d suppressed=%d sweeps=%d cost=%d",
		c.LatticeNodes, c.BloomChecks, c.MNSDetected, c.Feedbacks, c.Suspended,
		c.Resumed, c.CatchUpJoins, c.SuppressedPairs, c.Sweeps, c.CostUnits())
	if c.Migrations > 0 || c.AdaptUnits > 0 {
		fmt.Fprintf(&b, "\nmigrations=%d adaptUnits=%d migrationDups=%d",
			c.Migrations, c.AdaptUnits, c.MigrationDups)
	}
	if c.LateDropped > 0 {
		fmt.Fprintf(&b, "\nlateDropped=%d", c.LateDropped)
	}
	return b.String()
}

// OpStats are the per-operator mirrors of the feedback counters the adaptive
// re-optimizer watches (internal/adapt, DESIGN.md §7): where MNSs are being
// detected, tuples suspended and pairs suppressed tells the epoch policy
// which part of the plan shape is paying for its position.
type OpStats struct {
	// Probes counts state probes initiated at this operator.
	Probes uint64
	// MNSDetected counts MNSs this operator reported as a consumer.
	MNSDetected uint64
	// Suspended counts tuples this operator moved into its blacklists.
	Suspended uint64
	// SuppressedPairs counts probe pairs this operator skipped under marks.
	SuppressedPairs uint64
}

// Add accumulates o into s component-wise — the merge used when sharded
// runs aggregate per-replica operator stats by operator name.
func (s *OpStats) Add(o OpStats) {
	s.Probes += o.Probes
	s.MNSDetected += o.MNSDetected
	s.Suspended += o.Suspended
	s.SuppressedPairs += o.SuppressedPairs
}

// NamedOpStats pairs an operator's name with its stats — the per-operator
// row an engine run reports (engine.Result.Ops, `jitrun -stats`).
type NamedOpStats struct {
	Name  string
	Stats OpStats
}

// Delta returns the component-wise difference s - prev.
func (s OpStats) Delta(prev OpStats) OpStats {
	return OpStats{
		Probes:          s.Probes - prev.Probes,
		MNSDetected:     s.MNSDetected - prev.MNSDetected,
		Suspended:       s.Suspended - prev.Suspended,
		SuppressedPairs: s.SuppressedPairs - prev.SuppressedPairs,
	}
}

// Account tracks live bytes attributed to stored stream data (operator
// states, blacklists, MNS buffers, inter-operator queues) and records the
// peak. It replaces process-RSS measurement with an exact, GC-independent
// figure, matching what the paper's memory metric is dominated by.
type Account struct {
	live int64
	peak int64
}

// Alloc charges n bytes to the account.
func (a *Account) Alloc(n int64) {
	a.live += n
	if a.live > a.peak {
		a.peak = a.live
	}
}

// Free releases n bytes. Freeing more than is live indicates an accounting
// bug and panics, so tests catch it immediately.
func (a *Account) Free(n int64) {
	a.live -= n
	if a.live < 0 {
		panic(fmt.Sprintf("metrics: account went negative (%d after freeing %d)", a.live, n))
	}
}

// Live returns the currently charged bytes.
func (a *Account) Live() int64 { return a.live }

// Peak returns the high-water mark in bytes.
func (a *Account) Peak() int64 { return a.peak }

// PeakKB returns the high-water mark in kilobytes, the paper's unit.
func (a *Account) PeakKB() float64 { return float64(a.peak) / 1024 }

// Reset clears both live and peak figures.
func (a *Account) Reset() { a.live, a.peak = 0, 0 }

// AbsorbPeak raises the peak to at least o's peak. Used when accounting
// responsibility transfers between accounts mid-run — a plan migration hands
// the measurement substrate to the successor plan's account, and the run's
// true high-water mark is the maximum over both lifetimes (DESIGN.md §7).
func (a *Account) AbsorbPeak(o *Account) {
	if o.peak > a.peak {
		a.peak = o.peak
	}
}
