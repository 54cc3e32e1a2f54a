package serve

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/plan"
	"repro/internal/stream"
)

// errCrash is the in-process crash sentinel: the kill-point harness arms a
// crash hook, the checkpointer panics with this value at the armed point, and
// the server's run loop recovers it into a crashed (non-eos) shutdown — the
// fast, race-detectable stand-in for SIGKILL (the subprocess harness covers
// the real signal).
var errCrash = fmt.Errorf("serve: armed crash point reached")

// checkpointer implements engine.Reoptimizer as a durability hook: it never
// migrates the plan (Migrate always returns nil), but a true Decide makes the
// engine drain the outgoing plan's timer deadlines to the arrival's timestamp
// before calling Migrate — exactly the quiescent §7 cut the snapshot needs,
// bought with the seam the adaptive re-optimizer already paid for.
//
// The ingest high-water mark needs one subtlety: Decide observes an arrival
// BEFORE the engine processes it, so at the cut the plan holds everything up
// to the PREVIOUS arrival. The checkpointer therefore promotes the pending ID
// to the HWM only on the next Decide call, when its arrival is fully inside
// the plan. The arrival that triggered the checkpoint is not covered by it —
// the client re-sends it on resume and the session admits it (ID above the
// recovered HWM).
type checkpointer struct {
	st     *checkpoint.Store
	srv    *Server
	every  stream.Time
	window stream.Time
	config string

	started  bool
	next     stream.Time
	hwm      uint64 // last arrival fully processed by the engine
	pending  uint64 // arrival currently being processed
	lastTS   stream.Time
	arrivals uint64 // arrivals observed this incarnation
	saved    int    // checkpoints written this incarnation
	err      error  // first save failure (durability stalls, run continues)

	// Kill-point hooks (tests): panic with errCrash after the Nth checkpoint
	// of this incarnation, or on the Nth arrival of this incarnation.
	crashAfterCheckpoints int
	crashAfterArrivals    uint64
}

// Decide implements engine.Reoptimizer: report a checkpoint due when the
// arrival's timestamp crosses the next checkpoint boundary.
func (c *checkpointer) Decide(t *stream.Tuple, _ *plan.Built) bool {
	c.hwm = c.pending // the previous arrival is fully inside the plan now
	c.pending = t.ID
	c.lastTS = t.TS
	c.arrivals++
	if c.crashAfterArrivals > 0 && c.arrivals >= c.crashAfterArrivals {
		panic(errCrash)
	}
	if !c.started {
		c.started = true
		c.next = t.TS + c.every
		return false
	}
	return t.TS >= c.next
}

// Migrate implements engine.Reoptimizer: the engine has drained deadlines to
// the cut, so it is a quiescent cut; write the checkpoint and keep the plan
// (nil return).
func (c *checkpointer) Migrate(cut stream.Time, b *plan.Built) *plan.Built {
	c.save(cut, b)
	for c.next <= cut {
		c.next += c.every
	}
	if c.crashAfterCheckpoints > 0 && c.saved >= c.crashAfterCheckpoints {
		panic(errCrash)
	}
	return nil
}

// finish writes the end-of-run checkpoint after the engine's drain: every
// arrival is processed (the pending ID is promoted) and at the natural
// horizon every window has closed, so the snapshot is empty and a restart
// has nothing left to deliver.
func (c *checkpointer) finish(b *plan.Built) {
	c.hwm = c.pending
	c.save(c.lastTS+c.window, b)
}

// save writes one checkpoint at the cut. A save failure is recorded (first
// error wins) and durability stops advancing, but the run itself continues —
// losing freshness is strictly better than killing a live stream.
func (c *checkpointer) save(cut stream.Time, b *plan.Built) {
	tail := c.srv.hub.tailSnapshot()
	entries := make([]checkpoint.TailEntry, len(tail))
	for i, d := range tail {
		entries[i] = checkpoint.TailEntry{Seq: d.Seq, TS: d.TS, Key: d.Key}
	}
	// The dedup seed: the tap's keys a replay from this cut could regenerate.
	var keys []checkpoint.DeliveredKey
	c.srv.tap.Prune(cut, func(key string, minTS stream.Time) {
		keys = append(keys, checkpoint.DeliveredKey{MinTS: minTS, Key: key})
	})
	ck := &checkpoint.Checkpoint{
		Cut:       cut,
		IngestHWM: c.hwm,
		Delivered: c.srv.seq,
		Config:    c.config,
		Keys:      keys,
		Tail:      entries,
		Rows:      b.SnapshotInWindow(cut),
	}
	if _, err := c.st.Save(ck); err != nil && c.err == nil {
		c.err = err
	} else if err == nil {
		c.saved++
	}
}
