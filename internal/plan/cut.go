package plan

import (
	"sort"

	"repro/internal/core"
	"repro/internal/operator"
	"repro/internal/stream"
)

// This file is the §7 snapshot cut (DESIGN.md §7, §10): the one place a run
// swaps the plan its deliveries come from. A migration handoff (Handoff,
// driven by internal/adapt) and a checkpoint recovery (Install with the
// checkpoint's rows, driven by internal/serve) both replay a snapshot into a
// freshly built plan behind the run's one delivery Tap, which keeps the
// replay's regenerations from being delivered twice.

// SnapshotInWindow exports every base tuple still inside the window at the
// cut, in global arrival order — the plan-level §2 snapshot cut (DESIGN.md
// §7). Between arrivals, each in-window base tuple sits in exactly one
// place: its source's feed side, either active in the state or parked in a
// blacklist (core.JoinOp.SnapshotBase). Tuple IDs are assigned in global
// delivery order by the source merge, so ordering by (TS, ID, Source)
// reconstructs the original interleaving exactly; replaying the snapshot
// into a freshly built plan yields the state that plan would hold had it
// been started one window before the cut.
func (b *Built) SnapshotInWindow(cut stream.Time) []*stream.Tuple {
	var out []*stream.Tuple
	for _, f := range b.Feeds {
		out = append(out, f.Op.(*core.JoinOp).SnapshotBase(f.Port, cut)...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TS != out[j].TS {
			return out[i].TS < out[j].TS
		}
		if out[i].ID != out[j].ID {
			return out[i].ID < out[j].ID
		}
		return out[i].Source < out[j].Source
	})
	return out
}

// ReplayInWindow feeds snapshot rows back through the plan in order: each
// row is preceded by a full expiry sweep at its timestamp (charged to
// Counters.Sweeps) and then consumed at its source's feed, exactly the
// arrival discipline the engine applies. Replaying a SnapshotInWindow cut
// into a freshly built plan yields the state that plan would hold had it
// been running since one window before the cut (DESIGN.md §7) — the restore
// half of both the adaptive migration handoff (internal/adapt) and the
// durable checkpoint recovery (internal/checkpoint, internal/serve).
func (b *Built) ReplayInWindow(rows []*stream.Tuple) {
	n := b.Catalog.NumSources()
	for _, t := range rows {
		b.Counters.Sweeps += uint64(len(b.Joins))
		b.Sweep(t.TS)
		f := b.Feeds[t.Source]
		f.Op.Consume(stream.NewComposite(n, t), f.Port)
	}
}

// Tap is the run's delivery gate, spliced between the live plan's root and
// the run's sink. It records each delivered result's canonical key
// (stream.Composite.Key) with its oldest constituent's timestamp; a result
// whose key is already recorded is a replay regeneration of a delivery
// already made, and is absorbed and counted instead of delivered.
//
// A replay from a cut at time cut rebuilds only tuples with TS+window > cut
// (core.JoinOp.SnapshotBase), so it can regenerate only results with
// MinTS+window > cut. Prune forgets every other key at each quiescent cut —
// the window's own time-based expiry — which bounds the tap to the
// deliveries of one window plus those since the last cut, not the run's
// history.
//
// A tap is not safe for concurrent use: every call runs on the engine's
// goroutine.
type Tap struct {
	sink   *operator.Sink
	window stream.Time
	seen   map[string]stream.Time // delivered key -> oldest constituent TS
	dups   *uint64
	// OnDeliver, when set, sees every delivery after the sink, with the key
	// the tap already computed (the server numbers and publishes it).
	OnDeliver func(c *stream.Composite, key string)
}

// NewTap creates a tap delivering into sink for plans of the given window;
// absorbed regenerations are counted in *dups.
func NewTap(sink *operator.Sink, window stream.Time, dups *uint64) *Tap {
	return &Tap{sink: sink, window: window, seen: make(map[string]stream.Time), dups: dups}
}

// Seed records a delivery made before the tap existed — a checkpoint's dedup
// keys, so a recovery replay cannot deliver them again.
func (t *Tap) Seed(key string, minTS stream.Time) { t.seen[key] = minTS }

// Len returns the number of delivery keys the tap holds.
func (t *Tap) Len() int { return len(t.seen) }

// Consume implements operator.Consumer.
func (t *Tap) Consume(c *stream.Composite, p operator.Port) {
	k := c.Key()
	if _, ok := t.seen[k]; ok {
		*t.dups++
		return
	}
	t.seen[k] = c.MinTS
	t.sink.Consume(c, p)
	if t.OnDeliver != nil {
		t.OnDeliver(c, k)
	}
}

// Prune forgets the deliveries no replay from this cut can regenerate
// (MinTS+window <= cut) and hands every kept one to keep, when non-nil —
// the dedup seed a checkpoint at this cut stores.
func (t *Tap) Prune(cut stream.Time, keep func(key string, minTS stream.Time)) {
	//jitlint:allow maporder deletion order is unobservable, and the kept keys feed only the checkpoint seed, which checkpoint.Encode sorts (MinTS, Key) before writing and restore re-ingests into a map
	for k, ts := range t.seen {
		if ts+t.window <= cut {
			delete(t.seen, k)
		} else if keep != nil {
			keep(k, ts)
		}
	}
}

// Install makes b the plan whose deliveries pass through t: exact delivery
// on every operator (the replayed state must be the state an exact-mode run
// would hold), t spliced between b's root and the run's sink, and rows — a
// SnapshotInWindow cut, or nil for a plan starting empty — replayed into b.
func (t *Tap) Install(b *Built, rows []*stream.Tuple) {
	for _, j := range b.Joins {
		j.SetExact(true)
	}
	b.RootJoin().SetConsumer(t, operator.Left)
	b.ReplayInWindow(rows)
}

// Handoff migrates the run from b to a fresh plan of shape target at a
// quiescent cut — one where every timer deadline up to cut has fired on b —
// and returns the successor with the number of snapshot rows replayed into
// it. The successor inherits the run's sink and tracer, starts from b's
// in-window snapshot, and takes over b's counters (plus one migration);
// regenerations its replay or later resumptions absorb are counted in its
// Counters.MigrationDups.
func (t *Tap) Handoff(b *Built, target *Node, cut stream.Time) (*Built, int) {
	note := b.shape.Canonical() + " -> " + target.Canonical()
	b.Trace.MigrationStart(cut, note)
	snap := b.SnapshotInWindow(cut)
	nb := b.Rebuild(target)
	// The run's one sink spans the handoff; the successor's own sink is
	// discarded before anything reaches it.
	nb.Sink = b.Sink
	// The successor inherits the run's tracer before the replay, so replay
	// probes and suspensions are visible in the trace, attributed to the new
	// plan's operators (DESIGN.md §9).
	nb.SetTrace(b.Trace)
	b.Trace.MigrationCut(cut, len(snap), note)
	t.Prune(cut, nil)
	// Both plans are resident while the snapshot replays: charge the
	// outgoing plan's live bytes to the successor's account for the span of
	// the replay, and absorb the old high-water mark.
	oldLive := b.Account.Live()
	nb.Account.Alloc(oldLive)
	t.Install(nb, snap)
	nb.Account.Free(oldLive)
	nb.Account.AbsorbPeak(b.Account)
	nb.Counters.Add(b.Counters)
	nb.Counters.Migrations++
	nb.Sink.SetCounters(nb.Counters)
	t.dups = &nb.Counters.MigrationDups
	nb.Trace.MigrationDone(cut, nb.Counters.MigrationDups, note)
	return nb, len(snap)
}
