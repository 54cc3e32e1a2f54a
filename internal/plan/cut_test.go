package plan

import (
	"testing"

	"repro/internal/core"
	"repro/internal/predicate"
	"repro/internal/stream"
)

// TestTapPruneMatchesSnapshot pins the tap's prune boundary to the
// snapshot's: at a cut, a delivery whose oldest constituent has
// MinTS = cut − window is forgotten, and that constituent is absent from
// SnapshotInWindow(cut), so no replay can regenerate it; one with
// MinTS = cut − window + 1 is kept, its constituent is in the snapshot, and
// replaying the snapshot regenerates it into the tap, which absorbs it.
func TestTapPruneMatchesSnapshot(t *testing.T) {
	const (
		window = 10 * stream.Second
		cut    = 30 * stream.Second
	)
	cat, conj := predicate.Clique(2)
	build := func() *Built {
		return BuildTree(cat, conj, Bushy(2), Options{Window: window, Mode: core.REF(), KeepResults: true})
	}
	tup := func(id uint64, src stream.SourceID, ts stream.Time, v stream.Value) *stream.Tuple {
		return &stream.Tuple{ID: id, Source: src, TS: ts, Vals: []stream.Value{v}}
	}
	oldA := tup(1, 0, cut-window, 1)    // expires exactly at the cut
	liveA := tup(2, 0, cut-window+1, 2) // still in-window at the cut
	arrivals := []*stream.Tuple{oldA, liveA, tup(3, 1, cut-5*stream.Second, 1), tup(4, 1, cut-4*stream.Second, 2)}

	b := build()
	var dups uint64
	tap := NewTap(b.Sink, window, &dups)
	tap.Install(b, arrivals)
	keys := b.Sink.ResultKeys()
	if len(keys) != 2 {
		t.Fatalf("%d deliveries, want 2", len(keys))
	}
	expiredKey, liveKey := keys[0], keys[1]

	kept := map[string]stream.Time{}
	tap.Prune(cut, func(k string, minTS stream.Time) { kept[k] = minTS })
	if _, ok := kept[expiredKey]; ok || tap.Len() != 1 {
		t.Errorf("delivery with MinTS = cut-window survived the prune (held %d)", tap.Len())
	}
	if kept[liveKey] != cut-window+1 {
		t.Errorf("delivery with MinTS = cut-window+1 not kept: %v", kept)
	}

	snap := b.SnapshotInWindow(cut)
	in := map[uint64]bool{}
	for _, r := range snap {
		in[r.ID] = true
	}
	if in[oldA.ID] {
		t.Errorf("tuple with TS = cut-window is in the snapshot")
	}
	if !in[liveA.ID] {
		t.Errorf("tuple with TS = cut-window+1 is missing from the snapshot")
	}

	// The successor's replay regenerates exactly the kept delivery.
	nb := build()
	tap.Install(nb, snap)
	if dups != 1 || b.Sink.Count() != 2 {
		t.Errorf("replay: %d dups, %d deliveries; want the kept key absorbed once and nothing delivered", dups, b.Sink.Count())
	}
}
