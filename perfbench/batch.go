package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/shard"
	"repro/internal/source"
	"repro/internal/stream"
)

// shardOut is the sharded run's routing and per-replica breakdown.
type shardOut struct {
	Walls      []float64 `json:"walls_s"` // per replica engine wall
	Imbalance  float64   `json:"imbalance"`
	Broadcasts uint64    `json:"broadcasts"`
}

// batchRun selects one variant of the batch job: the measured workload or
// one of its layer-isolating twins.
type batchRun struct {
	shards     int
	adapt      bool
	disordered bool
	keep       bool // retain deliveries so their keys can be digested
}

// runBatch builds the plan and the sharded runner, then times RunStream
// from the first pull of the source stream to the complete merged result.
func runBatch(w workload, seed int64, v batchRun) *phaseOut {
	o := &phaseOut{Phase: "batch"}
	cat, cfg := w.sourceConfig(seed, v.disordered)
	var disorder stream.Time
	if v.disordered {
		disorder = w.Disorder
	}
	r := shard.New(w.build(w.Mode, v.keep), w.shardOptions(v.shards, v.adapt, disorder))
	var before, after cost
	before.read()
	start := time.Now()
	res := r.RunStream(source.Stream(cat, cfg))
	o.WallS = time.Since(start).Seconds()
	after.read()
	after.sub(before, o)
	o.Result = &res.Merged
	o.Arrivals = int(res.Routed + res.Broadcasts)
	o.Delivered.N = res.Merged.Results
	if v.keep {
		o.Delivered = digest{}
		for _, c := range res.Deliveries {
			o.Delivered.add([]byte(c.Key()))
		}
	}
	o.Fail.LateDrops = int(res.Merged.Counters.LateDropped)
	so := &shardOut{Imbalance: res.Imbalance(), Broadcasts: res.Broadcasts}
	for _, sr := range res.Shards {
		so.Walls = append(so.Walls, sr.WallTime.Seconds())
	}
	o.Shard = so
	return o
}

// batchSnapshot is the batch job at its fixed cut: the in-window rows a
// restore replays, split by the shard each would be routed to.
type batchSnapshot struct {
	rows       []*stream.Tuple
	perShard   [][]*stream.Tuple
	snapshotMS float64 // plan.Built.SnapshotInWindow at the cut
}

// snapshotAt feeds the in-order stream through a single plan up to the
// cut (an offset from the first arrival) and exports the in-window rows
// there.
func snapshotAt(w workload, arr []*stream.Tuple, off stream.Time) (*batchSnapshot, error) {
	b := w.build(w.Mode, false)
	for _, j := range b.Joins {
		j.SetExact(true)
	}
	key, keyed := shard.DeriveKey(b.Preds(), b.Shape())
	if w.Shards > 1 && !keyed {
		return nil, fmt.Errorf("plan has no partition key")
	}
	cut := arr[0].TS + off
	n := 0
	for n < len(arr) && arr[n].TS < cut {
		n++
	}
	if n == len(arr) {
		return nil, fmt.Errorf("stream ends before the cut at %v", off)
	}
	b.ReplayInWindow(arr[:n])
	t0 := time.Now()
	rows := b.SnapshotInWindow(cut)
	snap := &batchSnapshot{rows: rows, snapshotMS: msSince(t0)}
	snap.perShard = [][]*stream.Tuple{rows}
	if w.Shards > 1 {
		snap.perShard = make([][]*stream.Tuple, w.Shards)
		for _, t := range rows {
			s := key.Route(t, w.Shards)
			if s == shard.Broadcast {
				for i := range snap.perShard {
					snap.perShard[i] = append(snap.perShard[i], t)
				}
				continue
			}
			snap.perShard[s] = append(snap.perShard[s], t)
		}
	}
	return snap, nil
}

// restoreBatch rebuilds one fresh replica per shard and replays its share of
// the snapshot rows in parallel — the batch job's restart from the cut. It
// returns the wall time.
func restoreBatch(w workload, snap *batchSnapshot) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for _, rows := range snap.perShard {
		wg.Add(1)
		go func(rows []*stream.Tuple) {
			defer wg.Done()
			b := w.build(w.Mode, false)
			for _, j := range b.Joins {
				j.SetExact(true)
			}
			b.ReplayInWindow(rows)
		}(rows)
	}
	wg.Wait()
	return time.Since(start)
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
