package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/operator"
	"repro/internal/plan"
	"repro/internal/stream"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"` // since the traced run began
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"`            // index of the enclosing span, -1 at the root
	Arrival uint64 `json:"arrival,omitempty"` // the arrival being processed, when per-arrival
}

// maxSpans bounds how many spans are kept for the span file; self times
// always account for every span.
const maxSpans = 1 << 18

type openSpan struct {
	idx   int // index in spans, or -1 when not kept
	name  string
	start int64
	child int64 // time covered by child spans
}

// spanLog records nested spans on one goroutine and folds each into its
// name's self time: the span's duration minus what its children cover.
type spanLog struct {
	t0      time.Time
	spans   []span
	stack   []openSpan
	self    map[string]int64
	count   int
	arrival uint64
}

func newSpanLog() *spanLog {
	return &spanLog{t0: time.Now(), self: map[string]int64{}}
}

func (l *spanLog) begin(name string) {
	now := int64(time.Since(l.t0))
	parent := -1
	if n := len(l.stack); n > 0 {
		parent = l.stack[n-1].idx
	}
	idx := -1
	if len(l.spans) < maxSpans {
		idx = len(l.spans)
		l.spans = append(l.spans, span{Name: name, Start: now, Parent: parent, Arrival: l.arrival})
	}
	l.count++
	l.stack = append(l.stack, openSpan{idx: idx, name: name, start: now})
}

func (l *spanLog) end() {
	now := int64(time.Since(l.t0))
	n := len(l.stack)
	top := l.stack[n-1]
	l.stack = l.stack[:n-1]
	dur := now - top.start
	l.self[top.name] += dur - top.child
	if n > 1 {
		l.stack[n-2].child += dur
	}
	if top.idx >= 0 {
		l.spans[top.idx].End = now
	}
}

// write saves the kept spans as NDJSON.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timed wraps a consumer so each Consume call is a span. Feed shims also
// mark the arrival the call carries, so nested spans inherit its ID.
type timed struct {
	name string
	next operator.Consumer
	log  *spanLog
	feed stream.SourceID
	root bool // a feed shim: the composite is the arrival itself
}

func (t *timed) Consume(c *stream.Composite, p operator.Port) {
	if t.root {
		t.log.arrival = c.Comps[t.feed].ID
	}
	t.log.begin(t.name)
	t.next.Consume(c, p)
	t.log.end()
	if t.root {
		t.log.arrival = 0
	}
}

// instrument re-wires a freshly built plan so every call into a join
// operator and into the sink passes through a span shim: source feeds
// (plan.Built.Feeds), the links between joins (JoinOp.SetConsumer) and the
// root's link to the sink. Join names follow plan wiring order, so the
// shape walk below reproduces each join's consumer and port.
func instrument(b *plan.Built, log *spanLog) {
	ops := map[*core.JoinOp]*timed{}
	for _, j := range b.Joins {
		ops[j] = &timed{name: "core." + j.Name(), next: j, log: log}
	}
	for src, f := range b.Feeds {
		j := f.Op.(*core.JoinOp)
		b.Feeds[src] = plan.Feed{Op: &timed{name: "core." + j.Name(), next: j, log: log, feed: src, root: true}, Port: f.Port}
	}
	k := 0
	var walk func(n *plan.Node) *core.JoinOp
	walk = func(n *plan.Node) *core.JoinOp {
		if n.IsLeaf() {
			return nil
		}
		l, r := walk(n.Left), walk(n.Right)
		j := b.Joins[k]
		k++
		if l != nil {
			l.SetConsumer(ops[j], operator.Left)
		}
		if r != nil {
			r.SetConsumer(ops[j], operator.Right)
		}
		return j
	}
	walk(b.Shape())
	b.RootJoin().SetConsumer(&timed{name: "sink", next: b.Sink, log: log}, operator.Left)
}
