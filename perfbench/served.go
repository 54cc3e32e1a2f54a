package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/serve"
)

// phaseOut is what one served or batch phase reports back to the
// orchestrator (one child process per phase).
type phaseOut struct {
	Phase     string         `json:"phase"`
	Seed      int64          `json:"seed"`       // the stream's seed
	WallS     float64        `json:"wall_s"`     // first frame written -> eos read (batch: RunStream wall)
	CPUS      float64        `json:"cpu_s"`      // process user+sys over the same span
	Mallocs   uint64         `json:"mallocs"`    // runtime.MemStats.Mallocs delta
	Bytes     uint64         `json:"bytes"`      // runtime.MemStats.TotalAlloc delta
	Arrivals  int            `json:"arrivals"`   // frames sent / tuples fed
	Delivered digest         `json:"delivered"`  // digest of what reached the subscriber (or sink)
	LineBytes uint64         `json:"line_bytes"` // delivery-line bytes read by the subscriber
	Result    *engine.Result `json:"result,omitempty"`
	Ckpts     int            `json:"checkpoints"` // checkpoints written
	Fail      failures       `json:"fail"`
	Errors    []string       `json:"errors,omitempty"`
	PeakRSSMB float64        `json:"peak_rss_mb"` // the child process's own VmHWM

	// Paced phase.
	LatencyFile string  `json:"latency_file,omitempty"` // per delivery: ms, then the completing arrival ID (float64 pairs)
	LagP99MS    float64 `json:"lag_p99_ms,omitempty"`
	LagEndMS    float64 `json:"lag_end_ms,omitempty"`

	// Recovery phase.
	Opens    []float64           `json:"opens,omitempty"` // reopen: seconds per cut
	Recovery *serve.RecoveryInfo `json:"recovery,omitempty"`

	// Batch phase.
	Shard *shardOut `json:"shard,omitempty"`
}

func (o *phaseOut) fail(kind *int, format string, args ...any) {
	*kind++
	o.Errors = append(o.Errors, fmt.Sprintf(format, args...))
}

// wireLine classifies one line the server sent a subscriber.
type wireLine struct {
	kind string // "delivery", "eos", "error", "greet", "other"
	seq  uint64
	key  []byte
}

var (
	keySeq   = []byte(`"seq":`)
	keyKey   = []byte(`"key":"`)
	keyEOS   = []byte(`"eos":true`)
	keyError = []byte(`"error":`)
	keyOK    = []byte(`"ok":true`)
)

// parseWire extracts what the benchmark needs from a server line without
// allocating: deliveries are {"seq":N,"ts":T,"key":"..."}.
func parseWire(line []byte) wireLine {
	switch {
	case bytes.Contains(line, keyError):
		return wireLine{kind: "error"}
	case bytes.Contains(line, keyEOS):
		return wireLine{kind: "eos"}
	case bytes.Contains(line, keyOK):
		return wireLine{kind: "greet"}
	}
	i := bytes.Index(line, keySeq)
	k := bytes.Index(line, keyKey)
	if i < 0 || k < 0 {
		return wireLine{kind: "other"}
	}
	var seq uint64
	for j := i + len(keySeq); j < len(line) && line[j] >= '0' && line[j] <= '9'; j++ {
		seq = seq*10 + uint64(line[j]-'0')
	}
	key := line[k+len(keyKey):]
	if e := bytes.IndexByte(key, '"'); e >= 0 {
		key = key[:e]
	}
	return wireLine{kind: "delivery", seq: seq, key: key}
}

// conn is one client connection with line-oriented reads.
type conn struct {
	c net.Conn
	r *bufio.Reader
}

func dial(addr, hello string) (*conn, []byte, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	if _, err := io.WriteString(c, hello+"\n"); err != nil {
		c.Close()
		return nil, nil, err
	}
	cc := &conn{c: c, r: bufio.NewReaderSize(c, 256<<10)}
	greet, err := cc.line()
	if err == nil && parseWire(greet).kind != "greet" {
		err = fmt.Errorf("server refused: %s", greet)
	}
	if err != nil {
		c.Close()
		return nil, nil, fmt.Errorf("greeting: %w", err)
	}
	return cc, append([]byte(nil), greet...), nil
}

// line returns the next line without its newline; the slice is valid until
// the next call.
func (c *conn) line() ([]byte, error) {
	b, err := c.r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		return nil, fmt.Errorf("line longer than %d bytes", c.r.Size())
	}
	if err != nil {
		return nil, err
	}
	return b[:len(b)-1], nil
}

// subResult is what the subscriber reader saw.
type subResult struct {
	d      digest
	bytes  uint64
	end    time.Time
	eos    bool
	errs   []string
	seqs   []uint64 // per delivery, when recording
	hashes []uint64 // per delivery key hash, when recording
	latest []uint64 // per delivery latest constituent, when timed
	readAt []time.Time
}

// reader consumes a subscriber stream to its eos line. With timed set, it
// notes each delivery's read time and latest constituent for latency.
// progress holds the last sequence number read.
type reader struct {
	record   bool
	timed    bool
	stop     <-chan struct{} // closed when the benchmark hangs up on purpose
	progress atomic.Uint64
}

func (rd *reader) run(c *conn) *subResult {
	r := &subResult{}
	for {
		b, err := c.line()
		if err != nil {
			select {
			case <-rd.stop:
			default:
				r.errs = append(r.errs, fmt.Sprintf("subscriber read: %v", err))
			}
			r.end = time.Now()
			return r
		}
		now := time.Now()
		w := parseWire(b)
		switch w.kind {
		case "delivery":
			h := keyHash(w.key)
			r.d.addHash(h)
			r.bytes += uint64(len(b) + 1)
			if rd.record {
				r.seqs = append(r.seqs, w.seq)
				r.hashes = append(r.hashes, h)
			}
			rd.progress.Store(w.seq)
			if rd.timed {
				id, err := latestID(w.key)
				if err != nil {
					r.errs = append(r.errs, err.Error())
					continue
				}
				r.latest = append(r.latest, id)
				r.readAt = append(r.readAt, now)
			}
		case "eos":
			r.end, r.eos = now, true
			return r
		default:
			r.errs = append(r.errs, fmt.Sprintf("subscriber: unexpected line %q", b))
			r.end = now
			return r
		}
	}
}

// sendFrames writes frames [from, to) on the ingest connection. Unpaced,
// it writes the pre-encoded buffer as fast as TCP backpressure allows;
// paced, frame i waits for its due offset due[i-from] from start.
func sendFrames(c *conn, fr *frames, from, to int, start time.Time, due []time.Duration, lag *lagLog) error {
	if due == nil {
		_, err := c.c.Write(fr.buf[fr.off[from]:fr.off[to]])
		return err
	}
	for i := from; i < to; {
		if d := time.Until(start.Add(due[i-from])); d > 0 {
			time.Sleep(d)
		}
		// Send every frame that is due by now in one write.
		now := time.Since(start)
		j := i + 1
		for j < to && due[j-from] <= now {
			j++
		}
		if _, err := c.c.Write(fr.buf[fr.off[i]:fr.off[j]]); err != nil {
			return err
		}
		for k := i; k < j; k++ {
			lag.record(due[k-from], now)
		}
		i = j
	}
	return nil
}

// awaitIdle returns once this process has used under a fifth of a core
// over idleWindow. The client is idle while it waits, so that is the server
// having drained what it was sent.
func awaitIdle() {
	var ru syscall.Rusage
	cpu := func() float64 {
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
		return cpuSeconds(&ru)
	}
	prev := cpu()
	for deadline := time.Now().Add(60 * time.Second); time.Now().Before(deadline); {
		time.Sleep(idleWindow)
		cur := cpu()
		if cur-prev < 0.2*idleWindow.Seconds() {
			return
		}
		prev = cur
	}
}

const idleWindow = 50 * time.Millisecond

// finishIngest sends eos and reads the server's ack.
func finishIngest(c *conn, want int, o *phaseOut) {
	if _, err := io.WriteString(c.c, `{"cmd":"eos"}`+"\n"); err != nil {
		o.fail(&o.Fail.Protocol, "eos: %v", err)
		return
	}
	b, err := c.line()
	if err != nil {
		o.fail(&o.Fail.Protocol, "ingest ack: %v", err)
		return
	}
	var ack struct {
		OK       bool   `json:"ok"`
		Ingested int    `json:"ingested"`
		Error    string `json:"error"`
	}
	if err := json.Unmarshal(b, &ack); err != nil || !ack.OK {
		o.fail(&o.Fail.Rejected, "ingest ack %q", b)
		return
	}
	if ack.Ingested != want {
		o.fail(&o.Fail.Rejected, "server ingested %d of %d frames", ack.Ingested, want)
	}
}

// runServed drives one served phase against a fresh server: subscribe,
// ingest frames [from, len), eos, read to eos. pace > 0 makes it the paced
// (open-loop) phase.
func runServed(w workload, cfg serve.Config, fr *frames, pace float64, latPath string) (*phaseOut, error) {
	o := &phaseOut{Phase: "saturate"}
	if pace > 0 {
		o.Phase = "paced"
	}
	s, err := serve.Open(cfg)
	if err != nil {
		return nil, err
	}
	defer s.Shutdown()
	sub, _, err := dial(s.Addr(), `{"cmd":"subscribe"}`)
	if err != nil {
		return nil, fmt.Errorf("subscribe: %w", err)
	}
	defer sub.c.Close()
	ing, _, err := dial(s.Addr(), `{"cmd":"ingest"}`)
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	defer ing.c.Close()

	var before cost
	before.read()
	start := time.Now()
	subDone := make(chan *subResult, 1)
	rd := &reader{timed: pace > 0}
	go func() { subDone <- rd.run(sub) }()
	lag := &lagLog{}
	var due []time.Duration
	warm := 0
	if pace > 0 {
		// The stream's first window only fills the join states, and its
		// work ramps up from nothing: send it unpaced, and start the paced
		// clock once the server has drained it. Latency then measures the
		// steady state at a fixed load.
		for warm < fr.len() && fr.ts[warm] < fr.ts[0]+int64(w.Window) {
			warm++
		}
		if err := sendFrames(ing, fr, 0, warm, start, nil, nil); err != nil {
			o.fail(&o.Fail.Protocol, "ingest write: %v", err)
		}
		awaitIdle()
		start = time.Now()
		due = dueOffsets(fr.ts[warm:], pace)
	}
	if err := sendFrames(ing, fr, warm, fr.len(), start, due, lag); err != nil {
		o.fail(&o.Fail.Protocol, "ingest write: %v", err)
	}
	finishIngest(ing, fr.len(), o)
	sr := <-subDone
	res, werr := s.Wait()
	var after cost
	after.read()
	o.WallS = sr.end.Sub(start).Seconds()
	after.sub(before, o)
	if werr != nil {
		return nil, werr
	}
	st := s.Stats()
	o.Result, o.Ckpts = &res, st.Checkpoints
	o.Arrivals = fr.len()
	o.Delivered, o.LineBytes = sr.d, sr.bytes
	for _, e := range sr.errs {
		o.fail(&o.Fail.Protocol, "%s", e)
	}
	if !sr.eos {
		o.fail(&o.Fail.Protocol, "subscriber saw no eos")
	}
	if st.SaveErr != nil {
		o.fail(&o.Fail.Protocol, "checkpoint save: %v", st.SaveErr)
	}
	o.Fail.LateDrops = int(res.Counters.LateDropped)
	if pace > 0 {
		o.LagP99MS, o.LagEndMS = lag.p99(), lag.end()
		if span := due[len(due)-1]; lag.growing(span) {
			o.fail(&o.Fail.FailedPhases, "generator lag kept growing (end %.1f ms)", lag.end())
		}
		idx := make(map[uint64]int, fr.len())
		for i, id := range fr.ids[warm:] {
			idx[id] = i
		}
		var lat []float64 // latency and completing arrival, in pairs
		for k, id := range sr.latest {
			if i, ok := idx[id]; ok { // results completed in the warm-up are not timed
				lat = append(lat, float64(sr.readAt[k].Sub(start)-due[i])/float64(time.Millisecond), float64(id))
			}
		}
		if err := writeFloats(latPath, lat); err != nil {
			return nil, err
		}
		o.LatencyFile = latPath
	}
	return o, nil
}

// openCheckpoint restores the checkpoint into a fresh server in its own
// checkpoint dir; the server is listening when it returns.
func openCheckpoint(w workload, ckData []byte, work string) (*serve.Server, error) {
	dir, err := os.MkdirTemp(work, "rec-")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "ck-00000001.jck"), ckData, 0o644); err != nil {
		return nil, err
	}
	return serve.Open(w.serveConfig(dir))
}

// makeCheckpoints runs a checkpointing incarnation through the workload's
// fixed cuts, waiting at each for its checkpoint, and returns their bytes in
// cut order plus the key hashes of the deliveries committed at the resume
// cut (indexed by seq-1). The incarnation is then abandoned, standing in for
// a killed server.
func makeCheckpoints(w workload, fr *frames, dir string) ([][]byte, []uint64, error) {
	cfg := w.serveConfig(dir)
	s, err := serve.Open(cfg)
	if err != nil {
		return nil, nil, err
	}
	defer s.Shutdown()
	sub, _, err := dial(s.Addr(), `{"cmd":"subscribe"}`)
	if err != nil {
		return nil, nil, err
	}
	ing, _, err := dial(s.Addr(), `{"cmd":"ingest"}`)
	if err != nil {
		sub.c.Close()
		return nil, nil, err
	}
	stop := make(chan struct{})
	subDone := make(chan *subResult, 1)
	rd := &reader{record: true, stop: stop}
	go func() { subDone <- rd.run(sub) }()
	var data [][]byte
	var committed uint64
	sent := 0
	for _, cut := range w.Cuts {
		// A checkpoint is triggered by the first arrival at or past each
		// boundary ts[0] + k*window; send through that arrival only.
		boundary := fr.ts[0] + int64(cut)
		trigger := sent
		for trigger < fr.len() && fr.ts[trigger] < boundary {
			trigger++
		}
		if trigger == fr.len() {
			return nil, nil, fmt.Errorf("stream ends before the cut at %v", cut)
		}
		if err := sendFrames(ing, fr, sent, trigger+1, time.Time{}, nil, nil); err != nil {
			return nil, nil, err
		}
		sent = trigger + 1
		ck, b, err := awaitCheckpoint(dir, boundary)
		if err != nil {
			return nil, nil, err
		}
		data = append(data, b)
		if cut == w.Cut {
			committed = ck.Delivered
		}
	}
	// Keep reading until every delivery committed at the resume cut has
	// been seen, then abandon the incarnation.
	for deadline := time.Now().Add(60 * time.Second); rd.progress.Load() < committed; {
		if time.Now().After(deadline) {
			return nil, nil, fmt.Errorf("committed deliveries never arrived")
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	ing.c.Close()
	sub.c.Close()
	sr := <-subDone
	if len(sr.errs) > 0 {
		return nil, nil, fmt.Errorf("%s", sr.errs[0])
	}
	hashes := make([]uint64, committed)
	seen := 0
	for i, seq := range sr.seqs {
		if seq >= 1 && seq <= committed {
			hashes[seq-1] = sr.hashes[i]
			seen++
		}
	}
	if seen != int(committed) {
		return nil, nil, fmt.Errorf("read %d of %d committed deliveries", seen, committed)
	}
	return data, hashes, nil
}

// awaitCheckpoint polls the server's checkpoint dir until the newest
// checkpoint's cut reaches the boundary, and returns it with its bytes. It
// only lists and reads: checkpoint.Store's scan removes temporaries, which
// would race with the server's own atomic save.
func awaitCheckpoint(dir string, boundary int64) (*checkpoint.Checkpoint, []byte, error) {
	for deadline := time.Now().Add(60 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		names, err := filepath.Glob(filepath.Join(dir, "ck-*.jck"))
		if err != nil {
			return nil, nil, err
		}
		if len(names) == 0 {
			continue
		}
		sort.Strings(names) // fixed-width sequence numbers sort in order
		data, err := os.ReadFile(names[len(names)-1])
		if err != nil {
			continue // pruned between listing and reading
		}
		ck, err := checkpoint.Decode(data)
		if err != nil {
			return nil, nil, fmt.Errorf("checkpoint %s: %w", names[len(names)-1], err)
		}
		if int64(ck.Cut) >= boundary {
			return ck, data, nil
		}
	}
	return nil, nil, fmt.Errorf("no checkpoint at the recovery cut")
}

// runRecovery restores the fixed mid-run checkpoint into a fresh server,
// resumes ingest from the greeting's resume_id through eos, and digests the
// union of committed deliveries from before the restart and new ones after
// it; the caller checks that union against the reference (exactly once).
func runRecovery(w workload, fr *frames, ckData []byte, before []uint64, work string) (*phaseOut, error) {
	o := &phaseOut{Phase: "recover"}
	s, err := openCheckpoint(w, ckData, work)
	if err != nil {
		return nil, err
	}
	defer s.Shutdown()
	o.Recovery = s.Recovery()
	if o.Recovery == nil {
		return nil, errors.New("server performed no recovery")
	}
	committed := o.Recovery.Delivered
	sub, _, err := dial(s.Addr(), `{"cmd":"subscribe"}`)
	if err != nil {
		return nil, err
	}
	defer sub.c.Close()
	ing, greet, err := dial(s.Addr(), `{"cmd":"ingest"}`)
	if err != nil {
		return nil, err
	}
	defer ing.c.Close()
	var g struct {
		ResumeID uint64 `json:"resume_id"`
	}
	if err := json.Unmarshal(greet, &g); err != nil {
		return nil, fmt.Errorf("ingest greeting %q: %v", greet, err)
	}
	from := fr.after(g.ResumeID)
	subDone := make(chan *subResult, 1)
	rd := &reader{record: true}
	go func() { subDone <- rd.run(sub) }()
	if err := sendFrames(ing, fr, from, fr.len(), time.Time{}, nil, nil); err != nil {
		o.fail(&o.Fail.Protocol, "ingest write: %v", err)
	}
	finishIngest(ing, fr.len()-from, o)
	sr := <-subDone
	res, err := s.Wait()
	if err != nil {
		return nil, err
	}
	o.Result = &res
	o.Arrivals = fr.len() - from
	for _, e := range sr.errs {
		o.fail(&o.Fail.Protocol, "%s", e)
	}
	// Exactly once across the restart: committed deliveries come from the
	// first incarnation; re-read ones must match them; the rest are new.
	var union digest
	for _, h := range before[:committed] {
		union.addHash(h)
	}
	for i, seq := range sr.seqs {
		switch {
		case seq == 0:
			o.fail(&o.Fail.Protocol, "delivery without a sequence number")
		case seq <= committed:
			if before[seq-1] != sr.hashes[i] {
				o.fail(&o.Fail.Extra, "re-read delivery %d differs from the committed one", seq)
			}
		default:
			union.addHash(sr.hashes[i])
		}
	}
	o.Delivered = union
	return o, nil
}
