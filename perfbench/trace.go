package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/media"
	"github.com/neuroscaler/neuroscaler/internal/wire"
)

// span is one timed call the benchmark made into a layer, keyed by
// (stream, chunk). Enhancer-side seams only see an anchor's display
// index; the chunk is resolved from it after the run.
type span struct {
	Name   string
	Stream uint32
	Chunk  int // store sequence; -1 until resolved or when unknown
	Index  int // display index of the first anchor; -1 for non-anchor spans
	N      int // anchors covered
	Start  time.Duration
	Dur    time.Duration
	Wait   time.Duration // device queueing (model spans)
	Busy   time.Duration // device hold (model spans)
	Self   time.Duration // oracle CPU work (model spans)
	Err    bool
}

// tracer keeps spans in memory from set-up on (vod's enhancement builds
// run in set-up); they are written out after the run.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) at(ts time.Time) time.Duration { return ts.Sub(t.t0) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// tracedPool is the AnchorEnhancer the origin sees in the traced run: the
// pool, timed per call. It forwards every optional method the origin
// type-asserts (batching, stream registration).
type tracedPool struct {
	p  *media.EnhancerPool
	tr *tracer
}

func (t *tracedPool) Enhance(streamID uint32, job wire.AnchorJob) (wire.AnchorResult, error) {
	start := time.Now()
	res, err := t.p.Enhance(streamID, job)
	t.tr.add(span{Name: "pool.call", Stream: streamID, Index: job.DisplayIndex, N: 1,
		Start: t.tr.at(start), Dur: time.Since(start), Err: err != nil})
	return res, err
}

func (t *tracedPool) EnhanceBatch(streamID uint32, jobs []wire.AnchorJob) ([]media.AnchorOutcome, error) {
	start := time.Now()
	outs, err := t.p.EnhanceBatch(streamID, jobs)
	t.tr.add(span{Name: "pool.call", Stream: streamID, Index: firstIndex(jobs), N: len(jobs),
		Start: t.tr.at(start), Dur: time.Since(start), Err: err != nil})
	return outs, err
}

func (t *tracedPool) Register(streamID uint32, h wire.Hello) error { return t.p.Register(streamID, h) }

// tracedReplica wraps one pool replica's RemoteEnhancer. It forwards
// everything the pool type-asserts: batching, registration, heartbeats
// and Close.
type tracedReplica struct {
	r  *media.RemoteEnhancer
	tr *tracer
}

func (t *tracedReplica) Enhance(streamID uint32, job wire.AnchorJob) (wire.AnchorResult, error) {
	start := time.Now()
	res, err := t.r.Enhance(streamID, job)
	t.tr.add(span{Name: "replica.call", Stream: streamID, Index: job.DisplayIndex, N: 1,
		Start: t.tr.at(start), Dur: time.Since(start), Err: err != nil})
	return res, err
}

func (t *tracedReplica) EnhanceBatch(streamID uint32, jobs []wire.AnchorJob) ([]media.AnchorOutcome, error) {
	start := time.Now()
	outs, err := t.r.EnhanceBatch(streamID, jobs)
	t.tr.add(span{Name: "replica.call", Stream: streamID, Index: firstIndex(jobs), N: len(jobs),
		Start: t.tr.at(start), Dur: time.Since(start), Err: err != nil})
	return outs, err
}

func (t *tracedReplica) Register(streamID uint32, h wire.Hello) error {
	return t.r.Register(streamID, h)
}
func (t *tracedReplica) Ping() error  { return t.r.Ping() }
func (t *tracedReplica) Close() error { return t.r.Close() }

func firstIndex(jobs []wire.AnchorJob) int {
	if len(jobs) == 0 {
		return -1
	}
	return jobs[0].DisplayIndex
}

// timingConn is the edge's upstream connection in the traced run. The
// edge runs one fetch at a time per upstream conn, so a request spans
// from its first written byte to the last reply byte read before the
// next request starts.
type timingConn struct {
	net.Conn
	tr *tracer

	mu       sync.Mutex
	req      []byte    // request bytes written so far; guarded by mu
	start    time.Time // guarded by mu
	lastRead time.Time // guarded by mu
}

func (c *timingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if !c.lastRead.IsZero() {
		c.flushLocked()
	}
	if c.start.IsZero() {
		c.start = time.Now()
	}
	c.req = append(c.req, p...)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *timingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.mu.Lock()
		c.lastRead = time.Now()
		c.mu.Unlock()
	}
	return n, err
}

func (c *timingConn) Close() error {
	c.mu.Lock()
	if !c.lastRead.IsZero() {
		c.flushLocked()
	}
	c.mu.Unlock()
	return c.Conn.Close()
}

// flushLocked records the finished request. Callers hold c.mu.
func (c *timingConn) flushLocked() {
	s := span{Name: "edge.upstream", Chunk: -1, Index: -1, Start: c.tr.at(c.start), Dur: c.lastRead.Sub(c.start)}
	if msg, err := wire.Read(bytes.NewReader(c.req), len(c.req)); err == nil && msg.Type == wire.TypeFetchChunk {
		if fc, err := wire.DecodeFetchChunk(msg.Payload); err == nil {
			s.Stream, s.Chunk = msg.StreamID, int(fc.Seq)
		}
	}
	c.tr.add(s)
	c.req, c.start, c.lastRead = c.req[:0], time.Time{}, time.Time{}
}

// resolveChunks fills in the chunk of every enhancer-side span from the
// anchor's display index: the index names the distinct chunk and frame,
// and chunkOf maps (stream, distinct chunk, span start) to the store
// sequence the generator sent it as.
func resolveChunks(spans []span, chunkOf func(stream uint32, content int, start time.Duration) int) {
	for i := range spans {
		if spans[i].Index >= 0 {
			spans[i].Chunk = chunkOf(spans[i].Stream, spans[i].Index/gopLen, spans[i].Start)
		}
	}
}

// writeSpans writes spans as JSON lines sorted by (stream, chunk, start).
func writeSpans(path string, spans []span) error {
	sort.SliceStable(spans, func(a, b int) bool {
		x, y := spans[a], spans[b]
		if x.Stream != y.Stream {
			return x.Stream < y.Stream
		}
		if x.Chunk != y.Chunk {
			return x.Chunk < y.Chunk
		}
		return x.Start < y.Start
	})
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	for _, s := range spans {
		fmt.Fprintf(w, `{"name":%q,"stream":%d,"chunk":%d,"display_index":%d,"anchors":%d,"start_us":%.1f,"dur_us":%.1f`,
			s.Name, s.Stream, s.Chunk, s.Index, s.N, us(s.Start), us(s.Dur))
		if s.Name == "model.apply" {
			fmt.Fprintf(w, `,"device_wait_us":%.1f,"device_busy_us":%.1f,"self_us":%.1f`, us(s.Wait), us(s.Busy), us(s.Self))
		}
		fmt.Fprintf(w, `,"err":%v}`+"\n", s.Err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
