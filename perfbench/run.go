package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/hybrid"
)

// drainLimit bounds how long a run waits for replies after its last due
// time; whatever is still missing then counts as failed.
const drainLimit = 15 * time.Second

// outcome is everything one measured run produced.
type outcome struct {
	attempted, failed int64
	phases            []phase
	violations        []string
	failures          []string // the first few failed operations' errors

	latency   []time.Duration // the workload's headline latency, failures included
	latName   string
	acks      []time.Duration // upload due → ack, acked uploads
	fetchLat  []time.Duration // fetch due → reply, timed fetches
	lags      []time.Duration
	blocks    []time.Duration
	shipped   int // anchors shipped in delivered or stored containers
	refShip   int // anchors the serial eager reference ships for them
	delivered int // chunk deliveries to viewers (stored chunks on burst)
	chunkOps  int // uploads, or fetches on vod: the per-chunk denominator
	peakHeap  float64
	peakLevel int

	before, after snap
	spans         []span
	storeAnchors  map[[2]int][]bool // (stream, chunk) → anchor present per frame
	ups           []*upload
}

// phase counts one phase's operations for the run metadata.
type phase struct {
	Name      string `json:"name"`
	Sent      int64  `json:"sent"`
	Succeeded int64  `json:"succeeded"`
	Failed    int64  `json:"failed"`
}

// measure drives one instance for the run and consumes it: connections
// are closed on return; the caller closes the servers.
func (e *env) measure(seed int64, seconds float64) *outcome {
	sp := e.sp
	g := &gen{c: e.c, subs: sp.subs, uploads: make(map[uint32][]*upload)}
	dur := time.Duration(seconds * float64(time.Second))
	t0 := time.Now().Add(100 * time.Millisecond)

	perIngest := make([][]*upload, len(e.ingest))
	perViewer := make([][]*fetch, len(e.viewers))
	var wins []*window
	switch sp.name {
	case "live":
		e.scheduleLive(g, seed, t0, dur, perIngest)
	case "vod":
		wins = e.scheduleVod(seed, t0, dur, perViewer)
	default:
		e.scheduleBurst(g, seed, t0, dur, perIngest)
	}
	var ups []*upload
	for _, us := range perIngest {
		sortUploads(us)
		ups = append(ups, us...)
	}
	for i, v := range e.viewers {
		// Sized to every fetch the run can issue, so producers never block.
		v.reqs = make(chan *fetch, len(perViewer[i])+len(ups))
		for _, f := range perViewer[i] {
			g.outstanding.Add(1)
			v.reqs <- f
		}
	}
	// live: one puller per stream fetches each chunk once it is acked.
	pulls := make(map[*upload]*fetch, len(ups))
	var pullsMu sync.Mutex
	if sp.name == "live" {
		g.onAck = func(u *upload) {
			f := &fetch{stream: u.stream, seq: u.seq, content: u.content, due: u.done}
			pullsMu.Lock()
			pulls[u] = f
			pullsMu.Unlock()
			g.outstanding.Add(1)
			e.viewers[int(u.stream-1)%len(e.viewers)].reqs <- f
		}
	}

	o := &outcome{before: e.snap()}
	stopSampler := o.sample(e)
	var writers, readers, viewerLoops sync.WaitGroup
	for i, c := range e.ingest {
		readers.Add(1)
		go func(c *ingestConn) { defer readers.Done(); c.readLoop(g) }(c)
		writers.Add(1)
		go func(c *ingestConn, ups []*upload) { defer writers.Done(); c.writeLoop(g, ups) }(c, perIngest[i])
	}
	for _, v := range e.viewers {
		viewerLoops.Add(2)
		go func(v *viewerConn) { defer viewerLoops.Done(); v.readLoop(g) }(v)
		go func(v *viewerConn) { defer viewerLoops.Done(); v.writeLoop(g) }(v)
	}

	writers.Wait()
	deadline := maxTime(t0.Add(sp.warmup+dur), time.Now()).Add(drainLimit)
	settled := waitFor(deadline, func() bool { return g.outstanding.Load() <= 0 })
	if settled && sp.name == "live" {
		// Every fetch has its reply, so pushes are all that is in flight.
		want := int64(0)
		pullsMu.Lock()
		for _, f := range pulls {
			if f.ok {
				want += int64(sp.subs)
			}
		}
		pullsMu.Unlock()
		waitFor(time.Now().Add(2*time.Second), func() bool { return g.pushes.Load() >= want })
	}
	drained := time.Now()
	o.after = e.snap()
	o.peakHeap, o.peakLevel = stopSampler()

	// Ingest readers produce pulls, so they stop before the queues close.
	for _, c := range e.ingest {
		c.conn.Close()
	}
	readers.Wait()
	for _, v := range e.viewers {
		v.conn.Close()
		close(v.reqs)
	}
	viewerLoops.Wait()
	for _, c := range e.ingest {
		o.lags = append(o.lags, c.lags...)
		o.blocks = append(o.blocks, c.blocks...)
	}
	for _, v := range e.viewers {
		o.lags = append(o.lags, v.lags...)
		o.blocks = append(o.blocks, v.blocks...)
	}
	o.collect(e, g, ups, pulls, perViewer, wins, drained)
	if e.tr != nil {
		o.spans = append(e.tr.snapshot(), generatorSpans(e.tr, ups, pulls, perViewer)...)
		resolveChunks(o.spans, e.chunkOf(ups))
	}
	return o
}

// collect settles every operation into phases, samples and shipped
// anchors. Failures stay in the latency sample with the time the run
// waited for them.
func (o *outcome) collect(e *env, g *gen, ups []*upload, pulls map[*upload]*fetch, perViewer [][]*fetch, wins []*window, drained time.Time) {
	sp := e.sp
	sort.Slice(ups, func(a, b int) bool { return ups[a].due.Before(ups[b].due) })
	ingest := phase{Name: "upload"}
	for _, u := range ups {
		ingest.Sent++
		if u.acked {
			ingest.Succeeded++
			o.acks = append(o.acks, u.done.Sub(u.due))
		} else {
			ingest.Failed++
		}
	}
	switch sp.name {
	case "live":
		o.latName = "glass_to_glass"
		pull, push := phase{Name: "pull"}, phase{Name: "push"}
		for _, u := range ups {
			pull.Sent++
			if f := pulls[u]; f != nil && f.ok {
				pull.Succeeded++
				o.fetchLat = append(o.fetchLat, f.done.Sub(f.due))
				o.shipped += e.c.refAnchors[u.content]
				o.delivered++
			} else {
				pull.Failed++
			}
			o.refShip += e.c.refAnchors[u.content]
			got := int64(u.pushes.Load())
			push.Sent += int64(sp.subs)
			push.Succeeded += got
			push.Failed += int64(sp.subs) - got
			o.delivered += int(got)
			for i := got; i < int64(sp.subs); i++ {
				o.latency = append(o.latency, drained.Sub(u.due))
			}
		}
		o.latency = append(o.latency, g.g2g...)
		o.phases = []phase{ingest, pull, push}
		o.chunkOps = len(ups)
	case "vod":
		o.latName = "fetch_window"
		warm, timed := phase{Name: "warmup_fetch"}, phase{Name: "fetch"}
		for _, fs := range perViewer {
			for _, f := range fs {
				p := &timed
				if f.win.warm {
					p = &warm
				}
				p.Sent++
				if f.ok {
					p.Succeeded++
					o.shipped += e.c.refAnchors[f.content]
					o.delivered++
				} else {
					p.Failed++
				}
				o.refShip += e.c.refAnchors[f.content]
				if f.ok && !f.win.warm {
					o.fetchLat = append(o.fetchLat, f.done.Sub(f.due))
				}
			}
		}
		for _, w := range wins {
			switch {
			case w.warm:
			case w.left.Load() == 0:
				o.latency = append(o.latency, w.done.Sub(w.due))
			default:
				o.latency = append(o.latency, drained.Sub(w.due))
			}
		}
		o.phases = []phase{warm, timed}
		o.chunkOps = int(warm.Sent + timed.Sent)
	default:
		o.latName = "chunk_ack"
		for _, u := range ups {
			if u.acked {
				o.latency = append(o.latency, u.done.Sub(u.due))
			} else {
				o.latency = append(o.latency, drained.Sub(u.due))
			}
		}
		o.phases = []phase{ingest}
		o.chunkOps = len(ups)
	}
	for _, p := range o.phases {
		o.attempted += p.Sent
		o.failed += p.Failed
	}
	note := func(err error) {
		if err != nil && len(o.failures) < 5 {
			o.failures = append(o.failures, err.Error())
		}
	}
	for _, u := range ups {
		note(u.err)
		if f := pulls[u]; f != nil {
			note(f.err)
		}
	}
	for _, fs := range perViewer {
		for _, f := range fs {
			note(f.err)
		}
	}
	o.violations = append(append([]string(nil), e.violations...), g.violations...)
	o.ups = ups
}

// settle runs the post-run gates once the servers are closed and every
// counter is final: the anchor ledger balances, and on burst every stored
// container decodes and its shipped anchors are counted.
func (e *env) settle(o *outcome) {
	c := e.origin.Counters()
	if got := c.AnchorsEnhanced + c.AnchorsDropped + c.AnchorsRejected + c.AnchorsExpired; got != c.AnchorsSelected {
		o.violations = append(o.violations, fmt.Sprintf("anchor ledger: selected %d != enhanced+dropped+rejected+expired %d (%+v)", c.AnchorsSelected, got, c))
	}
	o.storeAnchors = make(map[[2]int][]bool)
	for _, id := range e.origin.Store().StreamIDs() {
		for seq := e.origin.Store().OldestRetained(id); seq < e.origin.Store().ChunkCount(id)+e.origin.Store().OldestRetained(id); seq++ {
			data, _, pending, err := e.origin.Store().ChunkState(id, seq)
			if err != nil || pending {
				continue
			}
			var ct hybrid.Container
			if err := ct.UnmarshalBinary(data); err != nil {
				o.violations = append(o.violations, fmt.Sprintf("stored stream %d chunk %d: %v", id, seq, err))
				continue
			}
			has := make([]bool, len(ct.Frames))
			for i, f := range ct.Frames {
				has[i] = f.Anchor != nil
			}
			o.storeAnchors[[2]int{int(id), seq}] = has
			if e.sp.name != "burst" {
				continue
			}
			if _, err := hybrid.Decode(&ct); err != nil {
				o.violations = append(o.violations, fmt.Sprintf("stored stream %d chunk %d does not decode: %v", id, seq, err))
			}
		}
	}
	if e.sp.name == "burst" {
		// burst: what ships is what the origin stored for each acked chunk.
		for _, u := range o.ups {
			o.refShip += e.c.refAnchors[u.content]
			if !u.acked {
				continue
			}
			o.delivered++
			for _, has := range o.storeAnchors[[2]int{int(u.stream), u.seq}] {
				if has {
					o.shipped++
				}
			}
		}
	}
}

// maxTime returns the later of two times.
func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// quantile returns the q-quantile of samples (nearest rank) in ms.
func quantile(samples []time.Duration, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(s[i]) / float64(time.Millisecond)
}
