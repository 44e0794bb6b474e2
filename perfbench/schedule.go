package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/edge"
	"github.com/neuroscaler/neuroscaler/internal/media"
)

// scheduleLive gives every stream one upload per interval. Streams start
// in evenly spaced slots of the first interval, in a seeded order that
// alternates ingest connections slot by slot, and each cycles through the
// distinct chunks from a seeded offset.
func (e *env) scheduleLive(g *gen, seed int64, t0 time.Time, dur time.Duration, perIngest [][]*upload) {
	sp := e.sp
	rng := newRand(seed, 2)
	byConn := make([][]int, len(e.ingest))
	for s := 1; s <= sp.streams; s++ {
		ci := e.streamConn[uint32(s)]
		byConn[ci] = append(byConn[ci], s)
	}
	slot := make(map[int]int, sp.streams)
	for ci, ss := range byConn {
		rng.Shuffle(len(ss), func(a, b int) { ss[a], ss[b] = ss[b], ss[a] })
		for k, s := range ss {
			slot[s] = k*len(byConn) + ci
		}
	}
	for s := 1; s <= sp.streams; s++ {
		id := uint32(s)
		off := time.Duration(slot[s]) * sp.interval / time.Duration(sp.streams)
		c0 := rng.Intn(sp.contents)
		for k := 0; off+time.Duration(k)*sp.interval < dur; k++ {
			u := &upload{stream: id, seq: k, content: (c0 + k) % sp.contents, due: t0.Add(off + time.Duration(k)*sp.interval)}
			g.uploads[id] = append(g.uploads[id], u)
			perIngest[e.streamConn[id]] = append(perIngest[e.streamConn[id]], u)
		}
	}
}

// scheduleBurst draws arrivals from a two-level rate: each period opens
// with a high phase at highLoad × device capacity, then a low phase at
// lowLoad × capacity. The phase offset and the stream order are seeded;
// arrivals go to streams round-robin.
func (e *env) scheduleBurst(g *gen, seed int64, t0 time.Time, dur time.Duration, perIngest [][]*upload) {
	sp := e.sp
	rng := newRand(seed, 3)
	phase0 := time.Duration(rng.Int63n(int64(sp.period)))
	order := rng.Perm(sp.streams)
	c0 := make([]int, sp.streams)
	for i := range c0 {
		c0[i] = rng.Intn(sp.contents)
	}
	capacity := e.capacity()
	for t, i := time.Duration(0), 0; t < dur; i++ {
		s := order[i%sp.streams]
		id := uint32(s + 1)
		k := len(g.uploads[id])
		u := &upload{stream: id, seq: k, content: (c0[s] + k) % sp.contents, due: t0.Add(t)}
		g.uploads[id] = append(g.uploads[id], u)
		perIngest[e.streamConn[id]] = append(perIngest[e.streamConn[id]], u)
		load := sp.lowLoad
		if float64((t+phase0)%sp.period) < sp.highShare*float64(sp.period) {
			load = sp.highLoad
		}
		t += time.Duration(float64(time.Second) / (load * capacity))
	}
}

// capacity is the device tier's chunk rate: replicas over the anchor
// price, divided by the anchors the reference ships per chunk.
func (e *env) capacity() float64 {
	anchors := 0
	for _, n := range e.c.refAnchors {
		anchors += n
	}
	perChunk := float64(anchors) / float64(len(e.c.refAnchors))
	return float64(e.sp.replicas) / e.sp.deviceCost.Seconds() / perChunk
}

// scheduleVod issues windows at a fixed rate over the warm-up and the
// run. Each picks a title by Zipf(1.0) over a seeded popularity order and
// a uniform starting chunk, and asks for the next few chunks of it, wrapping
// at the title's end; windows go to viewer connections round-robin.
func (e *env) scheduleVod(seed int64, t0 time.Time, dur time.Duration, perViewer [][]*fetch) []*window {
	sp := e.sp
	rng := newRand(seed, 4)
	byRank := rng.Perm(sp.streams)
	cum := make([]float64, sp.streams)
	total := 0.0
	for r := range cum {
		total += 1 / float64(r+1)
		cum[r] = total
	}
	var wins []*window
	n := int((sp.warmup + dur).Seconds() * sp.fetchRate)
	for i := 0; i < n; i++ {
		at := time.Duration(float64(i) / sp.fetchRate * float64(time.Second))
		r := sort.SearchFloat64s(cum, rng.Float64()*total)
		if r >= len(cum) {
			r = len(cum) - 1
		}
		id := uint32(byRank[r] + 1)
		q0 := rng.Intn(sp.chunksPerStream)
		w := &window{due: t0.Add(at), warm: at < sp.warmup}
		w.left.Store(int32(sp.window))
		wins = append(wins, w)
		for k := 0; k < sp.window; k++ {
			q := (q0 + k) % sp.chunksPerStream
			f := &fetch{stream: id, seq: q, content: e.catalog[id][q], due: w.due, win: w}
			perViewer[i%len(perViewer)] = append(perViewer[i%len(perViewer)], f)
		}
	}
	return wins
}

// chunkOf maps an enhancer-side span back to the chunk it served. On vod
// a distinct chunk appears at most once per stream; on live and burst a
// stream cycles through the distinct chunks, and the span belongs to the
// latest upload of that chunk sent before the span started.
func (e *env) chunkOf(ups []*upload) func(uint32, int, time.Duration) int {
	if e.catalog != nil {
		return func(stream uint32, content int, _ time.Duration) int {
			for q, c := range e.catalog[stream] {
				if c == content {
					return q
				}
			}
			return -1
		}
	}
	byStream := make(map[uint32][]*upload)
	for _, u := range ups {
		byStream[u.stream] = append(byStream[u.stream], u)
	}
	t0 := e.tr.t0
	return func(stream uint32, content int, start time.Duration) int {
		at, seq := t0.Add(start), -1
		for _, u := range byStream[stream] {
			if u.content == content && !u.sent.IsZero() && !u.sent.After(at) {
				seq = u.seq
			}
		}
		return seq
	}
}

// generatorSpans turns the generator's own client calls into spans.
func generatorSpans(tr *tracer, ups []*upload, pulls map[*upload]*fetch, vod [][]*fetch) []span {
	var out []span
	call := func(name string, stream uint32, seq int, due, done time.Time, ok bool) {
		s := span{Name: name, Stream: stream, Chunk: seq, Index: -1, Start: tr.at(due), Err: !ok}
		if ok {
			s.Dur = done.Sub(due)
		}
		out = append(out, s)
	}
	for _, u := range ups {
		call("gen.upload", u.stream, u.seq, u.due, u.done, u.acked)
		if f := pulls[u]; f != nil {
			call("gen.fetch", f.stream, f.seq, f.due, f.done, f.ok)
		}
	}
	for _, fs := range vod {
		for _, f := range fs {
			call("gen.fetch", f.stream, f.seq, f.due, f.done, f.ok)
		}
	}
	return out
}

// snap is a point-in-time reading of every layer's public counters and of
// the process.
type snap struct {
	at         time.Time
	stages     media.StageStats
	srv        media.ServerCounters
	pool       media.PoolCounters
	jobs       media.EnhancerServerCounters
	edge       edge.Counters
	busy       time.Duration
	mallocs    uint64
	allocBytes uint64
	cpu        time.Duration
	gcCPU      float64
	allCPU     float64
	// Host CPU ticks from /proc/stat: time the hypervisor gave this
	// machine's CPUs to someone else, and all time. Zero off Linux.
	steal, ticks uint64
}

func (e *env) snap() snap {
	s := snap{at: time.Now(), stages: e.origin.StageStats(), srv: e.origin.Counters(), pool: e.pool.Counters()}
	for _, r := range e.reps {
		c := r.Counters()
		s.jobs.JobsShed += c.JobsShed
		s.jobs.JobsExpired += c.JobsExpired
	}
	if e.edge != nil {
		s.edge = e.edge.Counters()
	}
	for _, d := range e.devices {
		s.busy += time.Duration(d.busy.Load())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs, s.allocBytes = ms.Mallocs, ms.TotalAlloc
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	m := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(m)
	s.gcCPU, s.allCPU = floatOf(m[0]), floatOf(m[1])
	s.steal, s.ticks = hostTicks()
	return s
}

// hostTicks reads the steal and total ticks of /proc/stat's cpu line.
func hostTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

func floatOf(s metrics.Sample) float64 {
	if s.Value.Kind() == metrics.KindFloat64 {
		return s.Value.Float64()
	}
	return 0
}

// sample polls the heap and the brownout level every 10ms until the
// returned stop function is called; stop reports the peak heap in MB and
// the highest level seen.
func (o *outcome) sample(e *env) func() (float64, int) {
	stop, done := make(chan struct{}), make(chan struct{})
	var peak uint64
	level := 0
	read := func() {
		m := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		metrics.Read(m)
		if m[0].Value.Kind() == metrics.KindUint64 && m[0].Value.Uint64() > peak {
			peak = m[0].Value.Uint64()
		}
		if l := e.origin.BrownoutLevel(); l > level {
			level = l
		}
	}
	go func() {
		defer close(done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			read()
			select {
			case <-stop:
				read()
				return
			case <-t.C:
			}
		}
	}()
	return func() (float64, int) {
		close(stop)
		<-done
		return float64(peak) / (1 << 20), level
	}
}
