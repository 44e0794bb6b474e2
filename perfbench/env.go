package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/cluster"
	"github.com/neuroscaler/neuroscaler/internal/edge"
	"github.com/neuroscaler/neuroscaler/internal/media"
	"github.com/neuroscaler/neuroscaler/internal/sr"
	"github.com/neuroscaler/neuroscaler/internal/wire"
)

// spec is one workload's shape. Why each workload exists is in README.md.
type spec struct {
	name       string
	streams    int
	contents   int // distinct pre-encoded chunks the streams cycle through
	replicas   int
	fraction   float64       // anchor fraction of the origin
	deviceCost time.Duration // modelled device time per anchor
	edge       bool

	// live: one upload per stream every interval; subs subscriptions per
	// stream; one puller per stream fetches each acked chunk.
	interval time.Duration
	subs     int

	// vod: a lazily enhanced catalog of chunksPerStream chunks per stream,
	// fetched in windows of window consecutive chunks at fetchRate windows
	// per second with Zipf(1.0) stream popularity, in front of an edge
	// cache holding cacheShare of the catalog bytes.
	chunksPerStream int
	window          int
	fetchRate       float64
	warmup          time.Duration
	cacheShare      float64

	// burst: arrivals alternate a high phase (highShare of each period at
	// highLoad × device capacity) with a low one (lowLoad × capacity);
	// every chunk carries budget, and the brownout ladder is on.
	budget      time.Duration
	brownout    media.BrownoutConfig
	lowPriority int // streams announced as low priority
	period      time.Duration
	highShare   float64
	highLoad    float64
	lowLoad     float64
}

var workloads = []string{"live", "vod", "burst"}

// specFor returns a workload's spec; short shrinks it for the benchmark's
// own tests.
func specFor(name string, short bool) (spec, error) {
	model := sr.HighQuality()
	s := spec{name: name, contents: 8, replicas: 4, fraction: 0.075,
		deviceCost: cluster.InferLatency(model, lrW, lrH)}
	switch name {
	case "live":
		// 20 streams keep the per-stream cadence at half a core of origin
		// work on a 2-core host; 40 turned host CPU contention into 2-4x
		// latency swings.
		s.streams, s.interval, s.subs, s.edge = 20, 400*time.Millisecond, 8, true
		if short {
			s.streams, s.subs, s.contents = 6, 2, 3
		}
	case "vod":
		s.streams, s.chunksPerStream, s.window, s.fetchRate, s.edge = 64, 8, 4, 500, true
		s.warmup, s.cacheShare = time.Second, 1.0/3
		if short {
			s.streams, s.chunksPerStream, s.contents, s.window, s.fetchRate = 8, 3, 3, 2, 30
			s.warmup = 200 * time.Millisecond
		}
	case "burst":
		// The paper's 720p T4 price for one anchor, on two replicas.
		s.streams, s.replicas, s.fraction = 8, 2, 0.15
		s.deviceCost = cluster.InferLatency(model, 1280, 720)
		s.budget = time.Second
		s.brownout = media.BrownoutConfig{HighDelay: 100 * time.Millisecond, HoldOff: 250 * time.Millisecond}
		s.lowPriority = 2
		s.period, s.highShare, s.highLoad, s.lowLoad = 2*time.Second, 0.2, 2.5, 0.25
		if short {
			s.streams, s.lowPriority, s.contents = 4, 1, 3
		}
	default:
		return spec{}, fmt.Errorf("unknown workload %q (want one of %v)", name, workloads)
	}
	return s, nil
}

// env is one set-up instance: content, replicas, pool, origin, edge and
// the generator's connections.
type env struct {
	sp      spec
	c       *content
	devices []*device
	reps    []*media.EnhancerServer
	pool    *media.EnhancerPool
	origin  *media.Server
	edge    *edge.Edge
	ingest  []*ingestConn
	viewers []*viewerConn
	tr      *tracer // nil in the untraced run

	streamConn map[uint32]int // ingest connection per stream
	catalog    map[uint32][]int
	heldBytes  int64    // vod catalog bytes the edge cache is sized from
	warmed     int      // catalog chunks delivered during set-up
	violations []string // correctness violations found during set-up
}

// conns is the per-side connection bound: at most one per CPU.
func conns(n int) int {
	if p := runtime.NumCPU(); n > p {
		return p
	}
	return n
}

// setup builds an instance. Everything here counts toward setup_s.
func setup(sp spec, seed int64, traced bool) (e *env, err error) {
	e = &env{sp: sp, streamConn: make(map[uint32]int)}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	if traced {
		e.tr = newTracer()
	}
	if e.c, err = newContent(seed, sp.contents, sp.fraction); err != nil {
		return e, err
	}
	replicas := make([]media.Replica, sp.replicas)
	for i := range replicas {
		dev := newDevice(sp.deviceCost)
		local, err := media.NewLocalEnhancer(modelProvider(e.c, dev, e.tr))
		if err != nil {
			return e, err
		}
		srv, err := media.NewEnhancerServerWith("127.0.0.1:0", local, media.EnhancerServerConfig{Logf: discard})
		if err != nil {
			return e, err
		}
		e.devices = append(e.devices, dev)
		e.reps = append(e.reps, srv)
		addr, tr := srv.Addr(), e.tr
		replicas[i] = media.Replica{ID: fmt.Sprintf("r%d", i), Dial: func() (media.AnchorEnhancer, error) {
			r, err := media.DialEnhancerTimeout(addr, 0, 0)
			if err != nil || tr == nil {
				return r, err
			}
			return &tracedReplica{r: r, tr: tr}, nil
		}}
	}
	if e.pool, err = media.NewEnhancerPool(replicas, media.PoolConfig{Seed: seed, Logf: discard}); err != nil {
		return e, err
	}
	var enh media.AnchorEnhancer = e.pool
	if e.tr != nil {
		enh = &tracedPool{p: e.pool, tr: e.tr}
	}
	// NewServer sizes the in-flight bound by type-asserting the pool;
	// pinning it keeps the traced run the same program as the untraced.
	cfg := media.ServerConfig{
		AnchorFraction:     sp.fraction,
		MaxInFlightAnchors: media.DefaultEnhancerJobConcurrency * e.pool.Size(),
		Brownout:           sp.brownout,
		LazyEnhancement:    sp.chunksPerStream > 0,
		Logf:               discard,
	}
	if e.origin, err = media.NewServer("127.0.0.1:0", enh, cfg); err != nil {
		return e, err
	}
	for i := 0; i < conns(sp.streams); i++ {
		conn, err := net.Dial("tcp", e.origin.Addr())
		if err != nil {
			return e, err
		}
		e.ingest = append(e.ingest, &ingestConn{conn: conn, budget: sp.budget})
	}
	for s := 1; s <= sp.streams; s++ {
		id := uint32(s)
		ci := (s - 1) % len(e.ingest)
		e.streamConn[id] = ci
		h := e.c.hello
		if s <= sp.lowPriority {
			h.Priority = 1
		}
		if err := handshake(e.ingest[ci].conn, id, h); err != nil {
			return e, err
		}
	}
	if sp.chunksPerStream > 0 {
		if err := e.loadCatalog(seed); err != nil {
			return e, fmt.Errorf("catalog: %w", err)
		}
	}
	if sp.edge {
		if err := e.startEdge(); err != nil {
			return e, err
		}
	}
	if sp.chunksPerStream > 0 {
		if err := e.warmCatalog(); err != nil {
			return e, fmt.Errorf("catalog warm-up: %w", err)
		}
	}
	return e, nil
}

// warmCatalog fetches every catalog chunk once through the edge, so each
// lazy enhancement build runs in set-up and the measured run sees the
// steady state: edge misses served from the origin's store.
func (e *env) warmCatalog() error {
	var keys [][2]int
	for s := 1; s <= e.sp.streams; s++ {
		for q := range e.catalog[uint32(s)] {
			keys = append(keys, [2]int{s, q})
		}
	}
	type res struct {
		viol []string
		err  error
	}
	out := make(chan res, len(e.viewers))
	for i, v := range e.viewers {
		go func(i int, v *viewerConn) {
			var r res
			_ = v.conn.SetDeadline(time.Now().Add(time.Minute))
			defer v.conn.SetDeadline(time.Time{})
			for k := i; k < len(keys) && r.err == nil; k += len(e.viewers) {
				id, q := uint32(keys[k][0]), keys[k][1]
				seq := v.seqs.Next()
				r.err = wire.Write(v.conn, wire.Message{Type: wire.TypeFetchChunk, StreamID: id, Seq: seq, Budget: v.budget,
					Payload: wire.EncodeFetchChunk(wire.FetchChunk{Seq: uint32(q)})})
				var reply wire.Message
				if r.err == nil {
					reply, r.err = wire.Read(v.conn, wire.DefaultMaxPayload)
				}
				if r.err != nil {
					break
				}
				cd, err := wire.DecodeChunkDataAlias(reply.Payload)
				switch {
				case reply.Type != wire.TypeChunkData || reply.Seq != seq:
					r.err = fmt.Errorf("stream %d chunk %d: reply %v: %s", id, q, reply.Type, reply.Payload)
				case err != nil:
					r.err = err
				case cd.Degraded || int(cd.Seq) != q || !bytes.Equal(cd.Data, e.c.ref[e.catalog[id][q]]):
					r.viol = append(r.viol, fmt.Sprintf("warm-up stream %d chunk %d: container differs from the serial eager reference", id, q))
				}
			}
			out <- r
		}(i, v)
	}
	var first error
	for range e.viewers {
		r := <-out
		e.violations = append(e.violations, r.viol...)
		if r.err != nil && first == nil {
			first = r.err
		}
	}
	e.warmed = len(keys)
	return first
}

// loadCatalog ingests the vod catalog: stream s holds chunksPerStream
// chunks, a seeded rotation of the distinct chunks, so within a stream
// each distinct chunk appears at most once.
func (e *env) loadCatalog(seed int64) error {
	rng := newRand(seed, 1)
	e.catalog = make(map[uint32][]int)
	perConn := make([][]wire.Message, len(e.ingest))
	for s := 1; s <= e.sp.streams; s++ {
		id := uint32(s)
		off := rng.Intn(e.sp.contents)
		for q := 0; q < e.sp.chunksPerStream; q++ {
			c := (off + q) % e.sp.contents
			e.catalog[id] = append(e.catalog[id], c)
			e.heldBytes += int64(len(e.c.ref[c]))
			ci := e.streamConn[id]
			perConn[ci] = append(perConn[ci], wire.Message{Type: wire.TypeChunk, StreamID: id, Seq: uint32(q + 1), Payload: e.c.payloads[c]})
		}
	}
	errs := make(chan error, len(e.ingest))
	for i, c := range e.ingest {
		go func(conn net.Conn, msgs []wire.Message) {
			errs <- sendAndAck(conn, msgs)
		}(c.conn, perConn[i])
	}
	var first error
	for range e.ingest {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// sendAndAck pipelines msgs on conn and checks one in-order ack per chunk.
func sendAndAck(conn net.Conn, msgs []wire.Message) error {
	_ = conn.SetDeadline(time.Now().Add(time.Minute))
	defer conn.SetDeadline(time.Time{})
	werr := make(chan error, 1)
	go func() {
		for _, m := range msgs {
			if err := wire.Write(conn, m); err != nil {
				werr <- err
				return
			}
		}
		werr <- nil
	}()
	var err error
	for _, m := range msgs {
		reply, rerr := wire.Read(conn, wire.DefaultMaxPayload)
		if rerr != nil {
			err = rerr
			break
		}
		if reply.Type != wire.TypeAck || reply.Seq != m.Seq-1 {
			err = fmt.Errorf("stream %d chunk %d: reply %v seq %d: %s", m.StreamID, m.Seq-1, reply.Type, reply.Seq, reply.Payload)
			break
		}
	}
	if err != nil {
		conn.Close()
	}
	if werr := <-werr; err == nil {
		err = werr
	}
	return err
}

// startEdge starts the edge and the generator's viewer connections, with
// the live workload's subscriptions spread across them.
func (e *env) startEdge() error {
	cfg := edge.Config{Upstream: e.origin.Addr()}
	if e.heldBytes > 0 {
		cfg.CacheBytes = int64(float64(e.heldBytes) * e.sp.cacheShare)
	}
	if tr := e.tr; tr != nil {
		cfg.DialUpstream = func(addr string) (net.Conn, error) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return &timingConn{Conn: conn, tr: tr}, nil
		}
	}
	var err error
	if e.edge, err = edge.NewEdge("127.0.0.1:0", cfg); err != nil {
		return err
	}
	for i := 0; i < conns(e.sp.streams); i++ {
		conn, err := net.Dial("tcp", e.edge.Addr())
		if err != nil {
			return err
		}
		// A fetch's budget covers its whole stay at the edge and origin.
		e.viewers = append(e.viewers, &viewerConn{conn: conn, budget: 10 * time.Second, pending: make(map[uint32]*fetch)})
	}
	for s := 1; s <= e.sp.streams; s++ {
		for j := 0; j < e.sp.subs; j++ {
			if err := e.viewers[(s+j)%len(e.viewers)].subscribe(uint32(s)); err != nil {
				return err
			}
		}
	}
	return nil
}

// close tears the instance down, clients first.
func (e *env) close() {
	for _, c := range e.ingest {
		_ = c.conn.SetWriteDeadline(time.Now().Add(time.Second))
		_ = wire.Write(c.conn, wire.Message{Type: wire.TypeGoodbye})
		c.conn.Close()
	}
	for _, v := range e.viewers {
		v.conn.Close()
	}
	if e.edge != nil {
		e.edge.Close()
	}
	if e.origin != nil {
		e.origin.Close()
	}
	if e.pool != nil {
		e.pool.Close()
	}
	for _, r := range e.reps {
		r.Close()
	}
	for _, d := range e.devices {
		d.pace.close()
	}
}

// timedSetup sets an instance up and reports how long it took.
func timedSetup(sp spec, seed int64, traced bool) (*env, time.Duration, error) {
	start := time.Now()
	e, err := setup(sp, seed, traced)
	return e, time.Since(start), err
}

// sortUploads orders uploads by due time (ties by stream) for a writer.
func sortUploads(ups []*upload) {
	sort.Slice(ups, func(a, b int) bool {
		if !ups[a].due.Equal(ups[b].due) {
			return ups[a].due.Before(ups[b].due)
		}
		return ups[a].stream < ups[b].stream
	})
}

// newRand derives an independent seeded source per use, so adding a draw
// to one part of the schedule never shifts another's.
func newRand(seed int64, use int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + use))
}
