package media

import (
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/wire"
)

// BreakerState is a per-replica circuit-breaker state.
type BreakerState int32

const (
	// BreakerClosed admits every call.
	BreakerClosed BreakerState = iota
	// BreakerOpen rejects calls until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen admits a single probe call; its outcome closes or
	// reopens the breaker.
	BreakerHalfOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", int32(s))
	}
}

// PoolConfig tunes the fault-tolerance envelope of an EnhancerPool.
type PoolConfig struct {
	// MaxRetries is the number of extra attempts per anchor job after
	// the first failure (each preferring a replica not yet tried).
	// Default 2.
	MaxRetries int
	// RetryBaseDelay seeds the exponential backoff between attempts;
	// the delay for attempt k is base·2ᵏ halved-jittered, capped at
	// RetryMaxDelay. Default 5ms, capped at 250ms.
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration
	// BreakerThreshold is the consecutive-failure count that opens a
	// replica's breaker. Default 3.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects calls before
	// admitting a half-open probe. Default 500ms.
	BreakerCooldown time.Duration
	// HeartbeatInterval enables background liveness probes: open
	// breakers past their cooldown get probed (and closed on success)
	// without waiting for traffic, and silently dead replicas are
	// detected early. Zero disables the loop; call-path probing still
	// recovers replicas.
	HeartbeatInterval time.Duration
	// Seed fixes the retry-jitter schedule for deterministic tests.
	Seed int64
	// Logf receives diagnostics; nil uses the standard logger.
	Logf func(string, ...any)
}

func (c PoolConfig) withDefaults() PoolConfig {
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.RetryBaseDelay <= 0 {
		c.RetryBaseDelay = 5 * time.Millisecond
	}
	if c.RetryMaxDelay <= 0 {
		c.RetryMaxDelay = 250 * time.Millisecond
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 500 * time.Millisecond
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// Replica is one enhancer endpoint of a pool.
type Replica struct {
	// ID names the replica in logs and state reports.
	ID string
	// Dial (re)connects to the replica. It is invoked lazily on first
	// use and again after the pool discards a broken enhancer.
	Dial func() (AnchorEnhancer, error)
}

// StaticReplica wraps an in-process enhancer (tests, single-node pools).
func StaticReplica(id string, e AnchorEnhancer) Replica {
	return Replica{ID: id, Dial: func() (AnchorEnhancer, error) { return e, nil }}
}

// TCPReplica dials a remote EnhancerServer with per-call deadlines.
func TCPReplica(addr string, dialTimeout, callTimeout time.Duration) Replica {
	return Replica{ID: addr, Dial: func() (AnchorEnhancer, error) {
		return DialEnhancerTimeout(addr, dialTimeout, callTimeout)
	}}
}

// PoolCounters is a snapshot of a pool's fault-handling activity.
type PoolCounters struct {
	Calls           uint64 `json:"calls"`
	Retries         uint64 `json:"retries"`
	Failovers       uint64 `json:"failovers"`
	BreakerOpens    uint64 `json:"breaker_opens"`
	BreakerCloses   uint64 `json:"breaker_closes"`
	Heartbeats      uint64 `json:"heartbeats"`
	Unavailable     uint64 `json:"unavailable"`
	DeadlineExpired uint64 `json:"deadline_expired"`
}

type poolCounters struct {
	calls, retries, failovers   atomic.Uint64
	breakerOpens, breakerCloses atomic.Uint64
	heartbeats, unavailable     atomic.Uint64
	deadlineExpired             atomic.Uint64
}

// EnhancerPool is an AnchorEnhancer over N replicas with bounded retry
// (exponential backoff + seeded jitter), per-replica circuit breakers
// (closed → open → half-open), heartbeat health checks, automatic
// reconnect, and failover of failed anchor jobs to healthy replicas.
// When every replica is exhausted it returns ErrEnhancerUnavailable and
// the server degrades the chunk rather than failing it.
type EnhancerPool struct {
	cfg      PoolConfig
	replicas []*poolReplica

	jitterMu sync.Mutex
	// jitter is guarded by jitterMu.
	jitter *rand.Rand

	helloMu sync.Mutex
	// hellos and helloEpoch are guarded by helloMu.
	hellos     map[uint32]wire.Hello
	helloEpoch uint64

	// rr is the lock-free round-robin cursor.
	rr       atomic.Uint64
	counters poolCounters

	closed  chan struct{}
	closeWG sync.WaitGroup
	once    sync.Once
}

// NewEnhancerPool builds a pool over the given replicas.
func NewEnhancerPool(replicas []Replica, cfg PoolConfig) (*EnhancerPool, error) {
	if len(replicas) == 0 {
		return nil, errors.New("media: pool needs at least one replica")
	}
	p := &EnhancerPool{
		cfg:    cfg.withDefaults(),
		jitter: rand.New(rand.NewSource(cfg.Seed)),
		hellos: make(map[uint32]wire.Hello),
		closed: make(chan struct{}),
	}
	for i, r := range replicas {
		if r.Dial == nil {
			return nil, fmt.Errorf("media: replica %d has no dial function", i)
		}
		id := r.ID
		if id == "" {
			id = fmt.Sprintf("replica-%d", i)
		}
		p.replicas = append(p.replicas, &poolReplica{id: id, dialFn: r.Dial, pool: p})
	}
	if p.cfg.HeartbeatInterval > 0 {
		p.closeWG.Add(1)
		go p.heartbeatLoop()
	}
	return p, nil
}

// Close stops the heartbeat loop and closes every connected replica.
func (p *EnhancerPool) Close() error {
	p.once.Do(func() { close(p.closed) })
	p.closeWG.Wait()
	for _, r := range p.replicas {
		// Detach under the replica lock, close outside it: a remote
		// enhancer's Close takes its own locks and writes a goodbye
		// frame, and poolReplica.mu must not be held across either.
		r.mu.Lock()
		enh := r.enh
		r.enh = nil
		r.mu.Unlock()
		if c, ok := enh.(io.Closer); ok {
			_ = c.Close()
		}
	}
	return nil
}

// Size returns the number of replicas in the pool (healthy or not).
func (p *EnhancerPool) Size() int { return len(p.replicas) }

// Counters returns a snapshot of the pool's activity.
func (p *EnhancerPool) Counters() PoolCounters {
	return PoolCounters{
		Calls:           p.counters.calls.Load(),
		Retries:         p.counters.retries.Load(),
		Failovers:       p.counters.failovers.Load(),
		BreakerOpens:    p.counters.breakerOpens.Load(),
		BreakerCloses:   p.counters.breakerCloses.Load(),
		Heartbeats:      p.counters.heartbeats.Load(),
		Unavailable:     p.counters.unavailable.Load(),
		DeadlineExpired: p.counters.deadlineExpired.Load(),
	}
}

// ReplicaStates reports each replica's breaker state by ID.
func (p *EnhancerPool) ReplicaStates() map[string]BreakerState {
	out := make(map[string]BreakerState, len(p.replicas))
	for _, r := range p.replicas {
		r.mu.Lock()
		out[r.id] = r.state
		r.mu.Unlock()
	}
	return out
}

// Register saves the stream's hello and eagerly announces it to every
// replica that is currently reachable; replicas that connect (or
// reconnect) later pick it up before their first job.
func (p *EnhancerPool) Register(streamID uint32, h wire.Hello) error {
	p.helloMu.Lock()
	p.hellos[streamID] = h
	p.helloEpoch++
	p.helloMu.Unlock()
	registered := 0
	for _, r := range p.replicas {
		if err := r.syncRegistrations(time.Now()); err == nil {
			registered++
		}
	}
	if registered == 0 {
		return fmt.Errorf("media: stream %d registered on 0/%d replicas: %w",
			streamID, len(p.replicas), ErrEnhancerUnavailable)
	}
	return nil
}

// Enhance is EnhanceBatch for a batch of one: the retry ladder below for
// a single job. It is kept for callers holding a single anchor (benchmark
// tracing); the serving path never calls it.
func (p *EnhancerPool) Enhance(streamID uint32, job wire.AnchorJob) (wire.AnchorResult, error) {
	return enhanceOne(p, streamID, job)
}

// retryLadder runs one anchor job (job holds exactly one) with retry,
// failover, and breaker bookkeeping: each attempt is a one-job dispatch,
// preferring replicas not yet tried for this job.
//
// A job without a deadline gets the legacy fixed ladder: MaxRetries+1
// attempts with full jittered backoff between them. A job with a
// deadline is instead capped by its remaining budget — attempts keep
// going while budget remains (even past MaxRetries, since a healthy
// replica may still land the anchor in time), every backoff sleep is
// truncated to the remaining budget, and the ladder exits with a typed
// ErrDeadlineExceeded the moment the budget runs out. Sleeping past the
// chunk's deadline to honor a fixed attempt count would only delay the
// degraded chunk it ships regardless.
func (p *EnhancerPool) retryLadder(streamID uint32, job []wire.AnchorJob) (wire.AnchorResult, error) {
	p.counters.calls.Add(1)
	deadline := job[0].Deadline
	if expired(deadline, time.Now()) {
		p.counters.deadlineExpired.Add(1)
		return wire.AnchorResult{}, fmt.Errorf("media: anchor %d of stream %d: budget spent before first attempt: %w",
			job[0].Packet, streamID, ErrDeadlineExceeded)
	}
	attempts := p.cfg.MaxRetries + 1
	tried := make(map[*poolReplica]bool, len(p.replicas))
	var lastErr error
	attempt := 0
	for {
		if attempt > 0 {
			if deadline.IsZero() && attempt >= attempts {
				break
			}
			d := p.backoff(attempt - 1)
			if !deadline.IsZero() {
				remaining := time.Until(deadline)
				if remaining <= 0 {
					break
				}
				if d > remaining {
					d = remaining
				}
			}
			p.counters.retries.Add(1)
			time.Sleep(d)
			if expired(deadline, time.Now()) {
				break
			}
		}
		rep := p.next(tried)
		if rep == nil {
			// Every replica tried or breaker-rejected this round; start a
			// fresh round (a cooldown may have elapsed by the next try).
			clear(tried)
			rep = p.next(tried)
		}
		if rep == nil {
			lastErr = fmt.Errorf("all %d breakers open", len(p.replicas))
			attempt++
			continue
		}
		tried[rep] = true
		if attempt > 0 {
			p.counters.failovers.Add(1)
		}
		outs, err := rep.dispatch(streamID, job)
		if err == nil {
			if outs[0].Err == nil {
				return outs[0].Res, nil
			}
			err = fmt.Errorf("replica %s: %w", rep.id, outs[0].Err)
		}
		lastErr = err
		p.cfg.Logf("media: pool replica %s anchor %d stream %d: %v", rep.id, job[0].Packet, streamID, err)
		attempt++
	}
	if !deadline.IsZero() {
		p.counters.deadlineExpired.Add(1)
		return wire.AnchorResult{}, fmt.Errorf("media: anchor %d of stream %d: budget spent after %d attempts (%v): %w",
			job[0].Packet, streamID, attempt, lastErr, ErrDeadlineExceeded)
	}
	p.counters.unavailable.Add(1)
	return wire.AnchorResult{}, fmt.Errorf("media: anchor %d of stream %d failed after %d attempts (%v): %w",
		job[0].Packet, streamID, attempts, lastErr, ErrEnhancerUnavailable)
}

// EnhanceBatch implements AnchorEnhancer: one batched attempt on a
// round-robin-admitted replica amortizes the per-anchor round trip, then
// any anchor the batch did not land falls over to the full per-anchor
// retry ladder. A mid-batch fault therefore degrades only the anchors it
// actually touched: the siblings keep their batch results and the failed
// ones get the same retry/failover treatment a lone anchor gets. A batch
// of one goes straight to the ladder, whose first attempt is that batch.
// Outcomes carry every failure; the batch-level error is always nil.
func (p *EnhancerPool) EnhanceBatch(streamID uint32, jobs []wire.AnchorJob) ([]AnchorOutcome, error) {
	if len(jobs) == 0 {
		return nil, nil
	}
	outs := make([]AnchorOutcome, len(jobs))
	if len(jobs) == 1 {
		outs[0].Res, outs[0].Err = p.retryLadder(streamID, jobs)
		return outs, nil
	}
	done := make([]bool, len(jobs))
	// Skip the batch round trip when the whole batch has already
	// expired; the per-anchor rescue below answers each job with the
	// typed deadline error (and charges the counter) without any wire
	// traffic.
	if !expired(minJobDeadline(jobs), time.Now()) {
		p.batchAttempt(streamID, jobs, outs, done)
	}
	// Per-anchor rescue: counters are charged by the ladder itself, so
	// the batch attempt above stays invisible to the per-anchor call
	// ledger. Rescued anchors fan out concurrently — the parallelism the
	// server gives lone anchors — and outcomes land by index, so
	// completion order never shows in the result.
	var wg sync.WaitGroup
	for i := range jobs {
		if done[i] {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i].Res, outs[i].Err = p.retryLadder(streamID, jobs[i:i+1])
		}(i)
	}
	wg.Wait()
	return outs, nil
}

// batchAttempt runs one batched dispatch on a round-robin-admitted
// replica, marking the anchors it landed in done.
func (p *EnhancerPool) batchAttempt(streamID uint32, jobs []wire.AnchorJob, outs []AnchorOutcome, done []bool) {
	rep := p.next(make(map[*poolReplica]bool, len(p.replicas)))
	if rep == nil {
		return
	}
	bouts, err := rep.dispatch(streamID, jobs)
	if err != nil {
		p.cfg.Logf("media: pool replica %s batch of %d stream %d: %v", rep.id, len(jobs), streamID, err)
		return
	}
	for i, o := range bouts {
		if o.Err == nil {
			outs[i] = o
			done[i] = true
		}
	}
}

// next picks the first admissible replica in round-robin order that is
// not in tried; breaker-rejected replicas are skipped (and marked tried
// for this round).
func (p *EnhancerPool) next(tried map[*poolReplica]bool) *poolReplica {
	start := int(p.rr.Add(1)) - 1
	now := time.Now()
	for i := 0; i < len(p.replicas); i++ {
		rep := p.replicas[(start+i)%len(p.replicas)]
		if tried[rep] {
			continue
		}
		if rep.admit(now) {
			return rep
		}
		tried[rep] = true
	}
	return nil
}

// backoff returns the jittered exponential delay for retry k.
func (p *EnhancerPool) backoff(k int) time.Duration {
	d := p.cfg.RetryBaseDelay << uint(k)
	if d > p.cfg.RetryMaxDelay || d <= 0 {
		d = p.cfg.RetryMaxDelay
	}
	p.jitterMu.Lock()
	j := time.Duration(p.jitter.Int63n(int64(d)/2 + 1))
	p.jitterMu.Unlock()
	return d/2 + j
}

func (p *EnhancerPool) heartbeatLoop() {
	defer p.closeWG.Done()
	t := time.NewTicker(p.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-p.closed:
			return
		case <-t.C:
			p.Heartbeat()
		}
	}
}

// Heartbeat probes every admissible replica once: open breakers past
// their cooldown get a half-open probe (closing them on success without
// waiting for traffic), and dead-but-closed replicas accumulate failures
// toward opening. It is exported so tests and operators can force a
// health sweep.
func (p *EnhancerPool) Heartbeat() {
	for _, rep := range p.replicas {
		now := time.Now()
		if !rep.admit(now) {
			continue
		}
		p.counters.heartbeats.Add(1)
		err := rep.ping(now)
		if err != nil {
			p.cfg.Logf("media: pool replica %s heartbeat: %v", rep.id, err)
		}
	}
}

// poolReplica is one replica plus its breaker state machine.
type poolReplica struct {
	id     string
	dialFn func() (AnchorEnhancer, error)
	pool   *EnhancerPool

	mu sync.Mutex
	// Breaker and registration state, guarded by mu.
	enh        AnchorEnhancer
	state      BreakerState
	fails      int
	openedAt   time.Time
	probing    bool
	regEpoch   uint64
	registered map[uint32]bool
}

// admit runs the breaker's admission decision for one call at time now:
// closed admits, open admits one probe after the cooldown (moving to
// half-open), half-open rejects while its probe is in flight.
func (r *poolReplica) admit(now time.Time) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch r.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if now.Sub(r.openedAt) < r.pool.cfg.BreakerCooldown {
			return false
		}
		r.state = BreakerHalfOpen
		r.probing = true
		return true
	case BreakerHalfOpen:
		if r.probing {
			return false
		}
		r.probing = true
		return true
	}
	return false
}

// connectLocked dials the replica if needed. Callers hold r.mu.
func (r *poolReplica) connectLocked() error {
	if r.enh != nil {
		return nil
	}
	enh, err := r.dialFn()
	if err != nil {
		return fmt.Errorf("dial: %w", err)
	}
	r.enh = enh
	r.regEpoch = 0
	r.registered = nil
	return nil
}

// syncRegistrationsLocked replays hellos the replica has not seen (a
// fresh connection, or streams registered since). Callers hold r.mu.
//
// The replica lock is deliberately held across the enhancer's Register
// call: it serializes connection state and registration replay per
// replica. The enhancer's internal locks nest strictly below it — no
// enhancer method calls back into the pool — so the layering below is
// part of the documented repo lock order (DESIGN.md "Invariants").
//
//nslint:lock-order poolReplica.mu -> LocalEnhancer.mu -- enhancer locks nest below the replica lock; enhancers never call back into the pool
//nslint:lock-order poolReplica.mu -> RemoteEnhancer.mu -- enhancer locks nest below the replica lock; enhancers never call back into the pool
//nslint:lock-order poolReplica.mu -> RemoteEnhancer.writeMu -- enhancer locks nest below the replica lock; enhancers never call back into the pool
func (r *poolReplica) syncRegistrationsLocked() error {
	p := r.pool
	p.helloMu.Lock()
	epoch := p.helloEpoch
	pending := make(map[uint32]wire.Hello, len(p.hellos))
	for id, h := range p.hellos {
		if !r.registered[id] {
			pending[id] = h
		}
	}
	p.helloMu.Unlock()
	if r.regEpoch == epoch {
		return nil
	}
	reg, ok := r.enh.(registrar)
	if !ok {
		r.regEpoch = epoch
		return nil
	}
	for id, h := range pending {
		//nslint:disable lockorder -- interface over-approximation: r.enh is a leaf enhancer handed in at pool construction, never the pool itself, so Register cannot re-enter poolReplica.mu
		if err := reg.Register(id, h); err != nil {
			return fmt.Errorf("register stream %d: %w", id, err)
		}
		if r.registered == nil {
			r.registered = make(map[uint32]bool)
		}
		r.registered[id] = true
	}
	r.regEpoch = epoch
	return nil
}

// syncRegistrations connects and replays registrations, reporting the
// outcome to the breaker.
func (r *poolReplica) syncRegistrations(now time.Time) error {
	if !r.admit(now) {
		return fmt.Errorf("replica %s: breaker open", r.id)
	}
	r.mu.Lock()
	err := r.connectLocked()
	if err == nil {
		err = r.syncRegistrationsLocked()
	}
	r.mu.Unlock()
	r.report(err == nil, time.Now())
	if err != nil {
		r.dropIfUnavailable(err)
	}
	return err
}

// dispatch runs one admitted batch on this replica, handling connect,
// registration replay, and breaker reporting. Per-anchor job failures
// ride back inside the outcomes; the error return voids the whole
// dispatch (transport failure or protocol violation). The breaker hears
// exactly one report per dispatch: a one-job batch (a retry-ladder
// attempt) is charged on its job's outcome, a larger batch only on a
// batch-level error, since the ladder rescues and charges its failed
// members itself.
func (r *poolReplica) dispatch(streamID uint32, jobs []wire.AnchorJob) ([]AnchorOutcome, error) {
	r.mu.Lock()
	err := r.connectLocked()
	if err == nil {
		err = r.syncRegistrationsLocked()
	}
	enh := r.enh
	r.mu.Unlock()
	var outs []AnchorOutcome
	if err == nil {
		outs, err = enh.EnhanceBatch(streamID, jobs)
	}
	if err == nil && len(outs) != len(jobs) {
		err = fmt.Errorf("returned %d outcomes for %d jobs", len(outs), len(jobs))
	}
	if err == nil {
		for i := range outs {
			if outs[i].Err == nil && outs[i].Res.Packet != jobs[i].Packet {
				outs[i] = AnchorOutcome{Err: fmt.Errorf("replica %s returned anchor %d for job %d",
					r.id, outs[i].Res.Packet, jobs[i].Packet)}
			}
		}
	}
	charged := err
	if charged == nil && len(jobs) == 1 {
		charged = outs[0].Err
	}
	r.report(charged == nil, time.Now())
	if charged != nil {
		r.dropIfUnavailable(charged)
	}
	if err != nil {
		return nil, fmt.Errorf("replica %s: %w", r.id, err)
	}
	return outs, nil
}

// dropIfUnavailable discards the cached enhancer after a transport-level
// failure so the next admitted call re-dials and replays registrations.
func (r *poolReplica) dropIfUnavailable(err error) {
	if !errors.Is(err, ErrEnhancerUnavailable) {
		return
	}
	// Detach under the replica lock, close outside it (same discipline
	// as EnhancerPool.Close).
	r.mu.Lock()
	enh := r.enh
	r.enh = nil
	r.registered = nil
	r.regEpoch = 0
	r.mu.Unlock()
	if c, ok := enh.(io.Closer); ok {
		_ = c.Close()
	}
}

// ping probes the replica (connect + optional Ping + registration
// replay) and reports the outcome to the breaker.
func (r *poolReplica) ping(now time.Time) error {
	r.mu.Lock()
	err := r.connectLocked()
	if err == nil {
		if pg, ok := r.enh.(pinger); ok {
			err = pg.Ping()
		}
		if err == nil {
			err = r.syncRegistrationsLocked()
		}
	}
	r.mu.Unlock()
	r.report(err == nil, time.Now())
	if err != nil {
		r.dropIfUnavailable(err)
	}
	return err
}

// report feeds one call outcome into the breaker state machine.
func (r *poolReplica) report(ok bool, now time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.probing = false
	if ok {
		if r.state != BreakerClosed {
			r.state = BreakerClosed
			r.pool.counters.breakerCloses.Add(1)
			r.pool.cfg.Logf("media: pool replica %s: breaker closed", r.id)
		}
		r.fails = 0
		return
	}
	r.fails++
	switch r.state {
	case BreakerHalfOpen:
		// The probe failed: reopen and restart the cooldown.
		r.state = BreakerOpen
		r.openedAt = now
		r.pool.counters.breakerOpens.Add(1)
	case BreakerClosed:
		if r.fails >= r.pool.cfg.BreakerThreshold {
			r.state = BreakerOpen
			r.openedAt = now
			r.pool.counters.breakerOpens.Add(1)
			r.pool.cfg.Logf("media: pool replica %s: breaker opened after %d consecutive failures", r.id, r.fails)
		}
	}
}

var _ AnchorEnhancer = (*EnhancerPool)(nil)
var _ registrar = (*EnhancerPool)(nil)
