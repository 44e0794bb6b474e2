// Package faults provides deterministic, seeded fault injection for the
// NeuroScaler serving tier. Faults are decided by a seeded PRNG, never by
// wall-clock sampling, so a test that performs the same sequence of
// operations with the same seed observes the same faults on every run.
//
// Two injection boundaries are supported:
//
//   - the net.Conn boundary (Conn): connection drops, corrupted bytes,
//     latency spikes, and plain I/O errors on the wire, upstream of the
//     wire package's CRC framing;
//   - the AnchorEnhancer boundary (FlakyEnhancer): per-anchor outcome
//     errors, stalls, and corrupted anchor payloads from an enhancer
//     replica, one injector draw per batch member.
//
// A Gate is an explicit kill switch layered on either boundary; chaos
// tests use it to take a replica down and bring it back at exact points
// in the workload, independent of any probability schedule.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected marks a failure produced by the injector rather than the
// system under test.
var ErrInjected = errors.New("faults: injected failure")

// ErrKilled marks a call rejected because the replica's Gate is down.
var ErrKilled = errors.New("faults: replica killed")

// Kind identifies one fault class.
type Kind int

const (
	// None means the operation proceeds unharmed.
	None Kind = iota
	// Error fails the operation with ErrInjected, leaving state intact.
	Error
	// Stall delays the operation by Config.StallFor before proceeding.
	Stall
	// Drop tears down the underlying transport (conns close; enhancers
	// fail as if the peer vanished).
	Drop
	// Corrupt damages the payload: a flipped byte on the wire (caught by
	// the CRC frame check) or a truncated anchor payload from an enhancer
	// (caught by server-side anchor validation).
	Corrupt

	numKinds
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Error:
		return "error"
	case Stall:
		return "stall"
	case Drop:
		return "drop"
	case Corrupt:
		return "corrupt"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Config sets per-operation fault probabilities. Rates are cumulative
// per draw: at most one fault fires per operation, and the sum of the
// rates must not exceed 1.
type Config struct {
	ErrorRate   float64
	StallRate   float64
	DropRate    float64
	CorruptRate float64
	// StallFor is the injected delay for Stall faults. Keep it small in
	// tests; determinism never depends on it because deadlines, not test
	// assertions, are what stalls exercise.
	StallFor time.Duration
}

func (c Config) total() float64 {
	return c.ErrorRate + c.StallRate + c.DropRate + c.CorruptRate
}

// Injector draws faults from a seeded schedule. It is safe for
// concurrent use; under concurrency the assignment of draws to callers
// follows goroutine interleaving, but the drawn sequence itself is fixed
// by the seed.
type Injector struct {
	mu      sync.Mutex
	rng     *rand.Rand
	cfg     Config
	enabled bool
	counts  [numKinds]int64
}

// NewInjector returns an enabled injector with the given seed and rates.
func NewInjector(seed int64, cfg Config) (*Injector, error) {
	if t := cfg.total(); t < 0 || t > 1 {
		return nil, fmt.Errorf("faults: rates sum to %v, want [0, 1]", t)
	}
	return &Injector{rng: rand.New(rand.NewSource(seed)), cfg: cfg, enabled: true}, nil
}

// MustInjector is NewInjector for tests with static configs.
func MustInjector(seed int64, cfg Config) *Injector {
	in, err := NewInjector(seed, cfg)
	if err != nil {
		panic(err)
	}
	return in
}

// SetEnabled toggles injection; a disabled injector always draws None
// and does not advance the schedule.
func (in *Injector) SetEnabled(on bool) {
	in.mu.Lock()
	in.enabled = on
	in.mu.Unlock()
}

// Next draws the fault for the next operation.
func (in *Injector) Next() Kind {
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.enabled {
		return None
	}
	k := None
	x := in.rng.Float64()
	switch c := in.cfg; {
	case x < c.ErrorRate:
		k = Error
	case x < c.ErrorRate+c.StallRate:
		k = Stall
	case x < c.ErrorRate+c.StallRate+c.DropRate:
		k = Drop
	case x < c.total():
		k = Corrupt
	}
	in.counts[k]++
	return k
}

// intn draws a deterministic index in [0, n) from the same schedule,
// used to pick which byte to corrupt.
func (in *Injector) intn(n int) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.rng.Intn(n)
}

// StallFor returns the configured stall duration.
func (in *Injector) StallFor() time.Duration { return in.cfg.StallFor }

// Count returns how many times kind has been drawn.
func (in *Injector) Count(kind Kind) int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.counts[kind]
}

// Injected returns the total number of non-None draws.
func (in *Injector) Injected() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	var n int64
	for k := Kind(1); k < numKinds; k++ {
		n += in.counts[k]
	}
	return n
}

// Gate is an explicit replica kill switch: chaos tests Kill a replica at
// a chosen point in the workload and Revive it later. The zero value is
// alive.
type Gate struct {
	dead atomic.Bool
}

// Kill takes the replica down; calls fail with ErrKilled until Revive.
func (g *Gate) Kill() { g.dead.Store(true) }

// Revive brings the replica back.
func (g *Gate) Revive() { g.dead.Store(false) }

// Dead reports whether the replica is down.
func (g *Gate) Dead() bool { return g.dead.Load() }
