package faults

import (
	"fmt"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/wire"
)

// Enhancer mirrors media.AnchorEnhancer without importing it, so the
// fault tiers satisfy the media interface structurally: one method, one
// outcome per job in job order, a job's own failure in its outcome and
// a batch-level error only for a failure voiding the whole dispatch.
type Enhancer interface {
	EnhanceBatch(streamID uint32, jobs []wire.AnchorJob) ([]wire.AnchorOutcome, error)
}

// FlakyEnhancer injects faults in front of an enhancer replica. Corrupt
// faults truncate the encoded anchor to a few bytes — guaranteed to fail
// the server's anchor validation rather than silently shipping garbage
// pixels.
type FlakyEnhancer struct {
	Inner Enhancer
	Inj   *Injector
	// Gate, when non-nil, is the replica kill switch.
	Gate *Gate
}

// EnhanceBatch applies faults per anchor: each batch member gets its own
// injector draw, so a seeded fault mid-batch degrades only the anchors it
// hits (as outcome errors) while the siblings return their real results.
// A dead gate fails the whole batch like the dropped connection it
// models.
func (f *FlakyEnhancer) EnhanceBatch(streamID uint32, jobs []wire.AnchorJob) ([]wire.AnchorOutcome, error) {
	if f.Gate != nil && f.Gate.Dead() {
		return nil, fmt.Errorf("faults: enhance stream %d: %w", streamID, ErrKilled)
	}
	outs := make([]wire.AnchorOutcome, len(jobs))
	for i := range jobs {
		fault := f.Inj.Next()
		switch fault {
		case Error:
			outs[i].Err = fmt.Errorf("faults: enhance stream %d: %w", streamID, ErrInjected)
			continue
		case Drop:
			outs[i].Err = fmt.Errorf("faults: enhancer connection dropped: %w", ErrInjected)
			continue
		case Stall:
			time.Sleep(f.Inj.StallFor())
		}
		outs[i] = enhanceOne(f.Inner, streamID, jobs[i:i+1])
		if fault == Corrupt && len(outs[i].Res.Encoded) > 3 {
			outs[i].Res.Encoded = outs[i].Res.Encoded[:3]
		}
	}
	return outs, nil
}

// enhanceOne runs a one-job batch on e, folding a batch-level error into
// the job's outcome.
func enhanceOne(e Enhancer, streamID uint32, job []wire.AnchorJob) wire.AnchorOutcome {
	outs, err := e.EnhanceBatch(streamID, job)
	if err == nil && len(outs) != 1 {
		err = fmt.Errorf("faults: inner enhancer returned %d outcomes for a batch of 1", len(outs))
	}
	if err != nil {
		return wire.AnchorOutcome{Err: err}
	}
	return outs[0]
}

// Register forwards per-stream registration when the inner replica
// supports it, so a FlakyEnhancer drops into any place a registering
// enhancer fits. A dead gate rejects registration like any other call.
func (f *FlakyEnhancer) Register(streamID uint32, h wire.Hello) error {
	if f.Gate != nil && f.Gate.Dead() {
		return fmt.Errorf("faults: register stream %d: %w", streamID, ErrKilled)
	}
	type registrar interface {
		Register(uint32, wire.Hello) error
	}
	if r, ok := f.Inner.(registrar); ok {
		return r.Register(streamID, h)
	}
	return nil
}

// Ping reports replica liveness for heartbeat-based health checks.
func (f *FlakyEnhancer) Ping() error {
	if f.Gate != nil && f.Gate.Dead() {
		return fmt.Errorf("faults: ping: %w", ErrKilled)
	}
	type pinger interface{ Ping() error }
	if p, ok := f.Inner.(pinger); ok {
		return p.Ping()
	}
	return nil
}
