package main

import (
	"sync/atomic"
	"time"

	"github.com/neuroscaler/neuroscaler/internal/frame"
	"github.com/neuroscaler/neuroscaler/internal/sr"
	"github.com/neuroscaler/neuroscaler/internal/wire"
)

// device models one replica's accelerator: it runs one anchor at a time
// for a fixed price, and anchors queue for it in arrival order.
type device struct {
	slot chan struct{} // a one-slot semaphore; blocked senders queue FIFO
	cost time.Duration
	pace *pacer       // used only by the slot's holder
	busy atomic.Int64 // nanoseconds held
}

func newDevice(cost time.Duration) *device {
	return &device{slot: make(chan struct{}, 1), cost: cost, pace: newPacer()}
}

// run charges one anchor: wait for the device, hold it for the price.
func (d *device) run() (wait, busy time.Duration) {
	t0 := time.Now()
	d.slot <- struct{}{}
	t1 := time.Now()
	d.pace.until(t1.Add(d.cost))
	t2 := time.Now()
	<-d.slot
	d.busy.Add(int64(t2.Sub(t1)))
	return t1.Sub(t0), t2.Sub(t1)
}

// deviceModel is the sr.Model a replica's LocalEnhancer applies: the
// oracle's CPU work plus the modelled device charge for the frame. It
// charges the device in every run; with a tracer it also records a span.
type deviceModel struct {
	inner  sr.Model
	dev    *device
	stream uint32
	tr     *tracer
}

func (m *deviceModel) Config() sr.ModelConfig { return m.inner.Config() }

func (m *deviceModel) Apply(lr *frame.Frame, displayIndex int) (*frame.Frame, error) {
	start := time.Now()
	wait, busy := m.dev.run()
	t := time.Now()
	out, err := m.inner.Apply(lr, displayIndex)
	if m.tr != nil {
		m.tr.add(span{
			Name: "model.apply", Stream: m.stream, Index: displayIndex, N: 1,
			Start: m.tr.at(start), Dur: time.Since(start),
			Wait: wait, Busy: busy, Self: time.Since(t),
		})
	}
	return out, err
}

// modelProvider binds each stream's oracle model to a replica's device.
func modelProvider(c *content, dev *device, tr *tracer) func(uint32, wire.Hello) (sr.Model, error) {
	return func(streamID uint32, h wire.Hello) (sr.Model, error) {
		inner, err := c.provider(streamID, h)
		if err != nil {
			return nil, err
		}
		return &deviceModel{inner: inner, dev: dev, stream: streamID, tr: tr}, nil
	}
}
