//go:build !(linux && (amd64 || arm64))

package main

import "time"

// pacer waits until a given time; without a 64-bit Linux timerfd it is a
// plain sleep.
type pacer struct{}

func newPacer() *pacer { return &pacer{} }

func (p *pacer) until(t time.Time) { time.Sleep(time.Until(t)) }

func (p *pacer) close() {}
