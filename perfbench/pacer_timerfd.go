//go:build linux && (amd64 || arm64)

package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer waits until a given time. Go timers fire up to a millisecond late
// on an idle process, which is more than a vod fetch takes; a Linux timer
// file descriptor fires within microseconds and wakes the network poller,
// so the waiting goroutine neither spins nor holds a processor. A pacer is
// used by one goroutine at a time.
type pacer struct {
	fd int      // the timerfd, for arming; f.Fd() would make it blocking
	f  *os.File // the same descriptor, read through the poller
}

func newPacer() *pacer {
	const clockMonotonic, nonblock, cloexec = 1, 0x800, 0x80000
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, nonblock|cloexec, 0)
	if errno != 0 {
		return &pacer{fd: -1}
	}
	return &pacer{fd: int(fd), f: os.NewFile(fd, "timerfd")}
}

// until returns at t, or at once when t has passed.
func (p *pacer) until(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	if p.f == nil {
		time.Sleep(d)
		return
	}
	// struct itimerspec with 64-bit fields: a zero interval (one shot),
	// then the relative expiry as seconds and nanoseconds.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(p.fd), 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		time.Sleep(d)
		return
	}
	var expirations [8]byte
	if _, err := p.f.Read(expirations[:]); err != nil {
		time.Sleep(time.Until(t))
	}
}

func (p *pacer) close() {
	if p.f != nil {
		p.f.Close()
	}
}
