package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// A Go timer can fire up to a millisecond late, which would show up as
// latency of every operation an open loop issues at a sub-millisecond
// interval. A timerfd read through the runtime's poller wakes within
// tens of microseconds and, unlike a blocking sleep syscall, releases
// the processor while it waits.

const (
	tfdNonblock    = 0x800
	tfdCloexec     = 0x80000
	clockMonotonic = 1
)

type itimerspec struct {
	interval syscall.Timespec
	value    syscall.Timespec
}

// timerSleeper sleeps on one timerfd; it serves one goroutine at a time.
type timerSleeper struct {
	f *os.File
}

func newTimerSleeper() (*timerSleeper, error) {
	fd, _, e := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if e != 0 {
		return nil, e
	}
	return &timerSleeper{f: os.NewFile(fd, "timerfd")}, nil
}

// sleep blocks for about d; it falls back to time.Sleep if the timer
// cannot be armed or read.
func (s *timerSleeper) sleep(d time.Duration) {
	its := itimerspec{value: syscall.NsecToTimespec(d.Nanoseconds())}
	if _, _, e := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, s.f.Fd(), 0, uintptr(unsafe.Pointer(&its)), 0, 0, 0); e != 0 {
		time.Sleep(d)
		return
	}
	var b [8]byte
	if _, err := s.f.Read(b[:]); err != nil {
		time.Sleep(d)
	}
}

func (s *timerSleeper) close() { s.f.Close() }
