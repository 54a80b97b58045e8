//go:build !linux

package main

import "time"

// timerSleeper falls back to Go timers where timerfd is unavailable.
type timerSleeper struct{}

func newTimerSleeper() (*timerSleeper, error) { return &timerSleeper{}, nil }

func (*timerSleeper) sleep(d time.Duration) { time.Sleep(d) }

func (*timerSleeper) close() {}
