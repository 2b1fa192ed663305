package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks until due has passed since start; it returns at once
// when that moment is already behind. The open-loop generators sleep in the
// kernel rather than through time.Sleep: on an otherwise idle P the Go
// runtime parks in the netpoller, whose timeout is whole milliseconds, so a
// 500 µs sleep overshoots by a median of ~570 µs on this class of host
// against ~100 µs for nanosleep — and every overshoot would be charged to
// the program as latency.
func sleepUntil(start time.Time, due time.Duration) {
	for {
		d := due - time.Since(start)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}
