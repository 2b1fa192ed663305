//go:build !linux

package main

import "time"

// sleepUntil blocks until due has passed since start.
func sleepUntil(start time.Time, due time.Duration) {
	if d := due - time.Since(start); d > 0 {
		time.Sleep(d)
	}
}
