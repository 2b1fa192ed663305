package main

import (
	"hash/crc32"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// The host v-sensor: the paper's idea applied to the harness itself. A
// snippet whose workload never changes — the CRC32 of one fixed buffer, a
// fixed number of times — is timed between trials; when it runs slower than
// usual the host, not the program, got slower, and the trials next to it
// are flagged. Flagged trials stay in the statistics: the flag is evidence
// for whoever reads a surprising number, not a filter.

const (
	calibBytes   = 4 << 20
	calibRepeats = 4
	// calibTolerance is how far a trial's calibration may sit above the
	// run's median calibration before the trial is flagged as noisy.
	calibTolerance = 0.10
)

var calibBuf = func() []byte {
	b := make([]byte, calibBytes)
	for i := range b {
		b[i] = byte(i * 31)
	}
	return b
}()

// calibSink keeps the checksum alive so the loop is not optimized away.
var calibSink uint32

// calibrate times the fixed-workload snippet once, in milliseconds.
func calibrate() float64 {
	t0 := time.Now()
	for i := 0; i < calibRepeats; i++ {
		calibSink ^= crc32.ChecksumIEEE(calibBuf)
	}
	return float64(time.Since(t0)) / 1e6
}

// noisyTrials takes calib[i] = the calibration before trial i (so
// calib[i+1] is the one after it; len(calib) == trials+1) and returns the
// trials whose slower neighbour is more than calibTolerance above the
// median calibration of the run.
func noisyTrials(calib []float64) []int {
	med := medianSorted(sorted(calib))
	var out []int
	for i := 0; i+1 < len(calib); i++ {
		worst := calib[i]
		if calib[i+1] > worst {
			worst = calib[i+1]
		}
		if worst > med*(1+calibTolerance) {
			out = append(out, i)
		}
	}
	return out
}

// meter brackets the timed part of a trial: wall time plus the runtime's
// allocation and GC counters over exactly that interval. ReadMemStats stops
// the world, so both reads sit outside the timed window.
type meter struct {
	before runtime.MemStats
	t0     time.Time

	wall       time.Duration
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPauseNs  uint64
}

func (m *meter) start() {
	runtime.ReadMemStats(&m.before)
	m.t0 = time.Now()
}

func (m *meter) stop() {
	m.wall = time.Since(m.t0)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	m.mallocs = after.Mallocs - m.before.Mallocs
	m.allocBytes = after.TotalAlloc - m.before.TotalAlloc
	m.gcCycles = after.NumGC - m.before.NumGC
	m.gcPauseNs = after.PauseTotalNs - m.before.PauseTotalNs
}

// peakRSSMB reads the process's high-water resident set from
// /proc/self/status; 0 where that file does not exist.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
