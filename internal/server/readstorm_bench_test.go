package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// readStormPollInterval is each simulated dashboard client's refresh
// period. Real pollers are clients on a refresh timer, not tight loops;
// 1s is the standard dashboard refresh, and with 10k clients it yields
// ~10k requests/s against the ingest session.
const readStormPollInterval = time.Second

// readStormRounds is how many back-to-back frame batches one benchmark op
// ingests into the same server. A single batch at 4096 ranks clears in
// ~45ms — all cold start, none of the steady state a dashboard fleet
// actually polls against. Chaining rounds (fresh sequences continuing each
// rank's stream) makes one op a session long enough that the cache's
// steady-state behaviour, not server construction, dominates the measure.
const readStormRounds = 8

// readStormWorkers bounds the goroutines driving the storm. Like any load
// generator (wrk, vegeta), the harness multiplexes thousands of logical
// clients — each with its own cached ETag — onto a small worker pool, so
// the benchmark charges ingest for the server-side cost of the request
// rate, not for the generator's own bookkeeping (10k timer goroutines
// would add GC stack-scan and scheduler noise that says nothing about the
// read path under test).
const readStormWorkers = 16

// readStormWorker drives a slice of logical pollers: it round-robins
// through its clients at a spacing that makes each client poll once per
// readStormPollInterval, hitting /outliers and optionally revalidating
// with that client's If-None-Match so an unchanged generation costs a 304
// instead of a body. /outliers is the surface a dashboard fleet actually
// watches — the per-sensor variance verdict — and its render is small and
// shared; /status's per-rank dump (~210 KB at 4096 ranks) is a debug
// surface, not a storm-safe payload. The handler is re-read every poll
// (iterations swap in a fresh server); cached tags reset when it changes.
func readStormWorker(hptr *atomic.Pointer[http.Handler], stop <-chan struct{}, useETag bool, id, clients int) {
	etags := make([]string, clients)
	var lastH http.Handler
	req := httptest.NewRequest("GET", "/outliers", nil)
	gap := readStormPollInterval / time.Duration(clients)
	// Stagger workers so the pool doesn't phase-lock on one tick.
	jitter := time.Duration(id%readStormWorkers) * gap / readStormWorkers
	select {
	case <-stop:
		return
	case <-time.After(jitter):
	}
	tick := time.NewTicker(gap)
	defer tick.Stop()
	for i := 0; ; i = (i + 1) % clients {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		hp := hptr.Load()
		if hp == nil {
			continue
		}
		h := *hp
		if h != lastH {
			lastH = h
			for j := range etags {
				etags[j] = ""
			}
		}
		if useETag && etags[i] != "" {
			req.Header.Set("If-None-Match", etags[i])
		} else {
			req.Header.Del("If-None-Match")
		}
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		if useETag {
			if tag := rr.Header().Get("ETag"); tag != "" {
				etags[i] = tag
			}
		}
	}
}

// BenchmarkReadStorm measures what a poller storm costs ingest: the
// streaming session of BenchmarkIngestParallel runs while N dashboard
// clients poll the outlier verdict, with and without conditional
// revalidation. The versioned snapshot cache is what keeps the storm off
// the ingest path (every poller at an unchanged generation shares one
// render and pays a 304). A developer tool: the gated numbers for reads
// beside writes are benchmark/'s ingest-read-mix workload.
func BenchmarkReadStorm(b *testing.B) {
	type combo struct {
		pollers int
		etag    bool
	}
	combos := []combo{
		{0, false},
		{100, false},
		{100, true},
		{10000, false},
		{10000, true},
	}
	for _, ranks := range benchSizes() {
		rounds := make([][][][]byte, readStormRounds)
		for r := range rounds {
			rounds[r] = buildBenchFrames(ranks, r)
		}
		records := ranks * benchFramesPerRank * benchSensors * readStormRounds
		for _, c := range combos {
			name := fmt.Sprintf("ranks=%d/pollers=%d/etag=off", ranks, c.pollers)
			if c.etag {
				name = fmt.Sprintf("ranks=%d/pollers=%d/etag=on", ranks, c.pollers)
			}
			b.Run(name, func(b *testing.B) {
				// The storm persists across b.N iterations (restarting it
				// per iteration would dominate setup); each iteration swaps
				// a fresh server+handler under it.
				var hptr atomic.Pointer[http.Handler]
				stop := make(chan struct{})
				var pwg sync.WaitGroup
				workers := readStormWorkers
				if c.pollers < workers {
					workers = c.pollers
				}
				for w := 0; w < workers; w++ {
					clients := c.pollers / workers
					if w < c.pollers%workers {
						clients++
					}
					pwg.Add(1)
					go func(id, clients int) {
						defer pwg.Done()
						readStormWorker(&hptr, stop, c.etag, id, clients)
					}(w, clients)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					s := NewSharded(DefaultShards)
					h := wireReadReport(s)
					hptr.Store(&h)
					b.StartTimer()
					for _, frames := range rounds {
						runStreamingSession(b, s, frames)
					}
				}
				b.StopTimer()
				close(stop)
				pwg.Wait()
				b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
			})
		}
	}
}
