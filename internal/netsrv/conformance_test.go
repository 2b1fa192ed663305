package netsrv

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"

	"vsensor/internal/detect"
	"vsensor/internal/feed"
	"vsensor/internal/obs"
	"vsensor/internal/server"
)

var multiTenantSpec = feed.Spec{
	Seed: 0x7E4A47, Step: 7919, Trials: 10,
	Ranks: [2]int{4, 24}, Sensors: [2]int{1, 3}, Slices: [2]int{2, 4},
	Events: map[feed.Kind][]float64{
		feed.Drop: {0, 0.1, 0.3}, feed.Dup: {0, 0.15}, feed.Corrupt: {0, 0.1}, feed.Shuffle: {0.75},
	},
}

// The multi-tenant differential conformance property: N concurrent runs
// interleaved over ONE listener must each produce a report bit-identical
// to an isolated single-run server fed the same schedule, and hold exactly
// its own ranks' records. Tenancy is an addressing layer, never an
// approximation: no cross-run bleed in records, coverage, or outlier
// verdicts, no matter how the sessions' goroutines interleave, and no
// matter who polls /status meanwhile.
func TestMultiTenantDifferentialConformance(t *testing.T) {
	feed.Run(t, multiTenantSpec, multiTenant)
}

func multiTenant(t *testing.T, tr feed.Trial) error {
	r := tr.Rand("service")
	runs := 2 + r.IntN(3)
	shards := 1 << r.IntN(3)
	threshold := []float64{0.7, 0.8, 0.9}[r.IntN(3)]

	// Run k hosts ranks k, k+runs, k+2·runs, ...: its schedule is the
	// trial's deliveries from those ranks, faults baked in, so the networked
	// tenant and its isolated reference see byte-identical inputs.
	schedules := make([][][]byte, runs)
	for _, s := range tr.Schedule(codec) {
		if s.Data != nil {
			schedules[s.Rank%runs] = append(schedules[s.Rank%runs], s.Data)
		}
	}
	refs := make([]*server.Server, runs)
	accepted := make([][]bool, runs)
	for k := range refs {
		refs[k] = server.NewSharded(shards)
		accepted[k] = referenceVerdicts(refs[k], schedules[k])
	}

	// One listener, N concurrent tenant sessions, and racing /status and
	// /metrics pollers hammering the introspection endpoint while the
	// tenants stream; /metrics reads Stats at scrape time.
	o := obs.New()
	svc := listen(t, Config{Shards: shards, MaxWorkers: runs + 2})
	svc.SetObs(o)
	o.SetStatus(func() any { return svc.Stats() })
	ts := httptest.NewServer(o.Handler())
	defer ts.Close()
	poll := func() {
		for _, path := range []string{"/status", "/metrics"} {
			if res, err := ts.Client().Get(ts.URL + path); err == nil {
				res.Body.Close()
			}
		}
	}
	stop := feed.Race(poll, poll)

	var wg sync.WaitGroup
	errs := make([]error, runs)
	for k := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs, err := DialResilient(ReconnectConfig{Addr: svc.Addr().String(), Hello: Hello{RunID: fmt.Sprintf("run-%d", k)}})
			if err != nil {
				errs[k] = err
				return
			}
			defer rs.Close()
			for i, f := range schedules[k] {
				if err := rs.Receive(f); verdictMismatch(err, accepted[k][i], false) {
					errs[k] = fmt.Errorf("run %d item %d: delivery = %v, reference accepted = %v\nsession: %+v",
						k, i, err, accepted[k][i], rs.Stats())
					return
				}
			}
		}()
	}
	wg.Wait()
	stop()
	if err := errors.Join(errs...); err != nil {
		return err
	}

	// Bit-for-bit equality, tenant by tenant: record log in order, full
	// coverage struct, messages/bytes accounting, every outlier verdict
	// field and the report header.
	truth := tr.Truth()
	for k := range runs {
		ten := svc.Tenant(fmt.Sprintf("run-%d", k))
		if ten == nil {
			return fmt.Errorf("tenant run-%d missing", k)
		}
		ref := refs[k]
		own := slices.DeleteFunc(slices.Clone(truth), func(rec detect.SliceRecord) bool { return rec.Rank%runs != k })
		gRep, wRep := ten.InterProcessReport(threshold), ref.InterProcessReport(threshold)
		if err := errors.Join(
			sameTenant(ten, ref, threshold),
			feed.Same("exactly-once record", feed.Sorted(ten.Records()), own),
			feed.Equal("messages", ten.Progress().Messages, ref.Progress().Messages),
			feed.Equal("bytes", ten.Progress().Bytes, ref.Progress().Bytes),
			feed.Equal("report coverage", gRep.Coverage, wRep.Coverage),
			feed.Equal("report degraded", gRep.Degraded, wRep.Degraded),
			feed.Same("report outlier", gRep.Outliers, wRep.Outliers),
			feed.Same("report dead rank", gRep.DeadRanks, wRep.DeadRanks),
		); err != nil {
			return fmt.Errorf("run %d: %w", k, err)
		}
	}
	return feed.Equal("hosted runs", svc.Stats().Runs, int64(runs))
}
