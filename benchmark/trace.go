package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// The harness's own tracing: a span is recorded around every call the
// harness makes into a layer, kept in memory, and written out when the run
// ends. Each goroutine that records spans owns a lane, so recording is an
// append with no lock; a span names its parent explicitly, which lets a
// generator's spans (its own lane) hang under the trial span (lane 0).

// spanID identifies a span across lanes: lane index in the high half,
// position in that lane in the low half, plus one so the zero value means
// "no span".
type spanID uint64

type span struct {
	Name   string
	Trial  int
	Parent spanID
	Start  int64 // ns since the tracer's epoch
	End    int64
}

type tracer struct {
	epoch time.Time
	lanes []*lane
}

// lane is one goroutine's span buffer. A nil lane records nothing, so code
// shared between traced and untraced variants needs no branches.
type lane struct {
	t     *tracer
	idx   int
	spans []span
}

// newTracer makes a tracer with the given number of lanes; lane 0 belongs
// to the goroutine that runs the trials.
func newTracer(lanes int) *tracer {
	t := &tracer{epoch: time.Now()}
	for i := 0; i < lanes; i++ {
		t.lanes = append(t.lanes, &lane{t: t, idx: i})
	}
	return t
}

// lane returns lane i, nil from a nil tracer.
func (t *tracer) lane(i int) *lane {
	if t == nil {
		return nil
	}
	return t.lanes[i]
}

func (l *lane) begin(name string, trial int, parent spanID) spanID {
	if l == nil {
		return 0
	}
	l.spans = append(l.spans, span{Name: name, Trial: trial, Parent: parent, Start: int64(time.Since(l.t.epoch))})
	return spanID(uint64(l.idx)<<32 | uint64(len(l.spans)))
}

func (l *lane) end(id spanID) {
	if l == nil {
		return
	}
	l.spans[int(uint32(id))-1].End = int64(time.Since(l.t.epoch))
}

// all returns every recorded span keyed by its ID.
func (t *tracer) all() map[spanID]span {
	out := make(map[spanID]span)
	for _, l := range t.lanes {
		for i, s := range l.spans {
			out[spanID(uint64(l.idx)<<32|uint64(i+1))] = s
		}
	}
	return out
}

// spanTimes is the per-name roll-up of a set of spans.
type spanTimes struct {
	Count int
	Busy  int64 // summed durations
	Self  int64 // summed durations minus what child spans cover
}

// rollup computes, per trial and span name, the busy time (sum of
// durations) and the self time: each span's duration minus the part of its
// interval that its child spans cover. Children on different lanes may
// overlap each other — two generators under one trial span — so coverage is
// the union of the child intervals clipped to the parent, never their sum.
// A parent ID is only followed within its own trial.
func rollup(spans map[spanID]span) map[int]map[string]spanTimes {
	children := make(map[spanID][][2]int64)
	for _, s := range spans {
		if p, ok := spans[s.Parent]; ok && p.Trial == s.Trial {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int]map[string]spanTimes)
	for id, s := range spans {
		names := out[s.Trial]
		if names == nil {
			names = make(map[string]spanTimes)
			out[s.Trial] = names
		}
		st := names[s.Name]
		st.Count++
		dur := s.End - s.Start
		st.Busy += dur
		st.Self += dur - covered(children[id], s.Start, s.End)
		names[s.Name] = st
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	end := lo
	for _, iv := range ivs {
		a, b := iv[0], iv[1]
		if a < end {
			a = end
		}
		if b > hi {
			b = hi
		}
		if b > a {
			total += b - a
			end = b
		}
	}
	return total
}

// writeSpans dumps the spans as one JSON array of [name, trial, id, parent,
// start_ns, end_ns] rows — compact enough for the ~10^5 spans a traced
// ingest run records.
func writeSpans(path string, spans map[spanID]span) error {
	ids := make([]spanID, 0, len(spans))
	for id := range spans {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	rows := make([][6]any, len(ids))
	for i, id := range ids {
		s := spans[id]
		rows[i] = [6]any{s.Name, s.Trial, uint64(id), uint64(s.Parent), s.Start, s.End}
	}
	data, err := json.Marshal(map[string]any{
		"columns": []string{"name", "trial", "id", "parent", "start_ns", "end_ns"},
		"spans":   rows,
	})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
