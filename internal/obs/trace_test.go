package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestSpanLifecycle(t *testing.T) {
	tr := NewTracer()
	tr.NameThread(0, "pipeline")
	sp := tr.Start(0, "compile").Arg("files", "3")
	time.Sleep(time.Millisecond)
	sp.End()
	inner := tr.Start(0, "analyze")
	inner.End()
	if tr.Len() != 2 {
		t.Fatalf("spans = %d, want 2", tr.Len())
	}
	names := tr.SpanNames()
	if len(names) != 2 || names[0] != "analyze" || names[1] != "compile" {
		t.Fatalf("names = %v", names)
	}
}

func TestWriteChromeValidJSON(t *testing.T) {
	tr := NewTracer()
	tr.NameThread(0, "pipeline")
	tr.NameThread(1, "rank 0")
	tr.Start(0, "execute").End()
	tr.Start(1, "rank").Arg("rank", "0").End()

	var buf bytes.Buffer
	if err := tr.WriteChromeMerged(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	var meta, complete int
	for _, ev := range out.TraceEvents {
		switch ev["ph"] {
		case "M":
			meta++
			if ev["name"] != "thread_name" {
				t.Errorf("metadata event name = %v", ev["name"])
			}
		case "X":
			complete++
			if _, ok := ev["dur"]; !ok {
				t.Errorf("complete event missing dur: %v", ev)
			}
			if _, ok := ev["ts"]; !ok {
				t.Errorf("complete event missing ts: %v", ev)
			}
		default:
			t.Errorf("unexpected phase %v", ev["ph"])
		}
	}
	if meta != 2 || complete != 2 {
		t.Errorf("meta=%d complete=%d, want 2/2", meta, complete)
	}
}

// TestConcurrentSpans opens and closes spans from many goroutines while a
// writer exports, for go test -race.
func TestConcurrentSpans(t *testing.T) {
	tr := NewTracer()
	const goroutines = 8
	const perG = 200
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			tr.NameThread(tid, "worker")
			for j := 0; j < perG; j++ {
				tr.Start(tid, "op").End()
			}
		}(i)
	}
	stop := make(chan struct{})
	var exp sync.WaitGroup
	exp.Add(1)
	go func() {
		defer exp.Done()
		for {
			select {
			case <-stop:
				return
			default:
				var buf bytes.Buffer
				if err := tr.WriteChromeMerged(&buf, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	exp.Wait()
	if tr.Len() != goroutines*perG {
		t.Errorf("spans = %d, want %d", tr.Len(), goroutines*perG)
	}
}

func TestNilTracer(t *testing.T) {
	var tr *Tracer
	tr.NameThread(0, "x")
	tr.Start(0, "x").Arg("a", "b").End()
	if tr.Len() != 0 || tr.SpanNames() != nil {
		t.Error("nil tracer should be empty")
	}
	if err := tr.WriteChromeMerged(nil, nil); err != nil {
		t.Error(err)
	}
}
