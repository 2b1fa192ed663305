package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"
)

// Long-poll bounds for ?wait=1: the default parking time and the cap an
// explicit ?timeout_ms= may request.
const (
	defaultLongPoll = 30 * time.Second
	maxLongPoll     = 60 * time.Second
)

// Handler returns the introspection mux:
//
//	GET /         — plain-text index of endpoints
//	GET /metrics  — Prometheus text exposition of the registry
//	GET /status   — JSON snapshot (uptime + whatever SetStatus/SetReport
//	                provides); with a report provider, strong ETag "<gen>",
//	                If-None-Match → 304, and ?wait=1 long-polls the next
//	                generation (?timeout_ms= bounds the park)
//	GET /outliers — the current outlier report (report provider only), with
//	                the same ETag/304/?wait=1 semantics as /status
//	GET /records  — incremental slice records (report provider only; an
//	                empty window at cursor 0 without one); ?cursor=N (N >= 0)
//	                resumes, response carries the next cursor so each record
//	                is seen once and the window base so a cursor invalidated
//	                by recovery is detectable; ?wait=1 parks a caught-up
//	                cursor
//	GET /debug/flight — flight-recorder dump: stable lineage spans after
//	                ?cursor=N plus per-stage histogram exemplars
func (o *Obs) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "vsensor introspection\n\n/metrics  Prometheus text format\n/status   JSON run snapshot (ETag + If-None-Match, ?wait=1 long-poll)\n/outliers  inter-process outlier report (ETag + If-None-Match, ?wait=1)\n/records  incremental slice records (?cursor=N, ?wait=1)\n/debug/flight  lineage flight recorder (?cursor=N)\n")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := o.Registry().WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		if cur, wait := o.reportProviders(); cur != nil {
			o.serveConditional(w, r, cur, wait, func(sn *ReportSnapshot) ([]byte, error) {
				return sn.StatusBody(o.UptimeSeconds())
			})
			return
		}
		body := statusBody{UptimeSeconds: o.UptimeSeconds()}
		body.Run, body.Running = o.statusSnapshot()
		writeJSON(w, body)
	})
	mux.HandleFunc("/outliers", func(w http.ResponseWriter, r *http.Request) {
		cur, wait := o.reportProviders()
		if cur == nil {
			writeJSON(w, enabledBody{})
			return
		}
		o.serveConditional(w, r, cur, wait, (*ReportSnapshot).OutliersBody)
	})
	mux.HandleFunc("/records", func(w http.ResponseWriter, r *http.Request) {
		cursor := 0
		if q := r.URL.Query().Get("cursor"); q != "" {
			n, err := strconv.Atoi(q)
			if err == nil && n < 0 {
				err = errors.New("must be non-negative")
			}
			if err != nil {
				http.Error(w, "bad cursor: "+err.Error(), http.StatusBadRequest)
				return
			}
			cursor = n
		}
		cur, wait := o.reportProviders()
		o.serveRecords(w, r, cur, wait, cursor)
	})
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, r *http.Request) {
		lin := o.Lineage()
		if lin == nil {
			writeJSON(w, enabledBody{})
			return
		}
		var cursor uint64
		if q := r.URL.Query().Get("cursor"); q != "" {
			n, err := strconv.ParseUint(q, 10, 64)
			if err != nil {
				http.Error(w, "bad cursor: "+err.Error(), http.StatusBadRequest)
				return
			}
			cursor = n
		}
		spans, next := lin.Snapshot(nil, cursor)
		if spans == nil {
			spans = []FlightSpan{}
		}
		writeJSON(w, flightBody{Cursor: next, Enabled: true, Spans: spans, Stats: lin.Stats(),
			Exemplars: o.Registry().HistogramExemplars("lineage_stage_ns")})
	})
	return mux
}

// wantsWait reports whether the request asked for long-poll semantics.
// Only the exact value "1" opts in; anything else is ignored.
func wantsWait(r *http.Request) bool {
	return r.URL.Query().Get("wait") == "1"
}

// waitTimeout returns how long a ?wait=1 request may park: ?timeout_ms=N
// when parsable and positive (capped at maxLongPoll), else defaultLongPoll.
func waitTimeout(r *http.Request) time.Duration {
	if q := r.URL.Query().Get("timeout_ms"); q != "" {
		if n, err := strconv.Atoi(q); err == nil && n > 0 {
			d := time.Duration(n) * time.Millisecond
			if d > maxLongPoll {
				d = maxLongPoll
			}
			return d
		}
	}
	return defaultLongPoll
}

// serveConditional implements the shared ETag/If-None-Match/long-poll
// protocol for /status and /outliers: render is called at most once per
// generation (the snapshot memoizes the bytes), revalidations cost a 304
// with no body, and ?wait=1 with a current tag parks until the generation
// advances so N pollers cost one wakeup per advance.
func (o *Obs) serveConditional(w http.ResponseWriter, r *http.Request, cur func() *ReportSnapshot, wait func(uint64, time.Duration) *ReportSnapshot, render func(*ReportSnapshot) ([]byte, error)) {
	sn := cur()
	if sn == nil {
		writeJSON(w, statusBody{})
		return
	}
	inm := r.Header.Get("If-None-Match")
	if wait != nil && wantsWait(r) && etagMatch(inm, sn.Gen) {
		if ns := wait(sn.Gen, waitTimeout(r)); ns != nil {
			sn = ns
		}
	}
	w.Header().Set("ETag", etagOf(sn.Gen))
	if etagMatch(inm, sn.Gen) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	body, err := render(sn)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body) //nolint:errcheck // client may be gone
}

// The /status, /outliers and /debug/flight bodies, fields in key order so
// the bytes are those of the equivalent sorted-key object. A statusBody
// has Gen only from a report provider and is bare {"running":false} before
// the provider has a snapshot; enabledBody is the answer of an endpoint
// whose source is off.
type (
	statusBody struct {
		Gen           *uint64 `json:"gen,omitempty"`
		Run           any     `json:"run,omitempty"`
		Running       bool    `json:"running"`
		UptimeSeconds float64 `json:"uptime_seconds,omitempty"`
	}
	enabledBody struct {
		Enabled bool `json:"enabled"`
	}
	flightBody struct {
		Cursor    uint64                `json:"cursor"`
		Enabled   bool                  `json:"enabled"`
		Exemplars map[string][]Exemplar `json:"exemplars"`
		Spans     []FlightSpan          `json:"spans"`
		Stats     LineageStats          `json:"stats"`
	}
)

// recordsBody is every /records response.
type recordsBody struct {
	Cursor    int  `json:"cursor"`
	Base      int  `json:"base"`
	Truncated bool `json:"truncated,omitempty"`
	Records   any  `json:"records"`
}

// serveRecords serves /records (cursor >= 0) from the versioned snapshot's
// record window; without a report provider, or before the run publishes a
// snapshot, the window is empty at 0. Responses always carry the window
// base; a cursor beyond the end (the log shrank across a crash recovery)
// answers with truncated=true and the base to restart from, never a
// silently clamped window. A caught-up cursor with ?wait=1 parks for the
// next generation before answering.
func (o *Obs) serveRecords(w http.ResponseWriter, r *http.Request, cur func() *ReportSnapshot, wait func(uint64, time.Duration) *ReportSnapshot, cursor int) {
	var sn *ReportSnapshot
	if cur != nil {
		sn = cur()
	}
	if sn == nil {
		writeJSON(w, recordsBody{Records: []any{}})
		return
	}
	recs, next, base, ok := sn.Records(cursor)
	if ok && next == cursor && wait != nil && wantsWait(r) {
		if ns := wait(sn.Gen, waitTimeout(r)); ns != nil {
			sn = ns
			recs, next, base, ok = sn.Records(cursor)
		}
	}
	w.Header().Set("ETag", etagOf(sn.Gen))
	if !ok {
		writeJSON(w, recordsBody{Cursor: base, Base: base, Truncated: true, Records: []any{}})
		return
	}
	writeJSON(w, recordsBody{Cursor: next, Base: base, Records: recs})
}

func writeJSON(w http.ResponseWriter, v any) {
	// Marshal before touching the ResponseWriter: once body bytes flow the
	// header is committed, and a mid-stream failure (e.g. the client hung
	// up) must not trigger a second WriteHeader via http.Error.
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(data, '\n')) //nolint:errcheck // client may be gone
}

// HTTPServer is a running introspection endpoint.
type HTTPServer struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts the introspection endpoint on addr (e.g. "127.0.0.1:6060";
// ":0" picks a free port — read it back with Addr). The server runs until
// Close.
func Serve(addr string, o *Obs) (*HTTPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: o.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return &HTTPServer{ln: ln, srv: srv}, nil
}

// Addr returns the bound address (useful with ":0").
func (h *HTTPServer) Addr() string { return h.ln.Addr().String() }

// Close shuts the endpoint down.
func (h *HTTPServer) Close() error { return h.srv.Close() }
