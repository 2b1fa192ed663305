package obs

import (
	"encoding/json"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ReportSnapshot is one immutable generation of the run report, as the HTTP
// layer sees it. The facade wraps the server's versioned snapshot into this
// shape (obs cannot import the server package), and the handler memoizes
// the JSON renders per generation so every poller at the same generation
// receives byte-identical bodies and the marshal cost is paid once.
type ReportSnapshot struct {
	// Gen is the render generation, served as the strong ETag `"<gen>"`.
	Gen uint64

	// Status is the /status "run" payload; Outliers is the full /outliers
	// body. Both must be deterministic for a fixed generation.
	Status   any
	Outliers any

	// Records serves /records?cursor=N from the snapshot's record view: the
	// records after cursor, the cursor to resume from, and the window base.
	// ok=false means the cursor fell outside [base, total] — the client's
	// position no longer exists (e.g. the log shrank across a recovery) and
	// it must restart from base.
	Records func(cursor int) (recs any, next, base int, ok bool)

	mu           sync.Mutex
	statusJSON   []byte
	outliersJSON []byte
}

// StatusBody renders the /status response for this generation, memoized.
// uptime is captured on the first render so later polls at the same
// generation are byte-identical (a changing uptime would defeat both the
// ETag contract and response sharing).
func (sn *ReportSnapshot) StatusBody(uptime float64) ([]byte, error) {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	if sn.statusJSON == nil {
		data, err := json.Marshal(statusBody{Gen: &sn.Gen, Run: sn.Status, Running: true, UptimeSeconds: uptime})
		if err != nil {
			return nil, err
		}
		sn.statusJSON = append(data, '\n')
	}
	return sn.statusJSON, nil
}

// OutliersBody renders the /outliers response for this generation, memoized.
func (sn *ReportSnapshot) OutliersBody() ([]byte, error) {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	if sn.outliersJSON == nil {
		data, err := json.Marshal(sn.Outliers)
		if err != nil {
			return nil, err
		}
		sn.outliersJSON = append(data, '\n')
	}
	return sn.outliersJSON, nil
}

// SetReport installs the versioned-snapshot providers backing /status,
// /records, and /outliers: cur returns the current snapshot (nil before the
// run starts) and wait blocks until the generation exceeds afterGen or the
// timeout elapses (nil disables ?wait=1). When set, these take precedence
// over the SetStatus provider.
func (o *Obs) SetReport(cur func() *ReportSnapshot, wait func(afterGen uint64, timeout time.Duration) *ReportSnapshot) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.reportFn = cur
	o.reportWaitFn = wait
	o.mu.Unlock()
}

func (o *Obs) reportProviders() (func() *ReportSnapshot, func(uint64, time.Duration) *ReportSnapshot) {
	if o == nil {
		return nil, nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.reportFn, o.reportWaitFn
}

// etagOf renders a generation as a strong entity tag.
func etagOf(gen uint64) string {
	return `"` + strconv.FormatUint(gen, 10) + `"`
}

// etagMatch implements If-None-Match matching (RFC 9110 §13.1.2): the
// header is a comma-separated list of entity tags, each optionally weak
// (W/ prefix), or the wildcard "*". Comparison is weak — a W/-prefixed copy
// of the current tag matches. Anything unparsable simply fails to match,
// which degrades to a full 200 response, never an error.
func etagMatch(header string, gen uint64) bool {
	if header == "" {
		return false
	}
	want := `"` + strconv.FormatUint(gen, 10) + `"`
	for _, part := range strings.Split(header, ",") {
		tag := strings.TrimSpace(part)
		if tag == "*" {
			return true
		}
		tag = strings.TrimPrefix(tag, "W/")
		if tag == want {
			return true
		}
	}
	return false
}
