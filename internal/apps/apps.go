// Package apps provides miniature versions of the paper's eight evaluation
// programs — BT, CG, FT, LU, SP from the NAS Parallel Benchmarks plus
// LULESH, AMG and RAxML — written in mini-C for the vSensor pipeline
// (paper §6.1). The minis are orders of magnitude smaller than the real
// codes but mirror the structural properties Table 1 and Figs. 16-17
// depend on: which snippets have fixed workloads, where communication
// sits, how sensors distribute over the run. In particular AMG's adaptive
// mesh refinement leaves almost no fixed-workload snippets (lowest
// coverage/frequency in Table 1), and LULESH has one large non-fixed
// snippet in its main loop that creates long sense intervals (Fig. 17).
package apps

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Scale tunes an app's iteration count and per-iteration work so the same
// source runs from unit-test size to benchmark size.
type Scale struct {
	Iters int // outer (time-step) iterations
	Work  int // per-iteration work multiplier
}

// DefaultScale is the standard benchmark sizing.
var DefaultScale = Scale{Iters: 60, Work: 100}

// TestScale is a fast sizing for unit tests.
var TestScale = Scale{Iters: 8, Work: 10}

// App is one workload.
type App struct {
	Name   string
	Source string
}

// LoC returns the app's source line count (Table 1's "Code" column analog).
func (a *App) LoC() int {
	return len(strings.Split(strings.TrimSpace(a.Source), "\n"))
}

type builder func(Scale) string

var registry = map[string]struct {
	build builder
	extra bool // not part of the paper's eight-program evaluation set
}{
	"BT":     {buildBT, false},
	"CG":     {buildCG, false},
	"FT":     {buildFT, false},
	"LU":     {buildLU, false},
	"SP":     {buildSP, false},
	"LULESH": {buildLULESH, false},
	"AMG":    {buildAMG, false},
	"RAXML":  {buildRAXML, false},
	// BTIO is the NPB BT-IO variant: BT plus periodic checkpointing. It is
	// not in the paper's Table 1 but exercises the IO sensor component.
	"BTIO": {buildBTIO, true},
}

// Names lists the paper's eight evaluation apps in a fixed order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n, e := range registry {
		if !e.extra {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// AllNames lists every registered app, including extras such as BTIO.
func AllNames() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Get builds the named app at the given scale.
func Get(name string, s Scale) (*App, error) {
	e, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("apps: unknown app %q (have %v)", name, Names())
	}
	if s.Iters <= 0 {
		s.Iters = DefaultScale.Iters
	}
	if s.Work <= 0 {
		s.Work = DefaultScale.Work
	}
	return &App{Name: name, Source: e.build(s)}, nil
}

// MustGet is Get or panic.
func MustGet(name string, s Scale) *App {
	a, err := Get(name, s)
	if err != nil {
		panic(err)
	}
	return a
}

// All builds every app at the given scale, in Names() order.
func All(s Scale) []*App {
	var out []*App
	for _, n := range Names() {
		out = append(out, MustGet(n, s))
	}
	return out
}

// expand substitutes @NAME@ placeholders in a template; values are
// decimal integers. It panics on unknown or leftover placeholders, which
// are template bugs.
func expand(tmpl string, vals map[string]int) string {
	out := tmpl
	for k, v := range vals {
		out = strings.ReplaceAll(out, "@"+k+"@", strconv.Itoa(v))
	}
	if i := strings.Index(out, "@"); i >= 0 {
		end := i + 20
		if end > len(out) {
			end = len(out)
		}
		panic("apps: unexpanded placeholder near: " + out[i:end])
	}
	return out
}
