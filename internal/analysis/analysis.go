package analysis

import (
	"vsensor/internal/callgraph"
	"vsensor/internal/ir"
	"vsensor/internal/minic"
)

// Snippet is a v-sensor candidate: a loop or a call occurring inside some
// function (paper §3.1: "only loops and function calls are considered as
// v-sensor candidates").
type Snippet struct {
	// Loop is non-nil for loop snippets; CallSite for call snippets.
	Loop *ir.Loop
	Call *ir.CallSite

	Func *ir.Function
	Pos  minic.Pos
	Type ir.SnippetType

	// Deps are the workload dependencies after resolving sources internal
	// to the snippet itself: the remaining LoopVars refer to enclosing
	// loops, and Param/Global/Rank/Extern defer outward.
	Deps SourceSet

	// SensorOf lists the enclosing loops (innermost first, within the
	// containing function) for which this snippet is a v-sensor.
	SensorOf []*ir.Loop

	// FuncScope reports that the snippet is a sensor w.r.t. every enclosing
	// loop in its function, making it exportable across call sites.
	FuncScope bool

	// Global reports the snippet is a v-sensor for the whole program: its
	// workload is invariant on every call path from the entry function
	// (paper §4 "global v-sensors" — the ones selected for instrumentation).
	Global bool

	// ProcessFixed reports the workload does not depend on the process
	// rank, enabling inter-process comparison (paper §3.4).
	ProcessFixed bool

	// Depth is the snippet's loop depth: for loops, the loop's own depth;
	// for calls, the depth of the innermost enclosing loop plus one.
	// Outermost loops have depth 0 (paper §4 granularity rule).
	Depth int
}

// EnclosingLoops returns the loops enclosing the snippet within its
// function, innermost first. For a loop snippet this starts at its parent.
func (s *Snippet) EnclosingLoops() []*ir.Loop {
	if s.Loop != nil {
		return s.Loop.Ancestors()
	}
	return s.Call.Ancestors()
}

// ID returns a unique snippet identifier ("L<loopID>" or "C<callID>").
func (s *Snippet) ID() string {
	if s.Loop != nil {
		return "L" + itoa(s.Loop.ID)
	}
	return "C" + itoa(s.Call.ID)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// FuncSummary is the bottom-up analysis result for one function
// (the information propagated from callees to callers, Fig. 7).
type FuncSummary struct {
	Fn *ir.Function

	// WorkDeps are the sources that determine the function's total
	// workload when called once, over {Const, Param, Global, Rank, Extern}.
	WorkDeps SourceSet

	// ReturnDeps are the sources of the returned value.
	ReturnDeps SourceSet

	// WritesGlobals maps each global the function (transitively) assigns
	// to the sources of the values written.
	WritesGlobals map[string]SourceSet

	// HasNet / HasIO report whether the function (transitively) performs
	// network / IO operations; used for snippet typing.
	HasNet bool
	HasIO  bool

	// Snippets are all candidates found in the function body.
	Snippets []*Snippet

	// Exported are the FuncScope snippets, whose Deps contain no LoopVar.
	Exported []*Snippet
}

// Result is the whole-program identification result.
type Result struct {
	Prog  *ir.Program
	Graph *callgraph.Graph
	Funcs map[string]*FuncSummary

	// Snippets is every candidate in the program (Table 1 "Number of
	// snippets" counts these).
	Snippets []*Snippet

	// Sensors is every snippet that is a v-sensor of at least one loop
	// (Table 1 "Number of v-sensors" counts these).
	Sensors []*Snippet

	// GlobalSensors are the whole-program sensors eligible for
	// instrumentation (before the §4 selection rules are applied).
	GlobalSensors []*Snippet

	// MutatedGlobals are globals assigned anywhere in the program.
	MutatedGlobals map[string]bool
}

// Config controls identification.
type Config struct {
	// Entry is the program entry function. Default "main".
	//vs:option every program starts at main; tests analyze a library function as the entry, a detection-quality question (ROADMAP item 4)
	Entry string

	// UseStaticRules additionally requires extern static-rule arguments
	// (e.g. communication peer) to be invariant (paper §3.1: "network
	// destination ... can be used in static rules"). More strict rules
	// produce fewer v-sensors.
	UseStaticRules bool
}

// Analyze runs whole-program v-sensor identification with default config.
func Analyze(p *ir.Program) *Result { return AnalyzeWith(p, Config{}) }

// AnalyzeWith runs whole-program v-sensor identification.
func AnalyzeWith(p *ir.Program, cfg Config) *Result {
	if cfg.Entry == "" {
		cfg.Entry = "main"
	}
	g := callgraph.Build(p)
	res := &Result{
		Prog:           p,
		Graph:          g,
		Funcs:          make(map[string]*FuncSummary),
		MutatedGlobals: mutatedGlobals(p),
	}
	a := &analyzer{prog: p, cfg: cfg, res: res}
	// Bottom-up: callee summaries exist before callers are analyzed
	// (paper §3.5: topological order over the preprocessed call graph).
	for _, name := range g.Order {
		a.analyzeFunction(p.Funcs[name])
	}
	a.markGlobalSensors()
	a.collect()
	return res
}

// mutatedGlobals scans the whole program for assignments to globals.
func mutatedGlobals(p *ir.Program) map[string]bool {
	out := make(map[string]bool)
	for _, f := range p.Funcs {
		locals := make(map[string]bool)
		for _, prm := range f.Decl.Params {
			locals[prm.Name] = true
		}
		minic.WalkStmts(f.Decl.Body, func(s minic.Stmt) {
			switch st := s.(type) {
			case *minic.VarDecl:
				locals[st.Name] = true
			case *minic.AssignStmt:
				var name string
				switch tgt := st.Target.(type) {
				case *minic.Ident:
					name = tgt.Name
				case *minic.IndexExpr:
					name = tgt.Array.Name
				}
				if name != "" && !locals[name] {
					if _, isGlobal := p.Globals[name]; isGlobal {
						out[name] = true
					}
				}
			}
		})
	}
	return out
}
