// Package instrument selects which identified v-sensors to instrument and
// produces the instrumented program (paper §4). Selection applies three
// rules: scope (only global v-sensors are chosen), granularity (only
// sensors shallower than a max depth), and nesting (when sensors nest, the
// outermost is preferred, because the Tick/Tock probes themselves are not
// fixed-workload and would invalidate an enclosing sensor).
package instrument

import (
	"fmt"
	"sort"

	"vsensor/internal/analysis"
	"vsensor/internal/ir"
	"vsensor/internal/minic"
)

// Config controls sensor selection.
type Config struct {
	// MaxDepth: only sensors with loop depth < MaxDepth are instrumented
	// (paper §4 "granularity"). Zero means the default of 3.
	MaxDepth int

	// RequireProcessFixed drops sensors whose workload depends on the
	// process rank; such sensors cannot be compared across processes.
	//vs:option a §5.3 detection rule only tests enable; whether it is on by default is a detection-quality question (ROADMAP item 4)
	RequireProcessFixed bool

	// KeepNested disables the nested-sensor exclusion rule (ablation A3).
	KeepNested bool
}

// DefaultMaxDepth is the granularity cutoff used when Config.MaxDepth is 0.
const DefaultMaxDepth = 3

// Sensor is one instrumented v-sensor.
type Sensor struct {
	ID           int
	Snippet      *analysis.Snippet
	Type         ir.SnippetType
	ProcessFixed bool
	Name         string // "func:L<loopID>@line:col" or "func:C<callID>@line:col"
}

// Instrumented is a program with its selected sensors, ready to run.
type Instrumented struct {
	Prog    *ir.Program
	Res     *analysis.Result
	Cfg     Config
	Sensors []*Sensor

	// LoopSensor / CallSensor map loop and call IDs to their sensor, for
	// the interpreter's Tick/Tock dispatch.
	LoopSensor map[int]*Sensor
	CallSensor map[int]*Sensor
}

// Apply selects sensors from an analysis result.
func Apply(res *analysis.Result, cfg Config) *Instrumented {
	if cfg.MaxDepth == 0 {
		cfg.MaxDepth = DefaultMaxDepth
	}
	ins := &Instrumented{
		Prog:       res.Prog,
		Res:        res,
		Cfg:        cfg,
		LoopSensor: make(map[int]*Sensor),
		CallSensor: make(map[int]*Sensor),
	}

	// Scope: only whole-program (global) sensors are candidates, as in the
	// paper's implementation.
	var eligible []*analysis.Snippet
	for _, s := range res.GlobalSensors {
		if s.Depth >= cfg.MaxDepth {
			continue
		}
		if cfg.RequireProcessFixed && !s.ProcessFixed {
			continue
		}
		eligible = append(eligible, s)
	}

	// Outermost-first order: callers before callees (reverse bottom-up call
	// graph order), then shallower loops first, then source position.
	funcRank := make(map[string]int, len(res.Graph.Order))
	for i, name := range res.Graph.Order {
		funcRank[name] = len(res.Graph.Order) - i
	}
	sort.SliceStable(eligible, func(i, j int) bool {
		a, b := eligible[i], eligible[j]
		if fa, fb := funcRank[a.Func.Name], funcRank[b.Func.Name]; fa != fb {
			return fa < fb
		}
		if a.Depth != b.Depth {
			return a.Depth < b.Depth
		}
		return a.Pos.Before(b.Pos)
	})

	excludedLoops := make(map[int]bool) // loop IDs whose interior is covered
	excludedFuncs := make(map[string]bool)

	for _, s := range eligible {
		if !cfg.KeepNested && ins.covered(s, excludedLoops, excludedFuncs) {
			continue
		}
		sensor := &Sensor{
			ID:           len(ins.Sensors),
			Snippet:      s,
			Type:         s.Type,
			ProcessFixed: s.ProcessFixed,
			Name:         fmt.Sprintf("%s:%s@%s", s.Func.Name, s.ID(), s.Pos),
		}
		ins.Sensors = append(ins.Sensors, sensor)
		if s.Loop != nil {
			ins.LoopSensor[s.Loop.ID] = sensor
			excludedLoops[s.Loop.ID] = true
			ins.excludeCalleesInLoop(s.Loop, excludedFuncs)
		} else {
			ins.CallSensor[s.Call.ID] = sensor
			ins.excludeCallees(s.Call.Callee, excludedFuncs)
		}
	}
	return ins
}

// covered reports whether snippet s lies inside an already-selected sensor:
// within a selected loop of the same function, or in a function reachable
// from a selected sensor's interior.
func (ins *Instrumented) covered(s *analysis.Snippet, loops map[int]bool, funcs map[string]bool) bool {
	if funcs[s.Func.Name] {
		return true
	}
	for _, l := range s.EnclosingLoops() {
		if loops[l.ID] {
			return true
		}
	}
	return false
}

// excludeCalleesInLoop excludes every function called (transitively) from
// within the loop's body.
func (ins *Instrumented) excludeCalleesInLoop(l *ir.Loop, funcs map[string]bool) {
	for _, c := range l.Func.Calls {
		if withinLoop(c, l) {
			ins.excludeCallees(c.Callee, funcs)
		}
	}
}

func withinLoop(c *ir.CallSite, l *ir.Loop) bool {
	for cur := c.Loop; cur != nil; cur = cur.Parent {
		if cur == l {
			return true
		}
	}
	return false
}

// excludeCallees marks name and everything it calls as covered.
func (ins *Instrumented) excludeCallees(name string, funcs map[string]bool) {
	if _, defined := ins.Prog.Funcs[name]; !defined {
		return
	}
	for f := range ins.Res.Graph.ReachableFrom(name) {
		funcs[f] = true
	}
}

// CountByType returns the number of instrumented sensors per snippet type,
// formatted like the paper's Table 1 ("87Comp", "7Comp+5Net").
func (ins *Instrumented) CountByType() map[ir.SnippetType]int {
	out := make(map[ir.SnippetType]int)
	for _, s := range ins.Sensors {
		out[s.Type]++
	}
	return out
}

// TypeSummary renders the instrumented sensor counts Table 1 style.
func (ins *Instrumented) TypeSummary() string {
	counts := ins.CountByType()
	s := ""
	for _, t := range []ir.SnippetType{ir.Computation, ir.Network, ir.IO} {
		if counts[t] == 0 {
			continue
		}
		if s != "" {
			s += "+"
		}
		s += fmt.Sprintf("%d%s", counts[t], t)
	}
	if s == "" {
		s = "0"
	}
	return s
}

// EmitSource renders the program as instrumented mini-C source with
// vs_tick/vs_tock probe calls around every selected sensor — the paper's
// "map to source + instrument + recompile with the original compiler" path
// (workflow steps 3-5). Loop sensors are bracketed around the loop
// statement; call sensors around the statement containing the call.
func (ins *Instrumented) EmitSource() string {
	type probe struct{ ids []int }
	probes := make(map[minic.Stmt]*probe)

	addProbe := func(s minic.Stmt, id int) {
		p := probes[s]
		if p == nil {
			p = &probe{}
			probes[s] = p
		}
		p.ids = append(p.ids, id)
	}

	// Map each instrumented call to its containing statement.
	for _, f := range ins.Prog.AST.Funcs {
		minic.WalkStmts(f.Body, func(s minic.Stmt) {
			switch st := s.(type) {
			case *minic.ForStmt:
				if sensor, ok := ins.LoopSensor[st.LoopID]; ok {
					addProbe(s, sensor.ID)
				}
			case *minic.WhileStmt:
				if sensor, ok := ins.LoopSensor[st.LoopID]; ok {
					addProbe(s, sensor.ID)
				}
			}
			for _, e := range stmtExprs(s) {
				minic.WalkExprs(e, func(x minic.Expr) {
					if call, ok := x.(*minic.CallExpr); ok {
						if sensor, ok := ins.CallSensor[call.CallID]; ok {
							addProbe(s, sensor.ID)
						}
					}
				})
			}
		})
	}

	p := &minic.Printer{}
	p.BeforeStmt = func(pr *minic.Printer, s minic.Stmt) {
		if pb, ok := probes[s]; ok {
			for _, id := range pb.ids {
				pr.Line(fmt.Sprintf("vs_tick(%d);", id))
			}
		}
	}
	p.AfterStmt = func(pr *minic.Printer, s minic.Stmt) {
		if pb, ok := probes[s]; ok {
			for i := len(pb.ids) - 1; i >= 0; i-- {
				pr.Line(fmt.Sprintf("vs_tock(%d);", pb.ids[i]))
			}
		}
	}
	return p.Print(ins.Prog.AST)
}

// stmtExprs returns the direct expressions of a statement (not descending
// into nested statements).
func stmtExprs(s minic.Stmt) []minic.Expr {
	switch st := s.(type) {
	case *minic.VarDecl:
		return []minic.Expr{st.Init, st.Len}
	case *minic.AssignStmt:
		return []minic.Expr{st.Target, st.Value}
	case *minic.IfStmt:
		return []minic.Expr{st.Cond}
	case *minic.ReturnStmt:
		return []minic.Expr{st.Value}
	case *minic.ExprStmt:
		return []minic.Expr{st.X}
	}
	return nil
}
