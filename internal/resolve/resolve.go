// Package resolve is the compile-time name-resolution pass of the rank VM's
// resolve → compile → execute engine. It runs once per compiled program
// (ir.Build invokes it) and lexically addresses every identifier to a frame
// slot, so the VM's closure compiler turns variable accesses into direct
// indexes into a flat []Value frame — no scope maps, no string hashing, no
// per-block allocation.
//
// The pass annotates the AST in place:
//
//   - every minic.Ident gets a (Scope, Slot) binding,
//   - every minic.VarDecl gets its frame slot,
//   - every minic.FuncDecl gets its frame size (params + locals),
//   - every minic.GlobalDecl gets its index in the global array,
//   - every minic.CallExpr gets a pre-bound user-function target or a dense
//     builtin-dispatch index.
//
// Resolution mirrors the dynamic scoping discipline of a scope-map
// interpreter exactly: a declaration is visible from the statement after it
// to the end of its block, inner declarations shadow outer ones and globals,
// and a name with no visible declaration stays ScopeUnresolved — it faults
// at run time only if the referencing statement executes, so dead code with
// undefined names keeps running as before. Because mini-C has no forward
// jumps, a slot's declaration statement always executes before any use that
// binds to it, which is what lets the VM reuse frame memory without
// clearing it on scope entry.
package resolve

import (
	"fmt"
	"sort"
	"strings"

	"vsensor/internal/minic"
)

// Builtin identifies one runtime builtin for dense dispatch. The zero value
// BuiltinNone marks calls that are not builtins (user-defined targets and
// unknown names).
type Builtin int16

// Builtin dispatch indexes.
const (
	BuiltinNone Builtin = iota
	BuiltinPrint
	BuiltinVsTick
	BuiltinVsTock
	BuiltinMPICommRank
	BuiltinMPICommSize
	BuiltinMPIBarrier
	BuiltinMPISend
	BuiltinMPIRecv
	BuiltinMPIISend
	BuiltinMPIIRecv
	BuiltinMPIWait
	BuiltinMPISendRecv
	BuiltinMPIAllreduce
	BuiltinMPIAlltoall
	BuiltinMPIBcast
	BuiltinMPIReduce
	BuiltinIORead
	BuiltinIOWrite
	BuiltinFlops
	BuiltinMem
	BuiltinAbsI
	BuiltinMinI
	BuiltinMaxI
	BuiltinSqrtF
	BuiltinRandI

	// NumBuiltins is one past the last builtin index.
	NumBuiltins
)

var builtinByName = map[string]Builtin{
	"print":         BuiltinPrint,
	"vs_tick":       BuiltinVsTick,
	"vs_tock":       BuiltinVsTock,
	"mpi_comm_rank": BuiltinMPICommRank,
	"mpi_comm_size": BuiltinMPICommSize,
	"mpi_barrier":   BuiltinMPIBarrier,
	"mpi_send":      BuiltinMPISend,
	"mpi_recv":      BuiltinMPIRecv,
	"mpi_isend":     BuiltinMPIISend,
	"mpi_irecv":     BuiltinMPIIRecv,
	"mpi_wait":      BuiltinMPIWait,
	"mpi_sendrecv":  BuiltinMPISendRecv,
	"mpi_allreduce": BuiltinMPIAllreduce,
	"mpi_alltoall":  BuiltinMPIAlltoall,
	"mpi_bcast":     BuiltinMPIBcast,
	"mpi_reduce":    BuiltinMPIReduce,
	"io_read":       BuiltinIORead,
	"io_write":      BuiltinIOWrite,
	"flops":         BuiltinFlops,
	"mem":           BuiltinMem,
	"abs_i":         BuiltinAbsI,
	"min_i":         BuiltinMinI,
	"max_i":         BuiltinMaxI,
	"sqrt_f":        BuiltinSqrtF,
	"rand_i":        BuiltinRandI,
}

// BuiltinOf returns the dispatch index for a builtin name, or BuiltinNone.
func BuiltinOf(name string) Builtin { return builtinByName[name] }

// Info summarizes one resolution, for diagnostics and golden tests.
type Info struct {
	// NumGlobals is the size of the per-rank global array.
	NumGlobals int

	// Frames maps each function to its frame size in slots.
	Frames map[string]int

	// Unresolved counts identifier occurrences with no visible declaration
	// (they fault only if executed).
	Unresolved int
}

// Describe renders a resolved program's slot assignment as stable text:
// global slots, then per-function frame sizes with every declaration's
// slot. Used by golden tests to pin the slot model.
func Describe(ast *minic.Program) string {
	var b strings.Builder
	for _, g := range ast.Globals {
		fmt.Fprintf(&b, "global %s -> g%d\n", g.Name, g.Slot)
	}
	names := make([]string, 0, len(ast.Funcs))
	byName := make(map[string]*minic.FuncDecl, len(ast.Funcs))
	for _, f := range ast.Funcs {
		names = append(names, f.Name)
		byName[f.Name] = f
	}
	sort.Strings(names)
	for _, name := range names {
		f := byName[name]
		fmt.Fprintf(&b, "func %s frame=%d\n", f.Name, f.NumSlots)
		for i, p := range f.Params {
			fmt.Fprintf(&b, "  param %s -> s%d\n", p.Name, i)
		}
		minic.WalkStmts(f.Body, func(s minic.Stmt) {
			if d, ok := s.(*minic.VarDecl); ok {
				fmt.Fprintf(&b, "  var %s@%s -> s%d\n", d.Name, d.Pos(), d.Slot)
			}
		})
		walkFuncExprs(f, func(e minic.Expr) {
			if id, ok := e.(*minic.Ident); ok {
				fmt.Fprintf(&b, "  use %s@%s -> %s\n", id.Name, id.Pos(), bindingString(id))
			}
		})
	}
	return b.String()
}

func bindingString(id *minic.Ident) string {
	switch id.Scope {
	case minic.ScopeLocal:
		return fmt.Sprintf("s%d", id.Slot)
	case minic.ScopeGlobal:
		return fmt.Sprintf("g%d", id.Slot)
	}
	return "unresolved"
}

// walkFuncExprs visits every expression of a function in statement order.
func walkFuncExprs(f *minic.FuncDecl, fn func(minic.Expr)) {
	minic.WalkStmts(f.Body, func(s minic.Stmt) {
		for _, e := range stmtExprs(s) {
			minic.WalkExprs(e, fn)
		}
	})
}

func stmtExprs(s minic.Stmt) []minic.Expr {
	switch st := s.(type) {
	case *minic.VarDecl:
		return []minic.Expr{st.Len, st.Init}
	case *minic.AssignStmt:
		return []minic.Expr{st.Target, st.Value}
	case *minic.IfStmt:
		return []minic.Expr{st.Cond}
	case *minic.ForStmt:
		return []minic.Expr{st.Cond}
	case *minic.WhileStmt:
		return []minic.Expr{st.Cond}
	case *minic.ReturnStmt:
		return []minic.Expr{st.Value}
	case *minic.ExprStmt:
		return []minic.Expr{st.X}
	}
	return nil
}

// Resolve annotates ast with slot bindings and returns a summary. It is
// idempotent: re-resolving recomputes identical annotations, so building
// the same AST twice is safe.
func Resolve(ast *minic.Program) *Info {
	r := &resolver{
		ast:  ast,
		info: &Info{Frames: make(map[string]int, len(ast.Funcs))},
	}
	r.globalSlot = make(map[string]int32, len(ast.Globals))

	// Globals resolve in declaration order; an initializer sees only
	// earlier globals (a scope-map interpreter fills the global table
	// progressively, so a forward reference is undefined at run time).
	for i, g := range ast.Globals {
		g.Slot = int32(i)
	}
	for i, g := range ast.Globals {
		r.resolveExpr(g.Len)
		r.resolveExpr(g.Init)
		r.globalSlot[g.Name] = int32(i)
	}
	r.info.NumGlobals = len(ast.Globals)

	for _, f := range ast.Funcs {
		r.resolveFunc(f)
	}
	ast.Resolved = true
	return r.info
}

// binding is one visible local declaration.
type binding struct {
	name string
	slot int32
}

type resolver struct {
	ast        *minic.Program
	info       *Info
	globalSlot map[string]int32

	// Per-function lexical state: ents is the stack of visible local
	// bindings, scopes marks block boundaries as indexes into ents, next is
	// the function's slot high-water mark.
	ents   []binding
	scopes []int
	next   int32
}

func (r *resolver) push() { r.scopes = append(r.scopes, len(r.ents)) }
func (r *resolver) pop() {
	r.ents = r.ents[:r.scopes[len(r.scopes)-1]]
	r.scopes = r.scopes[:len(r.scopes)-1]
}
func (r *resolver) declare(name string) int32 {
	slot := r.next
	r.next++
	r.ents = append(r.ents, binding{name, slot})
	return slot
}

// bind resolves one identifier against the current lexical state. Locals
// shadow globals; the most recent declaration of a name wins.
func (r *resolver) bind(id *minic.Ident) {
	for i := len(r.ents) - 1; i >= 0; i-- {
		if r.ents[i].name == id.Name {
			id.Scope, id.Slot = minic.ScopeLocal, r.ents[i].slot
			return
		}
	}
	if slot, ok := r.globalSlot[id.Name]; ok {
		id.Scope, id.Slot = minic.ScopeGlobal, slot
		return
	}
	id.Scope, id.Slot = minic.ScopeUnresolved, 0
	r.info.Unresolved++
}

func (r *resolver) resolveFunc(f *minic.FuncDecl) {
	r.ents = r.ents[:0]
	r.scopes = r.scopes[:0]
	r.next = 0
	r.push()
	for _, p := range f.Params {
		// Parameters occupy slots 0..len(Params)-1; a duplicate name binds
		// subsequent uses to the later parameter, like a map-based scope.
		r.declare(p.Name)
	}
	r.resolveBlock(f.Body)
	r.pop()
	f.NumSlots = r.next
	r.info.Frames[f.Name] = int(r.next)
}

func (r *resolver) resolveBlock(b *minic.BlockStmt) {
	r.push()
	for _, s := range b.Stmts {
		r.resolveStmt(s)
	}
	r.pop()
}

func (r *resolver) resolveStmt(s minic.Stmt) {
	switch st := s.(type) {
	case nil:
	case *minic.BlockStmt:
		r.resolveBlock(st)
	case *minic.VarDecl:
		// The initializer is resolved before the declaration becomes
		// visible: `int x = x + 1;` binds the right-hand x to the outer x.
		r.resolveExpr(st.Len)
		r.resolveExpr(st.Init)
		st.Slot = r.declare(st.Name)
	case *minic.AssignStmt:
		r.resolveExpr(st.Value)
		r.resolveExpr(st.Target)
	case *minic.IfStmt:
		r.resolveExpr(st.Cond)
		r.resolveBlock(st.Then)
		r.resolveStmt(st.Else)
	case *minic.ForStmt:
		r.push() // scope for the init declaration
		r.resolveStmt(st.Init)
		r.resolveExpr(st.Cond)
		r.resolveStmt(st.Post)
		r.resolveBlock(st.Body)
		r.pop()
	case *minic.WhileStmt:
		r.resolveExpr(st.Cond)
		r.resolveBlock(st.Body)
	case *minic.ReturnStmt:
		r.resolveExpr(st.Value)
	case *minic.ExprStmt:
		r.resolveExpr(st.X)
	}
}

func (r *resolver) resolveExpr(e minic.Expr) {
	switch x := e.(type) {
	case nil:
	case *minic.Ident:
		r.bind(x)
	case *minic.IndexExpr:
		r.bind(x.Array)
		r.resolveExpr(x.Index)
	case *minic.UnaryExpr:
		r.resolveExpr(x.X)
	case *minic.BinaryExpr:
		r.resolveExpr(x.X)
		r.resolveExpr(x.Y)
	case *minic.CallExpr:
		r.bindCall(x)
		for _, a := range x.Args {
			r.resolveExpr(a)
		}
	}
}

// bindCall pre-binds the call's dispatch: a user-defined function target
// wins (ir.Build rejects programs whose functions shadow builtins), then a
// builtin index; unknown names keep Target nil and BuiltinNone and fault
// only if executed.
func (r *resolver) bindCall(call *minic.CallExpr) {
	if fn := r.ast.Func(call.Name); fn != nil {
		call.Target, call.Builtin = fn, int16(BuiltinNone)
		return
	}
	call.Target, call.Builtin = nil, int16(BuiltinOf(call.Name))
}
