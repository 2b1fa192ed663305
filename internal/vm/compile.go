package vm

import (
	"math"
	"sync/atomic"

	"vsensor/internal/minic"
	"vsensor/internal/resolve"
)

// The execute stage runs closures, not the AST: newMachine compiles the
// resolved program once into a tree of Go closures, and every rank goroutine
// runs that same tree. A closure captures only what is fixed per program —
// slots, constants, callee code, sensor IDs, source positions — and reaches
// everything a rank owns through its *interp argument, so the tree is
// immutable after compile and shared without synchronization. The one
// exception is each charge tape's segment cache, filled by whichever rank
// first needs an entry through atomic pointers; an entry is a pure function
// of its key, so the rank that fills it cannot change a result.
//
// What the closures must reproduce exactly is the cost-model call sequence:
// which pmu.AddInstructions and charge(cpu, mem) calls happen, with which
// operands, in which order relative to sub-evaluations, ticks and tocks.
// exprCostNs is not a dyadic rational, so the pending-cost sums are
// order-sensitive, and flush trips at a 5,000 ns threshold — one charge
// moved and every later virtual timestamp moves with it. Faults stay lazy
// for the same reason the resolver keeps them lazy: an undefined name,
// unknown callee or wrong arity compiles to a closure that faults when (and
// only when) it runs.
type (
	evalFn func(in *interp, base int) Value
	execFn func(in *interp, base int) ctrl
)

// code is a Machine's compiled program.
type code struct {
	globals []evalFn // one initializer per global, in declaration order
	main    *funcCode
	taped   []*minic.ForStmt // the loops compiled to a charge tape; a test holds every app kernel to one
}

// funcCode is one compiled user function.
type funcCode struct {
	decl *minic.FuncDecl
	body block
}

// block is a statement list entered without a step of its own: a function
// body, a then-branch, a loop body.
type block []execFn

func (b block) run(in *interp, base int) ctrl {
	for _, s := range b {
		if c := s(in, base); c != ctrlNone {
			return c
		}
	}
	return ctrlNone
}

type compiler struct {
	m *Machine
	// funcs holds every function reached so far. An entry is registered
	// before its body compiles, so recursive calls find their own code.
	funcs map[*minic.FuncDecl]*funcCode
	out   *code
}

func compile(m *Machine) *code {
	c := &compiler{m: m, funcs: make(map[*minic.FuncDecl]*funcCode), out: &code{}}
	for _, g := range m.prog.AST.Globals {
		c.out.globals = append(c.out.globals, c.global(g))
	}
	if m.mainFn != nil {
		c.out.main = c.fn(m.mainFn)
	}
	return c.out
}

func (c *compiler) fn(decl *minic.FuncDecl) *funcCode {
	if fc := c.funcs[decl]; fc != nil {
		return fc
	}
	fc := &funcCode{decl: decl}
	c.funcs[decl] = fc
	fc.body = c.block(decl.Body)
	return fc
}

func (c *compiler) global(g *minic.GlobalDecl) evalFn {
	return c.decl(g.Type, g.Len, g.Init, func(in *interp, n int) *RuntimeError {
		return rtErr(in.proc.Rank, g.Pos(), "negative array length %d for global %s", n, g.Name)
	})
}

// decl compiles the value a declaration stores: length, zero value,
// initializer, coercion, in that order. The parser's scalar shapes get their
// own closures; the general one takes whatever is left.
func (c *compiler) decl(t minic.Type, lenExpr, initExpr minic.Expr, negLen func(*interp, int) *RuntimeError) evalFn {
	var length, init evalFn
	if lenExpr != nil {
		length = c.expr(lenExpr)
	}
	if initExpr != nil {
		init = c.expr(initExpr)
	}
	if length == nil && !t.IsArray() {
		switch {
		case init == nil:
			return constant(zeroValue(t, 0))
		case t == minic.TypeInt:
			return func(in *interp, base int) Value { return IntVal(init(in, base).AsInt()) }
		case t == minic.TypeFloat:
			return func(in *interp, base int) Value { return FloatVal(init(in, base).AsFloat()) }
		}
	}
	return func(in *interp, base int) Value {
		n := 0
		if length != nil {
			if n = int(length(in, base).AsInt()); n < 0 {
				panic(negLen(in, n))
			}
		}
		v := zeroValue(t, n)
		if init != nil {
			v = coerce(init(in, base), t)
		}
		return v
	}
}

// ---------- statements ----------

func (c *compiler) block(b *minic.BlockStmt) block {
	out := make(block, len(b.Stmts))
	for i, s := range b.Stmts {
		out[i] = c.stmt(s)
	}
	return out
}

// stmt compiles a statement reached as a statement: it charges a step, then
// does its work. (A block reached through block.run does not.)
func (c *compiler) stmt(s minic.Stmt) execFn {
	pos := s.Pos()
	switch st := s.(type) {
	case *minic.BlockStmt:
		b := c.block(st)
		return func(in *interp, base int) ctrl {
			in.step(pos)
			return b.run(in, base)
		}
	case *minic.VarDecl:
		slot := int(st.Slot)
		decl := c.decl(st.Type, st.Len, st.Init, func(in *interp, n int) *RuntimeError {
			return rtErr(in.proc.Rank, pos, "negative array length %d for %s", n, st.Name)
		})
		return func(in *interp, base int) ctrl {
			in.step(pos)
			v := decl(in, base)
			in.stack[base+slot] = v
			return ctrlNone
		}
	case *minic.AssignStmt:
		return c.assign(st, pos)
	case *minic.IfStmt:
		cond, then := c.expr(st.Cond), c.block(st.Then)
		if st.Else == nil {
			return func(in *interp, base int) ctrl {
				in.step(pos)
				if truthy(cond(in, base)) {
					return then.run(in, base)
				}
				return ctrlNone
			}
		}
		els := c.stmt(st.Else)
		return func(in *interp, base int) ctrl {
			in.step(pos)
			if truthy(cond(in, base)) {
				return then.run(in, base)
			}
			return els(in, base)
		}
	case *minic.ForStmt:
		l := &loop{body: c.block(st.Body)}
		if st.Init != nil {
			l.init = c.stmt(st.Init)
		}
		if st.Cond != nil {
			l.cond = c.expr(st.Cond)
		}
		if st.Post != nil {
			l.post = c.stmt(st.Post)
		}
		if l.tape = c.tape(st); l.tape != nil {
			c.out.taped = append(c.out.taped, st)
		}
		return c.loop(l, st.LoopID, pos)
	case *minic.WhileStmt:
		return c.loop(&loop{cond: c.expr(st.Cond), body: c.block(st.Body)}, st.LoopID, pos)
	case *minic.ReturnStmt:
		if st.Value == nil {
			return func(in *interp, _ int) ctrl {
				in.step(pos)
				return ctrlReturn
			}
		}
		val := c.expr(st.Value)
		return func(in *interp, base int) ctrl {
			in.step(pos)
			in.ret = val(in, base)
			return ctrlReturn
		}
	case *minic.BreakStmt:
		return func(in *interp, _ int) ctrl {
			in.step(pos)
			return ctrlBreak
		}
	case *minic.ContinueStmt:
		return func(in *interp, _ int) ctrl {
			in.step(pos)
			return ctrlContinue
		}
	case *minic.ExprStmt:
		x := c.expr(st.X)
		return func(in *interp, base int) ctrl {
			in.step(pos)
			x(in, base)
			return ctrlNone
		}
	}
	return func(in *interp, _ int) ctrl {
		in.step(pos)
		return ctrlNone
	}
}

// loop is a for or while loop (a while has no init and no post).
type loop struct {
	init, post execFn
	cond       evalFn
	body       block
	tape       *tape // a counted kernel loop's charges, or nil
}

func (l *loop) run(in *interp, base int) ctrl {
	if l.init != nil {
		l.init(in, base)
	}
	if l.tape != nil && l.tape.run(in, base) {
		return ctrlNone
	}
	for {
		if l.cond != nil {
			in.op()
			if !truthy(l.cond(in, base)) {
				return ctrlNone
			}
		}
		switch l.body.run(in, base) {
		case ctrlBreak:
			return ctrlNone
		case ctrlReturn:
			return ctrlReturn
		}
		if l.post != nil {
			l.post(in, base)
		}
	}
}

// tape is a counted kernel loop, `for (…; i < n; i++) { flops(K); mem(M); }`,
// held as the charges one iteration makes rather than as closures: the
// condition's op, `<`'s op, each statement's step, op and builtin charge,
// then the post's step and op, as (cpu, mem) operands in that order.
//
// Replay jumps from flush to flush. The adds from one flush to the next
// depend only on the charge index j they start at and the pending sums they
// start from, and flush leaves those sums at exactly (0, 0). So the walk
// from a start state to the add that trips the flush is a segment, built
// once by adding the charges one by one exactly as charge would, and then
// looked up: the pending sums and the flush points stay the generic path's
// to the bit. There are at most len(charges) post-flush starts (j, 0, 0);
// a loop's first segment starts at j = 0 from whatever sums its call site
// brings, and a tape keeps at most maxEntryStates of those. Past that bound
// the first segment is walked uncached.
type tape struct {
	i, n    int   // local slots of the counter and the bound; n < 0: the bound is lit
	lit     int64 // the literal bound
	charges []cost
	instr   int64 // instructions one iteration retires
	steps   int64 // statements one iteration executes

	flushed []atomic.Pointer[segment]               // by start index j, from (0, 0)
	entries [maxEntryStates]atomic.Pointer[segment] // from j = 0, keyed by segment.from
}

// maxEntryStates bounds the distinct nonzero pending sums a tape caches a
// first segment for.
const maxEntryStates = 16

type cost struct{ cpu, mem float64 }

// segment is the walk from a start state up to and including the add that
// trips the flush.
type segment struct {
	from cost   // the pending sums it starts from
	n    uint64 // its adds
	out  cost   // the sums the flush converts
	// ends[m] is the pending sums after r + m·len(charges) adds, r = (2 − j)
	// mod len(charges), for every such count below n: where a loop can
	// stop, after its failing test's two charges.
	ends []cost
}

func (t *tape) add(instr int64, cpu, mem float64) {
	t.instr += instr
	t.charges = append(t.charges, cost{cpu, mem})
}

// tape compiles a for loop to a charge tape, or returns nil when it is not
// one: its condition must be local < local-or-int-literal, its post that
// local's `= i + 1` (what i++ parses to), and its body only flops(<int
// literal>) and mem(<int literal>) statements that are not sensor sites.
func (c *compiler) tape(st *minic.ForStmt) *tape {
	cond, ok := st.Cond.(*minic.BinaryExpr)
	if !ok || cond.Op != minic.Lt || !isLocal(cond.X, -1) {
		return nil
	}
	i := cond.X.(*minic.Ident).Slot
	post, ok := st.Post.(*minic.AssignStmt)
	if !ok || !isLocal(post.Target, i) {
		return nil
	}
	if sum, ok := post.Value.(*minic.BinaryExpr); !ok || sum.Op != minic.Plus || !isLocal(sum.X, i) || !isIntLit(sum.Y, 1) {
		return nil
	}
	t := &tape{i: int(i), n: -1}
	if lit, ok := cond.Y.(*minic.IntLit); ok {
		t.lit = lit.Value
	} else if n, ok := cond.Y.(*minic.Ident); ok && isLocal(n, -1) && n.Slot != i {
		t.n = int(n.Slot)
	} else {
		return nil
	}
	t.add(1, exprCostNs, 0) // the condition
	t.add(1, exprCostNs, 0) // <
	for _, s := range st.Body.Stmts {
		x, ok := s.(*minic.ExprStmt)
		if !ok {
			return nil
		}
		call, ok := x.X.(*minic.CallExpr)
		if !ok || call.Target != nil || len(call.Args) != 1 || !isIntLit(call.Args[0], -1) || c.m.sensorOfCall(call.CallID) >= 0 {
			return nil
		}
		k := max(call.Args[0].(*minic.IntLit).Value, 0)
		t.steps++
		t.add(1, stmtCostNs, 0)
		t.add(1, exprCostNs, 0)
		switch resolve.Builtin(call.Builtin) {
		case resolve.BuiltinFlops:
			t.add(k, float64(k)*flopCostNs, 0)
		case resolve.BuiltinMem:
			t.add(0, 0, float64(k)*memCostNs)
		default:
			return nil
		}
	}
	t.steps++ // the post
	t.add(1, stmtCostNs, 0)
	t.add(1, exprCostNs, 0)
	t.flushed = make([]atomic.Pointer[segment], len(t.charges))
	return t
}

// isLocal reports whether e is a local identifier, in slot if slot >= 0.
func isLocal(e minic.Expr, slot int32) bool {
	id, ok := e.(*minic.Ident)
	return ok && id.Scope == minic.ScopeLocal && (slot < 0 || id.Slot == slot)
}

// isIntLit reports whether e is an int literal, of value v if v >= 0.
func isIntLit(e minic.Expr, v int64) bool {
	lit, ok := e.(*minic.IntLit)
	return ok && (v < 0 || lit.Value == v)
}

// run replays the loop from its first test to its failing one and reports
// whether it could. i and n must hold ints and every step must fit under
// MaxSteps; otherwise the generic path runs the loop, and a step fault
// names its exact statement.
func (t *tape) run(in *interp, base int) bool {
	i, n := in.stack[base+t.i], IntVal(t.lit)
	if t.n >= 0 {
		n = in.stack[base+t.n]
	}
	if i.Kind != KInt || n.Kind != KInt {
		return false
	}
	var trips uint64
	if i.I < n.I {
		trips = uint64(n.I) - uint64(i.I)
	}
	size := uint64(len(t.charges))
	if trips > uint64(in.cfg.MaxSteps-in.steps)/uint64(t.steps) || trips > (math.MaxUint64-2)/size {
		return false
	}
	sum, j, left := cost{in.pendingCPU, in.pendingMem}, 0, trips*size+2 // adds to the failing test's last
	for {
		s := t.segment(j, sum)
		if s == nil { // past the entry bound: walk this one uncached, no further than the loop
			w := segment{}
			if w.n, w.out = t.walk(j, sum, left, nil); w.out.cpu+w.out.mem < flushThresholdNs {
				sum = w.out
				break
			}
			s = &w
		}
		if s.n > left {
			sum = s.ends[left/size]
			break
		}
		in.pendingCPU, in.pendingMem = s.out.cpu, s.out.mem
		in.flush()
		sum, j, left = cost{}, int((uint64(j)+s.n)%size), left-s.n
	}
	in.pendingCPU, in.pendingMem = sum.cpu, sum.mem
	in.pmu.AddInstructions(int64(trips)*t.instr + 2)
	in.steps += int64(trips) * t.steps
	if trips > 0 {
		in.stack[base+t.i] = IntVal(n.I)
	}
	return true
}

// segment returns the segment that starts at charge j from the pending sums
// sum, building and caching it on a miss; nil for a first segment past the
// entry bound.
func (t *tape) segment(j int, sum cost) *segment {
	var slot *atomic.Pointer[segment]
	if sum == (cost{}) {
		slot = &t.flushed[j]
		if s := slot.Load(); s != nil {
			return s
		}
	} else { // a loop's first segment: j is 0
		for k := range t.entries {
			s := t.entries[k].Load()
			if s == nil {
				slot = &t.entries[k]
				break
			}
			if s.from == sum {
				return s
			}
		}
		if slot == nil {
			return nil
		}
	}
	s := &segment{from: sum}
	s.n, s.out = t.walk(j, sum, math.MaxUint64, &s.ends)
	// A rank that loses the race keeps its own copy: both are the same pure
	// function of the key.
	slot.CompareAndSwap(nil, s)
	return s
}

// walk adds the charges from index j onto sum, one by one exactly as charge
// would, up to and including the add that trips the flush or until limit
// adds are done. It returns the adds it did and the sums they reached, and
// appends to ends, when non-nil, the sums at each count where a loop can
// stop.
func (t *tape) walk(j int, sum cost, limit uint64, ends *[]cost) (uint64, cost) {
	size := len(t.charges)
	stop := uint64((2 + size - j) % size)
	for n := uint64(0); ; {
		if ends != nil && n == stop {
			*ends = append(*ends, sum)
			stop += uint64(size)
		}
		if n == limit {
			return n, sum
		}
		c := t.charges[j]
		if j++; j == size {
			j = 0
		}
		sum.cpu += c.cpu
		sum.mem += c.mem
		if n++; sum.cpu+sum.mem >= flushThresholdNs {
			return n, sum
		}
	}
}

// loop wraps an instrumented loop in its sensor's tick/tock; the tock is
// deferred so a fault inside the loop still closes the record. Loops
// without a sensor carry no defer.
func (c *compiler) loop(l *loop, loopID int, pos minic.Pos) execFn {
	if sensor := c.m.sensorOfLoop(loopID); sensor >= 0 {
		return func(in *interp, base int) ctrl {
			in.step(pos)
			in.tick(sensor)
			defer in.tock(sensor)
			return l.run(in, base)
		}
	}
	return func(in *interp, base int) ctrl {
		in.step(pos)
		return l.run(in, base)
	}
}

// assign compiles target = value. The value is evaluated first; the target
// name faults next; only then is an index evaluated.
func (c *compiler) assign(st *minic.AssignStmt, pos minic.Pos) execFn {
	val := c.expr(st.Value)
	switch tgt := st.Target.(type) {
	case *minic.Ident:
		if tgt.Scope == minic.ScopeLocal {
			slot := int(tgt.Slot)
			return func(in *interp, base int) ctrl {
				in.step(pos)
				v := val(in, base)
				p := &in.stack[base+slot]
				*p = coerceLike(v, *p)
				return ctrlNone
			}
		}
		return func(in *interp, base int) ctrl {
			in.step(pos)
			v := val(in, base)
			p := in.global(tgt)
			*p = coerceLike(v, *p)
			return ctrlNone
		}
	case *minic.IndexExpr:
		index := c.expr(tgt.Index)
		if tgt.Array.Scope == minic.ScopeLocal {
			slot := int(tgt.Array.Slot)
			return func(in *interp, base int) ctrl {
				in.step(pos)
				v := val(in, base)
				idx := index(in, base).AsInt()
				// Read the slot after the index: a call in the index may
				// have moved the stack.
				in.store(&in.stack[base+slot], idx, v, tgt)
				return ctrlNone
			}
		}
		return func(in *interp, base int) ctrl {
			in.step(pos)
			v := val(in, base)
			arr := in.global(tgt.Array) // the globals array never moves
			in.store(arr, index(in, base).AsInt(), v, tgt)
			return ctrlNone
		}
	}
	return func(in *interp, base int) ctrl {
		in.step(pos)
		val(in, base)
		return ctrlNone
	}
}

// global returns the slot of an identifier that is not a local: a live
// global, or the undefined-variable fault.
func (in *interp) global(id *minic.Ident) *Value {
	if id.Scope == minic.ScopeGlobal && int(id.Slot) < in.liveGlobals {
		return &in.globals[id.Slot]
	}
	panic(rtErr(in.proc.Rank, id.Pos(), "undefined variable %q", id.Name))
}

func (in *interp) store(arr *Value, idx int64, v Value, tgt *minic.IndexExpr) {
	in.charge(0, memCostNs)
	switch arr.Kind {
	case KIntArr:
		in.boundCheck(tgt.Pos(), idx, len(arr.arr.ints))
		arr.arr.ints[idx] = v.AsInt()
	case KFloatArr:
		in.boundCheck(tgt.Pos(), idx, len(arr.arr.floats))
		arr.arr.floats[idx] = v.AsFloat()
	default:
		panic(rtErr(in.proc.Rank, tgt.Pos(), "indexing non-array %s", tgt.Array.Name))
	}
}

func (in *interp) load(arr *Value, idx int64, x *minic.IndexExpr) Value {
	in.charge(exprCostNs, memCostNs)
	switch arr.Kind {
	case KIntArr:
		in.boundCheck(x.Pos(), idx, len(arr.arr.ints))
		return IntVal(arr.arr.ints[idx])
	case KFloatArr:
		in.boundCheck(x.Pos(), idx, len(arr.arr.floats))
		return FloatVal(arr.arr.floats[idx])
	}
	panic(rtErr(in.proc.Rank, x.Pos(), "indexing non-array %q", x.Array.Name))
}

// ---------- expressions ----------

// op charges one evaluated expression node.
func (in *interp) op() {
	in.pmu.AddInstructions(1)
	in.charge(exprCostNs, 0)
}

func constant(v Value) evalFn {
	return func(*interp, int) Value { return v }
}

func (c *compiler) expr(e minic.Expr) evalFn {
	switch x := e.(type) {
	case *minic.Ident:
		if x.Scope == minic.ScopeLocal {
			slot := int(x.Slot)
			return func(in *interp, base int) Value { return in.stack[base+slot] }
		}
		return func(in *interp, _ int) Value { return *in.global(x) }
	case *minic.BinaryExpr:
		return c.binary(x)
	case *minic.IntLit:
		return constant(IntVal(x.Value))
	case *minic.FloatLit:
		return constant(FloatVal(x.Value))
	case *minic.StringLit:
		return constant(IntVal(0)) // strings only reach print(), handled there
	case *minic.IndexExpr:
		index := c.expr(x.Index)
		if x.Array.Scope == minic.ScopeLocal {
			slot := int(x.Array.Slot)
			return func(in *interp, base int) Value {
				idx := index(in, base).AsInt()
				return in.load(&in.stack[base+slot], idx, x)
			}
		}
		return func(in *interp, base int) Value {
			arr := in.global(x.Array)
			return in.load(arr, index(in, base).AsInt(), x)
		}
	case *minic.UnaryExpr:
		operand := c.expr(x.X)
		switch x.Op {
		case minic.Minus:
			return func(in *interp, base int) Value {
				v := operand(in, base)
				in.op()
				if v.Kind == KFloat {
					return FloatVal(-v.F)
				}
				return IntVal(-v.I)
			}
		case minic.Not:
			return func(in *interp, base int) Value {
				v := operand(in, base)
				in.op()
				return boolVal(!truthy(v))
			}
		}
		return func(in *interp, base int) Value {
			operand(in, base)
			in.op()
			panic(rtErr(in.proc.Rank, x.Pos(), "cannot evaluate expression"))
		}
	case *minic.CallExpr:
		return c.call(x)
	}
	pos := e.Pos()
	return func(in *interp, _ int) Value {
		panic(rtErr(in.proc.Rank, pos, "cannot evaluate expression"))
	}
}

// operands evaluates both sides of an arithmetic or comparison operator and
// then charges it; float reports whether the operation is a float one.
func operands(in *interp, base int, l, r evalFn) (a, b Value, float bool) {
	a, b = l(in, base), r(in, base)
	in.op()
	return a, b, a.Kind == KFloat || b.Kind == KFloat
}

func (c *compiler) binary(x *minic.BinaryExpr) evalFn {
	l, r := c.expr(x.X), c.expr(x.Y)
	switch x.Op {
	case minic.AndAnd: // the short-circuit operators charge before either side
		return func(in *interp, base int) Value {
			in.op()
			return boolVal(truthy(l(in, base)) && truthy(r(in, base)))
		}
	case minic.OrOr:
		return func(in *interp, base int) Value {
			in.op()
			return boolVal(truthy(l(in, base)) || truthy(r(in, base)))
		}
	case minic.Plus:
		return func(in *interp, base int) Value {
			a, b, float := operands(in, base, l, r)
			if float {
				return FloatVal(a.AsFloat() + b.AsFloat())
			}
			return IntVal(a.I + b.I)
		}
	case minic.Minus:
		return func(in *interp, base int) Value {
			a, b, float := operands(in, base, l, r)
			if float {
				return FloatVal(a.AsFloat() - b.AsFloat())
			}
			return IntVal(a.I - b.I)
		}
	case minic.Star:
		return func(in *interp, base int) Value {
			a, b, float := operands(in, base, l, r)
			if float {
				return FloatVal(a.AsFloat() * b.AsFloat())
			}
			return IntVal(a.I * b.I)
		}
	case minic.Slash:
		return func(in *interp, base int) Value {
			a, b, float := operands(in, base, l, r)
			if float {
				if b.AsFloat() == 0 {
					panic(rtErr(in.proc.Rank, x.Pos(), "division by zero"))
				}
				return FloatVal(a.AsFloat() / b.AsFloat())
			}
			if b.I == 0 {
				panic(rtErr(in.proc.Rank, x.Pos(), "division by zero"))
			}
			return IntVal(a.I / b.I)
		}
	case minic.Percent:
		return func(in *interp, base int) Value {
			a, b, float := operands(in, base, l, r)
			if float {
				if b.AsFloat() == 0 {
					panic(rtErr(in.proc.Rank, x.Pos(), "modulo by zero"))
				}
				return FloatVal(math.Mod(a.AsFloat(), b.AsFloat()))
			}
			if b.I == 0 {
				panic(rtErr(in.proc.Rank, x.Pos(), "modulo by zero"))
			}
			return IntVal(a.I % b.I)
		}
	case minic.Eq:
		return func(in *interp, base int) Value {
			a, b, float := operands(in, base, l, r)
			if float {
				return boolVal(a.AsFloat() == b.AsFloat())
			}
			return boolVal(a.I == b.I)
		}
	case minic.NotEq:
		return func(in *interp, base int) Value {
			a, b, float := operands(in, base, l, r)
			if float {
				return boolVal(a.AsFloat() != b.AsFloat())
			}
			return boolVal(a.I != b.I)
		}
	case minic.Lt:
		return func(in *interp, base int) Value {
			a, b, float := operands(in, base, l, r)
			if float {
				return boolVal(a.AsFloat() < b.AsFloat())
			}
			return boolVal(a.I < b.I)
		}
	case minic.Gt:
		return func(in *interp, base int) Value {
			a, b, float := operands(in, base, l, r)
			if float {
				return boolVal(a.AsFloat() > b.AsFloat())
			}
			return boolVal(a.I > b.I)
		}
	case minic.LtEq:
		return func(in *interp, base int) Value {
			a, b, float := operands(in, base, l, r)
			if float {
				return boolVal(a.AsFloat() <= b.AsFloat())
			}
			return boolVal(a.I <= b.I)
		}
	case minic.GtEq:
		return func(in *interp, base int) Value {
			a, b, float := operands(in, base, l, r)
			if float {
				return boolVal(a.AsFloat() >= b.AsFloat())
			}
			return boolVal(a.I >= b.I)
		}
	}
	return func(in *interp, base int) Value {
		operands(in, base, l, r)
		panic(rtErr(in.proc.Rank, x.Pos(), "unknown operator"))
	}
}

// ---------- calls ----------

// call compiles a call through its resolver pre-binding. A user call
// evaluates its arguments into the reusable argBuf scratch (stack
// discipline via mark, so a steady-state call allocates nothing), then
// ticks, then charges; a builtin ticks, charges, then evaluates the
// arguments it reads. Instrumented sites get the closure that ticks and
// defers the tock; the others carry no defer.
func (c *compiler) call(call *minic.CallExpr) evalFn {
	if call.Target == nil {
		return c.builtin(call)
	}
	fn, pos := c.fn(call.Target), call.Pos()
	args := make([]evalFn, len(call.Args))
	for i, a := range call.Args {
		args[i] = c.expr(a)
	}
	if sensor := c.m.sensorOfCall(call.CallID); sensor >= 0 {
		return func(in *interp, base int) Value {
			mark := in.pushArgs(args, base)
			in.tick(sensor)
			defer in.tock(sensor)
			return in.enter(fn, mark, pos)
		}
	}
	return func(in *interp, base int) Value {
		return in.enter(fn, in.pushArgs(args, base), pos)
	}
}

// pushArgs evaluates a call's arguments onto argBuf and returns the mark
// they start at.
func (in *interp) pushArgs(args []evalFn, base int) int {
	mark := len(in.argBuf)
	for _, a := range args {
		in.argBuf = append(in.argBuf, a(in, base))
	}
	return mark
}

// enter charges a user call and runs it on the arguments above mark.
func (in *interp) enter(fn *funcCode, mark int, pos minic.Pos) Value {
	in.pmu.AddInstructions(1)
	in.charge(stmtCostNs, 0)
	ret := in.callFn(fn, in.argBuf[mark:], pos)
	in.argBuf = in.argBuf[:mark]
	return ret
}

func (c *compiler) builtin(call *minic.CallExpr) evalFn {
	bi := resolve.Builtin(call.Builtin)
	// arg compiles the i-th argument; a missing one reads as 0.
	arg := func(i int) evalFn {
		if i < len(call.Args) {
			return c.expr(call.Args[i])
		}
		return constant(IntVal(0))
	}

	// print and the raw probes are never sensor sites and charge on their
	// own terms.
	switch bi {
	case resolve.BuiltinPrint:
		return c.print(call)
	case resolve.BuiltinVsTick:
		id := arg(0)
		return func(in *interp, base int) Value {
			in.tick(int(id(in, base).AsInt()))
			return IntVal(0)
		}
	case resolve.BuiltinVsTock:
		id := arg(0)
		return func(in *interp, base int) Value {
			in.tock(int(id(in, base).AsInt()))
			return IntVal(0)
		}
	}

	body := c.builtinBody(bi, call, arg)
	if sensor := c.m.sensorOfCall(call.CallID); sensor >= 0 {
		return func(in *interp, base int) Value {
			in.tick(sensor)
			defer in.tock(sensor)
			return body(in, base)
		}
	}
	return body
}

// print evaluates its non-literal arguments, then charges a statement. The
// argument and literal slices exist only when there is somewhere to print.
func (c *compiler) print(call *minic.CallExpr) evalFn {
	args := make([]evalFn, len(call.Args))
	lits := make([]string, len(call.Args))
	for i, a := range call.Args {
		if s, ok := a.(*minic.StringLit); ok {
			lits[i] = s.Value
			continue
		}
		args[i] = c.expr(a)
	}
	return func(in *interp, base int) Value {
		var vals []Value
		if in.cfg.Stdout != nil {
			vals = make([]Value, len(args))
		}
		for i, a := range args {
			if a == nil {
				continue
			}
			v := a(in, base)
			if vals != nil {
				vals[i] = v
			}
		}
		in.pmu.AddInstructions(1)
		in.charge(stmtCostNs, 0)
		if vals != nil {
			in.printf(vals, lits)
		}
		return IntVal(0)
	}
}

// builtinBody compiles everything a sensor would wrap: the expression
// charge, the arguments in the order the builtin reads them, the effect.
func (c *compiler) builtinBody(bi resolve.Builtin, call *minic.CallExpr, arg func(int) evalFn) evalFn {
	name := call.Name
	switch bi {
	case resolve.BuiltinMPICommRank:
		return func(in *interp, _ int) Value {
			in.op()
			return IntVal(int64(in.proc.Rank))
		}
	case resolve.BuiltinMPICommSize:
		return func(in *interp, _ int) Value {
			in.op()
			return IntVal(int64(in.proc.World.P))
		}
	case resolve.BuiltinMPIBarrier:
		return func(in *interp, _ int) Value {
			in.op()
			start := in.netBegin(call)
			in.proc.Barrier()
			in.netEnd(name, 0, start)
			return IntVal(0)
		}
	case resolve.BuiltinMPISend, resolve.BuiltinMPIISend:
		a0, a1, a2 := arg(0), arg(1), arg(2)
		isend := bi == resolve.BuiltinMPIISend
		return func(in *interp, base int) Value {
			in.op()
			dst, n, val := a0(in, base).AsInt(), a1(in, base).AsInt(), a2(in, base).AsFloat()
			in.checkRank(call, dst)
			start := in.netBegin(call)
			in.proc.Send(int(dst), n, val)
			in.netEnd(name, n, start)
			if !isend {
				return IntVal(0)
			}
			// Posted eagerly; completion is instantaneous for the sender.
			in.nextReq++
			in.postReq(in.nextReq, pendingReq{peer: int(dst), bytes: n})
			return IntVal(in.nextReq)
		}
	case resolve.BuiltinMPIRecv:
		a0, a1 := arg(0), arg(1)
		return func(in *interp, base int) Value {
			in.op()
			src, n := a0(in, base).AsInt(), a1(in, base).AsInt()
			in.checkRank(call, src)
			start := in.netBegin(call)
			v := in.proc.Recv(int(src), n)
			in.netEnd(name, n, start)
			return FloatVal(v)
		}
	case resolve.BuiltinMPIIRecv:
		a0, a1 := arg(0), arg(1)
		return func(in *interp, base int) Value {
			in.op()
			src, n := a0(in, base).AsInt(), a1(in, base).AsInt()
			in.checkRank(call, src)
			// Posting a receive costs almost nothing; the transfer is
			// charged at mpi_wait.
			in.nextReq++
			in.postReq(in.nextReq, pendingReq{isRecv: true, peer: int(src), bytes: n})
			return IntVal(in.nextReq)
		}
	case resolve.BuiltinMPIWait:
		a0 := arg(0)
		return func(in *interp, base int) Value {
			in.op()
			id := a0(in, base).AsInt()
			req, ok := in.takeReq(id)
			if !ok {
				panic(rtErr(in.proc.Rank, call.Pos(), "mpi_wait: unknown request %d", id))
			}
			if !req.isRecv {
				return FloatVal(0) // isend already completed at post time
			}
			start := in.netBegin(call)
			v := in.proc.Recv(req.peer, req.bytes)
			in.netEnd(name, req.bytes, start)
			return FloatVal(v)
		}
	case resolve.BuiltinMPISendRecv:
		a0, a1, a2 := arg(0), arg(1), arg(2)
		return func(in *interp, base int) Value {
			in.op()
			peer, n, val := a0(in, base).AsInt(), a1(in, base).AsInt(), a2(in, base).AsFloat()
			in.checkRank(call, peer)
			start := in.netBegin(call)
			v := in.proc.SendRecv(int(peer), n, val)
			in.netEnd(name, n, start)
			return FloatVal(v)
		}
	case resolve.BuiltinMPIAllreduce:
		a0, a1 := arg(0), arg(1)
		return func(in *interp, base int) Value {
			in.op()
			n, contrib := a0(in, base).AsInt(), a1(in, base).AsFloat()
			start := in.netBegin(call)
			v := in.proc.Allreduce(n, contrib)
			in.netEnd(name, n, start)
			return FloatVal(v)
		}
	case resolve.BuiltinMPIAlltoall:
		a0 := arg(0)
		return func(in *interp, base int) Value {
			in.op()
			n := a0(in, base).AsInt()
			start := in.netBegin(call)
			in.proc.Alltoall(n)
			in.netEnd(name, n, start)
			return IntVal(0)
		}
	case resolve.BuiltinMPIBcast, resolve.BuiltinMPIReduce:
		a0, a1, a2 := arg(0), arg(1), arg(2)
		bcast := bi == resolve.BuiltinMPIBcast
		return func(in *interp, base int) Value {
			in.op()
			root, n, val := a0(in, base).AsInt(), a1(in, base).AsInt(), a2(in, base).AsFloat()
			in.checkRank(call, root)
			start := in.netBegin(call)
			var v float64
			if bcast {
				v = in.proc.Bcast(int(root), n, val)
			} else {
				v = in.proc.Reduce(int(root), n, val)
			}
			in.netEnd(name, n, start)
			return FloatVal(v)
		}
	case resolve.BuiltinIORead, resolve.BuiltinIOWrite:
		a0 := arg(0)
		read := bi == resolve.BuiltinIORead
		return func(in *interp, base int) Value {
			in.op()
			n := a0(in, base).AsInt()
			in.flush()
			start := in.proc.Now()
			in.proc.AdvanceTo(start + in.cfg.Cluster.IOCost(start, n))
			end := in.proc.Now()
			in.ioNs += end - start
			if in.events != nil {
				in.events.OnEvent(Event{Rank: in.proc.Rank, Kind: EvIO, Op: name, Start: start, End: end, Bytes: n})
			}
			if read {
				return IntVal(n)
			}
			return IntVal(0)
		}
	case resolve.BuiltinFlops:
		a0 := arg(0)
		return func(in *interp, base int) Value {
			in.op()
			n := max(a0(in, base).AsInt(), 0)
			in.pmu.AddInstructions(n)
			in.charge(float64(n)*flopCostNs, 0)
			return IntVal(0)
		}
	case resolve.BuiltinMem:
		a0 := arg(0)
		return func(in *interp, base int) Value {
			in.op()
			n := max(a0(in, base).AsInt(), 0)
			in.charge(0, float64(n)*memCostNs)
			return IntVal(0)
		}
	case resolve.BuiltinAbsI:
		a0 := arg(0)
		return func(in *interp, base int) Value {
			in.op()
			v := a0(in, base).AsInt()
			if v < 0 {
				v = -v
			}
			return IntVal(v)
		}
	case resolve.BuiltinMinI:
		a0, a1 := arg(0), arg(1)
		return func(in *interp, base int) Value {
			in.op()
			return IntVal(min(a0(in, base).AsInt(), a1(in, base).AsInt()))
		}
	case resolve.BuiltinMaxI:
		a0, a1 := arg(0), arg(1)
		return func(in *interp, base int) Value {
			in.op()
			return IntVal(max(a0(in, base).AsInt(), a1(in, base).AsInt()))
		}
	case resolve.BuiltinSqrtF:
		a0 := arg(0)
		return func(in *interp, base int) Value {
			in.op()
			return FloatVal(math.Sqrt(a0(in, base).AsFloat()))
		}
	case resolve.BuiltinRandI:
		a0 := arg(0)
		return func(in *interp, base int) Value {
			in.op()
			n := a0(in, base).AsInt()
			if n <= 0 {
				return IntVal(0)
			}
			in.rng = in.rng*6364136223846793005 + 1442695040888963407
			return IntVal(int64(in.rng>>33) % n)
		}
	}
	return func(in *interp, _ int) Value {
		in.op()
		panic(rtErr(in.proc.Rank, call.Pos(), "call to undefined function %q", name))
	}
}
