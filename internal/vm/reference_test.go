package vm

import (
	"errors"
	"math"

	"vsensor/internal/cluster"
	"vsensor/internal/minic"
	"vsensor/internal/mpisim"
	"vsensor/internal/resolve"
)

// The reference engine: the tree-walking interpreter the closure compiler
// replaced, kept verbatim as the independent implementation the compiled
// code is diffed against (TestEngineDifferential, FuzzEngineDifferential).
// It walks the resolved AST directly and shares with production only the
// rank state (interp), the cost model (charge, flush, step, tick, tock) and
// the value helpers — none of the compiled code.

// refRun is Machine.Run with the reference engine and no observability.
func refRun(m *Machine) *Result {
	cfg := m.cfg
	if cfg.Ranks <= 0 {
		cfg.Ranks = 1
	}
	if cfg.Cluster == nil {
		cfg.Cluster = cluster.New(cluster.Config{Nodes: 1, RanksPerNode: cfg.Ranks})
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = defaultMaxSteps
	}
	if m.mainFn == nil {
		return &Result{Ranks: []RankStats{{Err: errors.New("vm: program has no main function")}}}
	}
	stats := make([]RankStats, cfg.Ranks)
	total := mpisim.NewWorld(cfg.Ranks, cfg.Cluster).Run(func(p *mpisim.Proc) {
		in := newInterp(m, p, cfg)
		err := in.refRunMain()
		in.flush()
		stats[p.Rank] = RankStats{
			Rank:    p.Rank,
			Total:   p.Now(),
			CompNs:  in.compNs,
			NetNs:   in.netNs,
			IONs:    in.ioNs,
			Instr:   in.pmu.Exact(),
			Records: in.records,
			Err:     err,
		}
	})
	return &Result{TotalNs: total, Ranks: stats}
}

// refRunMain initializes globals and executes main().
func (in *interp) refRunMain() (err error) {
	defer func() {
		if r := recover(); r != nil {
			if re := in.fault(r); re != nil {
				err = re
				return
			}
			panic(r)
		}
	}()
	ast := in.m.prog.AST
	in.globals = make([]Value, len(ast.Globals))
	for i, g := range ast.Globals {
		in.liveGlobals = i
		arrLen := 0
		if g.Len != nil {
			arrLen = int(in.eval(0, g.Len).AsInt())
			if arrLen < 0 {
				panic(rtErr(in.proc.Rank, g.Pos(), "negative array length %d for global %s", arrLen, g.Name))
			}
		}
		v := zeroValue(g.Type, arrLen)
		if g.Init != nil {
			v = coerce(in.eval(0, g.Init), g.Type)
		}
		in.globals[i] = v
	}
	in.liveGlobals = len(ast.Globals)
	in.refCallFn(in.m.mainFn, nil, minic.Pos{Line: 1, Col: 1})
	return nil
}

// ---------- statements ----------

// execBlock runs a block's statements. Scope entry/exit is free: slot
// layout was fixed at resolve time, so blocks need no runtime bookkeeping.
func (in *interp) execBlock(base int, b *minic.BlockStmt, ret *Value) ctrl {
	for _, s := range b.Stmts {
		if c := in.execStmt(base, s, ret); c != ctrlNone {
			return c
		}
	}
	return ctrlNone
}

func (in *interp) execStmt(base int, s minic.Stmt, ret *Value) ctrl {
	in.step(s.Pos())
	switch st := s.(type) {
	case *minic.BlockStmt:
		return in.execBlock(base, st, ret)
	case *minic.VarDecl:
		arrLen := 0
		if st.Len != nil {
			arrLen = int(in.eval(base, st.Len).AsInt())
			if arrLen < 0 {
				panic(rtErr(in.proc.Rank, st.Pos(), "negative array length %d for %s", arrLen, st.Name))
			}
		}
		v := zeroValue(st.Type, arrLen)
		if st.Init != nil {
			v = coerce(in.eval(base, st.Init), st.Type)
		}
		in.stack[base+int(st.Slot)] = v
	case *minic.AssignStmt:
		in.assign(base, st)
	case *minic.IfStmt:
		if truthy(in.eval(base, st.Cond)) {
			return in.execBlock(base, st.Then, ret)
		}
		if st.Else != nil {
			return in.execStmt(base, st.Else, ret)
		}
	case *minic.ForStmt:
		return in.execFor(base, st, ret)
	case *minic.WhileStmt:
		return in.execWhile(base, st, ret)
	case *minic.ReturnStmt:
		if st.Value != nil && ret != nil {
			*ret = in.eval(base, st.Value)
		}
		return ctrlReturn
	case *minic.BreakStmt:
		return ctrlBreak
	case *minic.ContinueStmt:
		return ctrlContinue
	case *minic.ExprStmt:
		in.eval(base, st.X)
	}
	return ctrlNone
}

func (in *interp) execFor(base int, st *minic.ForStmt, ret *Value) ctrl {
	sensor := in.m.sensorOfLoop(st.LoopID)
	if sensor >= 0 {
		in.tick(sensor)
		defer in.tock(sensor)
	}
	if st.Init != nil {
		in.execStmt(base, st.Init, ret)
	}
	for {
		if st.Cond != nil {
			in.pmu.AddInstructions(1)
			in.charge(exprCostNs, 0)
			if !truthy(in.eval(base, st.Cond)) {
				break
			}
		}
		c := in.execBlock(base, st.Body, ret)
		if c == ctrlBreak {
			break
		}
		if c == ctrlReturn {
			return ctrlReturn
		}
		if st.Post != nil {
			in.execStmt(base, st.Post, ret)
		}
	}
	return ctrlNone
}

func (in *interp) execWhile(base int, st *minic.WhileStmt, ret *Value) ctrl {
	sensor := in.m.sensorOfLoop(st.LoopID)
	if sensor >= 0 {
		in.tick(sensor)
		defer in.tock(sensor)
	}
	for {
		in.pmu.AddInstructions(1)
		in.charge(exprCostNs, 0)
		if !truthy(in.eval(base, st.Cond)) {
			return ctrlNone
		}
		c := in.execBlock(base, st.Body, ret)
		if c == ctrlBreak {
			return ctrlNone
		}
		if c == ctrlReturn {
			return ctrlReturn
		}
	}
}

func (in *interp) assign(base int, st *minic.AssignStmt) {
	val := in.eval(base, st.Value)
	switch tgt := st.Target.(type) {
	case *minic.Ident:
		slot := in.slotOf(base, tgt)
		*slot = coerceLike(val, *slot)
	case *minic.IndexExpr:
		arr := in.slotOf(base, tgt.Array)
		idx := in.eval(base, tgt.Index).AsInt()
		in.charge(0, memCostNs)
		switch arr.Kind {
		case KIntArr:
			in.boundCheck(tgt.Pos(), idx, len(arr.arr.ints))
			arr.arr.ints[idx] = val.AsInt()
		case KFloatArr:
			in.boundCheck(tgt.Pos(), idx, len(arr.arr.floats))
			arr.arr.floats[idx] = val.AsFloat()
		default:
			panic(rtErr(in.proc.Rank, tgt.Pos(), "indexing non-array %s", tgt.Array.Name))
		}
	}
}

// slotOf returns the storage slot of a resolved identifier: a direct frame
// or global index. Unresolved names fault here, preserving the lazy
// undefined-variable semantics of the scope-map interpreter.
func (in *interp) slotOf(base int, id *minic.Ident) *Value {
	switch id.Scope {
	case minic.ScopeLocal:
		return &in.stack[base+int(id.Slot)]
	case minic.ScopeGlobal:
		if int(id.Slot) < in.liveGlobals {
			return &in.globals[id.Slot]
		}
	}
	panic(rtErr(in.proc.Rank, id.Pos(), "undefined variable %q", id.Name))
}

// refCallFn executes a user-defined function over a frame window pushed onto
// the value stack. args may alias in.argBuf; they are copied (with
// coercion) into the frame before evaluation continues.
func (in *interp) refCallFn(fn *minic.FuncDecl, args []Value, pos minic.Pos) Value {
	if len(args) != len(fn.Params) {
		panic(rtErr(in.proc.Rank, pos, "%s expects %d args, got %d", fn.Name, len(fn.Params), len(args)))
	}
	nb := len(in.stack)
	top := nb + int(fn.NumSlots)
	if top <= cap(in.stack) {
		in.stack = in.stack[:top]
	} else {
		in.stack = append(in.stack, make([]Value, top-nb)...)
	}
	for i, p := range fn.Params {
		in.stack[nb+i] = coerce(args[i], p.Type)
	}
	var ret Value
	if fn.Ret == minic.TypeFloat {
		ret = FloatVal(0)
	}
	in.execBlock(nb, fn.Body, &ret)
	// Clear the frame before popping so array values don't outlive the
	// activation in the reused stack memory. Slots are never read before
	// their declaration re-executes, so this is purely for the GC.
	clear(in.stack[nb:])
	in.stack = in.stack[:nb]
	return coerce(ret, fn.Ret)
}

func (in *interp) eval(base int, e minic.Expr) Value {
	// Cases ordered by dynamic frequency: identifier loads and binary
	// arithmetic dominate interpreted expression traffic.
	switch x := e.(type) {
	case *minic.Ident:
		return *in.slotOf(base, x)
	case *minic.BinaryExpr:
		return in.evalBinary(base, x)
	case *minic.IntLit:
		return IntVal(x.Value)
	case *minic.FloatLit:
		return FloatVal(x.Value)
	case *minic.StringLit:
		return IntVal(0) // strings only reach print(), handled there
	case *minic.IndexExpr:
		arr := in.slotOf(base, x.Array)
		idx := in.eval(base, x.Index).AsInt()
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
	case *minic.UnaryExpr:
		v := in.eval(base, x.X)
		in.pmu.AddInstructions(1)
		in.charge(exprCostNs, 0)
		switch x.Op {
		case minic.Minus:
			if v.Kind == KFloat {
				return FloatVal(-v.F)
			}
			return IntVal(-v.I)
		case minic.Not:
			if truthy(v) {
				return IntVal(0)
			}
			return IntVal(1)
		}
	case *minic.CallExpr:
		return in.evalCall(base, x)
	}
	panic(rtErr(in.proc.Rank, e.Pos(), "cannot evaluate expression"))
}

func (in *interp) evalBinary(base int, x *minic.BinaryExpr) Value {
	// Short-circuit logicals.
	switch x.Op {
	case minic.AndAnd:
		in.pmu.AddInstructions(1)
		in.charge(exprCostNs, 0)
		if !truthy(in.eval(base, x.X)) {
			return IntVal(0)
		}
		return boolVal(truthy(in.eval(base, x.Y)))
	case minic.OrOr:
		in.pmu.AddInstructions(1)
		in.charge(exprCostNs, 0)
		if truthy(in.eval(base, x.X)) {
			return IntVal(1)
		}
		return boolVal(truthy(in.eval(base, x.Y)))
	}

	a := in.eval(base, x.X)
	b := in.eval(base, x.Y)
	in.pmu.AddInstructions(1)
	in.charge(exprCostNs, 0)

	if a.Kind == KFloat || b.Kind == KFloat {
		af, bf := a.AsFloat(), b.AsFloat()
		switch x.Op {
		case minic.Plus:
			return FloatVal(af + bf)
		case minic.Minus:
			return FloatVal(af - bf)
		case minic.Star:
			return FloatVal(af * bf)
		case minic.Slash:
			if bf == 0 {
				panic(rtErr(in.proc.Rank, x.Pos(), "division by zero"))
			}
			return FloatVal(af / bf)
		case minic.Percent:
			if bf == 0 {
				panic(rtErr(in.proc.Rank, x.Pos(), "modulo by zero"))
			}
			return FloatVal(math.Mod(af, bf))
		case minic.Eq:
			return boolVal(af == bf)
		case minic.NotEq:
			return boolVal(af != bf)
		case minic.Lt:
			return boolVal(af < bf)
		case minic.Gt:
			return boolVal(af > bf)
		case minic.LtEq:
			return boolVal(af <= bf)
		case minic.GtEq:
			return boolVal(af >= bf)
		}
	}
	ai, bi := a.I, b.I
	switch x.Op {
	case minic.Plus:
		return IntVal(ai + bi)
	case minic.Minus:
		return IntVal(ai - bi)
	case minic.Star:
		return IntVal(ai * bi)
	case minic.Slash:
		if bi == 0 {
			panic(rtErr(in.proc.Rank, x.Pos(), "division by zero"))
		}
		return IntVal(ai / bi)
	case minic.Percent:
		if bi == 0 {
			panic(rtErr(in.proc.Rank, x.Pos(), "modulo by zero"))
		}
		return IntVal(ai % bi)
	case minic.Eq:
		return boolVal(ai == bi)
	case minic.NotEq:
		return boolVal(ai != bi)
	case minic.Lt:
		return boolVal(ai < bi)
	case minic.Gt:
		return boolVal(ai > bi)
	case minic.LtEq:
		return boolVal(ai <= bi)
	case minic.GtEq:
		return boolVal(ai >= bi)
	}
	panic(rtErr(in.proc.Rank, x.Pos(), "unknown operator"))
}

// ---------- calls ----------

// evalCall dispatches a call through its resolver pre-binding: user-defined
// targets are direct *FuncDecl pointers (no name lookup), everything else
// goes to the dense builtin switch. Arguments for user calls are evaluated
// into the reusable argBuf scratch (stack discipline via mark), so a
// steady-state call allocates nothing.
func (in *interp) evalCall(base int, call *minic.CallExpr) Value {
	if fn := call.Target; fn != nil {
		sensor := in.m.sensorOfCall(call.CallID)
		mark := len(in.argBuf)
		for _, a := range call.Args {
			in.argBuf = append(in.argBuf, in.eval(base, a))
		}
		if sensor >= 0 {
			in.tick(sensor)
			defer in.tock(sensor)
		}
		in.pmu.AddInstructions(1)
		in.charge(stmtCostNs, 0)
		ret := in.refCallFn(fn, in.argBuf[mark:], call.Pos())
		in.argBuf = in.argBuf[:mark]
		return ret
	}
	return in.evalBuiltin(base, call)
}

// netOp wraps an MPI operation: flushes pending work, runs op, accounts the
// elapsed time as network time, and emits a trace event.
func (in *interp) netOp(call *minic.CallExpr, bytes int64, op func()) {
	in.mpiCall = call
	in.flush()
	start := in.proc.Now()
	op()
	end := in.proc.Now()
	in.netNs += end - start
	if in.events != nil {
		in.events.OnEvent(Event{Rank: in.proc.Rank, Kind: EvNet, Op: call.Name, Start: start, End: end, Bytes: bytes})
	}
}

func (in *interp) evalBuiltin(base int, call *minic.CallExpr) Value {
	bi := resolve.Builtin(call.Builtin)

	// Evaluate arguments (print handles string literals specially).
	argOf := func(i int) Value {
		if i < len(call.Args) {
			return in.eval(base, call.Args[i])
		}
		return IntVal(0)
	}

	switch bi {
	case resolve.BuiltinPrint:
		args := make([]Value, len(call.Args))
		lits := make([]string, len(call.Args))
		for i, a := range call.Args {
			if s, ok := a.(*minic.StringLit); ok {
				lits[i] = s.Value
				continue
			}
			args[i] = in.eval(base, a)
		}
		in.pmu.AddInstructions(1)
		in.charge(stmtCostNs, 0)
		in.printf(args, lits)
		return IntVal(0)
	case resolve.BuiltinVsTick:
		in.tick(int(argOf(0).AsInt()))
		return IntVal(0)
	case resolve.BuiltinVsTock:
		in.tock(int(argOf(0).AsInt()))
		return IntVal(0)
	}

	if sensor := in.m.sensorOfCall(call.CallID); sensor >= 0 {
		in.tick(sensor)
		defer in.tock(sensor)
	}
	in.pmu.AddInstructions(1)
	in.charge(exprCostNs, 0)

	switch bi {
	case resolve.BuiltinMPICommRank:
		return IntVal(int64(in.proc.Rank))
	case resolve.BuiltinMPICommSize:
		return IntVal(int64(in.proc.World.P))
	case resolve.BuiltinMPIBarrier:
		in.netOp(call, 0, func() { in.proc.Barrier() })
		return IntVal(0)
	case resolve.BuiltinMPISend:
		dst := argOf(0).AsInt()
		n := argOf(1).AsInt()
		val := argOf(2).AsFloat()
		in.checkRank(call, dst)
		in.netOp(call, n, func() { in.proc.Send(int(dst), n, val) })
		return IntVal(0)
	case resolve.BuiltinMPIRecv:
		src := argOf(0).AsInt()
		n := argOf(1).AsInt()
		in.checkRank(call, src)
		var v float64
		in.netOp(call, n, func() { v = in.proc.Recv(int(src), n) })
		return FloatVal(v)
	case resolve.BuiltinMPIISend:
		dst := argOf(0).AsInt()
		n := argOf(1).AsInt()
		val := argOf(2).AsFloat()
		in.checkRank(call, dst)
		// Post eagerly; completion is instantaneous for the sender.
		in.netOp(call, n, func() { in.proc.Send(int(dst), n, val) })
		in.nextReq++
		in.postReq(in.nextReq, pendingReq{peer: int(dst), bytes: n})
		return IntVal(in.nextReq)
	case resolve.BuiltinMPIIRecv:
		src := argOf(0).AsInt()
		n := argOf(1).AsInt()
		in.checkRank(call, src)
		// Posting a receive costs almost nothing; the transfer is charged
		// at mpi_wait.
		in.nextReq++
		in.postReq(in.nextReq, pendingReq{isRecv: true, peer: int(src), bytes: n})
		return IntVal(in.nextReq)
	case resolve.BuiltinMPIWait:
		id := argOf(0).AsInt()
		req, ok := in.takeReq(id)
		if !ok {
			panic(rtErr(in.proc.Rank, call.Pos(), "mpi_wait: unknown request %d", id))
		}
		if !req.isRecv {
			return FloatVal(0) // isend already completed at post time
		}
		var v float64
		in.netOp(call, req.bytes, func() { v = in.proc.Recv(req.peer, req.bytes) })
		return FloatVal(v)
	case resolve.BuiltinMPISendRecv:
		peer := argOf(0).AsInt()
		n := argOf(1).AsInt()
		val := argOf(2).AsFloat()
		in.checkRank(call, peer)
		var v float64
		in.netOp(call, n, func() { v = in.proc.SendRecv(int(peer), n, val) })
		return FloatVal(v)
	case resolve.BuiltinMPIAllreduce:
		n := argOf(0).AsInt()
		contrib := argOf(1).AsFloat()
		var v float64
		in.netOp(call, n, func() { v = in.proc.Allreduce(n, contrib) })
		return FloatVal(v)
	case resolve.BuiltinMPIAlltoall:
		n := argOf(0).AsInt()
		in.netOp(call, n, func() { in.proc.Alltoall(n) })
		return IntVal(0)
	case resolve.BuiltinMPIBcast:
		root := argOf(0).AsInt()
		n := argOf(1).AsInt()
		val := argOf(2).AsFloat()
		in.checkRank(call, root)
		var v float64
		in.netOp(call, n, func() { v = in.proc.Bcast(int(root), n, val) })
		return FloatVal(v)
	case resolve.BuiltinMPIReduce:
		root := argOf(0).AsInt()
		n := argOf(1).AsInt()
		contrib := argOf(2).AsFloat()
		in.checkRank(call, root)
		var v float64
		in.netOp(call, n, func() { v = in.proc.Reduce(int(root), n, contrib) })
		return FloatVal(v)
	case resolve.BuiltinIORead, resolve.BuiltinIOWrite:
		n := argOf(0).AsInt()
		in.flush()
		start := in.proc.Now()
		in.proc.AdvanceTo(start + in.cfg.Cluster.IOCost(start, n))
		end := in.proc.Now()
		in.ioNs += end - start
		if in.events != nil {
			in.events.OnEvent(Event{Rank: in.proc.Rank, Kind: EvIO, Op: call.Name, Start: start, End: end, Bytes: n})
		}
		if bi == resolve.BuiltinIORead {
			return IntVal(n)
		}
		return IntVal(0)
	case resolve.BuiltinFlops:
		n := argOf(0).AsInt()
		if n < 0 {
			n = 0
		}
		in.pmu.AddInstructions(n)
		in.charge(float64(n)*flopCostNs, 0)
		return IntVal(0)
	case resolve.BuiltinMem:
		n := argOf(0).AsInt()
		if n < 0 {
			n = 0
		}
		in.charge(0, float64(n)*memCostNs)
		return IntVal(0)
	case resolve.BuiltinAbsI:
		v := argOf(0).AsInt()
		if v < 0 {
			v = -v
		}
		return IntVal(v)
	case resolve.BuiltinMinI:
		a, b := argOf(0).AsInt(), argOf(1).AsInt()
		if a < b {
			return IntVal(a)
		}
		return IntVal(b)
	case resolve.BuiltinMaxI:
		a, b := argOf(0).AsInt(), argOf(1).AsInt()
		if a > b {
			return IntVal(a)
		}
		return IntVal(b)
	case resolve.BuiltinSqrtF:
		return FloatVal(math.Sqrt(argOf(0).AsFloat()))
	case resolve.BuiltinRandI:
		n := argOf(0).AsInt()
		if n <= 0 {
			return IntVal(0)
		}
		in.rng = in.rng*6364136223846793005 + 1442695040888963407
		return IntVal(int64(in.rng>>33) % n)
	}
	panic(rtErr(in.proc.Rank, call.Pos(), "call to undefined function %q", call.Name))
}
