package interp

import (
	"fmt"
	"math"

	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
)

// stepThread executes one engine step (or one pending action: monitor
// acquisition for a synchronized entry, or a staged native resume) of a
// runnable thread. A prepared method runs the closure block compiled at
// its pc (closure.go), which may retire a chain of instructions; every
// other instruction — of a prepared method at a pc with no block, or of a
// method without a prepared body — runs alone on the reference switch
// below, which keeps the seed's checked semantics.
func (vm *VM) stepThread(t *Thread) error {
	f := t.top()
	if f == nil {
		vm.finishThread(t)
		return nil
	}

	// Deferred frame-entry and wake work (synchronized-method monitor
	// acquisition, staged native resumes) is funneled behind one
	// thread-local flag, so the steady-state step pays a single
	// predicted-false branch instead of re-checking each staging slot.
	if t.slowStep {
		done, err := vm.stepStaged(t, f)
		if done || err != nil {
			return err
		}
	}

	if p := f.pcode; p != nil {
		pc := f.pc
		if uint32(pc) >= uint32(len(p.Instrs)) {
			return p.ErrPC // preformatted at prepare time
		}
		// The frame adopted the program compiled at preparation; if a block
		// starts at this pc, run it (closure.go). Pcs without a block head
		// (mid-block resumes after a bail) single-step on the switch.
		if b := f.hot.blocks[pc]; b != nil {
			return vm.runClosureBlock(t, f, b)
		}
		return vm.execInstr(t, f, &f.method.Code.Instrs[pc])
	}

	code := f.method.Code
	if f.pc < 0 || int(f.pc) >= len(code.Instrs) {
		return fmt.Errorf("pc %d out of range in %s", f.pc, f.method.QualifiedName())
	}
	return vm.execInstr(t, f, &code.Instrs[f.pc])
}

// stepStaged drains the thread's staged work before the next
// instruction. done reports that this step is consumed (the thread
// parked on a contended synchronized entry, or a staged exception was
// delivered) — the accounting of both outcomes is identical to the
// pre-flag dispatch, which also charged one step for them.
func (vm *VM) stepStaged(t *Thread, f *Frame) (done bool, err error) {
	// Synchronized-method entry: acquire the monitor before the first
	// instruction.
	if f.needsMonitor != nil {
		if vm.tryAcquireMonitor(t, f.needsMonitor) {
			f.lockedMonitor = f.needsMonitor
			f.needsMonitor = nil
		} else {
			// Re-enter here on wake: slowStep stays set.
			vm.blockOnMonitor(t, f.needsMonitor)
			return true, nil
		}
	}

	// Staged resume from a blocking native.
	switch t.resumeKind {
	case resumePushVoid:
		t.resumeKind = resumeNone
	case resumeThrowKind:
		obj := t.resumeThrow
		t.resumeKind = resumeNone
		t.resumeThrow = nil
		t.slowStep = false
		return true, vm.DeliverException(t, obj)
	}
	t.slowStep = false
	return false, nil
}

// execInstr dispatches one instruction. Cases that park the thread or push
// a frame manage f.pc themselves; all others fall through to f.pc = next.
func (vm *VM) execInstr(t *Thread, f *Frame, in *bytecode.Instr) error {
	next := f.pc + 1

	switch in.Op {
	case bytecode.OpNop:

	// --- Constants -----------------------------------------------------
	case bytecode.OpIConst:
		f.push(heap.IntVal(in.I))
	case bytecode.OpFConst:
		f.push(heap.FloatVal(in.F))
	case bytecode.OpAConstNull:
		f.push(heap.Null())
	case bytecode.OpLdcString:
		entry, err := f.method.Class.Pool.Entry(in.A)
		if err != nil {
			return err
		}
		obj, err := vm.InternString(t, t.cur, entry.Str)
		if err != nil {
			return vm.Throw(t, ClassOutOfMemoryError, "string intern")
		}
		f.push(heap.RefVal(obj))
	case bytecode.OpLdcClass:
		entry, err := f.method.Class.Pool.Entry(in.A)
		if err != nil {
			return err
		}
		class, err := vm.resolveClassFrom(f.method.Class, entry.ClassName)
		if err != nil {
			return vm.Throw(t, ClassNullPointerException, err.Error())
		}
		obj, err := vm.ClassObjectFor(t, class, t.cur)
		if err != nil {
			return err
		}
		f.push(heap.RefVal(obj))

	// --- Stack ----------------------------------------------------------
	case bytecode.OpPop:
		if _, err := f.pop(); err != nil {
			return err
		}
	case bytecode.OpDup:
		v, err := f.peek()
		if err != nil {
			return err
		}
		f.push(v)
	case bytecode.OpDupX1:
		a, err := f.pop()
		if err != nil {
			return err
		}
		b, err := f.pop()
		if err != nil {
			return err
		}
		f.push(a)
		f.push(b)
		f.push(a)
	case bytecode.OpSwap:
		a, err := f.pop()
		if err != nil {
			return err
		}
		b, err := f.pop()
		if err != nil {
			return err
		}
		f.push(a)
		f.push(b)

	// --- Locals ----------------------------------------------------------
	case bytecode.OpILoad, bytecode.OpFLoad, bytecode.OpALoad:
		f.push(f.locals[in.A])
	case bytecode.OpIStore, bytecode.OpFStore, bytecode.OpAStore:
		v, err := f.pop()
		if err != nil {
			return err
		}
		f.locals[in.A] = v
	case bytecode.OpIInc:
		f.locals[in.A].I += int64(in.B)
		f.locals[in.A].Kind = classfile.KindInt

	// --- Integer arithmetic ----------------------------------------------
	case bytecode.OpIAdd, bytecode.OpISub, bytecode.OpIMul, bytecode.OpIDiv,
		bytecode.OpIRem, bytecode.OpIShl, bytecode.OpIShr, bytecode.OpIUshr,
		bytecode.OpIAnd, bytecode.OpIOr, bytecode.OpIXor:
		b, err := f.pop()
		if err != nil {
			return err
		}
		a, err := f.pop()
		if err != nil {
			return err
		}
		if msg := zeroDivisor(in.Op, b.I); msg != "" {
			return vm.Throw(t, ClassArithmeticException, msg)
		}
		f.push(heap.IntVal(intBinop(in.Op, a.I, b.I)))
	case bytecode.OpINeg:
		v, err := f.pop()
		if err != nil {
			return err
		}
		f.push(heap.IntVal(-v.I))

	// --- Float arithmetic -------------------------------------------------
	case bytecode.OpFAdd, bytecode.OpFSub, bytecode.OpFMul, bytecode.OpFDiv:
		b, err := f.pop()
		if err != nil {
			return err
		}
		a, err := f.pop()
		if err != nil {
			return err
		}
		f.push(heap.FloatVal(floatBinop(in.Op, a.F, b.F)))
	case bytecode.OpFNeg:
		v, err := f.pop()
		if err != nil {
			return err
		}
		f.push(heap.FloatVal(-v.F))
	case bytecode.OpFCmp:
		b, err := f.pop()
		if err != nil {
			return err
		}
		a, err := f.pop()
		if err != nil {
			return err
		}
		switch {
		case a.F < b.F:
			f.push(heap.IntVal(-1))
		case a.F > b.F:
			f.push(heap.IntVal(1))
		default:
			f.push(heap.IntVal(0))
		}
	case bytecode.OpI2F:
		v, err := f.pop()
		if err != nil {
			return err
		}
		f.push(heap.FloatVal(float64(v.I)))
	case bytecode.OpF2I:
		v, err := f.pop()
		if err != nil {
			return err
		}
		f.push(heap.IntVal(f2i(v.F)))

	// --- Control flow ------------------------------------------------------
	case bytecode.OpGoto:
		next = in.A
	case bytecode.OpIfEq, bytecode.OpIfNe, bytecode.OpIfLt, bytecode.OpIfLe,
		bytecode.OpIfGt, bytecode.OpIfGe:
		v, err := f.pop()
		if err != nil {
			return err
		}
		if intCondition(in.Op, v.I) {
			next = in.A
		}
	case bytecode.OpIfICmpEq, bytecode.OpIfICmpNe, bytecode.OpIfICmpLt,
		bytecode.OpIfICmpLe, bytecode.OpIfICmpGt, bytecode.OpIfICmpGe:
		b, err := f.pop()
		if err != nil {
			return err
		}
		a, err := f.pop()
		if err != nil {
			return err
		}
		if intCmpCondition(in.Op, a.I, b.I) {
			next = in.A
		}
	case bytecode.OpIfACmpEq, bytecode.OpIfACmpNe:
		b, err := f.pop()
		if err != nil {
			return err
		}
		a, err := f.pop()
		if err != nil {
			return err
		}
		eq := a.R == b.R
		if (in.Op == bytecode.OpIfACmpEq) == eq {
			next = in.A
		}
	case bytecode.OpIfNull, bytecode.OpIfNonNull:
		v, err := f.pop()
		if err != nil {
			return err
		}
		if (in.Op == bytecode.OpIfNull) == (v.R == nil) {
			next = in.A
		}

	// --- Returns -------------------------------------------------------------
	case bytecode.OpReturn:
		return vm.returnFromFrame(t, heap.Void())
	case bytecode.OpIReturn, bytecode.OpFReturn, bytecode.OpAReturn:
		v, err := f.pop()
		if err != nil {
			return err
		}
		return vm.returnFromFrame(t, v)

	// --- Statics (the task-class-mirror hot path, §3.1) ----------------------
	//
	// Baseline (Shared) mode caches the unique mirror on the pool entry
	// after the first initialized access, the way a JIT folds the
	// initialization check away. I-JVM must re-index the mirror array
	// with the thread's current isolate and re-check initialization on
	// every access — the paper's two extra loads plus init check, which
	// is one read of the class's own mirror state once it is initialized
	// (ensureInitialized). The switch is the reference for the closure
	// blocks' statics micros of both modes, and their slow path.
	case bytecode.OpGetStatic:
		mirror, field, err := vm.staticMirrorAt(t, f, in.A)
		if err != nil || mirror == nil {
			return err // guest throw already delivered, or re-execute after <clinit>
		}
		f.push(mirror.Statics[field.Slot])
	case bytecode.OpPutStatic:
		mirror, field, err := vm.staticMirrorAt(t, f, in.A)
		if err != nil || mirror == nil {
			return err
		}
		v, err := f.pop()
		if err != nil {
			return err
		}
		mirror.Statics[field.Slot] = v

	// --- Instance fields -------------------------------------------------------
	case bytecode.OpGetField:
		field, err := vm.resolveFieldEntryAt(f, in.A, false)
		if err != nil {
			return vm.Throw(t, ClassNullPointerException, err.Error())
		}
		f.publishSlot(field)
		recv, err := f.pop()
		if err != nil {
			return err
		}
		if recv.R == nil {
			return vm.Throw(t, ClassNullPointerException, "getfield "+field.QualifiedName())
		}
		if uint(field.Slot) >= uint(len(recv.R.Elems)) || recv.R.IsArray() || !recv.R.Class.IsSubclassOf(field.Class) {
			return vm.throwNoSuchSlot(t, "getfield", field.QualifiedName(), recv.R)
		}
		f.push(recv.R.Elems[field.Slot])
	case bytecode.OpPutField:
		field, err := vm.resolveFieldEntryAt(f, in.A, false)
		if err != nil {
			return vm.Throw(t, ClassNullPointerException, err.Error())
		}
		f.publishSlot(field)
		v, err := f.pop()
		if err != nil {
			return err
		}
		recv, err := f.pop()
		if err != nil {
			return err
		}
		if recv.R == nil {
			return vm.Throw(t, ClassNullPointerException, "putfield "+field.QualifiedName())
		}
		if uint(field.Slot) >= uint(len(recv.R.Elems)) || recv.R.IsArray() || !recv.R.Class.IsSubclassOf(field.Class) {
			return vm.throwNoSuchSlot(t, "putfield", field.QualifiedName(), recv.R)
		}
		// SATB write barrier: while a mark phase is open, the store goes
		// through VM.StoreRef — a plain store into a holder the marker has
		// traced, else a recorded overwritten reference and an atomically
		// published new one. Idle fast path: one plain flag load (the
		// per-quantum cached barrier flag, tier.go barrierOn), plain store.
		// (Statics and locals need no barrier — root sets are snapshot
		// copies.)
		if sp := &recv.R.Elems[field.Slot]; vm.barrierOn(t) {
			vm.StoreRef(t, recv.R, sp, v)
		} else {
			*sp = v
		}

	// --- Invocation (thread migration happens in pushFrame) ---------------------
	case bytecode.OpInvokeStatic, bytecode.OpInvokeVirtual, bytecode.OpInvokeSpecial:
		return vm.execInvoke(t, f, in, next)

	// --- Objects and arrays -------------------------------------------------------
	case bytecode.OpNew:
		entry, err := f.method.Class.Pool.Entry(in.A)
		if err != nil {
			return err
		}
		class, err := vm.resolvePoolClassEntry(f, entry)
		if err != nil {
			return vm.Throw(t, ClassNullPointerException, err.Error())
		}
		ready, err := vm.classInitReadyAt(t, entry, class)
		if err != nil || !ready {
			return err
		}
		obj, err := vm.AllocObjectIn(t, class, t.cur)
		if err != nil {
			return vm.Throw(t, ClassOutOfMemoryError, err.Error())
		}
		f.push(heap.RefVal(obj))
	case bytecode.OpNewArray:
		n, err := f.pop()
		if err != nil {
			return err
		}
		if n.I < 0 {
			return vm.Throw(t, ClassNegativeArraySize, fmt.Sprintf("%d", n.I))
		}
		elemClass, err := vm.arrayElemClass(f, in.A)
		if err != nil {
			return vm.Throw(t, ClassNullPointerException, err.Error())
		}
		arr, err := vm.AllocArrayIn(t, elemClass, int(n.I), t.cur)
		if err != nil {
			return vm.Throw(t, ClassOutOfMemoryError, err.Error())
		}
		f.push(heap.RefVal(arr))
	case bytecode.OpArrayLength:
		v, err := f.pop()
		if err != nil {
			return err
		}
		if v.R == nil {
			return vm.Throw(t, ClassNullPointerException, "arraylength")
		}
		if !v.R.IsArray() {
			return vm.Throw(t, ClassClassCastException, "arraylength on non-array")
		}
		f.push(heap.IntVal(int64(len(v.R.Elems))))
	case bytecode.OpArrayLoad:
		idx, err := f.pop()
		if err != nil {
			return err
		}
		arr, err := f.pop()
		if err != nil {
			return err
		}
		if arr.R == nil {
			return vm.Throw(t, ClassNullPointerException, "arrayload")
		}
		if !arr.R.IsArray() {
			return vm.Throw(t, ClassClassCastException, "arrayload on non-array")
		}
		if idx.I < 0 || idx.I >= int64(len(arr.R.Elems)) {
			return vm.Throw(t, ClassArrayIndexException, fmt.Sprintf("index %d of %d", idx.I, len(arr.R.Elems)))
		}
		f.push(arr.R.Elems[idx.I])
	case bytecode.OpArrayStore:
		v, err := f.pop()
		if err != nil {
			return err
		}
		idx, err := f.pop()
		if err != nil {
			return err
		}
		arr, err := f.pop()
		if err != nil {
			return err
		}
		if arr.R == nil {
			return vm.Throw(t, ClassNullPointerException, "arraystore")
		}
		if !arr.R.IsArray() {
			return vm.Throw(t, ClassClassCastException, "arraystore on non-array")
		}
		if idx.I < 0 || idx.I >= int64(len(arr.R.Elems)) {
			return vm.Throw(t, ClassArrayIndexException, fmt.Sprintf("index %d of %d", idx.I, len(arr.R.Elems)))
		}
		if arr.R.Frozen() {
			return vm.Throw(t, ClassIllegalState, "store to frozen array")
		}
		// SATB write barrier, as for putfield.
		if sp := &arr.R.Elems[idx.I]; vm.barrierOn(t) {
			vm.StoreRef(t, arr.R, sp, v)
		} else {
			*sp = v
		}
	case bytecode.OpInstanceOf:
		v, err := f.pop()
		if err != nil {
			return err
		}
		class, err := vm.resolvePoolClass(f, in.A)
		if err != nil {
			return vm.Throw(t, ClassNullPointerException, err.Error())
		}
		f.push(heap.BoolVal(v.R != nil && v.R.Class.IsSubclassOf(class)))
	case bytecode.OpCheckCast:
		v, err := f.peek()
		if err != nil {
			return err
		}
		if v.R != nil {
			class, err := vm.resolvePoolClass(f, in.A)
			if err != nil {
				return vm.Throw(t, ClassNullPointerException, err.Error())
			}
			if !v.R.Class.IsSubclassOf(class) {
				return vm.Throw(t, ClassClassCastException,
					v.R.Class.Name+" cannot be cast to "+class.Name)
			}
		}

	// --- Monitors -----------------------------------------------------------------
	case bytecode.OpMonitorEnter:
		v, err := f.peek()
		if err != nil {
			return err
		}
		if v.R == nil {
			_, _ = f.pop()
			return vm.Throw(t, ClassNullPointerException, "monitorenter")
		}
		if vm.tryAcquireMonitor(t, v.R) {
			f.noteEnter(v.R)
			_, _ = f.pop()
		} else {
			// Re-execute this instruction once the monitor frees up.
			vm.blockOnMonitor(t, v.R)
			return nil
		}
	case bytecode.OpMonitorExit:
		v, err := f.pop()
		if err != nil {
			return err
		}
		if v.R == nil {
			return vm.Throw(t, ClassNullPointerException, "monitorexit")
		}
		if !vm.monitorExitChecked(t, v.R) {
			return vm.Throw(t, ClassIllegalMonitorState, "monitorexit without ownership")
		}
		f.noteExit(v.R)

	// --- Exceptions ------------------------------------------------------------------
	case bytecode.OpAThrow:
		v, err := f.pop()
		if err != nil {
			return err
		}
		if v.R == nil {
			return vm.Throw(t, ClassNullPointerException, "athrow null")
		}
		return vm.DeliverException(t, v.R)

	default:
		return fmt.Errorf("unimplemented opcode %s in %s", in.Op, f.method.QualifiedName())
	}

	f.pc = next
	return nil
}

// execInvoke handles the three invoke opcodes of the reference switch
// path, which dispatches by name; the call micros' guarded calls take
// invokeResolved. The caller's pc is advanced before frames are pushed so
// returns resume after the call site. The argument window is passed as a
// view of the caller's operand stack — pushFrame copies it into the
// callee's locals and callNative consumes it synchronously, so no
// per-call argument slice is allocated.
func (vm *VM) execInvoke(t *Thread, f *Frame, in *bytecode.Instr, next int32) error {
	entry, err := f.method.Class.Pool.Entry(in.A)
	if err != nil {
		return err
	}
	m, err := vm.resolveMethodEntry(f, entry)
	if err != nil {
		return vm.Throw(t, ClassNullPointerException, err.Error())
	}

	// Static methods trigger class initialization before arguments are
	// consumed, so a pushed <clinit> frame can re-execute this invoke.
	if in.Op == bytecode.OpInvokeStatic {
		ready, ierr := vm.classInitReadyAt(t, entry, m.Class)
		if ierr != nil || !ready {
			return ierr
		}
	}

	nargs := m.Desc.NumParams()
	hasRecv := in.Op != bytecode.OpInvokeStatic
	if hasRecv {
		nargs++
	}
	if len(f.stack) < nargs {
		return fmt.Errorf("invoke %s: need %d stack values, have %d", m.QualifiedName(), nargs, len(f.stack))
	}
	args := f.stack[len(f.stack)-nargs:]

	target := m
	if hasRecv {
		if args[0].R == nil {
			f.stack = f.stack[:len(f.stack)-nargs]
			return vm.Throw(t, ClassNullPointerException, "invoke on null: "+m.QualifiedName())
		}
		if in.Op == bytecode.OpInvokeVirtual {
			resolved, lerr := args[0].R.Class.Dispatch(m)
			if lerr != nil {
				f.stack = f.stack[:len(f.stack)-nargs]
				return vm.Throw(t, ClassNullPointerException, lerr.Error())
			}
			target = resolved
		}
	}

	f.pc = next // resume after the call site
	// The argument window stays a view of the caller's stack beyond the
	// truncated length; pendingArgs keeps it visible to the GC root scan
	// until pushFrame copies it into the callee's locals (or the native
	// call consumes it).
	t.pendingArgs = args
	f.stack = f.stack[:len(f.stack)-nargs]

	if target.IsNative() {
		err = vm.callNative(t, f, target, args, hasRecv)
	} else {
		err = vm.pushFrame(t, target, args, nil)
	}
	t.pendingArgs = nil
	return err
}

// callNative invokes a host-implemented method inline. Blocking natives
// stage their resume on the thread and park it.
func (vm *VM) callNative(t *Thread, f *Frame, m *classfile.Method, args []heap.Value, hasRecv bool) error {
	fn, ok := m.Native.(NativeFunc)
	if !ok {
		return fmt.Errorf("native method %s has no implementation", m.QualifiedName())
	}
	recv := heap.Void()
	declared := args
	if hasRecv {
		recv = args[0]
		declared = args[1:]
	}
	res, err := fn(vm, t, recv, declared)
	if err != nil {
		return fmt.Errorf("native %s: %w", m.QualifiedName(), err)
	}
	switch res.Control {
	case NativeDone:
		if m.Desc.Return != classfile.KindVoid {
			if res.Value.Kind == voidKind {
				// Same contract as returnFromFrame: a value-declared
				// method must deliver a value, or callers sized by the
				// descriptor end up one short.
				return fmt.Errorf("native %s declared a value return but returned void", m.QualifiedName())
			}
			f.push(res.Value)
		}
		return nil
	case NativeThrow:
		return vm.DeliverException(t, res.Throw)
	case NativeBlock:
		// Third entry point of the value-vs-void contract (with
		// returnFromFrame and the NativeDone case above): a wake pushes
		// nothing on the caller's descriptor-sized stack, so a
		// value-declared native that parks must fail here rather than
		// surface later as an unchecked pop on a missing value. A staged
		// throw is descriptor-neutral and always legal.
		if m.Desc.Return != classfile.KindVoid && t.resumeKind != resumeThrowKind {
			return fmt.Errorf("native %s declared a value return but parked: a wake delivers only an exception", m.QualifiedName())
		}
		return nil
	default:
		return fmt.Errorf("native %s returned invalid control %d", m.QualifiedName(), res.Control)
	}
}

// staticMirrorAt resolves the task class mirror and field of the
// getstatic/putstatic whose pool entry is at idx: resolve the field,
// guarantee the accessing isolate's initialization, and index the mirror.
// Shared mode also publishes the mirror on the pool entry — legal only
// under Shared semantics, where one mirror exists per class — and later
// accesses take it with one load, as after JIT optimization (the Shared
// statics micros read the same cache, sharedMirror). It returns (nil,
// nil, nil) when the instruction must re-execute (a <clinit> frame was
// pushed) or when a guest exception was already delivered; a non-nil
// error is a host-level failure.
func (vm *VM) staticMirrorAt(t *Thread, f *Frame, idx int32) (*core.TaskClassMirror, *classfile.Field, error) {
	entry, err := f.method.Class.Pool.Entry(idx)
	if err != nil {
		return nil, nil, err
	}
	shared := !vm.world.Isolated()
	if m, ok := entry.ResolvedMirror.(*core.TaskClassMirror); shared && ok {
		return m, entry.ResolvedField.Load(), nil
	}
	field, err := vm.resolveFieldEntry(f, entry, true)
	if err != nil {
		return nil, nil, vm.Throw(t, ClassNullPointerException, err.Error())
	}
	ready, err := vm.ensureInitialized(t, field.Class, t.cur)
	if err != nil || !ready {
		return nil, nil, err
	}
	mirror := vm.world.Mirror(field.Class, t.cur)
	if shared {
		entry.ResolvedMirror = mirror
	}
	return mirror, field, nil
}

// classInitReadyAt performs the class-initialization check for
// invokestatic/new through the same baseline-vs-I-JVM asymmetry as
// staticMirrorAt: Shared mode checks once per call site, I-JVM on every
// execution.
func (vm *VM) classInitReadyAt(t *Thread, entry *classfile.PoolEntry, class *classfile.Class) (bool, error) {
	if !vm.world.Isolated() && entry.ResolvedMirror != nil {
		return true, nil
	}
	ready, err := vm.ensureInitialized(t, class, t.cur)
	if err != nil || !ready {
		return false, err
	}
	if !vm.world.Isolated() {
		entry.ResolvedMirror = vm.world.Mirror(class, t.cur)
	}
	return true, nil
}

// publishSlot fills the field-slot cache of the prepared getfield or
// putfield at f's pc (bytecode.FieldSlot), which the closure micros and the
// leaf check read: a site's first execution resolves here, on the switch.
// Unprepared frames have no cache.
func (f *Frame) publishSlot(field *classfile.Field) {
	if f.pcode != nil {
		if fs := f.pcode.Instrs[f.pc].FS; fs.Get() < 0 {
			fs.Publish(int32(field.Slot))
		}
	}
}

// resolveFieldEntryAt resolves a FieldRef pool entry by index with
// caching (reference switch path).
func (vm *VM) resolveFieldEntryAt(f *Frame, idx int32, wantStatic bool) (*classfile.Field, error) {
	entry, err := f.method.Class.Pool.Entry(idx)
	if err != nil {
		return nil, err
	}
	return vm.resolveFieldEntry(f, entry, wantStatic)
}

// throwNoSuchSlot raises the exception of a getfield/putfield whose
// receiver has no slot at the field's index, is an array (whose Class is
// its element class), or is of a class that is neither the field's nor a
// subclass of it. Bytecode is not type-checked
// (ROADMAP item 8), so a receiver of a class unrelated to the field's can
// reach the access, and guest code must neither index the host's slot
// vector out of range nor read or write another class's field that
// happens to sit at the index (§4.3). The closure micros bail to the
// switch, which throws through here.
func (vm *VM) throwNoSuchSlot(t *Thread, op, field string, recv *heap.Object) error {
	name := recv.Class.Name
	if recv.IsArray() {
		name += "[]"
	}
	return vm.Throw(t, ClassClassCastException, op+" "+field+" on a "+name)
}

// resolveFieldEntry resolves a FieldRef pool entry with caching.
func (vm *VM) resolveFieldEntry(f *Frame, entry *classfile.PoolEntry, wantStatic bool) (*classfile.Field, error) {
	if field := entry.ResolvedField.Load(); field != nil {
		return field, nil
	}
	class, err := vm.resolveClassFrom(f.method.Class, entry.ClassName)
	if err != nil {
		return nil, err
	}
	var field *classfile.Field
	if wantStatic {
		field, err = class.LookupStaticField(entry.Name)
	} else {
		field, err = class.LookupField(entry.Name)
	}
	if err != nil {
		return nil, err
	}
	entry.ResolvedClass.Store(class)
	entry.ResolvedField.Store(field)
	return field, nil
}

// resolvePoolClass resolves a ClassRef pool entry by index with caching
// (reference switch path).
func (vm *VM) resolvePoolClass(f *Frame, idx int32) (*classfile.Class, error) {
	entry, err := f.method.Class.Pool.Entry(idx)
	if err != nil {
		return nil, err
	}
	return vm.resolvePoolClassEntry(f, entry)
}

// resolvePoolClassEntry resolves a ClassRef pool entry with caching.
func (vm *VM) resolvePoolClassEntry(f *Frame, entry *classfile.PoolEntry) (*classfile.Class, error) {
	if class := entry.ResolvedClass.Load(); class != nil {
		return class, nil
	}
	class, err := vm.resolveClassFrom(f.method.Class, entry.ClassName)
	if err != nil {
		return nil, err
	}
	entry.ResolvedClass.Store(class)
	return class, nil
}

// arrayElemClass resolves the element class of a newarray instruction; a
// zero pool index selects java/lang/Object.
func (vm *VM) arrayElemClass(f *Frame, idx int32) (*classfile.Class, error) {
	if idx == 0 {
		return vm.lookupWellKnown(ClassObject)
	}
	return vm.resolvePoolClass(f, idx)
}

// intBinop evaluates one of the eleven int binops (shift counts masked to
// 63). It is the one definition the switch and the closure micros share;
// each checks the divisor of an idiv or irem first
// (zeroDivisor), so b is never zero for those two here.
func intBinop(op bytecode.Opcode, a, b int64) int64 {
	switch op {
	case bytecode.OpIAdd:
		return a + b
	case bytecode.OpISub:
		return a - b
	case bytecode.OpIMul:
		return a * b
	case bytecode.OpIDiv:
		return a / b
	case bytecode.OpIRem:
		return a % b
	case bytecode.OpIShl:
		return a << (uint64(b) & 63)
	case bytecode.OpIShr:
		return a >> (uint64(b) & 63)
	case bytecode.OpIUshr:
		return int64(uint64(a) >> (uint64(b) & 63))
	case bytecode.OpIAnd:
		return a & b
	case bytecode.OpIOr:
		return a | b
	default: // OpIXor
		return a ^ b
	}
}

// zeroDivisor returns the ArithmeticException message of an idiv or irem
// whose divisor b is zero, and "" for every other int binop.
func zeroDivisor(op bytecode.Opcode, b int64) string {
	switch {
	case b != 0:
		return ""
	case op == bytecode.OpIDiv:
		return "/ by zero"
	case op == bytecode.OpIRem:
		return "% by zero"
	}
	return ""
}

func floatBinop(op bytecode.Opcode, a, b float64) float64 {
	switch op {
	case bytecode.OpFAdd:
		return a + b
	case bytecode.OpFSub:
		return a - b
	case bytecode.OpFMul:
		return a * b
	default:
		return a / b
	}
}

// f2i converts with the JVM's semantics on every host: NaN is 0 and
// out-of-range values saturate. (Go leaves those conversions
// implementation-defined: amd64 yields MinInt64, arm64 saturates.)
func f2i(v float64) int64 {
	switch {
	case math.IsNaN(v):
		return 0
	case v >= math.MaxInt64: // 2^63 as a float64
		return math.MaxInt64
	case v <= math.MinInt64:
		return math.MinInt64
	}
	return int64(v)
}

func intCondition(op bytecode.Opcode, v int64) bool {
	switch op {
	case bytecode.OpIfEq:
		return v == 0
	case bytecode.OpIfNe:
		return v != 0
	case bytecode.OpIfLt:
		return v < 0
	case bytecode.OpIfLe:
		return v <= 0
	case bytecode.OpIfGt:
		return v > 0
	default:
		return v >= 0
	}
}

func intCmpCondition(op bytecode.Opcode, a, b int64) bool {
	switch op {
	case bytecode.OpIfICmpEq:
		return a == b
	case bytecode.OpIfICmpNe:
		return a != b
	case bytecode.OpIfICmpLt:
		return a < b
	case bytecode.OpIfICmpLe:
		return a <= b
	case bytecode.OpIfICmpGt:
		return a > b
	default:
		return a >= b
	}
}
