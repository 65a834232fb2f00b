package interp

import (
	"fmt"

	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
)

// phandler executes one prepared instruction. Handlers manage the frame's
// pc themselves: fall-through handlers advance it, branch handlers set
// the target, and handlers that park the thread or must re-execute (a
// pushed <clinit> frame, a contended monitor) leave it untouched. A
// handler that delivers a guest exception returns immediately after —
// exception dispatch already placed the pc.
//
// Handlers pop with the unchecked upop/upeek: the preparation dataflow
// proved every pop has an operand (prepare.go). Pushes go through the
// append-based push — prepared frames preallocate the exact MaxStack, so
// the append never grows.
type phandler func(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error

// sharedTable and isolatedTable are the flat dispatch tables replacing
// the opcode switch for prepared code, indexed by PInstr.H (always the
// instruction's opcode value). NewVM picks one for the VM's mode, so the
// steady state never re-checks world.Isolated():
//
//   - the Shared table runs the baseline fast paths — static accesses
//     and initialization checks fold into the pool entry's
//     ResolvedMirror cache after the first initialized access, the way
//     a JIT folds them away;
//   - the Isolated table performs the paper's per-access task-class-
//     mirror indexing and initialization re-check unconditionally, with
//     no Shared-cache probes on the way.
var sharedTable, isolatedTable [256]phandler

// handlerTable returns the dispatch table for one mode.
func handlerTable(mode core.Mode) *[256]phandler {
	if mode == core.ModeIsolated {
		return &isolatedTable
	}
	return &sharedTable
}

func init() {
	var base [256]phandler
	for i := range base {
		base[i] = pInvalid
	}
	reg := func(op bytecode.Opcode, h phandler) { base[uint8(op)] = h }

	reg(bytecode.OpNop, pNop)
	reg(bytecode.OpIConst, pIConst)
	reg(bytecode.OpFConst, pFConst)
	reg(bytecode.OpAConstNull, pAConstNull)
	reg(bytecode.OpLdcString, pLdcString)
	reg(bytecode.OpLdcClass, pLdcClass)
	reg(bytecode.OpPop, pPop)
	reg(bytecode.OpDup, pDup)
	reg(bytecode.OpDupX1, pDupX1)
	reg(bytecode.OpSwap, pSwap)
	reg(bytecode.OpILoad, pLoad)
	reg(bytecode.OpFLoad, pLoad)
	reg(bytecode.OpALoad, pLoad)
	reg(bytecode.OpIStore, pStore)
	reg(bytecode.OpFStore, pStore)
	reg(bytecode.OpAStore, pStore)
	reg(bytecode.OpIInc, pIInc)
	regAll := func(h phandler, ops ...bytecode.Opcode) {
		for _, op := range ops {
			reg(op, h)
		}
	}
	regAll(pIntBinop, bytecode.OpIAdd, bytecode.OpISub, bytecode.OpIMul, bytecode.OpIDiv,
		bytecode.OpIRem, bytecode.OpIShl, bytecode.OpIShr, bytecode.OpIUshr,
		bytecode.OpIAnd, bytecode.OpIOr, bytecode.OpIXor)
	reg(bytecode.OpINeg, pINeg)
	regAll(pFloatBinop, bytecode.OpFAdd, bytecode.OpFSub, bytecode.OpFMul, bytecode.OpFDiv)
	reg(bytecode.OpFNeg, pFNeg)
	reg(bytecode.OpFCmp, pFCmp)
	reg(bytecode.OpI2F, pI2F)
	reg(bytecode.OpF2I, pF2I)
	reg(bytecode.OpGoto, pGoto)
	regAll(pIf, bytecode.OpIfEq, bytecode.OpIfNe, bytecode.OpIfLt, bytecode.OpIfLe,
		bytecode.OpIfGt, bytecode.OpIfGe, bytecode.OpIfNull, bytecode.OpIfNonNull)
	regAll(pIfCmp, bytecode.OpIfICmpEq, bytecode.OpIfICmpNe, bytecode.OpIfICmpLt,
		bytecode.OpIfICmpLe, bytecode.OpIfICmpGt, bytecode.OpIfICmpGe,
		bytecode.OpIfACmpEq, bytecode.OpIfACmpNe)
	reg(bytecode.OpReturn, pReturn)
	reg(bytecode.OpIReturn, pValueReturn)
	reg(bytecode.OpFReturn, pValueReturn)
	reg(bytecode.OpAReturn, pValueReturn)
	reg(bytecode.OpGetField, pGetField)
	reg(bytecode.OpPutField, pPutField)
	reg(bytecode.OpInvokeVirtual, pInvokeVirtual)
	reg(bytecode.OpInvokeSpecial, pInvokeSpecial)
	reg(bytecode.OpNewArray, pNewArray)
	reg(bytecode.OpArrayLength, pArrayLength)
	reg(bytecode.OpArrayLoad, pArrayLoad)
	reg(bytecode.OpArrayStore, pArrayStore)
	reg(bytecode.OpInstanceOf, pInstanceOf)
	reg(bytecode.OpCheckCast, pCheckCast)
	reg(bytecode.OpMonitorEnter, pMonitorEnter)
	reg(bytecode.OpMonitorExit, pMonitorExit)
	reg(bytecode.OpAThrow, pAThrow)

	// The two tables differ in the statics, allocation and static-invoke
	// handlers: the Shared ones probe (and populate) the pool entries'
	// ResolvedMirror caches, the Isolated ones index mirrors and re-check
	// initialization on every execution — neither consults
	// world.Isolated() at runtime.
	sharedTable, isolatedTable = base, base
	sharedTable[uint8(bytecode.OpGetStatic)] = pGetStaticShared
	sharedTable[uint8(bytecode.OpPutStatic)] = pPutStaticShared
	sharedTable[uint8(bytecode.OpNew)] = pNewShared
	sharedTable[uint8(bytecode.OpInvokeStatic)] = pInvokeStaticShared
	isolatedTable[uint8(bytecode.OpGetStatic)] = pGetStaticIsolated
	isolatedTable[uint8(bytecode.OpPutStatic)] = pPutStaticIsolated
	isolatedTable[uint8(bytecode.OpNew)] = pNewIsolated
	isolatedTable[uint8(bytecode.OpInvokeStatic)] = pInvokeStaticIsolated
}

func pInvalid(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	return fmt.Errorf("unimplemented handler %d in %s", in.H, f.method.QualifiedName())
}

// --- Constants -----------------------------------------------------------

func pNop(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	f.pc++
	return nil
}

func pIConst(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	f.push(heap.IntVal(in.I))
	f.pc++
	return nil
}

func pFConst(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	f.push(heap.FloatVal(in.F))
	f.pc++
	return nil
}

func pAConstNull(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	f.push(heap.Null())
	f.pc++
	return nil
}

func pLdcString(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	entry := in.Ref.(*classfile.PoolEntry)
	obj, err := vm.InternString(t, t.cur, entry.Str)
	if err != nil {
		return vm.Throw(t, ClassOutOfMemoryError, "string intern")
	}
	f.push(heap.RefVal(obj))
	f.pc++
	return nil
}

func pLdcClass(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	entry := in.Ref.(*classfile.PoolEntry)
	class, err := vm.resolvePoolClassEntry(f, entry)
	if err != nil {
		return vm.Throw(t, ClassNullPointerException, err.Error())
	}
	obj, err := vm.ClassObjectFor(t, class, t.cur)
	if err != nil {
		return err
	}
	f.push(heap.RefVal(obj))
	f.pc++
	return nil
}

// --- Stack ---------------------------------------------------------------

func pPop(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	f.upop()
	f.pc++
	return nil
}

func pDup(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	f.push(f.upeek())
	f.pc++
	return nil
}

func pDupX1(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	a := f.upop()
	b := f.upop()
	f.push(a)
	f.push(b)
	f.push(a)
	f.pc++
	return nil
}

func pSwap(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	a := f.upop()
	b := f.upop()
	f.push(a)
	f.push(b)
	f.pc++
	return nil
}

// --- Locals --------------------------------------------------------------

func pLoad(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	f.push(f.locals[in.A])
	f.pc++
	return nil
}

func pStore(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	f.locals[in.A] = f.upop()
	f.pc++
	return nil
}

func pIInc(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	f.locals[in.A].I += int64(in.B)
	f.locals[in.A].Kind = classfile.KindInt
	f.pc++
	return nil
}

// --- Arithmetic ----------------------------------------------------------
//
// The binops and branches have one handler per family, keyed by the opcode
// in in.H, over the semantic functions the seed switch (exec.go) and the
// closure micros (closure.go) also call.

func pIntBinop(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	b := f.upop()
	a := f.upop()
	op := bytecode.Opcode(in.H)
	if msg := zeroDivisor(op, b.I); msg != "" {
		return vm.Throw(t, ClassArithmeticException, msg)
	}
	f.push(heap.IntVal(intBinop(op, a.I, b.I)))
	f.pc++
	return nil
}

func pINeg(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	v := f.upop()
	f.push(heap.IntVal(-v.I))
	f.pc++
	return nil
}

func pFloatBinop(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	b := f.upop()
	a := f.upop()
	f.push(heap.FloatVal(floatBinop(bytecode.Opcode(in.H), a.F, b.F)))
	f.pc++
	return nil
}

func pFNeg(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	v := f.upop()
	f.push(heap.FloatVal(-v.F))
	f.pc++
	return nil
}

func pFCmp(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	b := f.upop()
	a := f.upop()
	switch {
	case a.F < b.F:
		f.push(heap.IntVal(-1))
	case a.F > b.F:
		f.push(heap.IntVal(1))
	default:
		f.push(heap.IntVal(0))
	}
	f.pc++
	return nil
}

func pI2F(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	v := f.upop()
	f.push(heap.FloatVal(float64(v.I)))
	f.pc++
	return nil
}

func pF2I(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	v := f.upop()
	f.push(heap.IntVal(f2i(v.F)))
	f.pc++
	return nil
}

// --- Control flow --------------------------------------------------------

func pGoto(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	f.pc = in.A
	return nil
}

// pIf is the one-operand branch family: the six int tests against zero
// and the two null tests.
func pIf(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	v := f.upop()
	var taken bool
	switch op := bytecode.Opcode(in.H); op {
	case bytecode.OpIfNull, bytecode.OpIfNonNull:
		taken = (v.R == nil) == (op == bytecode.OpIfNull)
	default:
		taken = intCondition(op, v.I)
	}
	return branch(f, in, taken)
}

// pIfCmp is the two-operand branch family: the six int comparisons and
// the two reference ones.
func pIfCmp(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	b := f.upop()
	a := f.upop()
	var taken bool
	switch op := bytecode.Opcode(in.H); op {
	case bytecode.OpIfACmpEq, bytecode.OpIfACmpNe:
		taken = (a.R == b.R) == (op == bytecode.OpIfACmpEq)
	default:
		taken = intCmpCondition(op, a.I, b.I)
	}
	return branch(f, in, taken)
}

// branch moves f to in's target when taken, past in otherwise.
func branch(f *Frame, in *bytecode.PInstr, taken bool) error {
	if taken {
		f.pc = in.A
	} else {
		f.pc++
	}
	return nil
}

// --- Returns -------------------------------------------------------------

func pReturn(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	return vm.returnFromFrame(t, heap.Void())
}

func pValueReturn(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	return vm.returnFromFrame(t, f.upop())
}

// --- Statics (the task-class-mirror hot path, §3.1) ----------------------
//
// The Shared handlers model the baseline JVM: after the first
// initialized access the mirror is cached on the pool entry and every
// later access is a single load, the way a JIT folds the initialization
// check away. The Isolated handlers are the paper's I-JVM sequence —
// index the class's mirror row with the thread's current isolate and
// re-check initialization on every access — with no Shared-cache probe
// and no world.Isolated() branch left in the steady state. Inside closure
// blocks the steady state is a guarded micro of the same mode
// (closure.go isolatedMirror, sharedMirror); these handlers are the first
// access, every access that must initialize or wait, and the table
// engine.

func pGetStaticShared(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	entry := in.Ref.(*classfile.PoolEntry)
	if mirror, slot := sharedMirror(entry); mirror != nil {
		f.push(mirror.Statics[slot])
		f.pc++
		return nil
	}
	mirror, field, err := vm.staticMirrorResolve(t, f, entry, true)
	if err != nil || mirror == nil {
		return err // guest throw already delivered, or re-execute after <clinit>
	}
	f.push(mirror.Statics[field.Slot])
	f.pc++
	return nil
}

func pGetStaticIsolated(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	mirror, field, err := vm.staticMirrorResolve(t, f, in.Ref.(*classfile.PoolEntry), false)
	if err != nil || mirror == nil {
		return err
	}
	f.push(mirror.Statics[field.Slot])
	f.pc++
	return nil
}

func pPutStaticShared(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	entry := in.Ref.(*classfile.PoolEntry)
	if mirror, slot := sharedMirror(entry); mirror != nil {
		mirror.Statics[slot] = f.upop()
		f.pc++
		return nil
	}
	mirror, field, err := vm.staticMirrorResolve(t, f, entry, true)
	if err != nil || mirror == nil {
		return err
	}
	mirror.Statics[field.Slot] = f.upop()
	f.pc++
	return nil
}

func pPutStaticIsolated(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	mirror, field, err := vm.staticMirrorResolve(t, f, in.Ref.(*classfile.PoolEntry), false)
	if err != nil || mirror == nil {
		return err
	}
	mirror.Statics[field.Slot] = f.upop()
	f.pc++
	return nil
}

// --- Instance fields -----------------------------------------------------
//
// Prepared getfield/putfield sites cache the resolved field slot on the
// instruction itself (bytecode.FieldSlot, published once): the steady
// state is one atomic int32 load and a direct index into the receiver's
// field array, skipping the pool-entry indirection and the resolved-field
// pointer chase. The slow path resolves through the pool entry (whose
// ResolvedField cache it also populates) and publishes the slot, so the
// null-receiver error path can always recover the field's qualified name
// from the entry.

func pGetField(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	slot := int(in.FS.Get())
	if slot < 0 {
		var err error
		if slot, err = pResolveFieldSlot(vm, f, in); err != nil {
			return vm.Throw(t, ClassNullPointerException, err.Error())
		}
	}
	recv := f.upop()
	if recv.R == nil {
		return vm.Throw(t, ClassNullPointerException, "getfield "+pFieldName(in))
	}
	if uint(slot) >= uint(len(recv.R.Elems)) {
		return vm.throwNoSuchSlot(t, "getfield", pFieldName(in), recv.R)
	}
	f.push(recv.R.Elems[slot])
	f.pc++
	return nil
}

func pPutField(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	slot := int(in.FS.Get())
	if slot < 0 {
		var err error
		if slot, err = pResolveFieldSlot(vm, f, in); err != nil {
			return vm.Throw(t, ClassNullPointerException, err.Error())
		}
	}
	v := f.upop()
	recv := f.upop()
	if recv.R == nil {
		return vm.Throw(t, ClassNullPointerException, "putfield "+pFieldName(in))
	}
	if uint(slot) >= uint(len(recv.R.Elems)) {
		return vm.throwNoSuchSlot(t, "putfield", pFieldName(in), recv.R)
	}
	// SATB write barrier: while a mark phase is open, the store goes
	// through VM.StoreRef — a plain store into a holder the marker has
	// traced, else a recorded overwritten reference and an atomically
	// published new one. Idle fast path: one plain flag load (the
	// per-quantum cached barrier flag, tier.go barrierOn), plain
	// store. (Statics and locals need no barrier — root sets are
	// snapshot copies.)
	if sp := &recv.R.Elems[slot]; vm.barrierOn(t) {
		vm.StoreRef(t, recv.R, sp, v)
	} else {
		*sp = v
	}
	f.pc++
	return nil
}

// pResolveFieldSlot is the slow path of a get/putfield site whose slot
// cache is empty: it resolves the field through the pool entry and
// publishes the slot for the next execution.
func pResolveFieldSlot(vm *VM, f *Frame, in *bytecode.PInstr) (int, error) {
	field, err := vm.resolveFieldEntry(f, in.Ref.(*classfile.PoolEntry), false)
	if err != nil {
		return 0, err
	}
	in.FS.Publish(int32(field.Slot))
	return field.Slot, nil
}

// pFieldName recovers the qualified field name of a get/putfield site for
// error messages; the slot cache is only published after the pool entry's
// ResolvedField cache, so on the fast path the name is always available.
func pFieldName(in *bytecode.PInstr) string {
	if entry, ok := in.Ref.(*classfile.PoolEntry); ok {
		if field := entry.ResolvedField.Load(); field != nil {
			return field.QualifiedName()
		}
	}
	return "<unresolved field>"
}

// --- Invocation ----------------------------------------------------------
//
// The fast paths find the receiver through the argument count baked into
// PInstr.B at preparation time and the target through the pool entry's
// resolved method, and funnel into the shared invocation tail
// (invokeResolved). First executions, null receivers and failed guards
// take invokeEntry, which dispatches by name as the seed interpreter does.

// pInvokeVirtual dispatches through the receiver class's link-time
// VTable at the resolved method's slot. Bytecode is not type-checked and
// the static type may be an interface, so the index only means "this
// method" in classes below the one that introduced the slot; an entry
// with the resolved method's VRoot proves the receiver's class is one of
// them, and there the entry is what dispatch by name would find
// (classfile AssignMethodSlots). Slot-less methods (VSlot -1) fail the
// bounds check.
func pInvokeVirtual(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	entry := in.Ref.(*classfile.PoolEntry)
	if m := entry.ResolvedMethod.Load(); m != nil {
		nargs := int(in.B)
		// The preparation dataflow proved the operand window present, so
		// the receiver peek needs no depth check.
		if recv := f.stack[len(f.stack)-nargs].R; recv != nil {
			if vt := recv.Class.VTable; uint(m.VSlot) < uint(len(vt)) {
				if target := vt[m.VSlot]; target.VRoot == m.VRoot {
					return vm.invokeResolved(t, f, target, nargs, true, f.pc+1)
				}
			}
		}
	}
	return vm.invokeEntry(t, f, entry, bytecode.OpInvokeVirtual, f.pc+1)
}

// pInvokeSpecial dispatches directly through the pool entry's resolved
// method (invokespecial has no receiver-class dispatch); only the first
// execution and null receivers take the generic path.
func pInvokeSpecial(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	if m := in.Ref.(*classfile.PoolEntry).ResolvedMethod.Load(); m != nil {
		nargs := int(in.B)
		if f.stack[len(f.stack)-nargs].R != nil {
			return vm.invokeResolved(t, f, m, nargs, true, f.pc+1)
		}
	}
	return vm.invokeEntry(t, f, in.Ref.(*classfile.PoolEntry), bytecode.OpInvokeSpecial, f.pc+1)
}

// pInvokeStaticShared skips the initialization check once the entry's
// ResolvedMirror cache proves the class initialized (baseline
// semantics); pInvokeStaticIsolated re-checks initialization on every
// execution, as I-JVM must.
func pInvokeStaticShared(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	entry := in.Ref.(*classfile.PoolEntry)
	if entry.ResolvedMirror != nil {
		if m := entry.ResolvedMethod.Load(); m != nil {
			return vm.invokeResolved(t, f, m, int(in.B), false, f.pc+1)
		}
	}
	return vm.invokeEntry(t, f, entry, bytecode.OpInvokeStatic, f.pc+1)
}

func pInvokeStaticIsolated(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	entry := in.Ref.(*classfile.PoolEntry)
	if m := entry.ResolvedMethod.Load(); m != nil {
		ready, err := vm.ensureInitialized(t, m.Class, t.cur)
		if err != nil || !ready {
			return err
		}
		return vm.invokeResolved(t, f, m, int(in.B), false, f.pc+1)
	}
	return vm.invokeEntry(t, f, entry, bytecode.OpInvokeStatic, f.pc+1)
}

// --- Objects and arrays --------------------------------------------------

// pNewShared folds the class-initialization check into the entry's
// ResolvedMirror cache (baseline semantics: checked once per call
// site); pNewIsolated re-checks on every execution.
func pNewShared(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	entry := in.Ref.(*classfile.PoolEntry)
	class := entry.ResolvedClass.Load()
	if class == nil || entry.ResolvedMirror == nil {
		var err error
		class, err = vm.resolvePoolClassEntry(f, entry)
		if err != nil {
			return vm.Throw(t, ClassNullPointerException, err.Error())
		}
		ready, err := vm.ensureInitialized(t, class, t.cur)
		if err != nil || !ready {
			return err
		}
		entry.ResolvedMirror = vm.world.Mirror(class, t.cur)
	}
	obj, err := vm.AllocObjectIn(t, class, t.cur)
	if err != nil {
		return vm.Throw(t, ClassOutOfMemoryError, err.Error())
	}
	f.push(heap.RefVal(obj))
	f.pc++
	return nil
}

func pNewIsolated(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	entry := in.Ref.(*classfile.PoolEntry)
	class, err := vm.resolvePoolClassEntry(f, entry)
	if err != nil {
		return vm.Throw(t, ClassNullPointerException, err.Error())
	}
	ready, err := vm.ensureInitialized(t, class, t.cur)
	if err != nil || !ready {
		return err
	}
	obj, err := vm.AllocObjectIn(t, class, t.cur)
	if err != nil {
		return vm.Throw(t, ClassOutOfMemoryError, err.Error())
	}
	f.push(heap.RefVal(obj))
	f.pc++
	return nil
}

func pNewArray(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	n := f.upop()
	if n.I < 0 {
		return vm.Throw(t, ClassNegativeArraySize, fmt.Sprintf("%d", n.I))
	}
	var elemClass *classfile.Class
	var err error
	if in.Ref == nil {
		elemClass, err = vm.lookupWellKnown(ClassObject)
	} else {
		elemClass, err = vm.resolvePoolClassEntry(f, in.Ref.(*classfile.PoolEntry))
	}
	if err != nil {
		return vm.Throw(t, ClassNullPointerException, err.Error())
	}
	arr, err := vm.AllocArrayIn(t, elemClass, int(n.I), t.cur)
	if err != nil {
		return vm.Throw(t, ClassOutOfMemoryError, err.Error())
	}
	f.push(heap.RefVal(arr))
	f.pc++
	return nil
}

func pArrayLength(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	v := f.upop()
	if v.R == nil {
		return vm.Throw(t, ClassNullPointerException, "arraylength")
	}
	if !v.R.IsArray() {
		return vm.Throw(t, ClassClassCastException, "arraylength on non-array")
	}
	f.push(heap.IntVal(int64(len(v.R.Elems))))
	f.pc++
	return nil
}

func pArrayLoad(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	idx := f.upop()
	arr := f.upop()
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
	f.pc++
	return nil
}

func pArrayStore(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	v := f.upop()
	idx := f.upop()
	arr := f.upop()
	if arr.R == nil {
		return vm.Throw(t, ClassNullPointerException, "arraystore")
	}
	if !arr.R.IsArray() {
		return vm.Throw(t, ClassClassCastException, "arraystore on non-array")
	}
	if idx.I < 0 || idx.I >= int64(len(arr.R.Elems)) {
		return vm.Throw(t, ClassArrayIndexException, fmt.Sprintf("index %d of %d", idx.I, len(arr.R.Elems)))
	}
	// Frozen arrays (zero-copy RPC payloads, internal/heap frozen.go) are
	// deeply immutable; guest stores are rejected before the barrier path.
	if arr.R.Frozen() {
		return vm.Throw(t, ClassIllegalState, "store to frozen array")
	}
	// SATB write barrier, as in pPutField.
	if sp := &arr.R.Elems[idx.I]; vm.barrierOn(t) {
		vm.StoreRef(t, arr.R, sp, v)
	} else {
		*sp = v
	}
	f.pc++
	return nil
}

func pInstanceOf(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	v := f.upop()
	class, err := vm.resolvePoolClassEntry(f, in.Ref.(*classfile.PoolEntry))
	if err != nil {
		return vm.Throw(t, ClassNullPointerException, err.Error())
	}
	f.push(heap.BoolVal(v.R != nil && v.R.Class.IsSubclassOf(class)))
	f.pc++
	return nil
}

func pCheckCast(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	v := f.upeek()
	if v.R != nil {
		class, err := vm.resolvePoolClassEntry(f, in.Ref.(*classfile.PoolEntry))
		if err != nil {
			return vm.Throw(t, ClassNullPointerException, err.Error())
		}
		if !v.R.Class.IsSubclassOf(class) {
			return vm.Throw(t, ClassClassCastException,
				v.R.Class.Name+" cannot be cast to "+class.Name)
		}
	}
	f.pc++
	return nil
}

// --- Monitors ------------------------------------------------------------

func pMonitorEnter(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	v := f.upeek()
	if v.R == nil {
		f.upop()
		return vm.Throw(t, ClassNullPointerException, "monitorenter")
	}
	if vm.tryAcquireMonitor(t, v.R) {
		f.noteEnter(v.R)
		f.upop()
		f.pc++
		return nil
	}
	// Re-execute this instruction once the monitor frees up.
	vm.blockOnMonitor(t, v.R)
	return nil
}

func pMonitorExit(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	v := f.upop()
	if v.R == nil {
		return vm.Throw(t, ClassNullPointerException, "monitorexit")
	}
	if !vm.monitorExitChecked(t, v.R) {
		return vm.Throw(t, ClassIllegalMonitorState, "monitorexit without ownership")
	}
	f.noteExit(v.R)
	f.pc++
	return nil
}

// --- Exceptions ----------------------------------------------------------

func pAThrow(vm *VM, t *Thread, f *Frame, in *bytecode.PInstr) error {
	v := f.upop()
	if v.R == nil {
		return vm.Throw(t, ClassNullPointerException, "athrow null")
	}
	return vm.DeliverException(t, v.R)
}
