package interp

import (
	"fmt"
	"slices"

	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/core"
)

// This file implements the code-preparation ("quickening") pass that
// turns a method's decoded instruction stream into the prepared form its
// closure blocks (closure.go) are compiled from. Preparation runs once per
// method on its first invocation and is cached on the method's Code
// behind an atomic pointer, so concurrent scheduler workers racing on
// the same method both end up executing the single published form.
//
// The pass does four things:
//
//  1. Quickening: constant-pool operands (string/class/field/method
//     references) are resolved to direct *classfile.PoolEntry pointers,
//     removing the per-execution pool bounds check and error branch; the
//     entries' atomic Resolved* caches then make every later execution a
//     single pointer load.
//  2. Verification: a dataflow pass over the instruction graph, the way
//     a bytecode verifier types a method, computes one abstract state per
//     instruction (pcState): the operand stack's depth (invocation effects
//     made exact by parsing the referenced descriptor) and, for every
//     stack entry and local, whether it may hold a reference and which
//     parameter's argument it holds. It is the one walk of a method's
//     operand stack: the closure compiler reads call sites' stack heights,
//     leaf forms and the reference-holding slots of inlined bodies off it.
//     Methods that verify get exact MaxStack/MaxLocals — frames
//     preallocate fixed-capacity stacks — and their micros pop without
//     underflow checks. Methods that do not verify (depth conflict at a
//     merge point, potential underflow, malformed pool reference) fall
//     back permanently to the reference switch interpreter in exec.go,
//     which preserves the seed's checked semantics exactly.
//  3. Sticky errors: the only remaining hot-loop failure check — the
//     program counter escaping the code — returns a preformatted
//     per-method error instead of constructing one.
//  4. Compilation: the closure-threaded blocks of the method (closure.go)
//     are built from the verified form and stored on it, so the form is
//     published with its program and every frame runs the blocks from the
//     method's first call — compile on first invocation, as VMKit's JVM
//     does, with no warm-up tier in front.
//
// The prepared instructions are pure quickening and mode-neutral, one per
// instruction. Group fusion — one combined micro for a load/load/op/store
// run and the like — is a private step of closure compilation, which
// matches the shapes over the original opcodes. An instruction no block
// runs (a pc with no block head, a bail, a delegated final, a block that
// does not fit the quantum) single-steps on the reference switch with the
// same frame and pc. The closure program is per-mode (its statics micros
// are the mode's §3.1 check), which is sound because a class links into
// one VM and a VM's mode is fixed at construction.

// unpreparable is the published sentinel for methods the verifier
// rejected; they execute through the reference switch path forever.
var unpreparable = &bytecode.PCode{}

// preparedCode returns the quickened form of m, preparing and caching it
// on first invocation. The instructions are mode-neutral; the closure
// program on the form is compiled for the VM's mode. It returns nil when
// the VM runs seed-style dispatch (Options.DisablePrepare) or the method
// is unpreparable.
func (vm *VM) preparedCode(m *classfile.Method) *bytecode.PCode {
	if vm.opts.DisablePrepare {
		return nil
	}
	code := m.Code
	p := code.Prepared()
	if p == nil {
		objClass, _ := vm.lookupWellKnown(ClassObject)
		p = prepareMethod(m, vm.opts.Mode, objClass)
		if p == nil {
			p = unpreparable
		}
		p = code.StorePrepared(p)
	}
	if len(p.Instrs) == 0 {
		return nil
	}
	return p
}

// prepareMethod builds the prepared form of m for a VM of the given mode
// whose java/lang/Object is objClass (see buildClosureProgram), or returns
// nil when the method cannot be verified for unchecked execution.
func prepareMethod(m *classfile.Method, mode core.Mode, objClass *classfile.Class) *bytecode.PCode {
	code := m.Code
	n := len(code.Instrs)
	if n == 0 {
		return nil
	}
	pool := m.Class.Pool

	// Per-instruction quickening — pool entries prefetched — and stack
	// effect. Invocation effects are exact: the referenced descriptor tells
	// the argument and return counts, and runtime resolution looks the
	// method up by that same descriptor.
	instrs := make([]bytecode.PInstr, n)
	pops, pushes := make([]int32, n), make([]int32, n)
	for pc, in := range code.Instrs {
		p, q, ok := in.Op.StackEffect()
		if !ok {
			return nil
		}
		pi := bytecode.PInstr{A: in.A, B: in.B, I: in.I, F: in.F}
		if in.Op.UsesPool() && !(in.Op == bytecode.OpNewArray && in.A == 0) {
			entry, err := pool.Entry(in.A)
			if err != nil || !poolKindOK(in.Op, entry.Kind) {
				return nil
			}
			pi.Ref = entry
		}
		switch in.Op {
		case bytecode.OpInvokeStatic, bytecode.OpInvokeVirtual, bytecode.OpInvokeSpecial:
			d, err := classfile.ParseDescriptor(pi.Ref.(*classfile.PoolEntry).Descriptor)
			if err != nil {
				return nil
			}
			p, q = int32(d.NumParams()), 0
			if in.Op != bytecode.OpInvokeStatic {
				p++
			}
			if d.Return != classfile.KindVoid {
				q = 1
			}
			// The argument-window size (receiver included) is exactly the
			// invoke's verified pop count; baking it into B lets the call
			// micros bind the window without consulting the resolved
			// descriptor.
			pi.B = p
		case bytecode.OpGetField, bytecode.OpPutField:
			// Per-site resolved-field slot cache (published on first
			// resolution, exec.go publishSlot).
			pi.FS = bytecode.NewFieldSlot()
		}
		instrs[pc], pops[pc], pushes[pc] = pi, p, q
	}

	// Exact locals: the parameter window plus every slot the code touches.
	nParams := m.Desc.NumParams()
	if !m.IsStatic() {
		nParams++
	}
	maxLocals := nParams
	for _, in := range code.Instrs {
		if in.Op.UsesLocal() {
			if in.A < 0 {
				return nil
			}
			maxLocals = max(maxLocals, int(in.A)+1)
		}
	}

	// Dataflow: one abstract state per reachable instruction (pcState).
	// Every reachable instruction must see one consistent depth
	// (exception-handler targets enter at depth 1: exception delivery
	// clears the stack and pushes the throwable); at a join the states
	// merge slot by slot.
	states := make([]*pcState, n)
	work := make([]int32, 0, 16)
	ok := true
	flow := func(pc int32, s *pcState) {
		if pc < 0 || pc >= int32(n) {
			ok = false
			return
		}
		switch old := states[pc]; {
		case old == nil:
			states[pc] = &pcState{stack: slices.Clone(s.stack), locals: slices.Clone(s.locals)}
			work = append(work, pc)
		case len(old.stack) != len(s.stack):
			ok = false
		default:
			if st, lo := mergeSlots(old.stack, s.stack), mergeSlots(old.locals, s.locals); st || lo {
				work = append(work, pc)
			}
		}
	}
	entry := &pcState{locals: make([]slotState, maxLocals)}
	for k := range entry.locals {
		entry.locals[k] = slotState{param: -1}
		if k < nParams {
			entry.locals[k] = slotState{param: int32(k), ref: true, set: true}
		}
	}
	flow(0, entry)
	// A handler's locals are whatever its range left, which this pass does
	// not follow: nothing is known of them.
	unknown := &pcState{stack: []slotState{{param: -1, ref: true}}, locals: make([]slotState, maxLocals)}
	for k := range unknown.locals {
		unknown.locals[k] = slotState{param: -1, ref: true}
	}
	for _, h := range code.Handlers {
		flow(h.Target, unknown)
	}
	maxStack := int32(1)
	var next pcState
	for ok && len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		in, s := code.Instrs[pc], states[pc]
		if int32(len(s.stack)) < pops[pc] {
			ok = false
			break
		}
		next.after(s, in, pops[pc], pushes[pc])
		maxStack = max(maxStack, int32(len(next.stack)))
		if !in.Op.IsTerminator() {
			flow(pc+1, &next)
		}
		if in.Op.IsBranch() {
			flow(in.A, &next)
		}
	}
	if !ok {
		return nil
	}

	p := &bytecode.PCode{
		Instrs:    instrs,
		MaxStack:  int(maxStack),
		MaxLocals: maxLocals,
		ErrPC:     fmt.Errorf("interp: pc out of range in %s", m.QualifiedName()),
	}
	// Last step: compile the closure blocks (closure.go). The program is
	// in place before the caller publishes the form and never changes
	// after, so adopting it is a plain field read.
	p.Closure = buildClosureProgram(m, p, states, mode, objClass)
	return p
}

// poolKindOK reports whether a pool entry's kind matches what the opcode
// dereferences; a mismatch makes the method unpreparable (the reference
// path surfaces the error at execution time).
func poolKindOK(op bytecode.Opcode, kind classfile.PoolEntryKind) bool {
	switch op {
	case bytecode.OpLdcString:
		return kind == classfile.PoolString
	case bytecode.OpLdcClass, bytecode.OpNew, bytecode.OpNewArray,
		bytecode.OpInstanceOf, bytecode.OpCheckCast:
		return kind == classfile.PoolClassRef
	case bytecode.OpGetStatic, bytecode.OpPutStatic,
		bytecode.OpGetField, bytecode.OpPutField:
		return kind == classfile.PoolFieldRef
	case bytecode.OpInvokeStatic, bytecode.OpInvokeVirtual, bytecode.OpInvokeSpecial:
		return kind == classfile.PoolMethodRef
	default:
		return false
	}
}

// slotState is what preparation's dataflow knows of one operand-stack
// entry or local before one instruction: whether it may hold a reference (a
// null constant does not), which parameter's argument it holds — read from
// the parameter's own local before any write to it, on every path — or -1,
// and, for a local, whether it holds a value on every path: a parameter,
// or one the method stored (an iinc of a local that is not set leaves it
// not set).
type slotState struct {
	param int32
	ref   bool
	set   bool
}

// pcState is the dataflow's abstract state before one instruction: the
// operand stack, deepest first, and the locals. A method that verifies has
// one per reachable instruction, which the closure compiler reads: a call
// site's stack height, and a leaf's form and its body's reference-holding
// slots (leafForm, lineScope).
type pcState struct {
	stack, locals []slotState
}

// after makes s the state after in, whose verified counts are pops and
// pushes, from the state before it.
func (s *pcState) after(before *pcState, in bytecode.Instr, pops, pushes int32) {
	d := int32(len(before.stack))
	args := before.stack[d-pops:]
	s.stack = append(s.stack[:0], before.stack[:d-pops]...)
	s.locals = append(s.locals[:0], before.locals...)
	value := slotState{param: -1, set: true}
	switch op := in.Op; op {
	case bytecode.OpILoad, bytecode.OpFLoad, bytecode.OpALoad:
		s.stack = append(s.stack, before.locals[in.A])
	case bytecode.OpIStore, bytecode.OpFStore, bytecode.OpAStore:
		value.ref = args[0].ref
		s.locals[in.A] = value
	case bytecode.OpIInc:
		value.set = before.locals[in.A].set
		s.locals[in.A] = value
	case bytecode.OpDup:
		s.stack = append(s.stack, args[0], args[0])
	case bytecode.OpDupX1:
		s.stack = append(s.stack, args[1], args[0], args[1])
	case bytecode.OpSwap:
		s.stack = append(s.stack, args[1], args[0])
	case bytecode.OpCheckCast:
		s.stack = append(s.stack, args[0])
	default:
		// Field, static and array reads, allocations, string and class
		// constants and call results may be references.
		switch op {
		case bytecode.OpGetField, bytecode.OpGetStatic, bytecode.OpArrayLoad, bytecode.OpNew, bytecode.OpNewArray,
			bytecode.OpLdcString, bytecode.OpLdcClass,
			bytecode.OpInvokeStatic, bytecode.OpInvokeVirtual, bytecode.OpInvokeSpecial:
			value.ref = true
		}
		for range pushes {
			s.stack = append(s.stack, value)
		}
	}
}

// mergeSlots merges src into dst slot by slot — a slot may hold a
// reference when either may, holds a value when both do, and holds a
// parameter when both hold the same one — and reports whether dst changed.
func mergeSlots(dst, src []slotState) (changed bool) {
	for i, v := range src {
		m := dst[i]
		m.ref = m.ref || v.ref
		m.set = m.set && v.set
		if m.param != v.param {
			m.param = -1
		}
		if m != dst[i] {
			dst[i], changed = m, true
		}
	}
	return changed
}
