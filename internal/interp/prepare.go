package interp

import (
	"fmt"

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
//  2. Verification: a dataflow pass over the instruction graph computes
//     the exact operand-stack depth at every instruction (invocation
//     effects made exact by parsing the referenced descriptor). Methods
//     that verify get exact MaxStack/MaxLocals — frames preallocate
//     fixed-capacity stacks — and their micros pop without underflow
//     checks. Methods that do not verify (depth conflict at a merge
//     point, potential underflow, malformed pool reference) fall back
//     permanently to the reference switch interpreter in exec.go, which
//     preserves the seed's checked semantics exactly.
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

	// Per-instruction stack effect and prefetched pool entries.
	// Invocation effects are exact: the referenced descriptor tells the
	// argument and return counts, and runtime resolution looks the method
	// up by that same descriptor.
	pops := make([]int32, n)
	pushes := make([]int32, n)
	entries := make([]*classfile.PoolEntry, n)
	for pc, in := range code.Instrs {
		p, q, ok := in.Op.StackEffect()
		if !ok {
			return nil
		}
		switch in.Op {
		case bytecode.OpInvokeStatic, bytecode.OpInvokeVirtual, bytecode.OpInvokeSpecial:
			entry, err := pool.Entry(in.A)
			if err != nil || entry.Kind != classfile.PoolMethodRef {
				return nil
			}
			d, derr := classfile.ParseDescriptor(entry.Descriptor)
			if derr != nil {
				return nil
			}
			p = int32(d.NumParams())
			if in.Op != bytecode.OpInvokeStatic {
				p++
			}
			q = 0
			if d.Return != classfile.KindVoid {
				q = 1
			}
			entries[pc] = entry
		default:
			if in.Op.UsesPool() && !(in.Op == bytecode.OpNewArray && in.A == 0) {
				entry, err := pool.Entry(in.A)
				if err != nil || !poolKindOK(in.Op, entry.Kind) {
					return nil
				}
				entries[pc] = entry
			}
		}
		pops[pc], pushes[pc] = p, q
	}

	// Dataflow over operand-stack depth. Every reachable instruction must
	// see one consistent depth (exception-handler targets enter at depth
	// 1: exception delivery clears the stack and pushes the throwable).
	depth := make([]int32, n)
	for i := range depth {
		depth[i] = -1
	}
	work := make([]int32, 0, 16)
	ok := true
	flow := func(pc, d int32) {
		if pc < 0 || pc >= int32(n) {
			ok = false
			return
		}
		if depth[pc] == -1 {
			depth[pc] = d
			work = append(work, pc)
			return
		}
		if depth[pc] != d {
			ok = false
		}
	}
	flow(0, 0)
	for _, h := range code.Handlers {
		flow(h.Target, 1)
	}
	maxStack := int32(1)
	for ok && len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		in := code.Instrs[pc]
		d := depth[pc]
		if d < pops[pc] {
			ok = false
			break
		}
		nd := d - pops[pc] + pushes[pc]
		if nd > maxStack {
			maxStack = nd
		}
		if !in.Op.IsTerminator() {
			flow(pc+1, nd)
		}
		if in.Op.IsBranch() {
			flow(in.A, nd)
		}
	}
	if !ok {
		return nil
	}

	// Exact locals: the parameter window plus every slot the code touches.
	maxLocals := m.Desc.NumParams()
	if !m.IsStatic() {
		maxLocals++
	}
	for _, in := range code.Instrs {
		if in.Op.UsesLocal() {
			if in.A < 0 {
				return nil
			}
			if int(in.A)+1 > maxLocals {
				maxLocals = int(in.A) + 1
			}
		}
	}

	instrs := make([]bytecode.PInstr, n)
	for pc, in := range code.Instrs {
		instrs[pc] = bytecode.PInstr{
			A:   in.A,
			B:   in.B,
			I:   in.I,
			F:   in.F,
			Ref: nil,
		}
		if entries[pc] != nil {
			instrs[pc].Ref = entries[pc]
		}
		switch in.Op {
		case bytecode.OpInvokeStatic, bytecode.OpInvokeVirtual, bytecode.OpInvokeSpecial:
			// The argument-window size (receiver included) is exactly the
			// invoke's verified pop count; baking it into B lets the call
			// micros bind the window without consulting the resolved
			// descriptor.
			instrs[pc].B = pops[pc]
		case bytecode.OpGetField, bytecode.OpPutField:
			// Per-site resolved-field slot cache (published on first
			// resolution, exec.go publishSlot).
			instrs[pc].FS = bytecode.NewFieldSlot()
		}
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
	p.Closure = buildClosureProgram(m, p, depth, mode, objClass)
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
	default:
		return false
	}
}
