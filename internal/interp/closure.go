package interp

import (
	"sync/atomic"

	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
)

// The closure-threaded tier, the engine of prepared code. A prepared
// method runs on two layers: the closure blocks compiled here, and under
// them the reference switch (exec.go execInstr), which single-steps every
// instruction a block hands off with the same frame and pc. The
// preparation pass (prepare.go) ends with buildClosureProgram, which
// compiles the method into one Go closure chain per extended basic block:
// every operand — local slots, immediates, branch targets, pre-resolved
// pool entries, field slots — is captured at build time, so executing a
// block is a straight run of closure calls with no dispatch and no
// instruction decoding between sub-instructions.
//
// The contract every block keeps:
//
//   - a block's prefix holds only micros that cannot collect, throw,
//     park, or reach a safepoint; anything else (monitors, returns,
//     throws, ldc, checkcast ...) terminates the block and single-steps on
//     the reference switch, with the frame in exactly the state
//     single-step execution would leave it. A micro may allocate — new and
//     newarray do — as long as the admission cannot collect: the object
//     lands on the frame before anything can scan it;
//   - operand folding: the builder keeps a compile-time operand stack.
//     iload/fload/aload and the constant pushes emit nothing — they push
//     a symbol (local k / constant c) — and the micro of the instruction
//     that consumes them binds each operand as local, constant or real
//     stack (operand.at). A producer followed directly by a local store
//     writes the local. The frame's real stack is therefore short of the
//     pending symbols inside a block, which nothing can observe: no
//     safepoint, throw or GC root scan is reachable from a prefix micro.
//     Pending symbols are materialised (one emitted push micro, in order)
//     below the operands of every emitted micro — so before a store or
//     iinc to a local they name, and before every guarded micro — and in
//     full before any transfer out of the block, so the real stack is
//     exact wherever it can be observed;
//   - guarded micros (field, static and array access, allocation,
//     calls, idiv/irem) check
//     every failure condition BEFORE mutating anything; on failure they
//     push their own symbolic operands in order and return microBail. The
//     step then single-steps the guarded instruction on the reference
//     switch (which resolves and fills the caches the micro reads,
//     initializes, waits, or throws) as its final sub-instruction, with
//     the folded loads counted as retired (bail[i]);
//   - statics (§3.1) are guarded micros picked by the VM's mode when the
//     program is built: the Isolated micro is the paper's inline sequence
//     — the field resolved, the current isolate's mirror of its class
//     present and initialized (or being initialized by this thread) —
//     and the Shared micro probes the pool entry's ResolvedMirror cache,
//     which the switch fills on the first initialized access. Neither
//     creates a mirror nor runs a write barrier (statics are roots,
//     re-scanned at cycle finish);
//   - allocation (§3.2) is a guarded micro too: new runs when its class is
//     resolved and initialized — Isolated: the current isolate's mirror
//     is InitDone, one read (isolatedInitDone); Shared: the pool entry
//     caches the mirror — and newarray when its length is in 0..limit/8
//     and its element class resolved; both need the quantum's domain
//     (t.alloc) to admit the object from its slack or a refill. The
//     object is charged as every engine allocation is (noteAlloc). A miss
//     bails, and the switch resolves, initializes, collects and retries,
//     or throws;
//   - micros do not maintain f.pc: it is written at exits only — the
//     target by a taken branch or inline goto, the guarded instruction's
//     pc on a bail, the delegated final's pc on fall-through;
//   - conditional branches do not end a block: they are mid-block micros
//     that fall through into the block's continuation when not taken and
//     transfer (microStop) when taken;
//   - calls (§3.1: only an inter-bundle call is special) are guarded
//     micros: invokevirtual, invokespecial and invokestatic bind their
//     argument window like any consumer, and a value-returning call folds
//     the local store that follows it. When the target is a leaf — a
//     straight-line body of non-failing micros ending in its return
//     (leafBody) — and the arguments pass the leaf's parameter guards, the
//     micro runs the body on the thread's next cached frame without
//     publishing it and delivers the result: no frame is pushed and no
//     step ends. That holds whichever loader defined the target: a leaf of
//     another bundle is a plain inline in Shared mode, and in Isolated
//     mode the micro migrates the thread to the callee's isolate for the
//     body and back, charging the step per isolate in single-step order
//     (callSite.inline, tier.go chargeCall). Any other call whose guards
//     hold — the receiver non-null and, for invokevirtual, the vtable
//     entry the resolved method's; the class initialized for invokestatic
//     — ends the step with the real call (microCall, invokeResolved) as
//     its final sub-instruction, charged before it; a failed guard bails,
//     and the switch dispatches by name;
//   - chaining: after an inline transfer — a taken branch, the inline
//     goto / iinc+goto final, or the link of a block cut at the width cap
//     to the block at the cap pc — the step continues into the block at
//     the new pc when one is compiled there and still fits
//     (runClosureBlock), so a loop iteration made of several blocks, and
//     several iterations, retire as one engine step. A step ends at the
//     first delegated final, bail, real call, pc without a block head,
//     quantum boundary, or once it has retired maxStepSubs instructions;
//   - a block reserves its sub-instruction width — up to its first call
//     micro when it has one — against the quantum before it runs, and a
//     call micro inlines a leaf only when the rest of the block, the body
//     and its return fit in what the step may still retire
//     (quantumAcct.spare); the step charges everything it retired
//     (an inlined leaf adds its body and return to quantumAcct.inl) through
//     the quantum routine's own accounting sequence in one batched,
//     arithmetically identical call at its single exit (tier.go
//     chargeSubs), so quantum boundaries, per-isolate accounts, GC mark
//     strides, interrupt/kill polls and STW parking all land at
//     instruction counts single-step execution also produces.
//
// The prepared form is untouched, one PInstr per instruction: a block
// entered at a follower pc compiles from there, and every hand-off to the
// switch executes one original instruction.
//
// Deopt: a frame never drops an adopted program (a VM's mode, hence its
// programs' micros, is fixed at construction). Exceptions and unresolved
// sites deopt per-step via the bail path with no state to unwind. Kill
// and interrupts act at step boundaries exactly as before.
//
// A program is built before its prepared form is published (the form's
// CAS in bytecode.Code.StorePrepared) and is immutable after, so frames on
// any worker adopt it with a plain read and no lock. It is built for one
// mode: a class links into one VM, whose mode is fixed, so the program is
// per-mode while the prepared instructions stay mode-neutral.

// microStatus is a micro's verdict on how the block proceeds.
type microStatus uint8

const (
	// microNext: the micro fully applied its effect; run the next one.
	microNext microStatus = iota
	// microStop: the micro fully applied its effect and set f.pc to the
	// target of a taken branch; the step chains into the block there or
	// ends.
	microStop
	// microBail: the micro applied NO effect beyond materialising its own
	// symbolic operands; the guarded instruction single-steps on the
	// reference switch as the step's final sub-instruction.
	microBail
	// microCall: a call micro whose guards held materialised its argument
	// window and left the target in quantumAcct.callee; the step makes the
	// real call as its final sub-instruction.
	microCall
)

// closureMicro executes one guest instruction, together with the loads,
// constants and local store folded into it, with pre-bound operands.
type closureMicro func(vm *VM, t *Thread, f *Frame) microStatus

// closureBlock is the compiled form of one extended basic block starting
// at pc0. The prefix holds micros for straight-line instructions and
// conditional branches. last is an optional inline unconditional final
// (goto, or iinc+goto); nil last means the block's final instruction is
// delegated to the reference switch (returns, monitors, ldc, ...), unless
// the block is a link: cut at the width cap, it has no final and chains
// into the block at pc0+width.
//
// A prefix entry may cover several guest instructions, so charging is
// position-based: cum[i] is the instruction count retired once prefix[i]
// completes, bail[i] the count retired when it bails (everything before
// the guarded instruction, its folded operand loads included — the bail
// pushed them), and width the count before the block's final instruction.
// need is what must fit in the quantum before the block runs: its width,
// or, when it holds call micros, the count before the first — a call
// inlines only when everything after it, the leaf included, fits
// (quantumAcct.spare), and a real call, like a bail, ends the block.
// reserve(need) is conservative on early-taken branches: the block runs
// compiled only when its longest path fits the quantum, and its first
// instruction single-steps on the switch otherwise.
type closureBlock struct {
	prefix []closureMicro
	cum    []int64
	bail   []int64
	width  int64
	need   int64
	pc0    int32
	last   closureMicro
	// link: the block ends at the width cap with no final, and the step
	// continues into the block at pc0+width.
	link bool
}

// closureProgram maps each block-head pc to its compiled block; nil
// entries are pcs reached only mid-block (or blocks with no micro), which
// single-step on the reference switch. leaf is the method's inlinable
// form, or nil.
type closureProgram struct {
	blocks []*closureBlock
	leaf   *leafBody
}

const (
	// maxClosureBlock bounds a block's sub-instruction width so a block
	// never spans a large fraction of the quantum (a reserve failure
	// single-steps the whole block until the next quantum). A wider run
	// continues in the block at the cap pc (closureBlock.link).
	maxClosureBlock = 24
	// maxStepSubs bounds the instructions one engine step retires across a
	// chain of blocks. The quantum routine polls stop-the-world, kill,
	// shutdown and target completion between steps, so this — not
	// Options.Quantum — bounds their latency.
	maxStepSubs = 256
	// maxLeafWidth bounds the body of an inlinable leaf.
	maxLeafWidth = 16
)

// runClosureBlock executes a chain of compiled blocks as one engine step.
// n counts the instructions the chain has retired; the loop's post-step
// charge covers the step's final one (a taken branch, an inline final, the
// real call of a call micro, the instruction handed to the switch, or the
// last one before a link's cap) and chargeSubs batches the rest at the
// single exit — within one isolate charge order is unobservable, so
// batching is identical to charging each micro as it retires, and a
// migrating leaf advances the sampling countdown for its runs in order
// (chargeCall). Before each block, q.spare is what the step may still
// retire beside it — the rest of room after the block's width and final,
// negative when only its need fit —, q.at what the step retired before
// it, and leaves inlined by its call micros count in q.inl, which joins n
// after the block.
func (vm *VM) runClosureBlock(t *Thread, f *Frame, b *closureBlock) error {
	q := t.qa
	if q == nil || !q.reserve(b.need) {
		return vm.execInstr(t, f, &f.method.Code.Instrs[f.pc])
	}
	// room is what the step may still retire: the rest of the quantum,
	// capped.
	room := min(q.limit-q.steps, maxStepSubs)
	var n int64
run:
	for {
		q.spare, q.at = room-n-b.width-1, n
		for i, m := range b.prefix {
			switch m(vm, t, f) {
			case microNext:
			case microStop:
				n += b.cum[i]
				goto transferred
			default: // microBail, microCall: the micro's instruction ends the step.
				n += b.bail[i]
				f.pc = b.pc0 + int32(b.bail[i])
				break run
			}
		}
		n += b.width
		switch {
		case b.last != nil:
			b.last(vm, t, f)
			n++
		case b.link:
			f.pc = b.pc0 + int32(b.width)
		default:
			f.pc = b.pc0 + int32(b.width)
			break run
		}
	transferred:
		n += q.inl
		q.inl = 0
		b = f.hot.blocks[f.pc]
		if b == nil || n+b.need >= room {
			q.chargeSubs(vm, t, n-1)
			return nil
		}
	}
	n += q.inl
	q.inl = 0
	// Charge before the final: a call may migrate the thread, and what the
	// step retired belongs to the caller's isolate.
	q.chargeSubs(vm, t, n)
	if target := q.callee; target != nil {
		s := q.site
		q.callee, q.site = nil, nil
		return vm.invokeResolved(t, f, target, len(s.ops), s.recv, f.pc+1)
	}
	return vm.execInstr(t, f, &f.method.Code.Instrs[f.pc])
}

// buildClosureProgram compiles the prepared method into closure-threaded
// blocks. Block heads are the method entry, every branch target, every
// exception-handler target, the pc after every invoke, and every
// fall-through successor of a built block, so steady-state execution
// (including returns from real calls) always lands on a compiled block;
// other pcs single-step on the reference switch. The result is never nil
// (blocks may be sparse); it carries the method's leaf form when it has
// one. mode picks the statics, new and invokestatic micros; objClass is
// the VM's java/lang/Object, the element class of an untyped newarray
// (nil: those sites stay on the switch).
func buildClosureProgram(m *classfile.Method, p *bytecode.PCode, mode core.Mode, objClass *classfile.Class) *closureProgram {
	code := m.Code
	n := len(code.Instrs)
	cp := &closureProgram{blocks: make([]*closureBlock, n)}
	if n == 0 || n != len(p.Instrs) {
		return cp
	}
	seen := make([]bool, n)
	work := make([]int32, 0, 16)
	add := func(pc int32) {
		if pc >= 0 && int(pc) < n && !seen[pc] {
			seen[pc] = true
			work = append(work, pc)
		}
	}
	add(0)
	for pc, in := range code.Instrs {
		switch {
		case in.Op.IsBranch():
			add(in.A)
		case in.Op == bytecode.OpInvokeVirtual || in.Op == bytecode.OpInvokeSpecial || in.Op == bytecode.OpInvokeStatic:
			add(int32(pc) + 1)
		}
	}
	for _, h := range code.Handlers {
		add(h.Target)
	}
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		b, end, fall := buildClosureBlock(m, p, pc, mode, objClass)
		if b != nil {
			cp.blocks[pc] = b
		}
		if fall {
			add(end + 1)
		}
	}
	for _, b := range cp.blocks {
		if b != nil && b.link && cp.blocks[b.pc0+int32(b.width)] == nil {
			b.link = false // the instruction at the cap has no block: delegate it
		}
	}
	cp.leaf = leafForm(m, p, cp.blocks[0])
	return cp
}

// operand is where a micro finds one input, decided at build time.
type operand struct {
	kind uint8
	// slot is the local slot (inLocal) or the operand's depth below the top
	// of the real stack (onStack).
	slot int32
	// pc is the instruction that pushed the symbol (build time only).
	pc int32
	k  *heap.Value // isConst
}

const (
	onStack uint8 = iota
	inLocal
	isConst
)

// at returns the operand's value in place. Reading a local or a constant
// through it is exactly what push-then-pop would have read, so kind
// mismatches (bytecode is not type-checked) behave as in single-step
// execution.
func (o operand) at(f *Frame) *heap.Value {
	switch o.kind {
	case inLocal:
		return &f.locals[o.slot]
	case isConst:
		return o.k
	}
	return &f.stack[len(f.stack)-1-int(o.slot)]
}

// binding is one micro's operands and result; micros capture it by value.
type binding struct {
	ops [3]operand // deepest first
	ns  int        // how many of them are on the real stack: the micro pops them
	// d is the local the result goes to — the micro then also covers the
	// store that follows the producer, at pc last — or -1 for the stack.
	d, last int32
}

// pushSymbols materialises the symbolic operands among ops, in order
// (stack-resident ones already lie below them).
func pushSymbols(f *Frame, ops []operand) {
	for _, o := range ops {
		if o.kind != onStack {
			f.push(*o.at(f))
		}
	}
}

// bail is a guarded micro's failure exit; ops are all its operands.
func bail(f *Frame, ops ...operand) microStatus {
	pushSymbols(f, ops)
	return microBail
}

// drop pops a micro's ns stack-resident operands.
func (f *Frame) drop(ns int) { f.stack = f.stack[:len(f.stack)-ns] }

// result pops a micro's ns stack-resident operands and delivers v to
// local d, or onto the stack when d < 0 (prepared frames preallocate the
// verified MaxStack, so the reslice stays within capacity).
func (f *Frame) result(ns int, d int32, v heap.Value) {
	n := len(f.stack) - ns
	if d < 0 {
		f.stack = f.stack[:n+1]
		f.stack[n] = v
	} else {
		f.stack = f.stack[:n]
		f.locals[d] = v
	}
}

// blockBuilder compiles one extended block. syms is the compile-time
// operand stack: the symbols pushed and not yet consumed or materialised,
// deepest first; at run time they sit (virtually) on top of the frame's
// real stack.
type blockBuilder struct {
	m    *classfile.Method
	code *bytecode.Code
	p    *bytecode.PCode
	blk  *closureBlock
	syms []operand
	mode core.Mode
	// objClass is buildClosureProgram's; nil compiles no untyped newarray.
	objClass *classfile.Class
	// called records that the block holds a call micro (blk.need is set).
	called bool
}

// seal records the block's width, and its need unless a call micro set it.
func (bb *blockBuilder) seal(width int32) {
	bb.blk.width = int64(width)
	if !bb.called {
		bb.blk.need = bb.blk.width
	}
}

// emit appends the micro of the instruction at pc, whose last covered
// instruction (a folded local store) is at pc last, and returns the pc
// after it.
func (bb *blockBuilder) emit(m closureMicro, pc, last int32) (next int32, ok bool) {
	b := bb.blk
	b.prefix = append(b.prefix, m)
	b.cum = append(b.cum, int64(last-b.pc0)+1)
	b.bail = append(b.bail, int64(pc-b.pc0))
	return last + 1, true
}

// symbol pushes a symbol for the load or constant at pc; nothing is
// emitted.
func (bb *blockBuilder) symbol(o operand, pc int32) (next int32, ok bool) {
	o.pc = pc
	bb.syms = append(bb.syms, o)
	return pc + 1, true
}

// constant pushes a constant symbol.
func (bb *blockBuilder) constant(v heap.Value, pc int32) (next int32, ok bool) {
	return bb.symbol(operand{kind: isConst, k: &v}, pc)
}

// flush materialises every pending symbol below the top keep ones with
// one emitted micro.
func (bb *blockBuilder) flush(keep int) {
	n := len(bb.syms) - keep
	if n <= 0 {
		return
	}
	pend := bb.syms[:n:n]
	bb.syms = bb.syms[n:]
	last := pend[n-1].pc
	if n == 1 {
		o := pend[0]
		bb.emit(func(vm *VM, t *Thread, f *Frame) microStatus {
			f.push(*o.at(f))
			return microNext
		}, last, last)
		return
	}
	bb.emit(func(vm *VM, t *Thread, f *Frame) microStatus {
		pushSymbols(f, pend)
		return microNext
	}, last, last)
}

// take binds the top len(ops) entries of the virtual stack as a
// consumer's operands, deepest first, and materialises every symbol below
// them, so the only pending symbols when the micro runs are its own. It
// returns how many of the operands are on the real stack.
func (bb *blockBuilder) take(ops []operand) (ns int) {
	n := len(ops)
	k := min(n, len(bb.syms))
	bb.flush(k)
	ns = n - k
	for i := 0; i < ns; i++ {
		ops[i] = operand{kind: onStack, slot: int32(ns - 1 - i)}
	}
	copy(ops[ns:], bb.syms)
	bb.syms = nil
	return ns
}

// bind takes the top n (at most 3) entries of the virtual stack as the
// operands of the consumer at pc.
func (bb *blockBuilder) bind(n int, pc int32) binding {
	bd := binding{d: -1, last: pc}
	bd.ns = bb.take(bd.ops[:n])
	return bd
}

// storeAfter reports the local a store directly after the producer at pc
// writes, and that store's pc, or -1 and pc when none follows.
func (bb *blockBuilder) storeAfter(pc int32) (d, last int32) {
	if next := pc + 1; int(next) < len(bb.code.Instrs) {
		switch in := bb.code.Instrs[next]; in.Op {
		case bytecode.OpIStore, bytecode.OpFStore, bytecode.OpAStore:
			return in.A, next
		}
	}
	return -1, pc
}

// produce is bind for an instruction that yields a value: a local store
// directly after it is folded in, so the result goes straight to the
// local.
func (bb *blockBuilder) produce(n int, pc int32) binding {
	bd := bb.bind(n, pc)
	bd.d, bd.last = bb.storeAfter(pc)
	return bd
}

// buildClosureBlock compiles one extended block starting at pc. It
// returns the block (nil when it would hold no micro), the pc of the
// block's final instruction, and whether control may fall through past
// it. A block entered at a follower pc of a folded run compiles from that
// pc with an empty symbol stack, so its operands bind to the real stack
// the single-stepped instructions before it filled.
// Conditional branches do not end the block: they compile as mid-block
// micros and the fall-through path continues. The builder terminates
// because the cursor strictly increases.
func buildClosureBlock(m *classfile.Method, p *bytecode.PCode, pc int32, mode core.Mode, objClass *classfile.Class) (*closureBlock, int32, bool) {
	code := m.Code
	b := &closureBlock{pc0: pc}
	bb := &blockBuilder{m: m, code: code, p: p, blk: b, mode: mode, objClass: objClass}
	n := int32(len(code.Instrs))
	cur := pc
	for ok := true; ok && cur < n && cur-pc < maxClosureBlock; {
		switch in := code.Instrs[cur]; {
		case in.Op == bytecode.OpGoto:
			// Inline final, covered by the quantum routine's post-step charge.
			bb.flush(0)
			tgt := in.A
			b.last = func(vm *VM, t *Thread, f *Frame) microStatus {
				f.pc = tgt
				return microStop
			}
			bb.seal(cur - pc)
			return b, cur, false
		case in.Op == bytecode.OpIInc && cur+1 < n && code.Instrs[cur+1].Op == bytecode.OpGoto:
			// iinc+goto as one inline final; width covers the iinc.
			bb.flush(0)
			slot, delta, tgt := in.A, int64(in.B), code.Instrs[cur+1].A
			b.last = func(vm *VM, t *Thread, f *Frame) microStatus {
				l := &f.locals[slot]
				l.I += delta
				l.Kind = classfile.KindInt
				f.pc = tgt
				return microStop
			}
			bb.seal(cur + 1 - pc)
			return b, cur + 1, false
		}
		cur, ok = bb.compile(cur)
	}
	if cur >= n {
		// Unreachable for verified code (control never falls off the end).
		return nil, n - 1, false
	}
	bb.flush(0)
	bb.seal(cur - pc)
	if cur-pc >= maxClosureBlock && len(b.prefix) > 0 {
		// The width cap: the instruction there heads a block of its own,
		// which the step chains into (buildClosureProgram delegates it
		// instead when no block compiles there).
		b.link = true
		return b, cur - 1, true
	}
	// Delegated final: an instruction no micro covers (return, throw,
	// monitors, ...).
	fall := !code.Instrs[cur].Op.IsTerminator()
	if len(b.prefix) == 0 {
		return nil, cur, fall
	}
	return b, cur, fall
}

// compile compiles the instruction at pc — a symbol push (nothing
// emitted) or one micro with its operands bound and a directly following
// local store folded in — and returns the pc after what it covered. ok is
// false, with pc unchanged, for ops that must end the block (may throw
// beyond a guard, allocate, park, or push/pop frames).
func (bb *blockBuilder) compile(pc int32) (next int32, ok bool) {
	in := &bb.p.Instrs[pc]
	switch op := bb.code.Instrs[pc].Op; op {
	case bytecode.OpNop:
		return pc + 1, true
	case bytecode.OpILoad, bytecode.OpFLoad, bytecode.OpALoad:
		return bb.symbol(operand{kind: inLocal, slot: in.A}, pc)
	case bytecode.OpIConst:
		return bb.constant(heap.IntVal(in.I), pc)
	case bytecode.OpFConst:
		return bb.constant(heap.FloatVal(in.F), pc)
	case bytecode.OpAConstNull:
		return bb.constant(heap.Null(), pc)
	case bytecode.OpIStore, bytecode.OpFStore, bytecode.OpAStore:
		bd, d := bb.bind(1, pc), in.A
		if bd.ns == 1 {
			return bb.emit(func(vm *VM, t *Thread, f *Frame) microStatus {
				f.locals[d] = f.upop()
				return microNext
			}, pc, pc)
		}
		return bb.emit(func(vm *VM, t *Thread, f *Frame) microStatus {
			f.locals[d] = *bd.ops[0].at(f)
			return microNext
		}, pc, pc)
	case bytecode.OpPop:
		if k := len(bb.syms); k > 0 {
			bb.syms = bb.syms[:k-1]
			return pc + 1, true
		}
		return bb.emit(func(vm *VM, t *Thread, f *Frame) microStatus {
			f.drop(1)
			return microNext
		}, pc, pc)
	case bytecode.OpDup:
		bb.flush(0)
		return bb.emit(func(vm *VM, t *Thread, f *Frame) microStatus {
			f.push(f.upeek())
			return microNext
		}, pc, pc)
	case bytecode.OpDupX1:
		bb.flush(0)
		return bb.emit(func(vm *VM, t *Thread, f *Frame) microStatus {
			a := f.upop()
			b := f.upop()
			f.push(a)
			f.push(b)
			f.push(a)
			return microNext
		}, pc, pc)
	case bytecode.OpSwap:
		bb.flush(0)
		return bb.emit(func(vm *VM, t *Thread, f *Frame) microStatus {
			a := f.upop()
			b := f.upop()
			f.push(a)
			f.push(b)
			return microNext
		}, pc, pc)
	case bytecode.OpIInc:
		bb.flush(0)
		slot, delta := in.A, int64(in.B)
		return bb.emit(func(vm *VM, t *Thread, f *Frame) microStatus {
			f.locals[slot].I += delta
			f.locals[slot].Kind = classfile.KindInt
			return microNext
		}, pc, pc)
	case bytecode.OpIAdd, bytecode.OpISub, bytecode.OpIMul,
		bytecode.OpIAnd, bytecode.OpIOr, bytecode.OpIXor,
		bytecode.OpIShl, bytecode.OpIShr, bytecode.OpIUshr:
		bd := bb.produce(2, pc)
		// The hottest bindings get closures of their own: local-to-local
		// data flow with no stack traffic and no operand-kind dispatch.
		switch a, b, d := bd.ops[0], bd.ops[1], bd.d; {
		case a.kind == inLocal && b.kind == inLocal:
			return bb.emit(func(vm *VM, t *Thread, f *Frame) microStatus {
				f.result(0, d, heap.IntVal(intBinop(op, f.locals[a.slot].I, f.locals[b.slot].I)))
				return microNext
			}, pc, bd.last)
		case a.kind == inLocal && b.kind == isConst:
			c := b.k.I
			return bb.emit(func(vm *VM, t *Thread, f *Frame) microStatus {
				f.result(0, d, heap.IntVal(intBinop(op, f.locals[a.slot].I, c)))
				return microNext
			}, pc, bd.last)
		}
		return bb.emit(func(vm *VM, t *Thread, f *Frame) microStatus {
			f.result(bd.ns, bd.d, heap.IntVal(intBinop(op, bd.ops[0].at(f).I, bd.ops[1].at(f).I)))
			return microNext
		}, pc, bd.last)
	case bytecode.OpIDiv, bytecode.OpIRem:
		// Guarded: a zero divisor bails (the switch throws).
		bd := bb.produce(2, pc)
		return bb.emit(func(vm *VM, t *Thread, f *Frame) microStatus {
			x, y := bd.ops[0].at(f).I, bd.ops[1].at(f).I
			if y == 0 {
				return bail(f, bd.ops[0], bd.ops[1])
			}
			f.result(bd.ns, bd.d, heap.IntVal(intBinop(op, x, y)))
			return microNext
		}, pc, bd.last)
	case bytecode.OpINeg:
		bd := bb.produce(1, pc)
		return bb.emit(func(vm *VM, t *Thread, f *Frame) microStatus {
			f.result(bd.ns, bd.d, heap.IntVal(-bd.ops[0].at(f).I))
			return microNext
		}, pc, bd.last)
	case bytecode.OpFAdd, bytecode.OpFSub, bytecode.OpFMul, bytecode.OpFDiv:
		bd := bb.produce(2, pc)
		return bb.emit(func(vm *VM, t *Thread, f *Frame) microStatus {
			f.result(bd.ns, bd.d, heap.FloatVal(floatBinop(op, bd.ops[0].at(f).F, bd.ops[1].at(f).F)))
			return microNext
		}, pc, bd.last)
	case bytecode.OpFNeg:
		bd := bb.produce(1, pc)
		return bb.emit(func(vm *VM, t *Thread, f *Frame) microStatus {
			f.result(bd.ns, bd.d, heap.FloatVal(-bd.ops[0].at(f).F))
			return microNext
		}, pc, bd.last)
	case bytecode.OpFCmp:
		bd := bb.produce(2, pc)
		return bb.emit(func(vm *VM, t *Thread, f *Frame) microStatus {
			x, y := bd.ops[0].at(f).F, bd.ops[1].at(f).F
			var c int64
			switch {
			case x < y:
				c = -1
			case x > y:
				c = 1
			}
			f.result(bd.ns, bd.d, heap.IntVal(c))
			return microNext
		}, pc, bd.last)
	case bytecode.OpI2F:
		bd := bb.produce(1, pc)
		return bb.emit(func(vm *VM, t *Thread, f *Frame) microStatus {
			f.result(bd.ns, bd.d, heap.FloatVal(float64(bd.ops[0].at(f).I)))
			return microNext
		}, pc, bd.last)
	case bytecode.OpF2I:
		bd := bb.produce(1, pc)
		return bb.emit(func(vm *VM, t *Thread, f *Frame) microStatus {
			f.result(bd.ns, bd.d, heap.IntVal(f2i(bd.ops[0].at(f).F)))
			return microNext
		}, pc, bd.last)
	case bytecode.OpIfEq, bytecode.OpIfNe, bytecode.OpIfLt, bytecode.OpIfLe,
		bytecode.OpIfGt, bytecode.OpIfGe, bytecode.OpIfNull, bytecode.OpIfNonNull:
		// A taken branch transfers out of the block with the real stack
		// exact: bind left nothing pending but the branch's own operand.
		bd, tgt := bb.bind(1, pc), in.A
		onRef, wantNull := op == bytecode.OpIfNull || op == bytecode.OpIfNonNull, op == bytecode.OpIfNull
		return bb.emit(func(vm *VM, t *Thread, f *Frame) microStatus {
			v := bd.ops[0].at(f)
			taken := intCondition(op, v.I)
			if onRef {
				taken = (v.R == nil) == wantNull
			}
			f.drop(bd.ns)
			if taken {
				f.pc = tgt
				return microStop
			}
			return microNext
		}, pc, pc)
	case bytecode.OpIfICmpEq, bytecode.OpIfICmpNe, bytecode.OpIfICmpLt,
		bytecode.OpIfICmpLe, bytecode.OpIfICmpGt, bytecode.OpIfICmpGe,
		bytecode.OpIfACmpEq, bytecode.OpIfACmpNe:
		bd, tgt := bb.bind(2, pc), in.A
		onRef, wantEq := op == bytecode.OpIfACmpEq || op == bytecode.OpIfACmpNe, op == bytecode.OpIfACmpEq
		switch a, b := bd.ops[0], bd.ops[1]; { // the hottest bindings, as for the int ops
		case a.kind == inLocal && b.kind == inLocal && !onRef:
			return bb.emit(func(vm *VM, t *Thread, f *Frame) microStatus {
				if intCmpCondition(op, f.locals[a.slot].I, f.locals[b.slot].I) {
					f.pc = tgt
					return microStop
				}
				return microNext
			}, pc, pc)
		case a.kind == inLocal && b.kind == isConst && !onRef:
			c := b.k.I
			return bb.emit(func(vm *VM, t *Thread, f *Frame) microStatus {
				if intCmpCondition(op, f.locals[a.slot].I, c) {
					f.pc = tgt
					return microStop
				}
				return microNext
			}, pc, pc)
		}
		return bb.emit(func(vm *VM, t *Thread, f *Frame) microStatus {
			x, y := bd.ops[0].at(f), bd.ops[1].at(f)
			taken := intCmpCondition(op, x.I, y.I)
			if onRef {
				taken = (x.R == y.R) == wantEq
			}
			f.drop(bd.ns)
			if taken {
				f.pc = tgt
				return microStop
			}
			return microNext
		}, pc, pc)
	case bytecode.OpGetField:
		// Guarded: an unresolved slot (negative, so out of range as an
		// unsigned index), a null receiver or a receiver without the slot
		// bails (the switch resolves and publishes the slot, or throws).
		bd, fs := bb.produce(1, pc), in.FS
		return bb.emit(func(vm *VM, t *Thread, f *Frame) microStatus {
			slot, recv := int(fs.Get()), bd.ops[0].at(f).R
			if recv == nil || uint(slot) >= uint(len(recv.Elems)) {
				return bail(f, bd.ops[0])
			}
			f.result(bd.ns, bd.d, recv.Elems[slot])
			return microNext
		}, pc, bd.last)
	case bytecode.OpPutField:
		bd, fs := bb.bind(2, pc), in.FS
		return bb.emit(func(vm *VM, t *Thread, f *Frame) microStatus {
			slot, recv, v := int(fs.Get()), bd.ops[0].at(f).R, *bd.ops[1].at(f)
			if recv == nil || uint(slot) >= uint(len(recv.Elems)) {
				return bail(f, bd.ops[0], bd.ops[1])
			}
			f.drop(bd.ns)
			if sp := &recv.Elems[slot]; vm.barrierOn(t) {
				vm.StoreRef(t, recv, sp, v)
			} else {
				*sp = v
			}
			return microNext
		}, pc, pc)
	case bytecode.OpGetStatic:
		// Guarded by the mode's mirror check (isolatedMirror, sharedMirror);
		// a miss bails to the switch, which resolves, initializes or waits.
		bd, entry := bb.produce(0, pc), in.Ref.(*classfile.PoolEntry)
		if bb.mode == core.ModeIsolated {
			return bb.emit(func(vm *VM, t *Thread, f *Frame) microStatus {
				m, slot := vm.isolatedMirror(t, entry)
				if m == nil {
					return microBail
				}
				f.result(0, bd.d, m.Statics[slot])
				return microNext
			}, pc, bd.last)
		}
		return bb.emit(func(vm *VM, t *Thread, f *Frame) microStatus {
			m, slot := sharedMirror(entry)
			if m == nil {
				return microBail
			}
			f.result(0, bd.d, m.Statics[slot])
			return microNext
		}, pc, bd.last)
	case bytecode.OpPutStatic:
		bd, entry := bb.bind(1, pc), in.Ref.(*classfile.PoolEntry)
		if bb.mode == core.ModeIsolated {
			return bb.emit(func(vm *VM, t *Thread, f *Frame) microStatus {
				m, slot := vm.isolatedMirror(t, entry)
				if m == nil {
					return bail(f, bd.ops[0])
				}
				v := *bd.ops[0].at(f)
				f.drop(bd.ns)
				m.Statics[slot] = v
				return microNext
			}, pc, pc)
		}
		return bb.emit(func(vm *VM, t *Thread, f *Frame) microStatus {
			m, slot := sharedMirror(entry)
			if m == nil {
				return bail(f, bd.ops[0])
			}
			v := *bd.ops[0].at(f)
			f.drop(bd.ns)
			m.Statics[slot] = v
			return microNext
		}, pc, pc)
	case bytecode.OpNew:
		// Guarded: the class resolved, the mode's initialization check
		// (isolatedInitDone, or the pool entry's ResolvedMirror cache as
		// the switch's classInitReadyAt keeps it), and a domain that admits
		// the object without a collection; a miss bails to the switch,
		// which resolves, initializes, waits, collects and retries, or
		// throws.
		bd, entry := bb.produce(0, pc), in.Ref.(*classfile.PoolEntry)
		initDone := (*VM).isolatedInitDone
		if bb.mode != core.ModeIsolated {
			initDone = func(*VM, *Thread, *classfile.Class) bool { return entry.ResolvedMirror != nil }
		}
		return bb.emit(func(vm *VM, t *Thread, f *Frame) microStatus {
			class, a := entry.ResolvedClass.Load(), t.alloc
			if class == nil || a == nil || !initDone(vm, t, class) {
				return microBail
			}
			obj, err := a.dom.AllocObject(class, t.cur.ID())
			if err != nil {
				return microBail
			}
			vm.noteAlloc(a, t.cur, obj)
			f.result(0, bd.d, heap.RefVal(obj))
			return microNext
		}, pc, bd.last)
	case bytecode.OpNewArray:
		// Guarded: a length in 0..limit/8, the element class resolved (an
		// untyped site's is java/lang/Object, bound here), and a domain that
		// admits the array without a collection; a miss bails to the
		// switch, which throws NegativeArraySizeException, resolves, or
		// collects and retries.
		entry, _ := in.Ref.(*classfile.PoolEntry)
		untyped := bb.objClass
		if entry == nil && untyped == nil {
			return pc, false
		}
		bd := bb.produce(1, pc)
		return bb.emit(func(vm *VM, t *Thread, f *Frame) microStatus {
			n, a, elem := bd.ops[0].at(f).I, t.alloc, untyped
			if entry != nil {
				elem = entry.ResolvedClass.Load()
			}
			if elem == nil || a == nil || uint64(n) > uint64(vm.heap.Limit()/heap.ValueSlotBytes) {
				return bail(f, bd.ops[0])
			}
			arr, err := a.dom.AllocArray(elem, int(n), t.cur.ID())
			if err != nil {
				return bail(f, bd.ops[0])
			}
			vm.noteAlloc(a, t.cur, arr)
			f.result(bd.ns, bd.d, heap.RefVal(arr))
			return microNext
		}, pc, bd.last)
	case bytecode.OpInvokeVirtual, bytecode.OpInvokeSpecial, bytecode.OpInvokeStatic:
		return bb.call(op, in, pc)
	case bytecode.OpArrayLength:
		bd := bb.produce(1, pc)
		return bb.emit(func(vm *VM, t *Thread, f *Frame) microStatus {
			arr := bd.ops[0].at(f).R
			if arr == nil || !arr.IsArray() {
				return bail(f, bd.ops[0])
			}
			f.result(bd.ns, bd.d, heap.IntVal(int64(len(arr.Elems))))
			return microNext
		}, pc, bd.last)
	case bytecode.OpArrayLoad:
		bd := bb.produce(2, pc)
		return bb.emit(func(vm *VM, t *Thread, f *Frame) microStatus {
			arr, idx := bd.ops[0].at(f).R, bd.ops[1].at(f).I
			if arr == nil || !arr.IsArray() || idx < 0 || idx >= int64(len(arr.Elems)) {
				return bail(f, bd.ops[0], bd.ops[1])
			}
			f.result(bd.ns, bd.d, arr.Elems[idx])
			return microNext
		}, pc, bd.last)
	case bytecode.OpArrayStore:
		bd := bb.bind(3, pc)
		return bb.emit(func(vm *VM, t *Thread, f *Frame) microStatus {
			arr, idx, v := bd.ops[0].at(f).R, bd.ops[1].at(f).I, *bd.ops[2].at(f)
			if arr == nil || !arr.IsArray() || idx < 0 ||
				idx >= int64(len(arr.Elems)) || arr.Frozen() {
				return bail(f, bd.ops[0], bd.ops[1], bd.ops[2])
			}
			f.drop(bd.ns)
			if sp := &arr.Elems[idx]; vm.barrierOn(t) {
				vm.StoreRef(t, arr, sp, v)
			} else {
				*sp = v
			}
			return microNext
		}, pc, pc)
	}
	return pc, false
}

// isolatedMirror is the guard of the Isolated statics micros, §3.1's
// sequence inline: the field is resolved, the current isolate's mirror of
// its class exists, and it is initialized or being initialized by this
// thread (a <clinit> reaching its own statics). It returns the mirror and
// the field's slot, or nil to bail.
func (vm *VM) isolatedMirror(t *Thread, entry *classfile.PoolEntry) (*core.TaskClassMirror, int) {
	field := entry.ResolvedField.Load()
	if field == nil {
		return nil, 0
	}
	m := vm.world.MirrorIfPresent(field.Class, t.cur)
	if m == nil || m.State != core.InitDone && (m.State != core.InitRunning || m.InitThread != t.id) {
		return nil, 0
	}
	return m, field.Slot
}

// isolatedInitDone is the initialization guard of the Isolated new micro:
// the current isolate's mirror of class is InitDone, one read. InitDone
// implies every superclass's mirror is InitDone too (ensureInitialized
// initializes supers first), so nothing else needs checking; a class
// being initialized — even by this thread — bails to the switch.
func (vm *VM) isolatedInitDone(t *Thread, class *classfile.Class) bool {
	m := vm.world.MirrorIfPresent(class, t.cur)
	return m != nil && m.State == core.InitDone
}

// sharedMirror is the guard of the Shared statics micros: the mirror the
// switch caches on the pool entry after the first initialized access
// (staticMirrorAt), or nil to bail.
func sharedMirror(entry *classfile.PoolEntry) (*core.TaskClassMirror, int) {
	m, ok := entry.ResolvedMirror.(*core.TaskClassMirror)
	if !ok {
		return nil, 0
	}
	return m, entry.ResolvedField.Load().Slot
}

// --- Calls -----------------------------------------------------------------

// leafBody is the inlinable form of a method: its body is the one block at
// pc 0, of width at most maxLeafWidth, whose final is the method's return
// and whose micros cannot bail — loads, constants, local stores, int and
// float arithmetic without idiv/irem, iinc, pop/dup/swap — except
// getfield/putfield and arraylength on a parameter the body never writes:
// those cannot bail either once the call checked the argument (admits).
// There are no handlers, and the method is neither synchronized nor
// native. Running it retires inl instructions: the body and its return.
type leafBody struct {
	prefix            []closureMicro
	inl               int64
	nLocals, maxStack int
	guards            []leafGuard
}

// leafGuard is what one guarded site of a leaf body needs of the argument
// in local: a non-null reference with the field slot fs in range, or, for
// arraylength (fs nil), an array.
type leafGuard struct {
	local int32
	fs    *bytecode.FieldSlot
}

// leafForm returns m's leaf form, or nil. b is the block compiled at pc 0
// (nil: an empty prefix, so only a bare return qualifies).
func leafForm(m *classfile.Method, p *bytecode.PCode, b *closureBlock) *leafBody {
	code := m.Code
	if len(code.Handlers) > 0 || m.IsSynchronized() || m.IsNative() {
		return nil
	}
	var width int
	var prefix []closureMicro
	if b != nil {
		if b.last != nil {
			return nil
		}
		width, prefix = int(b.width), b.prefix
	}
	if width > maxLeafWidth || width >= len(code.Instrs) {
		return nil
	}
	value := m.Desc.Return != classfile.KindVoid
	switch code.Instrs[width].Op {
	case bytecode.OpReturn:
		if value {
			return nil
		}
	case bytecode.OpIReturn, bytecode.OpFReturn, bytecode.OpAReturn:
		if !value {
			return nil
		}
	default:
		return nil
	}
	guards, ok := leafGuards(m, p, width)
	if !ok {
		return nil
	}
	return &leafBody{
		prefix:   prefix,
		inl:      int64(width) + 1,
		nLocals:  p.MaxLocals,
		maxStack: p.MaxStack,
		guards:   guards,
	}
}

// leafGuards checks that every instruction before the return at width is
// one a leaf may hold, and returns what its getfield, putfield and
// arraylength sites need of the arguments: it follows each parameter the
// body never writes through the operand stack, and refuses a guarded site
// whose operand is anything else.
func leafGuards(m *classfile.Method, p *bytecode.PCode, width int) ([]leafGuard, bool) {
	instrs := m.Code.Instrs[:width]
	nParams := m.Desc.NumParams()
	if !m.IsStatic() {
		nParams++
	}
	param := make([]bool, nParams) // is the local an unwritten parameter?
	for i := range param {
		param[i] = true
	}
	for _, in := range instrs {
		switch in.Op {
		case bytecode.OpIStore, bytecode.OpFStore, bytecode.OpAStore, bytecode.OpIInc:
			if int(in.A) < nParams {
				param[in.A] = false
			}
		}
	}
	var guards []leafGuard
	var stack []int32 // the operand stack: the parameter an entry holds, or -1
	pop := func() int32 {
		l := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return l
	}
	for pc, in := range instrs {
		switch in.Op {
		case bytecode.OpNop, bytecode.OpIInc:
		case bytecode.OpALoad:
			l := int32(-1)
			if int(in.A) < nParams && param[in.A] {
				l = in.A
			}
			stack = append(stack, l)
		case bytecode.OpILoad, bytecode.OpFLoad,
			bytecode.OpIConst, bytecode.OpFConst, bytecode.OpAConstNull:
			stack = append(stack, -1)
		case bytecode.OpIStore, bytecode.OpFStore, bytecode.OpAStore, bytecode.OpPop:
			pop()
		case bytecode.OpDup:
			stack = append(stack, stack[len(stack)-1])
		case bytecode.OpDupX1:
			a, b := pop(), pop()
			stack = append(stack, a, b, a)
		case bytecode.OpSwap:
			a, b := pop(), pop()
			stack = append(stack, a, b)
		case bytecode.OpIAdd, bytecode.OpISub, bytecode.OpIMul,
			bytecode.OpIAnd, bytecode.OpIOr, bytecode.OpIXor,
			bytecode.OpIShl, bytecode.OpIShr, bytecode.OpIUshr,
			bytecode.OpFAdd, bytecode.OpFSub, bytecode.OpFMul, bytecode.OpFDiv, bytecode.OpFCmp:
			pop()
			pop()
			stack = append(stack, -1)
		case bytecode.OpINeg, bytecode.OpFNeg, bytecode.OpI2F, bytecode.OpF2I:
			pop()
			stack = append(stack, -1)
		case bytecode.OpGetField, bytecode.OpArrayLength:
			l := pop()
			if l < 0 {
				return nil, false
			}
			g := leafGuard{local: l}
			if in.Op == bytecode.OpGetField {
				g.fs = p.Instrs[pc].FS
			}
			guards = append(guards, g)
			stack = append(stack, -1)
		case bytecode.OpPutField:
			pop()
			l := pop()
			if l < 0 {
				return nil, false
			}
			guards = append(guards, leafGuard{local: l, fs: p.Instrs[pc].FS})
		default:
			return nil, false
		}
	}
	return guards, true
}

// admits reports whether the arguments of the call at s pass every guard
// of the leaf, so none of its micros can bail. recv is the call's
// non-null receiver (local 0), or nil for a static call.
func (lf *leafBody) admits(s *callSite, f *Frame, recv *heap.Object) bool {
	for _, g := range lf.guards {
		o := recv
		if g.local != 0 || o == nil {
			if int(g.local) >= len(s.ops) {
				return false
			}
			if o = s.ops[g.local].at(f).R; o == nil {
				return false
			}
		}
		if g.fs == nil {
			if !o.IsArray() {
				return false
			}
		} else if uint(g.fs.Get()) >= uint(len(o.Elems)) {
			return false
		}
	}
	return true
}

// leafOf returns target's leaf form, or nil; final reports that the
// verdict cannot change (no code, an unpreparable body, or a prepared body
// with no leaf form), as opposed to a target that is not prepared yet.
func leafOf(target *classfile.Method) (lf *leafBody, final bool) {
	code := target.Code
	if code == nil {
		return nil, true
	}
	p := code.Prepared()
	if p == nil {
		return nil, false
	}
	cp, _ := p.Closure.(*closureProgram)
	if cp == nil || cp.leaf == nil {
		return nil, true
	}
	return cp.leaf, true
}

// callSite is one call micro: the pool entry, the bound argument window
// (receiver first), whether it has a receiver, where the result goes, and
// off, the instructions its block retires before the invoke. miss is the
// site's cache: a class — the receiver's for invokevirtual, the target's
// otherwise — whose target here is permanently not inlinable, so a guarded
// call makes the real call after one compare. Workers running the program
// race on it harmlessly: every key stored is a true verdict.
type callSite struct {
	entry *classfile.PoolEntry
	ops   []operand
	ns    int
	d     int32
	value bool
	recv  bool
	off   int64
	miss  atomic.Pointer[classfile.Class]
}

// call compiles the invoke at pc into a call micro; a value-returning call
// folds the local store that follows it.
func (bb *blockBuilder) call(op bytecode.Opcode, in *bytecode.PInstr, pc int32) (next int32, ok bool) {
	entry := in.Ref.(*classfile.PoolEntry)
	desc, err := classfile.ParseDescriptor(entry.Descriptor)
	if err != nil {
		return pc, false // unreachable: preparation parsed it
	}
	if !bb.called {
		bb.called, bb.blk.need = true, int64(pc-bb.blk.pc0)
	}
	s := &callSite{entry: entry, ops: make([]operand, in.B), d: -1, recv: op != bytecode.OpInvokeStatic, off: int64(pc - bb.blk.pc0)}
	s.ns = bb.take(s.ops)
	last := pc
	if s.value = desc.Return != classfile.KindVoid; s.value {
		s.d, last = bb.storeAfter(pc)
	}
	// Each micro makes its guards and then its site-cache check inline, so
	// a guarded call that never inlines reaches the real call after one
	// compare.
	var m closureMicro
	switch {
	case op == bytecode.OpInvokeVirtual:
		m = func(vm *VM, t *Thread, f *Frame) microStatus {
			recv := s.ops[0].at(f).R
			if recv == nil {
				return bail(f, s.ops...)
			}
			return s.virtual(vm, t, f, recv)
		}
	case op == bytecode.OpInvokeSpecial:
		// The resolved method on a non-null receiver.
		m = func(vm *VM, t *Thread, f *Frame) microStatus {
			recv, target := s.ops[0].at(f).R, s.entry.ResolvedMethod.Load()
			if recv == nil || target == nil {
				return bail(f, s.ops...)
			}
			if target.Class == s.miss.Load() {
				return s.call(t, f, target)
			}
			return s.inline(vm, t, f, target, recv, target.Class)
		}
	case bb.mode == core.ModeIsolated:
		// invokestatic: the class's mirror in the current isolate is
		// InitDone (the switch initializes or waits otherwise).
		m = func(vm *VM, t *Thread, f *Frame) microStatus {
			target := s.entry.ResolvedMethod.Load()
			if target == nil || !vm.isolatedInitDone(t, target.Class) {
				return bail(f, s.ops...)
			}
			if target.Class == s.miss.Load() {
				return s.call(t, f, target)
			}
			return s.inline(vm, t, f, target, nil, target.Class)
		}
	default:
		// invokestatic: the pool entry caches the initialized mirror
		// (classInitReadyAt).
		m = func(vm *VM, t *Thread, f *Frame) microStatus {
			target := s.entry.ResolvedMethod.Load()
			if target == nil || s.entry.ResolvedMirror == nil {
				return bail(f, s.ops...)
			}
			if target.Class == s.miss.Load() {
				return s.call(t, f, target)
			}
			return s.inline(vm, t, f, target, nil, target.Class)
		}
	}
	return bb.emit(m, pc, last)
}

// virtual is the rest of the invokevirtual micro: the vtable guard on the
// non-null recv, then inline or the real call. Bytecode is not
// type-checked and the static type may be an interface, so the resolved
// method's slot only means "this method" in classes below the one that
// introduced it; an entry with the resolved method's VRoot proves the
// receiver's class is one of them, and there the entry is what dispatch by
// name would find (classfile AssignMethodSlots). Slot-less methods (VSlot
// -1) fail the bounds check. A failed guard bails, and the switch
// dispatches by name.
func (s *callSite) virtual(vm *VM, t *Thread, f *Frame, recv *heap.Object) microStatus {
	m := s.entry.ResolvedMethod.Load()
	if m == nil {
		return bail(f, s.ops...)
	}
	vt := recv.Class.VTable
	if uint(m.VSlot) >= uint(len(vt)) || vt[m.VSlot].VRoot != m.VRoot {
		return bail(f, s.ops...)
	}
	if recv.Class == s.miss.Load() {
		return s.call(t, f, vt[m.VSlot])
	}
	return s.inline(vm, t, f, vt[m.VSlot], recv, recv.Class)
}

// call ends the step with the real call to target, whose guards held: it
// materialises the argument window and leaves the target to
// runClosureBlock, which charges what the step retired and then calls.
func (s *callSite) call(t *Thread, f *Frame, target *classfile.Method) microStatus {
	pushSymbols(f, s.ops)
	t.qa.callee, t.qa.site = target, s
	return microCall
}

// inline runs target's leaf in place of the call, or makes the real call:
// the target must be a leaf whose guards the arguments pass (admits), and
// the call one that an inlined body reproduces exactly — pushFrame would
// neither overflow the stack nor trace the entry, the caller's frame is in
// the thread's current isolate and that isolate is not killed (a return
// into a killed isolate throws). A target defined by another bundle's
// loader is inlined too, in both modes. In Isolated mode it migrates: the
// micro counts the inter-isolate call, switches the thread's isolate to the
// callee's for the body, charges the step in single-step order (chargeCall)
// and restores the caller's isolate before it returns, so the step never
// ends in another isolate and the concurrent engine hands the thread to no
// other shard. A migrating call stays real when the callee is killed (the
// call throws) or when per-call CPU accounting reads the clock at every
// switch. key is the site's cache key for target.
func (s *callSite) inline(vm *VM, t *Thread, f *Frame, target *classfile.Method, recv *heap.Object, key *classfile.Class) microStatus {
	lf, final := leafOf(target)
	if lf == nil {
		if final {
			s.miss.Store(key)
		}
		return s.call(t, f, target)
	}
	q, cur := t.qa, t.cur
	if q.inl+lf.inl > q.spare || len(t.frames) >= vm.opts.MaxFrameDepth || vm.TraceMethodEntry != nil ||
		cur != f.iso || cur.Killed() || !lf.admits(s, f, recv) {
		return s.call(t, f, target)
	}
	callee := cur
	if q.isolated && !target.Class.IsSystem() {
		if iso := vm.world.IsolateForLoaderID(target.Class.LoaderID); iso != nil && iso != cur {
			if iso.Killed() || vm.opts.PerCallCPUAccounting {
				return s.call(t, f, target)
			}
			callee = iso
		}
	}
	// The callee's activation: the thread's next cached frame, filled as
	// pushFrame would, never published (no root scan can run before it is
	// cleared again) and released as releaseFrame would.
	g := t.acquireFrame(max(lf.nLocals, len(s.ops)), lf.maxStack)
	for i := range s.ops {
		g.locals[i] = *s.ops[i].at(f)
	}
	for i := len(s.ops); i < len(g.locals); i++ {
		g.locals[i] = heap.Null()
	}
	if callee != cur {
		q.chargeCall(vm, cur, callee, s.off, lf.inl)
		t.cur = callee
	}
	for _, m := range lf.prefix {
		m(vm, t, g)
	}
	t.cur = cur
	q.inl += lf.inl
	if s.value {
		f.result(s.ns, s.d, g.stack[len(g.stack)-1])
	} else {
		f.drop(s.ns)
	}
	// Drop the references the activation held, slot by slot: the frame is
	// a few values wide, and a bulk clear costs more than it.
	for i := range g.locals {
		g.locals[i].R = nil
	}
	for i := range g.stack[:lf.maxStack] {
		g.stack[:lf.maxStack][i].R = nil
	}
	g.stack = g.stack[:0]
	return microNext
}
