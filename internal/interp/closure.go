package interp

import (
	"slices"
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
//     exact wherever it can be observed. (A leaf body compiled for a call
//     site has no exit but its return, and keeps the call's argument
//     symbols pending under real entries: lineScope);
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
//     the local store that follows it. An invoke is one site in every
//     block that binds its operands alike (blockBuilder.site). Each site
//     caches up to siteLines targets (callSite.lines), keyed by the
//     receiver's class for invokevirtual and by the target's class
//     otherwise; a line holds the target and, when it is a leaf — a
//     straight-line body of non-failing micros ending in its return
//     (leafBody), which leafForm reads off preparation's dataflow states
//     and the one list of opcodes a leaf may hold (leafOp) —, the leaf's
//     body compiled for the site (compileLine): it reads its parameters
//     where the caller's operands are, keeps its temporaries in the caller
//     frame's headroom, clears the slots the dataflow says may hold a
//     reference, and delivers its result where the call's goes, so a hit
//     whose arguments pass the line's checks runs the body with no
//     activation: no frame is pushed and no step ends. That holds
//     whichever loader defined the target: a leaf of another bundle is a
//     plain inline in Shared mode, and in Isolated mode the micro migrates
//     the thread to the callee's isolate for the body and back, charging
//     the step per isolate in single-step order (callSite.enter, tier.go
//     chargeCall). Any other call whose guards hold — the receiver
//     non-null and, for invokevirtual, the vtable entry the resolved
//     method's (checked when the receiver's class misses the cache); the
//     class initialized for invokestatic — ends the step with the real
//     call (microCall, invokeResolved) as its final sub-instruction,
//     charged before it; a failed guard bails, and the switch dispatches
//     by name;
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
	// sites are the program's call micros. A method with any has frames
	// that carry the scratch an inlined leaf body runs in (leafScratch,
	// leafHeadroom).
	sites []*callSite
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
	// leafScratch is how many locals of its own an inlinable leaf may
	// have (written parameters included), and leafHeadroom how deep its
	// operand stack may grow: a frame whose method has call sites carries
	// that many locals past its own and that much stack past its MaxStack,
	// and an inlined body keeps its temporaries there (callSite.run).
	leafScratch  = 4
	leafHeadroom = maxLeafWidth
	// siteLines is how many targets a call site caches (callSite.lines).
	siteLines = 8
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
func buildClosureProgram(m *classfile.Method, p *bytecode.PCode, states []*pcState, mode core.Mode, objClass *classfile.Class) *closureProgram {
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
	// An invoke that several blocks cover — the entry block runs on into a
	// loop, a branch enters a block mid-way — is one call site wherever its
	// operands bind alike (blockBuilder.site).
	var sites map[int32][]*callSite
	for pc, in := range code.Instrs {
		switch {
		case in.Op.IsBranch():
			add(in.A)
		case in.Op == bytecode.OpInvokeVirtual || in.Op == bytecode.OpInvokeSpecial || in.Op == bytecode.OpInvokeStatic:
			add(int32(pc) + 1)
			if sites == nil {
				sites = make(map[int32][]*callSite)
			}
		}
	}
	for _, h := range code.Handlers {
		add(h.Target)
	}
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		b, end, fall := buildClosureBlock(m, p, states, pc, mode, objClass, sites)
		if b != nil {
			cp.blocks[pc] = b
		}
		if fall {
			add(end + 1)
		}
	}
	for pc := 0; sites != nil && pc < n; pc++ {
		cp.sites = append(cp.sites, sites[int32(pc)]...)
	}
	for _, b := range cp.blocks {
		if b != nil && b.link && cp.blocks[b.pc0+int32(b.width)] == nil {
			b.link = false // the instruction at the cap has no block: delegate it
		}
	}
	cp.leaf = leafForm(m, p, states)
	return cp
}

// operand is where a micro finds one input, decided at build time.
type operand struct {
	kind uint8
	// slot is the local slot (inLocal), the operand's depth below the top
	// of the real stack (onStack), or its index in the real stack (inSlot).
	slot int32
	// pc is the instruction that pushed the symbol (build time only).
	pc int32
	k  *heap.Value // isConst
}

const (
	onStack uint8 = iota
	inLocal
	isConst
	// inSlot is a call site's stack argument as a leaf body compiled for
	// the site names it (build time only): the body pushes above it, so it
	// is kept by its index from the bottom, and every micro that reads it
	// gets it as onStack at the depth the body has reached
	// (lineScope.inPlace).
	inSlot
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
	// states are preparation's dataflow states, by pc.
	states []*pcState
	// sites are the block's call micros (blk.need is set once there is one),
	// and known the program's, by invoke pc.
	sites []*callSite
	known map[int32][]*callSite
	// ls is set while the builder compiles a leaf's body for one call site
	// (callSite.compileLine): the leaf's locals live where ls says.
	ls *lineScope
}

// load is the symbol of a load of local k.
func (bb *blockBuilder) load(k int32) operand {
	if ls := bb.ls; ls != nil && int(k) < len(ls.params) && !ls.lf.written[k] {
		return ls.params[k]
	}
	return operand{kind: inLocal, slot: bb.local(k)}
}

// local is the frame slot of local k: k itself, or in a leaf body the
// caller's scratch slot the leaf local lives in.
func (bb *blockBuilder) local(k int32) int32 {
	if ls := bb.ls; ls != nil {
		return ls.scratch0 + ls.lf.scratch[k]
	}
	return k
}

// seal records the block's width, and its need unless a call micro set it.
func (bb *blockBuilder) seal(width int32) {
	bb.blk.width = int64(width)
	if len(bb.sites) == 0 {
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
	if bb.ls != nil {
		bb.lift(0, len(bb.syms)-keep)
		return
	}
	n := len(bb.syms) - keep
	if n <= 0 {
		return
	}
	pend := bb.syms[:n:n]
	bb.syms = bb.syms[n:]
	bb.emitPush(pend)
}

// lift materialises, in a leaf body, the symbols among syms[lo:hi], which
// become real entries. The pushes land above every real entry, so a
// symbol below one cannot lift: the compilation fails, and the line makes
// the real call.
func (bb *blockBuilder) lift(lo, hi int) {
	j := lo
	for j < hi && bb.syms[j].kind == onStack {
		j++
	}
	if j >= hi {
		return
	}
	for _, o := range bb.syms[j:] {
		if o.kind == onStack {
			bb.ls.fail = true
			return
		}
	}
	// Each push lands one above the last: a stack argument read after m
	// of them is m deeper.
	pend := make([]operand, hi-j)
	for m := range pend {
		pend[m] = bb.ls.inPlace(bb.syms[j+m], int32(m))
	}
	bb.emit(func(vm *VM, t *Thread, f *Frame) microStatus {
		for _, o := range pend {
			f.push(*o.at(f))
		}
		return microNext
	}, pend[len(pend)-1].pc, pend[len(pend)-1].pc)
	for i := j; i < hi; i++ {
		bb.syms[i] = bb.ls.push(bb.ls.before(), i)
	}
}

// protect lifts, in a leaf body, the symbols below the top n entries that
// name local d, before a write to d.
func (bb *blockBuilder) protect(d int32, n int) {
	if bb.ls == nil || d < bb.ls.scratch0 {
		return
	}
	hi := len(bb.syms) - n
	for j, o := range bb.syms[:hi] {
		if o.kind == inLocal && o.slot == d {
			bb.lift(j, hi)
			return
		}
	}
}

// reshape replaces, in a leaf body, the top n real entries by the m the
// instruction leaves in their place, as pop, dup, dup_x1 and swap do.
func (bb *blockBuilder) reshape(n, m int) {
	ls := bb.ls
	if ls == nil {
		return
	}
	bb.syms = bb.syms[:len(bb.syms)-n]
	ls.depth -= int32(n)
	after := ls.after()
	for i := len(after) - m; i < len(after); i++ {
		bb.syms = append(bb.syms, ls.push(after, i))
	}
}

// emitPush emits one micro that pushes the symbols pend, in order.
func (bb *blockBuilder) emitPush(pend []operand) {
	n := len(pend)
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
// returns how many of the operands are on the real stack. In a leaf body
// the symbols below stay pending, under real entries if need be: they name
// the call's arguments, which nothing writes while the body runs, or its
// own locals, which protect lifts before they are written.
func (bb *blockBuilder) take(ops []operand) (ns int) {
	n := len(ops)
	if ls := bb.ls; ls != nil {
		w := bb.syms[len(bb.syms)-n:]
		for i := n - 1; i >= 0; i-- {
			if ops[i] = ls.inPlace(w[i], 0); w[i].kind == onStack {
				ops[i] = operand{kind: onStack, slot: int32(ns)}
				ns++
			}
		}
		bb.syms = bb.syms[:len(bb.syms)-n]
		ls.depth -= int32(ns)
		return ns
	}
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
			return bb.local(in.A), next
		case bytecode.OpIReturn, bytecode.OpFReturn, bytecode.OpAReturn:
			// A leaf body's last producer delivers the call's result.
			if ls := bb.ls; ls != nil && ls.dest >= 0 {
				ls.folded = true
				return ls.dest, next
			}
		}
	}
	return -1, pc
}

// produce is bind for an instruction that yields a value: a local store
// directly after it is folded in, so the result goes straight to the
// local.
func (bb *blockBuilder) produce(n int, pc int32) binding {
	ls := bb.ls
	if ls == nil {
		bd := bb.bind(n, pc)
		bd.d, bd.last = bb.storeAfter(pc)
		return bd
	}
	d, last := bb.storeAfter(pc)
	bb.protect(d, n)
	bd := bb.bind(n, pc)
	bd.d, bd.last = d, last
	if d < 0 {
		after := ls.after()
		bb.syms = append(bb.syms, ls.push(after, len(after)-1))
	}
	return bd
}

// buildClosureBlock compiles one extended block starting at pc. It
// returns the block (nil when it would hold no micro), the pc of the
// block's final instruction, and whether control may fall through past
// it; its call sites join known. A block entered at a follower pc
// of a folded run compiles from that
// pc with an empty symbol stack, so its operands bind to the real stack
// the single-stepped instructions before it filled.
// Conditional branches do not end the block: they compile as mid-block
// micros and the fall-through path continues. The builder terminates
// because the cursor strictly increases.
func buildClosureBlock(m *classfile.Method, p *bytecode.PCode, states []*pcState, pc int32, mode core.Mode, objClass *classfile.Class, known map[int32][]*callSite) (b *closureBlock, end int32, fall bool) {
	code := m.Code
	b = &closureBlock{pc0: pc}
	bb := &blockBuilder{m: m, code: code, p: p, blk: b, mode: mode, objClass: objClass, states: states, known: known}
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
	fall = !code.Instrs[cur].Op.IsTerminator()
	if len(b.prefix) == 0 {
		return nil, cur, fall
	}
	return b, cur, fall
}

// leafOp says whether an inlinable leaf body may hold op, and what its
// micro then needs (leafForm): this is the one list of them, and compile's
// arm for each emits a micro that cannot bail and transfers nothing —
// loads, constants, local stores, iinc, pop/dup/dup_x1/swap, int and float
// arithmetic but idiv/irem, conversions —, or, for guard >= 0, one that
// bails only on the operand guard entries below the top of the stack
// (getfield and arraylength: their object; putfield: its receiver), which
// cannot fail once the call checked it (leafGuard): in a leaf body these
// micros check nothing.
func leafOp(op bytecode.Opcode) (ok bool, guard int) {
	switch op {
	case bytecode.OpNop, bytecode.OpILoad, bytecode.OpFLoad, bytecode.OpALoad,
		bytecode.OpIConst, bytecode.OpFConst, bytecode.OpAConstNull,
		bytecode.OpIStore, bytecode.OpFStore, bytecode.OpAStore, bytecode.OpIInc,
		bytecode.OpPop, bytecode.OpDup, bytecode.OpDupX1, bytecode.OpSwap,
		bytecode.OpIAdd, bytecode.OpISub, bytecode.OpIMul, bytecode.OpIAnd, bytecode.OpIOr, bytecode.OpIXor,
		bytecode.OpIShl, bytecode.OpIShr, bytecode.OpIUshr, bytecode.OpINeg,
		bytecode.OpFAdd, bytecode.OpFSub, bytecode.OpFMul, bytecode.OpFDiv, bytecode.OpFNeg, bytecode.OpFCmp,
		bytecode.OpI2F, bytecode.OpF2I:
		return true, -1
	case bytecode.OpGetField, bytecode.OpArrayLength:
		return true, 0
	case bytecode.OpPutField:
		return true, 1
	}
	return false, -1
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
		return bb.symbol(bb.load(in.A), pc)
	case bytecode.OpIConst:
		return bb.constant(heap.IntVal(in.I), pc)
	case bytecode.OpFConst:
		return bb.constant(heap.FloatVal(in.F), pc)
	case bytecode.OpAConstNull:
		return bb.constant(heap.Null(), pc)
	case bytecode.OpIStore, bytecode.OpFStore, bytecode.OpAStore:
		d := bb.local(in.A)
		bb.protect(d, 1)
		bd := bb.bind(1, pc)
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
		if k := len(bb.syms); k > 0 && bb.syms[k-1].kind != onStack {
			bb.syms = bb.syms[:k-1]
			return pc + 1, true
		}
		bb.reshape(1, 0)
		return bb.emit(func(vm *VM, t *Thread, f *Frame) microStatus {
			f.drop(1)
			return microNext
		}, pc, pc)
	case bytecode.OpDup:
		bb.flush(0)
		bb.reshape(1, 2)
		return bb.emit(func(vm *VM, t *Thread, f *Frame) microStatus {
			f.push(f.upeek())
			return microNext
		}, pc, pc)
	case bytecode.OpDupX1:
		bb.flush(0)
		bb.reshape(2, 3)
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
		bb.reshape(2, 2)
		return bb.emit(func(vm *VM, t *Thread, f *Frame) microStatus {
			a := f.upop()
			b := f.upop()
			f.push(a)
			f.push(b)
			return microNext
		}, pc, pc)
	case bytecode.OpIInc:
		slot, delta := bb.local(in.A), int64(in.B)
		if bb.ls != nil {
			bb.protect(slot, 0)
		} else {
			bb.flush(0)
		}
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
		// And the bindings of a leaf body's arithmetic on what it has
		// pushed (Table 1's drag: a field read plus a constant, then plus
		// the event's length).
		case bd.ns == 1 && b.kind == isConst:
			c := b.k.I
			return bb.emit(func(vm *VM, t *Thread, f *Frame) microStatus {
				f.result(1, d, heap.IntVal(intBinop(op, f.stack[len(f.stack)-1].I, c)))
				return microNext
			}, pc, bd.last)
		case bd.ns == 2:
			return bb.emit(func(vm *VM, t *Thread, f *Frame) microStatus {
				n := len(f.stack)
				f.result(2, d, heap.IntVal(intBinop(op, f.stack[n-2].I, f.stack[n-1].I)))
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
		// Guarded (fieldCheck): an unresolved slot, a null receiver, or a
		// receiver without the slot or of a class the field is not in bails
		// (the switch resolves and publishes the slot, or throws). In a leaf
		// body the receiver is an argument the call checked (leafOp), as is
		// putfield's and arraylength's, so their micros check nothing.
		bd, fc := bb.produce(1, pc), newFieldCheck(in)
		if o, d, slot := bd.ops[0], bd.d, int(in.FS.Get()); o.kind == inLocal && slot >= 0 && bb.ls != nil {
			return bb.emit(func(vm *VM, t *Thread, f *Frame) microStatus {
				f.result(0, d, f.locals[o.slot].R.Elems[slot])
				return microNext
			}, pc, bd.last)
		}
		return bb.emit(func(vm *VM, t *Thread, f *Frame) microStatus {
			recv, slot := bd.ops[0].at(f).R, int(fc.fs.Get())
			if !fc.hit(recv, slot) {
				slot = fc.slot(recv)
			}
			if slot < 0 {
				return bail(f, bd.ops[0])
			}
			f.result(bd.ns, bd.d, recv.Elems[slot])
			return microNext
		}, pc, bd.last)
	case bytecode.OpPutField:
		bd, fc := bb.bind(2, pc), newFieldCheck(in)
		if slot := int(in.FS.Get()); slot >= 0 && bb.ls != nil {
			o, vo := bd.ops[0], bd.ops[1]
			return bb.emit(func(vm *VM, t *Thread, f *Frame) microStatus {
				recv, v := o.at(f).R, *vo.at(f)
				f.drop(bd.ns)
				if sp := &recv.Elems[slot]; vm.barrierOn(t) {
					vm.StoreRef(t, recv, sp, v)
				} else {
					*sp = v
				}
				return microNext
			}, pc, pc)
		}
		return bb.emit(func(vm *VM, t *Thread, f *Frame) microStatus {
			recv, v, slot := bd.ops[0].at(f).R, *bd.ops[1].at(f), int(fc.fs.Get())
			if !fc.hit(recv, slot) {
				slot = fc.slot(recv)
			}
			if slot < 0 {
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
		if o, d := bd.ops[0], bd.d; o.kind == inLocal && bb.ls != nil {
			return bb.emit(func(vm *VM, t *Thread, f *Frame) microStatus {
				f.result(0, d, heap.IntVal(int64(len(f.locals[o.slot].R.Elems))))
				return microNext
			}, pc, bd.last)
		}
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

// fieldCheck is the receiver check of a getfield or putfield site: the
// slot the switch published (fs) in range, and the receiver no array and
// of the field's class or a subclass of it (an array's Class is its
// element class). class is the field's class once a check saw the field
// resolved, and good the last subclass that passed: a receiver of the
// field's own class costs the slot compare and one class compare, inline
// (hit), one of good's one more compare (slot), and IsSubclassOf runs
// only for a class that matches neither. Workers race on both harmlessly:
// every class stored passed.
type fieldCheck struct {
	fs    *bytecode.FieldSlot
	entry *classfile.PoolEntry
	class atomic.Pointer[classfile.Class]
	good  atomic.Pointer[classfile.Class]
}

// newFieldCheck returns the check of the prepared getfield or putfield in.
func newFieldCheck(in *bytecode.PInstr) *fieldCheck {
	return &fieldCheck{fs: in.FS, entry: in.Ref.(*classfile.PoolEntry)}
}

// hit reports whether o, of the field's own class, holds slot, the
// field's published slot: the check's common case, which the compiler
// inlines into the micro. A miss takes slot.
func (c *fieldCheck) hit(o *heap.Object, slot int) bool {
	return o != nil && uint(slot) < uint(len(o.Elems)) && o.Class == c.class.Load() && !o.IsArray()
}

// slot returns the field's slot in o, or -1 when o is null, an array, has
// no such slot or is of another class, or the field is not resolved yet
// (an unpublished slot is negative, so out of range as an unsigned index).
func (c *fieldCheck) slot(o *heap.Object) int {
	slot := int(c.fs.Get())
	if o == nil || uint(slot) >= uint(len(o.Elems)) || o.IsArray() {
		return -1
	}
	if k := o.Class; k != c.class.Load() && k != c.good.Load() {
		field := c.entry.ResolvedField.Load()
		if field == nil || !k.IsSubclassOf(field.Class) {
			return -1
		}
		if k == field.Class {
			c.class.Store(k)
		} else {
			c.good.Store(k)
		}
	}
	return slot
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

// leafBody is the inlinable form of a method (leafForm): a straight-line
// body of at most maxLeafWidth instructions ending in the method's return,
// whose instructions an inlinable leaf may hold (leafOp) — their micros
// cannot bail, or, for getfield, putfield and arraylength, cannot bail once
// the call checked the parameter they apply to (leafGuard), which the body
// never writes. There are no handlers, and the method is neither
// synchronized nor native. The body reads no local of its own before it
// writes it, and has at most leafScratch of them, written parameters
// included. Running it retires inl instructions: the body and its return.
// Each call site compiles the body for itself (callSite.compileLine),
// reading what it needs to know of each pc from states, preparation's
// dataflow states of the body and its return.
type leafBody struct {
	m      *classfile.Method
	p      *bytecode.PCode
	states []*pcState
	width  int32
	inl    int64
	// written marks the parameters the body writes: a call copies those
	// into scratch and reads every other one where the caller's operand is.
	written []bool
	// scratch maps each local the body keeps in scratch to its index there,
	// or -1.
	scratch []int32
	guards  []leafGuard
	// refScratch are the scratch locals that may hold a reference once the
	// body ran.
	refScratch []int32
}

// leafGuard is what one guarded site of a leaf body needs of the argument
// in local: a non-null reference holding the field of the pool entry
// (fs its slot cache), or, for arraylength (entry nil), an array.
type leafGuard struct {
	local int32
	fs    *bytecode.FieldSlot
	entry *classfile.PoolEntry
}

// leafForm returns m's leaf form, or nil. It is a query over states,
// preparation's dataflow states of m: whether every instruction before the
// first return is one a leaf may hold (leafOp) and reads no local that is
// not set, whether each guarded operand holds a parameter the body never
// writes, which locals the body keeps in scratch and which of those may
// hold a reference at some point of the body.
func leafForm(m *classfile.Method, p *bytecode.PCode, states []*pcState) *leafBody {
	code := m.Code
	width := slices.IndexFunc(code.Instrs, func(in bytecode.Instr) bool { return in.Op.IsReturn() })
	if width < 0 || width > maxLeafWidth || slices.Contains(states[:width+1], nil) ||
		len(code.Handlers) > 0 || m.IsSynchronized() || m.IsNative() || p.MaxStack > leafHeadroom ||
		(code.Instrs[width].Op == bytecode.OpReturn) != (m.Desc.Return == classfile.KindVoid) {
		return nil
	}
	nParams := m.Desc.NumParams()
	if !m.IsStatic() {
		nParams++
	}
	lf := &leafBody{m: m, p: p, states: states[:width+1], width: int32(width), inl: int64(width) + 1,
		written: make([]bool, nParams), scratch: make([]int32, p.MaxLocals)}
	for k := range lf.written {
		lf.written[k] = states[width].locals[k].param != int32(k)
	}
	// Scratch: the written parameters first, then the body's own locals in
	// the order it first writes them.
	var nScratch int32
	use := func(k int32) bool {
		if lf.scratch[k] < 0 {
			if nScratch >= leafScratch {
				return false
			}
			lf.scratch[k] = nScratch
			nScratch++
		}
		return true
	}
	for k := range lf.scratch {
		lf.scratch[k] = -1
	}
	for k, w := range lf.written {
		if w && !use(int32(k)) {
			return nil
		}
	}
	for pc, in := range code.Instrs[:width] {
		ok, guard := leafOp(in.Op)
		st := states[pc]
		switch {
		case !ok, in.Op.UsesLocal() && !states[pc+1].locals[in.A].set:
			// An opcode a leaf may not hold, or a read of a local the body
			// has not set.
			return nil
		case in.Op.UsesLocal() && int(in.A) >= nParams && !use(in.A):
			return nil
		case guard >= 0:
			arg := st.stack[len(st.stack)-1-guard].param
			if arg < 0 || lf.written[arg] {
				return nil
			}
			g := leafGuard{local: arg}
			if entry, ok := p.Instrs[pc].Ref.(*classfile.PoolEntry); ok {
				g.fs, g.entry = p.Instrs[pc].FS, entry
			}
			lf.guards = append(lf.guards, g)
		}
	}
	for k, j := range lf.scratch {
		if j >= 0 && slices.ContainsFunc(lf.states, func(st *pcState) bool { return st.locals[k].ref }) {
			lf.refScratch = append(lf.refScratch, j)
		}
	}
	return lf
}

// callSite is one invoke as the call micros of the blocks that cover it
// bind it: the pool entry, the bound argument window (receiver first),
// whether it has a receiver, where the result goes, and lines, the site's
// cache of targets.
type callSite struct {
	entry *classfile.PoolEntry
	ops   []operand
	ns    int
	d     int32
	value bool
	recv  bool
	// virtual: invokevirtual, whose lines are keyed by the receiver's
	// class; the other invokes key theirs by the target's.
	virtual bool
	// base is the caller's real stack height below the call's stack
	// arguments (-1 on a site no verified path reaches: it inlines
	// nothing), scratch0 the caller's first scratch local, its MaxLocals:
	// an inlined body pushes its temporaries above the arguments, into the
	// frame's headroom, and keeps its own locals from scratch0 on.
	base, scratch0 int32
	// home is the loader whose isolate the caller's frames run in, or -1
	// for a system class's method or a <clinit>, whose frames run in the
	// isolate that reached them. In Isolated mode a line whose target home
	// defines is a same-bundle line: it never migrates.
	home     int
	isolated bool
	// lines are the site's inline cache: immutable lines published by CAS
	// into the first empty entry of the key's probe sequence (line).
	// Workers race on them harmlessly: a line is a true verdict for its
	// key, and a duplicate key only wastes an entry.
	lines [siteLines]atomic.Pointer[siteLine]
}

// siteLine is what a call site knows about one key: the target it
// dispatches to and, for a leaf, the leaf's body compiled for the site.
type siteLine struct {
	key    *classfile.Class
	target *classfile.Method
	// inl is what the inlined body retires, its return included; 0 on a
	// line that makes the real call (the target is no leaf, or fails a
	// guard its key decides).
	inl  int64
	body []closureMicro
	// ret is where the body leaves a value call's result, when hasRet (no
	// micro of the body delivered it to the site's local).
	ret    operand
	hasRet bool
	// cross: the target may run in another isolate than the caller's, so
	// each call looks up the isolate of loader, the target's (Isolated
	// mode only).
	cross  bool
	loader int
	// recvLen is how many slots the receiver must have for the body's
	// receiver field accesses whose class check the key settled
	// (invokevirtual); the receiver must be no array either, since an
	// array's class is its element class. guards are the checks on the
	// arguments the key does not decide, run per call.
	recvLen int
	guards  []lineGuard
	// clearStack and clearLocals are the frame slots that may hold a
	// reference once the body ran: the call clears them.
	clearStack, clearLocals []int32
}

// lineGuard is one per-call argument check of a line: a non-null arg with
// the field of field, or an array when field is nil.
type lineGuard struct {
	arg   operand
	field *fieldCheck
}

// call compiles the invoke at pc into a call micro; a value-returning call
// folds the local store that follows it.
func (bb *blockBuilder) call(op bytecode.Opcode, in *bytecode.PInstr, pc int32) (next int32, ok bool) {
	entry := in.Ref.(*classfile.PoolEntry)
	desc, err := classfile.ParseDescriptor(entry.Descriptor)
	if err != nil {
		return pc, false // unreachable: preparation parsed it
	}
	if len(bb.sites) == 0 {
		bb.blk.need = int64(pc - bb.blk.pc0)
	}
	s := &callSite{entry: entry, ops: make([]operand, in.B), d: -1, recv: op != bytecode.OpInvokeStatic,
		virtual: op == bytecode.OpInvokeVirtual, base: -1,
		scratch0: int32(bb.p.MaxLocals), home: -1, isolated: bb.mode == core.ModeIsolated}
	s.ns = bb.take(s.ops)
	if st := bb.states[pc]; st != nil {
		s.base = int32(len(st.stack) - len(s.ops))
	}
	if c := bb.m.Class; !c.IsSystem() && bb.m.Name != classfile.ClinitName {
		s.home = c.LoaderID
	}
	last := pc
	if s.value = desc.Return != classfile.KindVoid; s.value {
		s.d, last = bb.storeAfter(pc)
	}
	s = bb.site(pc, s)
	bb.sites = append(bb.sites, s)
	// Each micro makes its guards and then searches the site's lines, so a
	// cached target costs its key's compare. off is what the block retires
	// before the invoke.
	off := int64(pc - bb.blk.pc0)
	var m closureMicro
	switch {
	case op == bytecode.OpInvokeVirtual:
		m = func(vm *VM, t *Thread, f *Frame) microStatus {
			recv := s.ops[0].at(f).R
			if recv == nil {
				return bail(f, s.ops...)
			}
			if ln := s.line(recv.Class); ln != nil {
				return s.enter(vm, t, f, ln, recv, off)
			}
			return s.virtualMiss(vm, t, f, recv, off)
		}
	case op == bytecode.OpInvokeSpecial:
		// The resolved method on a non-null receiver.
		m = func(vm *VM, t *Thread, f *Frame) microStatus {
			recv, target := s.ops[0].at(f).R, s.entry.ResolvedMethod.Load()
			if recv == nil || target == nil {
				return bail(f, s.ops...)
			}
			if ln := s.line(target.Class); ln != nil {
				return s.enter(vm, t, f, ln, recv, off)
			}
			return s.fill(vm, t, f, target, recv, target.Class, off)
		}
	case bb.mode == core.ModeIsolated:
		// invokestatic: the class's mirror in the current isolate is
		// InitDone (the switch initializes or waits otherwise).
		m = func(vm *VM, t *Thread, f *Frame) microStatus {
			target := s.entry.ResolvedMethod.Load()
			if target == nil || !vm.isolatedInitDone(t, target.Class) {
				return bail(f, s.ops...)
			}
			if ln := s.line(target.Class); ln != nil {
				return s.enter(vm, t, f, ln, nil, off)
			}
			return s.fill(vm, t, f, target, nil, target.Class, off)
		}
	default:
		// invokestatic: the pool entry caches the initialized mirror
		// (classInitReadyAt).
		m = func(vm *VM, t *Thread, f *Frame) microStatus {
			target := s.entry.ResolvedMethod.Load()
			if target == nil || s.entry.ResolvedMirror == nil {
				return bail(f, s.ops...)
			}
			if ln := s.line(target.Class); ln != nil {
				return s.enter(vm, t, f, ln, nil, off)
			}
			return s.fill(vm, t, f, target, nil, target.Class, off)
		}
	}
	return bb.emit(m, pc, last)
}

// site returns the call site another block compiled for the invoke at pc
// with the same binding as s, or records s as one.
func (bb *blockBuilder) site(pc int32, s *callSite) *callSite {
	for _, o := range bb.known[pc] {
		if o.ns == s.ns && o.d == s.d && sameOperands(o.ops, s.ops) {
			return o
		}
	}
	bb.known[pc] = append(bb.known[pc], s)
	return s
}

// sameOperands reports whether two bindings of one invoke read the same
// operands.
func sameOperands(a, b []operand) bool {
	for i := range a {
		x, y := a[i], b[i]
		if x.kind != y.kind || x.slot != y.slot || x.kind == isConst && *x.k != *y.k {
			return false
		}
	}
	return true
}

// line returns the site's line for key, or nil. A key's probe starts at
// its class's link position (StaticsID) modulo siteLines, so classes
// linked one after another — a megamorphic site's receivers — hit on their
// first probe.
func (s *callSite) line(key *classfile.Class) *siteLine {
	if ln := s.lines[key.StaticsID&(siteLines-1)].Load(); ln != nil && ln.key == key {
		return ln
	}
	return s.probe(key)
}

// probe is line past the key's first entry.
func (s *callSite) probe(key *classfile.Class) *siteLine {
	for i := 0; i < siteLines; i++ {
		if ln := s.lines[(key.StaticsID+i)&(siteLines-1)].Load(); ln == nil || ln.key == key {
			return ln
		}
	}
	return nil
}

// virtualMiss is the invokevirtual micro on a receiver class the site has
// no line for: the vtable guard on the non-null recv, then fill. Bytecode
// is not type-checked and the static type may be an interface, so the
// resolved method's slot only means "this method" in classes below the
// one that introduced it; an entry with the resolved method's VRoot proves
// the receiver's class is one of them, and there the entry is what
// dispatch by name would find (classfile AssignMethodSlots). Slot-less
// methods (VSlot -1) fail the bounds check. A failed guard bails, and the
// switch dispatches by name. The receiver's class decides the entry, so a
// line keyed by it needs no guard again.
func (s *callSite) virtualMiss(vm *VM, t *Thread, f *Frame, recv *heap.Object, off int64) microStatus {
	m := s.entry.ResolvedMethod.Load()
	if m == nil {
		return bail(f, s.ops...)
	}
	vt := recv.Class.VTable
	if uint(m.VSlot) >= uint(len(vt)) || vt[m.VSlot].VRoot != m.VRoot {
		return bail(f, s.ops...)
	}
	return s.fill(vm, t, f, vt[m.VSlot], recv, recv.Class, off)
}

// fill is a cache miss on a call whose guards held: it makes the line for
// target under key, caches it and takes it. A site whose cache is full
// makes the real call for every key it does not hold; a verdict that can
// still change (makeLine) is not cached.
func (s *callSite) fill(vm *VM, t *Thread, f *Frame, target *classfile.Method, recv *heap.Object, key *classfile.Class, off int64) microStatus {
	i := 0
	for i < siteLines && s.lines[(key.StaticsID+i)&(siteLines-1)].Load() != nil {
		i++
	}
	if i == siteLines {
		return s.call(t, f, target)
	}
	ln := s.makeLine(target, key)
	if ln == nil {
		return s.call(t, f, target)
	}
	for ; i < siteLines; i++ {
		e := &s.lines[(key.StaticsID+i)&(siteLines-1)]
		if e.CompareAndSwap(nil, ln) {
			break
		}
		if old := e.Load(); old.key == key {
			ln = old
			break
		}
	}
	return s.enter(vm, t, f, ln, recv, off)
}

// makeLine returns the line for target under key, or nil while the verdict
// can change: the target is not prepared yet, or a receiver field access
// whose class check the key settles has not resolved. For invokevirtual
// the key is the receiver's class, so those checks run here, once; every
// other argument check runs per call (siteLine.admits). A same-bundle line
// — Shared mode, a system class's target, or one the caller's own loader
// defines — never looks up an isolate.
func (s *callSite) makeLine(target *classfile.Method, key *classfile.Class) *siteLine {
	ln := &siteLine{key: key, target: target}
	if target.Code == nil || s.base < 0 {
		return ln
	}
	p := target.Code.Prepared()
	if p == nil {
		return nil
	}
	cp, _ := p.Closure.(*closureProgram)
	if cp == nil || cp.leaf == nil || len(cp.leaf.written) != len(s.ops) {
		return ln
	}
	lf := cp.leaf
	for _, g := range lf.guards {
		if !s.virtual || g.local != 0 || g.entry == nil {
			ln.guards = append(ln.guards, lineGuard{arg: s.ops[g.local], field: g.check()})
			continue
		}
		slot, field := int(g.fs.Get()), g.entry.ResolvedField.Load()
		if slot < 0 || field == nil {
			return nil
		}
		if !key.IsSubclassOf(field.Class) {
			return &siteLine{key: key, target: target}
		}
		ln.recvLen = max(ln.recvLen, slot+1)
	}
	ln.loader = target.Class.LoaderID
	ln.cross = s.isolated && !target.Class.IsSystem() && ln.loader != s.home
	s.compileLine(ln, lf)
	return ln
}

// check is the per-call check of a field guard, nil for arraylength.
func (g leafGuard) check() *fieldCheck {
	if g.entry == nil {
		return nil
	}
	return &fieldCheck{fs: g.fs, entry: g.entry}
}

// lineScope is a leaf body's view of the caller while the builder compiles
// it for one site: params are the site's operands by parameter — caller
// locals, constants, and stack arguments addressed from the bottom
// (inSlot), h being the caller's stack height at the call —, the leaf's
// own locals live from the caller's scratch0 on,
// and dest is the site's result local (-1: the stack), which the body's
// last producer writes when it can (folded). The builder's symbol stack
// is the body's whole operand stack, entry for entry the dataflow's
// (before, after): real entries stay in it as onStack markers, so a symbol
// can stay pending under them (take).
type lineScope struct {
	params   []operand
	h        int32
	lf       *leafBody
	scratch0 int32
	dest     int32
	folded   bool
	// pc is the body instruction the builder compiles, depth how many real
	// entries the body has pushed above the call's arguments, refs the
	// depths a reference may have reached, and fail that the body needs a
	// symbol lifted from under a real entry.
	pc    int32
	depth int32
	refs  uint32
	fail  bool
}

// before and after are the operand stack before and after the body
// instruction the builder compiles, as preparation's dataflow found it: the
// builder's symbol stack in a leaf body, entry by entry.
func (ls *lineScope) before() []slotState { return ls.lf.states[ls.pc].stack }
func (ls *lineScope) after() []slotState  { return ls.lf.states[ls.pc+1].stack }

// inPlace returns o as a micro reads it once the body has pushed extra
// more entries: a stack argument is then that far below the top.
func (ls *lineScope) inPlace(o operand, extra int32) operand {
	if o.kind == inSlot {
		o.kind, o.slot = onStack, ls.h+ls.depth+extra-1-o.slot
	}
	return o
}

// push records a real entry pushed at the body's current depth, which
// holds entry i of the dataflow's stack st.
func (ls *lineScope) push(st []slotState, i int) operand {
	if st[i].ref {
		ls.refs |= 1 << ls.depth
	}
	ls.depth++
	return operand{kind: onStack}
}

// compileLine compiles lf's body for the call at s into ln with the block
// builder: the body's loads of parameters it never writes bind to the
// site's operands, the rest of its locals to the caller's scratch locals,
// and its pushes go above the call's arguments; the line clears the stack
// slots and scratch locals the dataflow says may hold a reference once the
// body ran. It needs no activation.
func (s *callSite) compileLine(ln *siteLine, lf *leafBody) {
	h := s.base + int32(s.ns)
	params := make([]operand, len(s.ops))
	for i, o := range s.ops {
		if o.kind == onStack {
			o = operand{kind: inSlot, slot: h - 1 - o.slot}
		}
		params[i] = o
	}
	ls := &lineScope{params: params, h: h, lf: lf, scratch0: s.scratch0, dest: -1}
	if s.value {
		ls.dest = s.d
	}
	bb := &blockBuilder{m: lf.m, code: lf.m.Code, p: lf.p, blk: &closureBlock{}, ls: ls}
	for k, w := range lf.written {
		if w {
			// (Before the body pushes anything: the site's operand as is.)
			o, d := s.ops[k], bb.local(int32(k))
			bb.blk.prefix = append(bb.blk.prefix, func(vm *VM, t *Thread, f *Frame) microStatus {
				f.locals[d] = *o.at(f)
				return microNext
			})
		}
	}
	for ls.pc < lf.width {
		var ok bool
		if ls.pc, ok = bb.compile(ls.pc); !ok {
			return // unreachable: a leaf holds only what compiles
		}
	}
	if s.value && !ls.folded {
		ln.ret, ln.hasRet = bb.bind(1, lf.width).ops[0], true
	}
	if ls.fail {
		return
	}
	ln.body, ln.inl = bb.blk.prefix, lf.inl
	for i := int32(0); i < 32; i++ {
		if ls.refs&(1<<i) != 0 {
			ln.clearStack = append(ln.clearStack, h+i)
		}
	}
	for _, i := range lf.refScratch {
		ln.clearLocals = append(ln.clearLocals, s.scratch0+i)
	}
}

// admits runs the line's per-call argument checks on the call's non-null
// receiver recv (nil for a static call).
func (ln *siteLine) admits(f *Frame, recv *heap.Object) bool {
	if ln.recvLen > 0 && (len(recv.Elems) < ln.recvLen || recv.IsArray()) {
		return false
	}
	for i := range ln.guards {
		g := &ln.guards[i]
		o := g.arg.at(f).R
		if c := g.field; c == nil {
			if o == nil || !o.IsArray() {
				return false
			}
		} else if !c.hit(o, int(c.fs.Get())) && c.slot(o) < 0 {
			return false
		}
	}
	return true
}

// call ends the step with the real call to target, whose guards held: it
// materialises the argument window and leaves the target to
// runClosureBlock, which charges what the step retired and then calls.
func (s *callSite) call(t *Thread, f *Frame, target *classfile.Method) microStatus {
	pushSymbols(f, s.ops)
	t.qa.callee, t.qa.site = target, s
	return microCall
}

// enter takes the line ln for the call: it runs the inlined body in place
// of the call, or makes the real call. The body runs when the target is a
// leaf, the arguments pass the line's checks, and an inlined body
// reproduces the call exactly — pushFrame would neither overflow the stack
// nor trace the entry, the caller's frame is in the thread's current
// isolate and that isolate is not killed (a return into a killed isolate
// throws). A line whose target another bundle defines is inlined too, in
// both modes. In Isolated mode it migrates: the micro looks the callee's
// isolate up (bindings move), counts the inter-isolate call, switches the
// thread's isolate to the callee's for the body, charges the step in
// single-step order (chargeCall) and restores the caller's isolate before
// it returns, so the step never ends in another isolate and the concurrent
// engine hands the thread to no other shard. A migrating call stays real
// when the callee is killed (the call throws) or when per-call CPU
// accounting reads the clock at every switch. off is what the caller's
// block retires before the invoke.
func (s *callSite) enter(vm *VM, t *Thread, f *Frame, ln *siteLine, recv *heap.Object, off int64) microStatus {
	q, cur := t.qa, t.cur
	if ln.inl == 0 || q.inl+ln.inl > q.spare || len(t.frames) >= vm.opts.MaxFrameDepth || vm.TraceMethodEntry != nil ||
		cur != f.iso || cur.Killed() || !ln.admits(f, recv) {
		return s.call(t, f, ln.target)
	}
	if ln.cross {
		if iso := vm.world.IsolateForLoaderID(ln.loader); iso != nil && iso != cur {
			if iso.Killed() || vm.opts.PerCallCPUAccounting {
				return s.call(t, f, ln.target)
			}
			q.chargeCall(vm, cur, iso, off, ln.inl)
			t.cur = iso
			s.run(vm, t, f, ln)
			t.cur = cur
			q.inl += ln.inl
			return microNext
		}
	}
	s.run(vm, t, f, ln)
	q.inl += ln.inl
	return microNext
}

// run runs ln's body on the caller's frame and delivers the result: the
// body's pushes, the call's stack arguments and every reference the body
// left in the frame's scratch go, and the result lands where the call's
// goes, the folded local or the stack.
func (s *callSite) run(vm *VM, t *Thread, f *Frame, ln *siteLine) {
	for _, m := range ln.body {
		m(vm, t, f)
	}
	var v heap.Value
	if ln.hasRet {
		v = *ln.ret.at(f)
	}
	st := f.stack[:cap(f.stack)]
	for _, i := range ln.clearStack {
		st[i].R = nil
	}
	for _, i := range ln.clearLocals {
		f.locals[i].R = nil
	}
	f.stack = f.stack[:s.base]
	if ln.hasRet {
		f.result(0, s.d, v)
	}
}
