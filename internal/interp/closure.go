package interp

import (
	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/heap"
)

// The closure-threaded hot tier. When a prepared method's activation heat
// crosses the promotion threshold (tier.go), buildClosureProgram compiles
// it into one Go closure chain per basic block: every operand — local
// slots, immediates, branch targets, pre-resolved pool entries, field
// slots — is captured at build time, so executing a block is a
// straight run of closure calls with no table dispatch and no PInstr
// decoding between sub-instructions.
//
// The contract every block keeps:
//
//   - a block's prefix holds only micros that cannot throw, allocate,
//     park, or reach a safepoint; anything else (invokes, news, statics,
//     monitors, returns, throws, ldc, checkcast ...) terminates the block
//     and is delegated through the live handler table, with the frame in
//     exactly the state single-step execution would leave it;
//   - every micro fully applies its own stack/locals/pc effect before the
//     next one runs, and guarded micros (field and array access) check
//     all failure conditions BEFORE mutating anything, returning
//     microBail. A bail delegates the instruction at the current pc
//     through the handler table as the step's final sub-instruction, so
//     the step always retires ≥1 instruction and accounting stays exact;
//   - conditional branches do not end a block: they are mid-block micros
//     that stop the step when taken (microStop) and fall through into
//     the block's continuation otherwise, so a tight loop's whole
//     iteration — compare, body, iinc+goto — retires as one engine step;
//   - group fusion is a private step of the builder: where the original
//     opcodes at the cursor form one of the eight shapes closureGroup
//     recognises (load/load|const/op[/store], load/load|const/if_icmp,
//     iinc+goto, const/store), it emits ONE combined micro for the whole
//     group — operands pre-bound, the intermediate stack traffic elided
//     entirely (local-to-local data flow). Nothing can observe the
//     intermediate stack inside one step (no safepoint, no throw, no GC
//     root scan), and the shapes hold only non-throwing instructions, so
//     combined micros cannot fail and bail charging never lands inside a
//     group. The prepared form is untouched (PInstr.H stays the opcode):
//     a block entered at a follower pc compiles from there, and every
//     table fallback executes one original instruction;
//   - the whole block reserves its sub-instruction width against the
//     quantum up front and charges retired micros through the engine
//     loop's own accounting sequence in one batched, arithmetically
//     identical call (tier.go chargeSubs), so quantum boundaries,
//     per-isolate accounts, GC mark strides, interrupt/kill polls and
//     STW parking all land at identical instruction counts to
//     single-step execution.
//
// Deopt: SetIsolationMode re-quickens live frames and drops their adopted
// program (requicken.go); the mode's own prepared form re-promotes
// independently. Exceptions and unresolved sites deopt per-step via the
// bail path with no state to unwind. Kill and interrupts act at step
// boundaries exactly as before.
//
// Programs are immutable after publication (CAS in bytecode.TierState),
// so concurrent adoption needs no locks.

// microStatus is a micro's verdict on how the block proceeds.
type microStatus uint8

const (
	// microNext: the micro fully applied its effect; run the next one.
	microNext microStatus = iota
	// microStop: the micro fully applied its effect and transferred
	// control (a taken branch); the step ends with the block's charges
	// through this micro settled.
	microStop
	// microBail: the micro applied NO effect; the instruction at the
	// current pc is delegated through the handler table as the step's
	// final sub-instruction.
	microBail
)

// closureMicro executes one guest instruction (or one combined group)
// with pre-bound operands.
type closureMicro func(vm *VM, t *Thread, f *Frame) microStatus

// closureBlock is the compiled form of one extended basic block. The
// prefix holds micros for straight-line instructions, combined groups, AND
// conditional branches (taken → microStop ends the step; not taken →
// execution continues into the fall-through within the same step, so a
// tight loop iteration is one engine step). last is an optional inline
// unconditional final (goto, or a combined iinc+goto); nil last means the
// block's final instruction is delegated through the handler table
// (invokes, allocation, returns, ...).
//
// A prefix entry may cover several guest instructions (a combined
// group), so charging is width-aware: cum[i] is the sub-instruction count
// retired once prefix[i] completes, and width is the full fall-through
// path's count plus an inline final's surplus over the one instruction
// the engine loop charges. reserve(width) is conservative on early-taken
// branches: the block runs compiled only when its longest path fits the
// quantum, and single-steps (the table engine's own boundary behavior)
// otherwise.
type closureBlock struct {
	prefix []closureMicro
	cum    []int64
	width  int64
	last   closureMicro
}

// closureProgram maps each block-head pc to its compiled block; nil
// entries are pcs reached only mid-block (or blocks too trivial to win),
// which execute through normal table dispatch.
type closureProgram struct {
	blocks []*closureBlock
}

// maxClosureBlock bounds a block's sub-instruction width so a block
// never spans a large fraction of the quantum (a reserve failure
// single-steps the whole block until the next quantum).
const maxClosureBlock = 24

// runClosureBlock executes one compiled block as one engine step. The
// loop's post-step charge covers the step's final sub-instruction (a
// taken branch, the inline final, or the delegated instruction);
// chargeSubs batches everything retired before it — charge order within
// a step is unobservable, so batching is identical to charging each
// micro as it retires.
func (vm *VM) runClosureBlock(t *Thread, f *Frame, b *closureBlock) error {
	q := t.qa
	if q == nil || !q.reserve(b.width) {
		in := &f.pcode.Instrs[f.pc]
		return vm.ptable[in.H](vm, t, f, in)
	}
	for i, m := range b.prefix {
		switch m(vm, t, f) {
		case microNext:
		case microStop:
			q.chargeSubs(t, b.cum[i]-1)
			return nil
		default: // microBail: no effect applied; delegate at pc.
			var c int64
			if i > 0 {
				c = b.cum[i-1]
			}
			q.chargeSubs(t, c)
			in := &f.pcode.Instrs[f.pc]
			return vm.ptable[in.H](vm, t, f, in)
		}
	}
	q.chargeSubs(t, b.width)
	if b.last != nil {
		b.last(vm, t, f)
		return nil
	}
	in := &f.pcode.Instrs[f.pc]
	return vm.ptable[in.H](vm, t, f, in)
}

// buildClosureProgram compiles the prepared method into closure-threaded
// blocks. Block heads are the method entry, every branch target, every
// exception-handler target, and every fall-through successor of a built
// block, so steady-state execution (including returns from delegated
// invokes) always lands on a compiled block; other pcs run through table
// dispatch. The result is never nil (blocks may be sparse).
func buildClosureProgram(m *classfile.Method, p *bytecode.PCode) *closureProgram {
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
	for _, in := range code.Instrs {
		if in.Op.IsBranch() {
			add(in.A)
		}
	}
	for _, h := range code.Handlers {
		add(h.Target)
	}
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		b, end, fall := buildClosureBlock(code, p, pc)
		if b != nil {
			cp.blocks[pc] = b
		}
		if fall {
			add(end + 1)
		}
	}
	return cp
}

// buildClosureBlock compiles one extended block starting at pc. It
// returns the block (nil when too trivial to beat table dispatch), the
// pc of the block's final instruction, and whether control may fall
// through past it. Where the opcodes at the cursor form a group shape
// (closureGroup), the whole group compiles into one combined micro; a
// block entered at a follower pc starts matching there, so mid-group
// entries compile whatever shape — or single instruction — begins at
// that pc. Conditional branches (plain or combined compare-and-branch)
// do not end the block: they compile as mid-block micros and the
// fall-through path continues, so a backward-branching loop body becomes
// a single step per iteration. The builder terminates because cur
// strictly increases and only unconditional transfers end a block.
func buildClosureBlock(code *bytecode.Code, p *bytecode.PCode, pc int32) (*closureBlock, int32, bool) {
	var prefix []closureMicro
	var cum []int64
	var width int64
	cur := pc
	n := int32(len(code.Instrs))
	for cur < n && width < maxClosureBlock {
		op := code.Instrs[cur].Op
		if mo, w := closureGroup(code.Instrs, cur); mo != nil {
			if op == bytecode.OpIInc {
				// iinc+goto, an unconditional inline final: the engine
				// loop's post-step charge covers the goto, width the iinc.
				width += int64(w - 1)
				return &closureBlock{prefix: prefix, cum: cum, width: width, last: mo}, cur + w - 1, false
			}
			width += int64(w)
			cum = append(cum, width)
			prefix = append(prefix, mo)
			cur += w
			continue
		}
		if op.IsBranch() {
			mo := closureBranch(op, &p.Instrs[cur])
			if !op.IsConditionalBranch() {
				// Unconditional inline final (goto).
				if len(prefix) == 0 {
					// A lone goto gains nothing over its table handler.
					return nil, cur, false
				}
				return &closureBlock{prefix: prefix, cum: cum, width: width, last: mo}, cur, false
			}
			// Mid-block conditional branch: taken stops the step, not
			// taken continues into the fall-through below.
			width++
			cum = append(cum, width)
			prefix = append(prefix, mo)
			cur++
			continue
		}
		mo := closureMicroFor(op, &p.Instrs[cur])
		if mo == nil {
			// Delegated final (invoke, allocation, return, throw, ...).
			if len(prefix) == 0 {
				return nil, cur, !op.IsTerminator()
			}
			return &closureBlock{prefix: prefix, cum: cum, width: width, last: nil}, cur, !op.IsTerminator()
		}
		width++
		cum = append(cum, width)
		prefix = append(prefix, mo)
		cur++
	}
	if cur >= n {
		// The verifier guarantees control never falls off the end, so the
		// last instruction was a micro only if pc bounds were odd; drop it
		// and let the final table dispatch surface ErrPC if reached.
		if len(prefix) == 0 {
			return nil, cur - 1, false
		}
		k := len(prefix) - 1
		width = 0
		if k > 0 {
			width = cum[k-1]
		}
		return &closureBlock{prefix: prefix[:k], cum: cum[:k], width: width, last: nil}, cur - 1, false
	}
	// Width cap hit: delegate the instruction at cur as the final.
	return &closureBlock{prefix: prefix, cum: cum, width: width, last: nil}, cur, true
}

func isLocalLoad(op bytecode.Opcode) bool {
	return op == bytecode.OpILoad || op == bytecode.OpFLoad || op == bytecode.OpALoad
}

func isLocalStore(op bytecode.Opcode) bool {
	return op == bytecode.OpIStore || op == bytecode.OpFStore || op == bytecode.OpAStore
}

func isICmpBranch(op bytecode.Opcode) bool {
	switch op {
	case bytecode.OpIfICmpEq, bytecode.OpIfICmpNe, bytecode.OpIfICmpLt,
		bytecode.OpIfICmpLe, bytecode.OpIfICmpGt, bytecode.OpIfICmpGe:
		return true
	}
	return false
}

// isPureIntOp reports whether op is one of the nine non-throwing int ops
// pureBinop evaluates (idiv and irem throw, so they never join a group).
func isPureIntOp(op bytecode.Opcode) bool {
	switch op {
	case bytecode.OpIAdd, bytecode.OpISub, bytecode.OpIMul,
		bytecode.OpIAnd, bytecode.OpIOr, bytecode.OpIXor,
		bytecode.OpIShl, bytecode.OpIShr, bytecode.OpIUshr:
		return true
	}
	return false
}

// pureBinop evaluates one of the nine non-throwing int ops, mirroring the
// base handlers bit for bit (shift counts masked to 63).
func pureBinop(op bytecode.Opcode, a, b int64) int64 {
	switch op {
	case bytecode.OpIAdd:
		return a + b
	case bytecode.OpISub:
		return a - b
	case bytecode.OpIMul:
		return a * b
	case bytecode.OpIAnd:
		return a & b
	case bytecode.OpIOr:
		return a | b
	case bytecode.OpIXor:
		return a ^ b
	case bytecode.OpIShl:
		return a << (uint64(b) & 63)
	case bytecode.OpIShr:
		return a >> (uint64(b) & 63)
	default: // OpIUshr
		return int64(uint64(a) >> (uint64(b) & 63))
	}
}

// closureGroup matches the instructions starting at pc against the group
// shapes and compiles a match into a single combined micro with every
// operand pre-bound and the intermediate stack traffic elided. It returns
// the micro and the number of instructions it covers, or (nil, 0) when
// no shape starts at pc. Matching runs over the original opcodes:
//
//   - "load" positions accept iload/fload/aload and "store" positions
//     istore/fstore/astore: the micro reads the local slot's value (and
//     .I for int ops) exactly as push-then-pop would, so kind mismatches
//     behave identically to single-step execution;
//   - const positions require iconst (fconst pushes a float value);
//   - op positions accept only the non-throwing int ops.
//
// The compare-and-branch groups are mid-block micros (microStop when
// taken); iinc+goto is the builder's inline final.
func closureGroup(ops []bytecode.Instr, pc int32) (closureMicro, int32) {
	// at reads the opcode at i, or the invalid zero opcode (which matches
	// no shape position) past the end of the code.
	at := func(i int32) bytecode.Opcode {
		if int(i) < len(ops) {
			return ops[i].Op
		}
		return 0
	}
	switch head := ops[pc]; {
	case isLocalLoad(head.Op):
		fromLocal := isLocalLoad(at(pc + 1))
		if !fromLocal && at(pc+1) != bytecode.OpIConst {
			return nil, 0
		}
		// The second operand is local b or constant c.
		a, b, c := head.A, ops[pc+1].A, ops[pc+1].I
		switch op := at(pc + 2); {
		case isPureIntOp(op) && isLocalStore(at(pc+3)):
			d := ops[pc+3].A
			if fromLocal {
				return func(vm *VM, t *Thread, f *Frame) microStatus {
					f.locals[d] = heap.IntVal(pureBinop(op, f.locals[a].I, f.locals[b].I))
					f.pc += 4
					return microNext
				}, 4
			}
			return func(vm *VM, t *Thread, f *Frame) microStatus {
				f.locals[d] = heap.IntVal(pureBinop(op, f.locals[a].I, c))
				f.pc += 4
				return microNext
			}, 4
		case isICmpBranch(op):
			tgt, fallPC := ops[pc+2].A, pc+3
			if fromLocal {
				return func(vm *VM, t *Thread, f *Frame) microStatus {
					if intCmpCondition(op, f.locals[a].I, f.locals[b].I) {
						f.pc = tgt
						return microStop
					}
					f.pc = fallPC
					return microNext
				}, 3
			}
			return func(vm *VM, t *Thread, f *Frame) microStatus {
				if intCmpCondition(op, f.locals[a].I, c) {
					f.pc = tgt
					return microStop
				}
				f.pc = fallPC
				return microNext
			}, 3
		case isPureIntOp(op):
			if fromLocal {
				return func(vm *VM, t *Thread, f *Frame) microStatus {
					f.push(heap.IntVal(pureBinop(op, f.locals[a].I, f.locals[b].I)))
					f.pc += 3
					return microNext
				}, 3
			}
			return func(vm *VM, t *Thread, f *Frame) microStatus {
				f.push(heap.IntVal(pureBinop(op, f.locals[a].I, c)))
				f.pc += 3
				return microNext
			}, 3
		}
	case head.Op == bytecode.OpIInc && at(pc+1) == bytecode.OpGoto:
		slot, delta, tgt := head.A, int64(head.B), ops[pc+1].A
		return func(vm *VM, t *Thread, f *Frame) microStatus {
			l := &f.locals[slot]
			l.I += delta
			l.Kind = classfile.KindInt
			f.pc = tgt
			return microStop
		}, 2
	case head.Op == bytecode.OpIConst && isLocalStore(at(pc+1)):
		v, d := heap.IntVal(head.I), ops[pc+1].A
		return func(vm *VM, t *Thread, f *Frame) microStatus {
			f.locals[d] = v
			f.pc += 2
			return microNext
		}, 2
	}
	return nil, 0
}

// closureBranch compiles a branch micro: an unconditional goto is an
// inline block final (always microStop, charged by the engine loop's
// post-step charge); conditional branches are mid-block micros that stop
// the step only when taken.
func closureBranch(op bytecode.Opcode, in *bytecode.PInstr) closureMicro {
	tgt := in.A
	switch op {
	case bytecode.OpGoto:
		return func(vm *VM, t *Thread, f *Frame) microStatus {
			f.pc = tgt
			return microStop
		}
	case bytecode.OpIfEq, bytecode.OpIfNe, bytecode.OpIfLt, bytecode.OpIfLe,
		bytecode.OpIfGt, bytecode.OpIfGe:
		return func(vm *VM, t *Thread, f *Frame) microStatus {
			if intCondition(op, f.upop().I) {
				f.pc = tgt
				return microStop
			}
			f.pc++
			return microNext
		}
	case bytecode.OpIfICmpEq, bytecode.OpIfICmpNe, bytecode.OpIfICmpLt,
		bytecode.OpIfICmpLe, bytecode.OpIfICmpGt, bytecode.OpIfICmpGe:
		return func(vm *VM, t *Thread, f *Frame) microStatus {
			b := f.upop()
			a := f.upop()
			if intCmpCondition(op, a.I, b.I) {
				f.pc = tgt
				return microStop
			}
			f.pc++
			return microNext
		}
	case bytecode.OpIfACmpEq, bytecode.OpIfACmpNe:
		want := op == bytecode.OpIfACmpEq
		return func(vm *VM, t *Thread, f *Frame) microStatus {
			b := f.upop()
			a := f.upop()
			if (a.R == b.R) == want {
				f.pc = tgt
				return microStop
			}
			f.pc++
			return microNext
		}
	default: // OpIfNull, OpIfNonNull
		want := op == bytecode.OpIfNull
		return func(vm *VM, t *Thread, f *Frame) microStatus {
			if (f.upop().R == nil) == want {
				f.pc = tgt
				return microStop
			}
			f.pc++
			return microNext
		}
	}
}

// closureMicroFor compiles one non-branch instruction into a prefix
// micro, or returns nil for ops that must end the block (may throw,
// allocate, park, push/pop frames, or touch mode-specialized state).
func closureMicroFor(op bytecode.Opcode, in *bytecode.PInstr) closureMicro {
	switch op {
	case bytecode.OpNop:
		return func(vm *VM, t *Thread, f *Frame) microStatus {
			f.pc++
			return microNext
		}
	case bytecode.OpIConst:
		v := heap.IntVal(in.I)
		return func(vm *VM, t *Thread, f *Frame) microStatus {
			f.push(v)
			f.pc++
			return microNext
		}
	case bytecode.OpFConst:
		v := heap.FloatVal(in.F)
		return func(vm *VM, t *Thread, f *Frame) microStatus {
			f.push(v)
			f.pc++
			return microNext
		}
	case bytecode.OpAConstNull:
		return func(vm *VM, t *Thread, f *Frame) microStatus {
			f.push(heap.Null())
			f.pc++
			return microNext
		}
	case bytecode.OpPop:
		return func(vm *VM, t *Thread, f *Frame) microStatus {
			f.upop()
			f.pc++
			return microNext
		}
	case bytecode.OpDup:
		return func(vm *VM, t *Thread, f *Frame) microStatus {
			f.push(f.upeek())
			f.pc++
			return microNext
		}
	case bytecode.OpDupX1:
		return func(vm *VM, t *Thread, f *Frame) microStatus {
			a := f.upop()
			b := f.upop()
			f.push(a)
			f.push(b)
			f.push(a)
			f.pc++
			return microNext
		}
	case bytecode.OpSwap:
		return func(vm *VM, t *Thread, f *Frame) microStatus {
			a := f.upop()
			b := f.upop()
			f.push(a)
			f.push(b)
			f.pc++
			return microNext
		}
	case bytecode.OpILoad, bytecode.OpFLoad, bytecode.OpALoad:
		slot := in.A
		return func(vm *VM, t *Thread, f *Frame) microStatus {
			f.push(f.locals[slot])
			f.pc++
			return microNext
		}
	case bytecode.OpIStore, bytecode.OpFStore, bytecode.OpAStore:
		slot := in.A
		return func(vm *VM, t *Thread, f *Frame) microStatus {
			f.locals[slot] = f.upop()
			f.pc++
			return microNext
		}
	case bytecode.OpIInc:
		slot, delta := in.A, int64(in.B)
		return func(vm *VM, t *Thread, f *Frame) microStatus {
			f.locals[slot].I += delta
			f.locals[slot].Kind = classfile.KindInt
			f.pc++
			return microNext
		}
	case bytecode.OpIAdd, bytecode.OpISub, bytecode.OpIMul,
		bytecode.OpIAnd, bytecode.OpIOr, bytecode.OpIXor,
		bytecode.OpIShl, bytecode.OpIShr, bytecode.OpIUshr:
		return func(vm *VM, t *Thread, f *Frame) microStatus {
			b := f.upop()
			a := f.upop()
			f.push(heap.IntVal(pureBinop(op, a.I, b.I)))
			f.pc++
			return microNext
		}
	case bytecode.OpINeg:
		return func(vm *VM, t *Thread, f *Frame) microStatus {
			v := f.upop()
			f.push(heap.IntVal(-v.I))
			f.pc++
			return microNext
		}
	case bytecode.OpFAdd, bytecode.OpFSub, bytecode.OpFMul, bytecode.OpFDiv:
		return func(vm *VM, t *Thread, f *Frame) microStatus {
			b := f.upop()
			a := f.upop()
			f.push(heap.FloatVal(floatBinop(op, a.F, b.F)))
			f.pc++
			return microNext
		}
	case bytecode.OpFNeg:
		return func(vm *VM, t *Thread, f *Frame) microStatus {
			v := f.upop()
			f.push(heap.FloatVal(-v.F))
			f.pc++
			return microNext
		}
	case bytecode.OpFCmp:
		return func(vm *VM, t *Thread, f *Frame) microStatus {
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
			return microNext
		}
	case bytecode.OpI2F:
		return func(vm *VM, t *Thread, f *Frame) microStatus {
			v := f.upop()
			f.push(heap.FloatVal(float64(v.I)))
			f.pc++
			return microNext
		}
	case bytecode.OpF2I:
		return func(vm *VM, t *Thread, f *Frame) microStatus {
			v := f.upop()
			f.push(heap.IntVal(int64(v.F)))
			f.pc++
			return microNext
		}
	case bytecode.OpGetField:
		// Guarded: unresolved slot or null receiver bails (the table
		// handler resolves or throws with the identical message).
		fs := in.FS
		return func(vm *VM, t *Thread, f *Frame) microStatus {
			slot := fs.Get()
			if slot < 0 {
				return microBail
			}
			recv := f.upeek()
			if recv.R == nil {
				return microBail
			}
			f.upop()
			f.push(recv.R.Fields[slot])
			f.pc++
			return microNext
		}
	case bytecode.OpPutField:
		fs := in.FS
		return func(vm *VM, t *Thread, f *Frame) microStatus {
			slot := fs.Get()
			if slot < 0 {
				return microBail
			}
			s := f.stack
			recv := s[len(s)-2]
			if recv.R == nil {
				return microBail
			}
			v := f.upop()
			f.upop()
			if sp := &recv.R.Fields[slot]; vm.barrierOn(t) {
				vm.gcWriteSlot(t, sp, v)
			} else {
				*sp = v
			}
			f.pc++
			return microNext
		}
	case bytecode.OpArrayLength:
		return func(vm *VM, t *Thread, f *Frame) microStatus {
			v := f.upeek()
			if v.R == nil || !v.R.IsArray() {
				return microBail
			}
			f.upop()
			f.push(heap.IntVal(int64(len(v.R.Elems))))
			f.pc++
			return microNext
		}
	case bytecode.OpArrayLoad:
		return func(vm *VM, t *Thread, f *Frame) microStatus {
			s := f.stack
			idx := s[len(s)-1]
			arr := s[len(s)-2]
			if arr.R == nil || !arr.R.IsArray() || idx.I < 0 || idx.I >= int64(len(arr.R.Elems)) {
				return microBail
			}
			f.upop()
			f.upop()
			f.push(arr.R.Elems[idx.I])
			f.pc++
			return microNext
		}
	case bytecode.OpArrayStore:
		return func(vm *VM, t *Thread, f *Frame) microStatus {
			s := f.stack
			v := s[len(s)-1]
			idx := s[len(s)-2]
			arr := s[len(s)-3]
			if arr.R == nil || !arr.R.IsArray() || idx.I < 0 ||
				idx.I >= int64(len(arr.R.Elems)) || arr.R.Frozen() {
				return microBail
			}
			f.upop()
			f.upop()
			f.upop()
			if sp := &arr.R.Elems[idx.I]; vm.barrierOn(t) {
				vm.gcWriteSlot(t, sp, v)
			} else {
				*sp = v
			}
			f.pc++
			return microNext
		}
	}
	return nil
}
