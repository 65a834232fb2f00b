package interp

import (
	"fmt"
	"sort"

	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
)

// MaxClosureBlockForTest is the block width cap: a wider straight run
// continues in a block of its own at the cap pc.
const MaxClosureBlockForTest = maxClosureBlock

// FlushQuantumForTest publishes what the quantum running t holds batched
// (instructions, calls, bytes), as a stop the sequential engine makes
// mid-quantum does (withWorldStopped). A stop a native requests on a
// scheduler worker leaves that worker's own batch unpublished.
func FlushQuantumForTest(vm *VM, t *Thread) {
	if t.qa != nil {
		vm.flushQuantum(t.qa)
	}
}

// PrepareMethodForTest exposes the preparation pass to the external test
// package (the fuzz target drives it with adversarial instruction
// streams; the oracle tests reach it through normal execution).
func PrepareMethodForTest(m *classfile.Method, mode core.Mode) *bytecode.PCode {
	return prepareMethod(m, mode, nil)
}

// ClosureShapeForTest reports, for the closure program preparation
// compiled for p, how many micros cover more than one instruction (folded
// loads, constants or a folded store) and how many blocks end in an inline
// transfer — the links a chained step follows. ok is false when p carries
// no program.
func ClosureShapeForTest(p *bytecode.PCode) (folded, links int, ok bool) {
	cp, _ := p.Closure.(*closureProgram)
	if cp == nil {
		return 0, 0, false
	}
	for _, b := range cp.blocks {
		if b == nil {
			continue
		}
		var prev int64
		for _, c := range b.cum {
			if c-prev > 1 {
				folded++
			}
			prev = c
		}
		if b.last != nil {
			links++
		}
	}
	return folded, links, true
}

// LeafFormForTest reports whether the closure program of p carries a leaf
// form: whether a call micro may inline the method.
func LeafFormForTest(p *bytecode.PCode) bool {
	cp, _ := p.Closure.(*closureProgram)
	return cp != nil && cp.leaf != nil
}

// SiteLinesForTest reports, for each call site of the closure program
// preparation compiled for p, the invoked method's name, how many lines
// its cache holds and how many of them inline a body.
func SiteLinesForTest(p *bytecode.PCode) []string {
	cp, _ := p.Closure.(*closureProgram)
	if cp == nil {
		return nil
	}
	var out []string
	for _, s := range cp.sites {
		lines, inlined := 0, 0
		for i := range s.lines {
			if ln := s.lines[i].Load(); ln != nil {
				lines++
				if ln.inl > 0 {
					inlined++
				}
			}
		}
		out = append(out, fmt.Sprintf("%s lines=%d inlined=%d", s.entry.Name, lines, inlined))
	}
	sort.Strings(out)
	return out
}

// InlineScratchHoldsForTest reports whether the scratch that inlined
// leaf bodies run in holds obj in one of t's frames: the operand stack's
// headroom past the method's MaxStack and the locals past its own. (The
// stack below MaxStack is the frame's own; a real call leaves its popped
// arguments there, as single-step execution does.) Nothing may be
// running t.
func InlineScratchHoldsForTest(t *Thread, obj *heap.Object) bool {
	for _, f := range t.frames {
		if f.pcode == nil {
			continue
		}
		for _, v := range f.stack[f.pcode.MaxStack:cap(f.stack)] {
			if v.R == obj {
				return true
			}
		}
		for _, v := range f.locals[f.pcode.MaxLocals:] {
			if v.R == obj {
				return true
			}
		}
	}
	return false
}

// TopFrameForTest returns the method of t's top frame and the closure
// program the frame adopted (nil when it runs on the seed switch). Only t's own goroutine may call it: a native t invokes,
// whose caller is the top frame.
func TopFrameForTest(t *Thread) (*classfile.Method, any) {
	f := t.top()
	if f.hot == nil {
		return f.method, nil
	}
	return f.method, f.hot
}

// FrameForTest is one activation as FramesForTest reports it.
type FrameForTest struct {
	Method string
	PC     int32
	Stack  []heap.Value
}

// FramesForTest returns t's activations, outermost first, each with a copy
// of its operand stack. Nothing may be running t.
func FramesForTest(t *Thread) []FrameForTest {
	out := make([]FrameForTest, len(t.frames))
	for i, f := range t.frames {
		out[i] = FrameForTest{f.method.QualifiedName(), f.pc, append([]heap.Value(nil), f.stack...)}
	}
	return out
}

// SnapshotAccount exposes the capture-time account a snapshot seeds its
// clones with (the migration-accounting test checks it is exact).
func SnapshotAccount(s *Snapshot) core.Account { return s.account }

// PreparedCodeForTest runs the VM's prepare-and-cache step for m, as the
// first invocation would: the form lands in the Code's cache slot. It
// returns nil for unpreparable methods.
func (vm *VM) PreparedCodeForTest(m *classfile.Method) *bytecode.PCode { return vm.preparedCode(m) }

// MaxStepInstructionsForTest is the most instructions one engine step may
// retire (the chain cap).
const MaxStepInstructionsForTest = maxStepSubs

// StepSizesForTest drives t the way the quantum routine does — a quantum
// accountant with the given limit and the sequential engine's allocation
// state installed, one stepThread call per poll, each step charged and the
// quantum published at the end — for n steps, and returns how many
// instructions each step retired. Nothing else may be running vm.
func (vm *VM) StepSizesForTest(t *Thread, limit int64, n int) ([]int64, error) {
	if vm.seq.alloc == nil {
		vm.seq.alloc = vm.acquireAllocState()
	}
	qa := SampleState{quantumAcct: quantumAcct{limit: limit, isolated: vm.world.Isolated()}, alloc: vm.seq.alloc}
	qa.alloc.barrierOn = vm.heap.BarrierActive()
	t.qa, t.alloc = &qa, qa.alloc
	defer func() {
		t.qa, t.alloc = nil, nil
		vm.flushQuantum(&qa)
	}()
	sizes := make([]int64, 0, n)
	for len(sizes) < n && t.State() == StateRunnable {
		before := qa.steps
		if err := vm.stepThread(t); err != nil {
			return sizes, err
		}
		qa.steps++
		if qa.isolated {
			acct := t.cur.Account()
			qa.batch.Note(acct)
			qa.sampleRun(vm, acct, 1)
		}
		sizes = append(sizes, qa.steps-before)
	}
	return sizes, nil
}

// CompactThreadTableForTest applies the thread-table rule the way a stop
// does, with rearming marked as RespawnThread marks a thread whose frames
// it is rebuilding and the sequential round-robin cursor parked on cursor
// (several laps in: it only ever grows). It returns the table afterwards
// and the thread the cursor points at.
func (vm *VM) CompactThreadTableForTest(rearming, cursor *Thread) (table []*Thread, cursorAfter *Thread) {
	vm.threadsMu.Lock()
	defer vm.threadsMu.Unlock()
	rearming.arming = true
	for i, th := range vm.threads {
		if th == cursor {
			vm.rrIndex = i + 5*len(vm.threads)
		}
	}
	vm.compactThreadsLocked()
	rearming.arming = false
	return append([]*Thread(nil), vm.threads...), vm.threads[vm.rrIndex%len(vm.threads)]
}

// TableFlagsForTest reports t's thread-table flags.
func (vm *VM) TableFlagsForTest(t *Thread) (pruned, arming bool) {
	vm.threadsMu.Lock()
	defer vm.threadsMu.Unlock()
	return t.pruned, t.arming
}

// LeafVerdictForTest reports what preparation compiled for p: how many
// call sites the closure program holds and, when the method is an
// inlinable leaf, its width, written parameters, scratch map, the scratch
// locals that may hold a reference and the argument guards.
func LeafVerdictForTest(p *bytecode.PCode) string {
	cp, _ := p.Closure.(*closureProgram)
	if cp == nil {
		return "no program"
	}
	out := fmt.Sprintf("sites=%d", len(cp.sites))
	lf := cp.leaf
	if lf == nil {
		return out + " leaf=no"
	}
	var guards []string
	for _, g := range lf.guards {
		what := "array"
		if g.entry != nil {
			what = g.entry.ClassName + "." + g.entry.Name
		}
		guards = append(guards, fmt.Sprintf("%d:%s", g.local, what))
	}
	return fmt.Sprintf("%s leaf width=%d inl=%d written=%v scratch=%v refScratch=%v guards=%v",
		out, lf.width, lf.inl, lf.written, lf.scratch, lf.refScratch, guards)
}
