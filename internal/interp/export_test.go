package interp

import (
	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/core"
)

// PrepareMethodForTest exposes the preparation pass to the external test
// package (the fuzz target drives it with adversarial instruction
// streams; the oracle tests reach it through normal execution).
func PrepareMethodForTest(m *classfile.Method) *bytecode.PCode { return prepareMethod(m) }

// ClosureShapeForTest reports, for the closure program published for p,
// how many micros cover more than one instruction (folded loads,
// constants or a folded store) and how many blocks end in an inline
// transfer — the links a chained step follows. ok is false when p has not
// been promoted.
func ClosureShapeForTest(p *bytecode.PCode) (folded, links int, ok bool) {
	cp, _ := p.Tier.Hot().(*closureProgram)
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

// SnapshotAccount exposes the capture-time account a snapshot seeds its
// clones with (the migration-accounting test checks it is exact).
func SnapshotAccount(s *Snapshot) core.Account { return s.account }

// PreparedCodeForTest runs the VM's prepare-and-cache step for m, as the
// first invocation would: the form lands in the Code's cache slot for the
// VM's isolation mode. It returns nil for unpreparable methods.
func (vm *VM) PreparedCodeForTest(m *classfile.Method) *bytecode.PCode { return vm.preparedCode(m) }

// MaxStepInstructionsForTest is the most instructions one engine step may
// retire (the chain cap).
const MaxStepInstructionsForTest = maxStepSubs

// StepSizesForTest drives t the way an engine loop does — a quantum
// accountant with the given limit installed, one stepThread call per
// poll — for n steps, and returns how many instructions each step
// retired. Nothing else may be running vm.
func (vm *VM) StepSizesForTest(t *Thread, limit int64, n int) ([]int64, error) {
	var batch core.InstrBatch
	var samples int
	qa := quantumAcct{vm: vm, batch: &batch, sampleCount: &samples, limit: limit}
	t.qa = &qa
	defer func() { t.qa = nil }()
	sizes := make([]int64, 0, n)
	for len(sizes) < n && t.State() == StateRunnable {
		before := qa.steps
		if err := vm.stepThread(t); err != nil {
			return sizes, err
		}
		qa.steps++
		sizes = append(sizes, qa.steps-before)
	}
	return sizes, nil
}
