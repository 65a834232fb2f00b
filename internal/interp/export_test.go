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

// CombinedMicrosForTest counts the combined group micros in the closure
// program published for p, or -1 when p has not been promoted. A prefix
// micro that retires more than one instruction is a group, and so is an
// inline final that adds to the block's width (iinc+goto; a plain goto is
// covered by the engine loop's own charge).
func CombinedMicrosForTest(p *bytecode.PCode) int {
	cp, _ := p.Tier.Hot().(*closureProgram)
	if cp == nil {
		return -1
	}
	n := 0
	for _, b := range cp.blocks {
		if b == nil {
			continue
		}
		var prev int64
		for _, c := range b.cum {
			if c-prev > 1 {
				n++
			}
			prev = c
		}
		if b.width > prev {
			n++
		}
	}
	return n
}

// SnapshotAccount exposes the capture-time account a snapshot seeds its
// clones with (the migration-accounting test checks it is exact).
func SnapshotAccount(s *Snapshot) core.Account { return s.account }

// PreparedCodeForTest runs the VM's prepare-and-cache step for m, as the
// first invocation would: the form lands in the Code's cache slot for the
// VM's isolation mode. It returns nil for unpreparable methods.
func (vm *VM) PreparedCodeForTest(m *classfile.Method) *bytecode.PCode { return vm.preparedCode(m) }
