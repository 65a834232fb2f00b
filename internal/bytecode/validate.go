package bytecode

import (
	"errors"
	"fmt"
)

// estimateMaxStack computes a preallocation hint for frame operand stacks
// by a linear pass that ignores control flow (safe because interpreter
// stacks grow dynamically).
func estimateMaxStack(code *Code) int {
	height, maxHeight := int32(0), int32(4)
	for _, in := range code.Instrs {
		pops, pushes, _ := in.Op.StackEffect() // Validate reports an undefined opcode
		height -= pops
		if height < 0 {
			height = 0
		}
		height += pushes
		if height > maxHeight {
			maxHeight = height
		}
		if in.Op.IsTerminator() {
			height = 0
		}
	}
	return int(maxHeight)
}

// Validate performs structural checks on assembled code: branch targets in
// range, non-negative pool indices, local slots within MaxLocals, handler
// ranges well-formed, and no fall-through past the last instruction.
func Validate(code *Code) error {
	if code == nil {
		return errors.New("bytecode: nil code")
	}
	n := int32(len(code.Instrs))
	if n == 0 {
		return errors.New("bytecode: empty code body")
	}
	var errs []error
	for pc, in := range code.Instrs {
		if !in.Op.Valid() {
			errs = append(errs, fmt.Errorf("pc %d: invalid opcode %d", pc, in.Op))
			continue
		}
		if in.Op.IsBranch() && (in.A < 0 || in.A >= n) {
			errs = append(errs, fmt.Errorf("pc %d: %s target %d out of range [0,%d)", pc, in.Op, in.A, n))
		}
		if in.Op.UsesPool() && in.A < 0 {
			errs = append(errs, fmt.Errorf("pc %d: %s negative pool index %d", pc, in.Op, in.A))
		}
		if in.Op.UsesLocal() {
			if in.A < 0 || int(in.A) >= code.MaxLocals {
				errs = append(errs, fmt.Errorf("pc %d: %s local slot %d outside [0,%d)", pc, in.Op, in.A, code.MaxLocals))
			}
		}
	}
	last := code.Instrs[n-1]
	if !last.Op.IsTerminator() {
		errs = append(errs, fmt.Errorf("pc %d: code may fall off the end (last op %s)", n-1, last.Op))
	}
	for i, h := range code.Handlers {
		if h.Start < 0 || h.End > n || h.Start >= h.End {
			errs = append(errs, fmt.Errorf("handler %d: bad range [%d,%d)", i, h.Start, h.End))
		}
		if h.Target < 0 || h.Target >= n {
			errs = append(errs, fmt.Errorf("handler %d: target %d out of range", i, h.Target))
		}
	}
	return errors.Join(errs...)
}
