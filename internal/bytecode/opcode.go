// Package bytecode defines the instruction set executed by the I-JVM
// interpreter, together with an assembler (label-resolving builder), a
// disassembler, and a structural validator.
//
// The instruction set mirrors the JVM bytecodes the paper's mechanisms hook
// into: static variable accesses (task class mirror indirection), method
// invocations (thread migration between isolates), object allocation
// (memory accounting), monitors, and exception dispatch.
package bytecode

import "strconv"

// Opcode identifies one instruction of the virtual machine.
type Opcode uint8

// Instruction opcodes. The numbering is internal; code is stored as decoded
// Instr values, not packed bytes.
const (
	// OpNop does nothing.
	OpNop Opcode = iota + 1

	// Constants.
	OpIConst    // push immediate int (Instr.I)
	OpFConst    // push immediate float (Instr.F)
	OpLdcString // push interned string for pool index A (per-isolate pool in I-JVM mode)
	OpLdcClass  // push java.lang.Class object for class ref at pool index A
	OpAConstNull

	// Operand-stack manipulation.
	OpPop
	OpDup
	OpDupX1
	OpSwap

	// Locals.
	OpILoad  // push local A (int)
	OpFLoad  // push local A (float)
	OpALoad  // push local A (ref)
	OpIStore // pop into local A
	OpFStore
	OpAStore
	OpIInc // local A += B

	// Integer arithmetic and bit operations.
	OpIAdd
	OpISub
	OpIMul
	OpIDiv
	OpIRem
	OpINeg
	OpIShl
	OpIShr
	OpIUshr
	OpIAnd
	OpIOr
	OpIXor

	// Float arithmetic.
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	OpFNeg
	OpFCmp // push -1, 0 or 1

	// Conversions.
	OpI2F
	OpF2I

	// Control flow. Branch targets (Instr.A) are instruction indices.
	OpGoto
	OpIfEq // pop int; branch if == 0
	OpIfNe
	OpIfLt
	OpIfLe
	OpIfGt
	OpIfGe
	OpIfICmpEq // pop two ints; branch on comparison
	OpIfICmpNe
	OpIfICmpLt
	OpIfICmpLe
	OpIfICmpGt
	OpIfICmpGe
	OpIfACmpEq // pop two refs; branch on reference equality
	OpIfACmpNe
	OpIfNull
	OpIfNonNull

	// Returns.
	OpReturn  // void
	OpIReturn // int
	OpFReturn
	OpAReturn

	// Field access. A = pool index of a FieldRef.
	OpGetStatic
	OpPutStatic
	OpGetField
	OpPutField

	// Invocation. A = pool index of a MethodRef.
	OpInvokeStatic
	OpInvokeVirtual // dynamic dispatch on the receiver's class
	OpInvokeSpecial // direct dispatch (constructors, private/super calls)

	// Objects and arrays.
	OpNew         // A = pool index of a ClassRef
	OpNewArray    // pop length; push new array; A = pool index of ClassRef for element class (may be 0 for untyped)
	OpArrayLength // pop array; push length
	OpArrayLoad   // pop index, array; push element
	OpArrayStore  // pop value, index, array
	OpInstanceOf  // pop ref; push 0/1; A = pool index of ClassRef
	OpCheckCast   // pop ref; push ref or throw ClassCastException

	// Monitors.
	OpMonitorEnter
	OpMonitorExit

	// Exceptions.
	OpAThrow

	opMax // sentinel; keep last
)

// NumOpcodes is the number of defined opcodes plus one (opcodes are 1-based).
const NumOpcodes = int(opMax)

var opcodeNames = map[Opcode]string{
	OpNop:           "nop",
	OpIConst:        "iconst",
	OpFConst:        "fconst",
	OpLdcString:     "ldc_string",
	OpLdcClass:      "ldc_class",
	OpAConstNull:    "aconst_null",
	OpPop:           "pop",
	OpDup:           "dup",
	OpDupX1:         "dup_x1",
	OpSwap:          "swap",
	OpILoad:         "iload",
	OpFLoad:         "fload",
	OpALoad:         "aload",
	OpIStore:        "istore",
	OpFStore:        "fstore",
	OpAStore:        "astore",
	OpIInc:          "iinc",
	OpIAdd:          "iadd",
	OpISub:          "isub",
	OpIMul:          "imul",
	OpIDiv:          "idiv",
	OpIRem:          "irem",
	OpINeg:          "ineg",
	OpIShl:          "ishl",
	OpIShr:          "ishr",
	OpIUshr:         "iushr",
	OpIAnd:          "iand",
	OpIOr:           "ior",
	OpIXor:          "ixor",
	OpFAdd:          "fadd",
	OpFSub:          "fsub",
	OpFMul:          "fmul",
	OpFDiv:          "fdiv",
	OpFNeg:          "fneg",
	OpFCmp:          "fcmp",
	OpI2F:           "i2f",
	OpF2I:           "f2i",
	OpGoto:          "goto",
	OpIfEq:          "ifeq",
	OpIfNe:          "ifne",
	OpIfLt:          "iflt",
	OpIfLe:          "ifle",
	OpIfGt:          "ifgt",
	OpIfGe:          "ifge",
	OpIfICmpEq:      "if_icmpeq",
	OpIfICmpNe:      "if_icmpne",
	OpIfICmpLt:      "if_icmplt",
	OpIfICmpLe:      "if_icmple",
	OpIfICmpGt:      "if_icmpgt",
	OpIfICmpGe:      "if_icmpge",
	OpIfACmpEq:      "if_acmpeq",
	OpIfACmpNe:      "if_acmpne",
	OpIfNull:        "ifnull",
	OpIfNonNull:     "ifnonnull",
	OpReturn:        "return",
	OpIReturn:       "ireturn",
	OpFReturn:       "freturn",
	OpAReturn:       "areturn",
	OpGetStatic:     "getstatic",
	OpPutStatic:     "putstatic",
	OpGetField:      "getfield",
	OpPutField:      "putfield",
	OpInvokeStatic:  "invokestatic",
	OpInvokeVirtual: "invokevirtual",
	OpInvokeSpecial: "invokespecial",
	OpNew:           "new",
	OpNewArray:      "newarray",
	OpArrayLength:   "arraylength",
	OpArrayLoad:     "arrayload",
	OpArrayStore:    "arraystore",
	OpInstanceOf:    "instanceof",
	OpCheckCast:     "checkcast",
	OpMonitorEnter:  "monitorenter",
	OpMonitorExit:   "monitorexit",
	OpAThrow:        "athrow",
}

var opcodeByName = buildOpcodeByName()

func buildOpcodeByName() map[string]Opcode {
	m := make(map[string]Opcode, len(opcodeNames))
	for op, name := range opcodeNames {
		m[name] = op
	}
	return m
}

// String returns the mnemonic for the opcode.
func (op Opcode) String() string {
	if name, ok := opcodeNames[op]; ok {
		return name
	}
	return "op#" + strconv.Itoa(int(op))
}

// OpcodeByName resolves a mnemonic to its opcode. The boolean reports
// whether the mnemonic is known.
func OpcodeByName(name string) (Opcode, bool) {
	op, ok := opcodeByName[name]
	return op, ok
}

// Valid reports whether op is a defined opcode.
func (op Opcode) Valid() bool {
	_, ok := opcodeNames[op]
	return ok
}

// IsBranch reports whether the instruction transfers control to Instr.A.
func (op Opcode) IsBranch() bool {
	switch op {
	case OpGoto, OpIfEq, OpIfNe, OpIfLt, OpIfLe, OpIfGt, OpIfGe,
		OpIfICmpEq, OpIfICmpNe, OpIfICmpLt, OpIfICmpLe, OpIfICmpGt, OpIfICmpGe,
		OpIfACmpEq, OpIfACmpNe, OpIfNull, OpIfNonNull:
		return true
	}
	return false
}

// IsConditionalBranch reports whether the instruction may fall through.
func (op Opcode) IsConditionalBranch() bool {
	return op.IsBranch() && op != OpGoto
}

// IsReturn reports whether the instruction leaves the current frame
// normally.
func (op Opcode) IsReturn() bool {
	switch op {
	case OpReturn, OpIReturn, OpFReturn, OpAReturn:
		return true
	}
	return false
}

// IsTerminator reports whether control never falls through to the next
// instruction.
func (op Opcode) IsTerminator() bool {
	return op == OpGoto || op == OpAThrow || op.IsReturn()
}

// UsesPool reports whether Instr.A is an index into the constant pool.
func (op Opcode) UsesPool() bool {
	switch op {
	case OpLdcString, OpLdcClass, OpGetStatic, OpPutStatic, OpGetField, OpPutField,
		OpInvokeStatic, OpInvokeVirtual, OpInvokeSpecial, OpNew, OpNewArray,
		OpInstanceOf, OpCheckCast:
		return true
	}
	return false
}

// UsesLocal reports whether Instr.A is a local-variable slot index.
func (op Opcode) UsesLocal() bool {
	switch op {
	case OpILoad, OpFLoad, OpALoad, OpIStore, OpFStore, OpAStore, OpIInc:
		return true
	}
	return false
}

// StackEffect returns how many operands op pops and pushes. It is exact
// for every opcode but the invocations, whose effect depends on the
// referenced descriptor: they report the net +1 that sizes a stack when
// the pool is not visible, and a caller that has the pool replaces both
// counts. ok is false for an undefined opcode.
func (op Opcode) StackEffect() (pops, pushes int32, ok bool) {
	switch op {
	case OpNop, OpGoto, OpIInc, OpReturn:
		return 0, 0, true
	case OpIConst, OpFConst, OpAConstNull, OpLdcString, OpLdcClass,
		OpILoad, OpFLoad, OpALoad, OpGetStatic, OpNew,
		OpInvokeStatic, OpInvokeVirtual, OpInvokeSpecial:
		return 0, 1, true
	case OpPop, OpIStore, OpFStore, OpAStore,
		OpIfEq, OpIfNe, OpIfLt, OpIfLe, OpIfGt, OpIfGe, OpIfNull, OpIfNonNull,
		OpIReturn, OpFReturn, OpAReturn, OpMonitorEnter, OpMonitorExit, OpAThrow,
		OpPutStatic:
		return 1, 0, true
	case OpDup:
		return 1, 2, true
	case OpDupX1:
		return 2, 3, true
	case OpSwap:
		return 2, 2, true
	case OpIAdd, OpISub, OpIMul, OpIDiv, OpIRem, OpIShl, OpIShr, OpIUshr,
		OpIAnd, OpIOr, OpIXor, OpFAdd, OpFSub, OpFMul, OpFDiv, OpFCmp,
		OpArrayLoad:
		return 2, 1, true
	case OpINeg, OpFNeg, OpI2F, OpF2I, OpArrayLength, OpInstanceOf, OpCheckCast,
		OpNewArray, OpGetField:
		return 1, 1, true
	case OpIfICmpEq, OpIfICmpNe, OpIfICmpLt, OpIfICmpLe, OpIfICmpGt, OpIfICmpGe,
		OpIfACmpEq, OpIfACmpNe, OpPutField:
		return 2, 0, true
	case OpArrayStore:
		return 3, 0, true
	default:
		return 0, 0, false
	}
}
