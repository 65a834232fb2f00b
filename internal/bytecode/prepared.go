package bytecode

// PInstr is one prepared ("quickened") instruction. The interpreter's
// code-preparation pass runs once per method on first invocation and
// rewrites the decoded Instr stream into this form, from which it compiles
// the method's closure blocks; the instruction at a pc no block covers
// runs from the decoded Instr on the reference switch:
//
//   - Ref carries the pre-resolved constant-pool operand (the pool entry
//     pointer for field/method/class/string references). It is opaque at
//     this layer so the package stays free of classfile dependencies.
//   - FS is the resolved-field slot cache of a getfield/putfield site
//     (nil for every other instruction), published once on first
//     resolution so later executions index the receiver's field array
//     directly. Invoke sites carry no per-site state here: invokevirtual
//     dispatches through the receiver class's link-time VTable at the
//     slot of the pool entry's resolved method.
//   - B holds, for the three invoke opcodes, the argument-window size
//     (declared parameters plus the receiver for instance calls),
//     precomputed from the referenced descriptor so the call micros never
//     re-derive it. All other opcodes keep the decoded operand.
//   - A, I, F mirror the decoded Instr operands.
type PInstr struct {
	Ref any
	FS  *FieldSlot
	I   int64
	F   float64
	A   int32
	B   int32
}

// PCode is the prepared executable form of a method body. Unlike Code,
// whose MaxStack is a preallocation hint, a PCode's MaxStack/MaxLocals
// are exact: the preparation pass verifies operand-stack discipline by
// dataflow, so frames can use fixed-capacity stacks and the handlers can
// pop without underflow checks. ErrPC is the preformatted sticky error
// returned when the program counter escapes the code (validated
// impossible for prepared code reached through normal control flow, but
// kept as the single cheap bounds check in the dispatch loop).
//
// Closure is the interpreter's closure-threaded program for the body
// (opaque here), compiled by the preparation pass as its last step. It is
// set before StorePrepared publishes the form and never changes after, so
// every frame of the method, on any worker, reads the one program with a
// plain field load.
type PCode struct {
	Instrs    []PInstr
	MaxStack  int
	MaxLocals int
	ErrPC     error
	Closure   any
}

// Prepared returns the cached prepared form, or nil before the first
// preparation. A non-nil result with an empty Instrs slice is the
// preparer's "unpreparable" sentinel: the method permanently executes
// through the reference switch interpreter. A Code has one form because
// its class links into one registry, hence one VM, and a VM's isolation
// mode — which selects the micros the form's closure program is compiled
// with — is fixed at construction.
func (c *Code) Prepared() *PCode { return c.prepared.Load() }

// StorePrepared publishes p as the code's prepared form. Preparation is
// deterministic, so when two scheduler workers race the first publisher
// wins and both use the winning form, which is returned.
func (c *Code) StorePrepared(p *PCode) *PCode {
	if c.prepared.CompareAndSwap(nil, p) {
		return p
	}
	return c.prepared.Load()
}
