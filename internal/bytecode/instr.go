package bytecode

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
)

// Instr is one decoded instruction. Operands are pre-decoded so the
// interpreter never parses bytes on the hot path:
//
//   - A: local slot, constant-pool index, or branch target (instruction
//     index) depending on the opcode.
//   - B: secondary operand (iinc delta).
//   - I: immediate integer (iconst).
//   - F: immediate float (fconst).
type Instr struct {
	Op Opcode
	A  int32
	B  int32
	I  int64
	F  float64
}

// String renders the instruction in assembly syntax.
func (in Instr) String() string {
	var b strings.Builder
	b.WriteString(in.Op.String())
	switch in.Op {
	case OpIConst:
		b.WriteByte(' ')
		b.WriteString(strconv.FormatInt(in.I, 10))
	case OpFConst:
		b.WriteByte(' ')
		b.WriteString(strconv.FormatFloat(in.F, 'g', -1, 64))
	case OpIInc:
		fmt.Fprintf(&b, " %d %d", in.A, in.B)
	default:
		if in.Op.UsesLocal() || in.Op.UsesPool() || in.Op.IsBranch() {
			b.WriteByte(' ')
			b.WriteString(strconv.FormatInt(int64(in.A), 10))
		}
	}
	return b.String()
}

// Handler is one entry of a method's exception table. A handler covers
// instruction indices in [Start, End) and transfers control to Target when
// an exception whose class is (a subclass of) CatchClass is thrown inside
// the range. An empty CatchClass catches everything.
type Handler struct {
	Start      int32
	End        int32
	Target     int32
	CatchClass string
}

// Covers reports whether the handler protects instruction index pc.
func (h Handler) Covers(pc int32) bool {
	return pc >= h.Start && pc < h.End
}

// Code is the executable body of a method.
type Code struct {
	Instrs    []Instr
	Handlers  []Handler
	MaxLocals int
	MaxStack  int

	// prepared caches the quickened form (see prepared.go); nil until the
	// interpreter's preparation pass first runs the method. Clone does not
	// copy it: the copy's instructions may be edited, so it is prepared
	// afresh on its first run.
	prepared atomic.Pointer[PCode]
}

// Clone returns a deep copy of the code, so callers can mutate the copy's
// instructions (the fuzz tests give every run its own) without affecting
// shared state.
func (c *Code) Clone() *Code {
	if c == nil {
		return nil
	}
	out := &Code{
		MaxLocals: c.MaxLocals,
		MaxStack:  c.MaxStack,
	}
	out.Instrs = make([]Instr, len(c.Instrs))
	copy(out.Instrs, c.Instrs)
	out.Handlers = make([]Handler, len(c.Handlers))
	copy(out.Handlers, c.Handlers)
	return out
}
