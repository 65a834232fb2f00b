package bytecode

import (
	"errors"
	"fmt"
)

// Pool abstracts the constant pool of the enclosing class. The assembler
// uses it to translate symbolic references into pool indices; the concrete
// implementation lives in the classfile package.
type Pool interface {
	// StringIndex interns s and returns its pool index.
	StringIndex(s string) int32
	// ClassIndex records a symbolic class reference and returns its index.
	ClassIndex(name string) int32
	// FieldIndex records a symbolic field reference (static or instance)
	// and returns its index.
	FieldIndex(class, name string) int32
	// MethodIndex records a symbolic method reference and returns its
	// index.
	MethodIndex(class, name, descriptor string) int32
}

// Assembler builds a Code body with label-based control flow. All emit
// methods return the assembler for chaining; errors (duplicate or undefined
// labels) are accumulated and reported by Finish.
type Assembler struct {
	pool      Pool
	instrs    []Instr
	labels    map[string]int32
	patches   []patch
	handlers  []pendingHandler
	maxLocals int
	errs      []error
}

type patch struct {
	instr int32
	label string
}

type pendingHandler struct {
	start, end, target string
	catchClass         string
}

// NewAssembler creates an assembler that resolves symbolic references
// against pool. A nil pool is allowed for code that needs no pool entries.
func NewAssembler(pool Pool) *Assembler {
	return &Assembler{
		pool:   pool,
		labels: make(map[string]int32),
	}
}

func (a *Assembler) emit(in Instr) *Assembler {
	a.instrs = append(a.instrs, in)
	return a
}

func (a *Assembler) emitLocal(op Opcode, slot int) *Assembler {
	if slot < 0 {
		a.errs = append(a.errs, fmt.Errorf("%s: negative local slot %d", op, slot))
		slot = 0
	}
	if slot+1 > a.maxLocals {
		a.maxLocals = slot + 1
	}
	return a.emit(Instr{Op: op, A: int32(slot)})
}

func (a *Assembler) emitBranch(op Opcode, label string) *Assembler {
	a.patches = append(a.patches, patch{instr: int32(len(a.instrs)), label: label})
	return a.emit(Instr{Op: op})
}

func (a *Assembler) poolIndex(kind string, fn func() int32) int32 {
	if a.pool == nil {
		a.errs = append(a.errs, fmt.Errorf("%s reference requires a constant pool", kind))
		return 0
	}
	return fn()
}

// Label defines a branch target at the current position.
func (a *Assembler) Label(name string) *Assembler {
	if _, dup := a.labels[name]; dup {
		a.errs = append(a.errs, fmt.Errorf("duplicate label %q", name))
		return a
	}
	a.labels[name] = int32(len(a.instrs))
	return a
}

// Nop emits a no-op.
func (a *Assembler) Nop() *Assembler { return a.emit(Instr{Op: OpNop}) }

// Const pushes an immediate integer.
func (a *Assembler) Const(v int64) *Assembler { return a.emit(Instr{Op: OpIConst, I: v}) }

// FConst pushes an immediate float.
func (a *Assembler) FConst(v float64) *Assembler { return a.emit(Instr{Op: OpFConst, F: v}) }

// Str pushes the interned string s.
func (a *Assembler) Str(s string) *Assembler {
	idx := a.poolIndex("string", func() int32 { return a.pool.StringIndex(s) })
	return a.emit(Instr{Op: OpLdcString, A: idx})
}

// ClassConst pushes the java.lang.Class object of the named class.
func (a *Assembler) ClassConst(name string) *Assembler {
	idx := a.poolIndex("class", func() int32 { return a.pool.ClassIndex(name) })
	return a.emit(Instr{Op: OpLdcClass, A: idx})
}

// Null pushes the null reference.
func (a *Assembler) Null() *Assembler { return a.emit(Instr{Op: OpAConstNull}) }

// Pop discards the top of stack.
func (a *Assembler) Pop() *Assembler { return a.emit(Instr{Op: OpPop}) }

// Dup duplicates the top of stack.
func (a *Assembler) Dup() *Assembler { return a.emit(Instr{Op: OpDup}) }

// DupX1 duplicates the top of stack below the second value.
func (a *Assembler) DupX1() *Assembler { return a.emit(Instr{Op: OpDupX1}) }

// Swap exchanges the two top stack values.
func (a *Assembler) Swap() *Assembler { return a.emit(Instr{Op: OpSwap}) }

// ILoad pushes int local slot.
func (a *Assembler) ILoad(slot int) *Assembler { return a.emitLocal(OpILoad, slot) }

// FLoad pushes float local slot.
func (a *Assembler) FLoad(slot int) *Assembler { return a.emitLocal(OpFLoad, slot) }

// ALoad pushes reference local slot.
func (a *Assembler) ALoad(slot int) *Assembler { return a.emitLocal(OpALoad, slot) }

// IStore pops into int local slot.
func (a *Assembler) IStore(slot int) *Assembler { return a.emitLocal(OpIStore, slot) }

// FStore pops into float local slot.
func (a *Assembler) FStore(slot int) *Assembler { return a.emitLocal(OpFStore, slot) }

// AStore pops into reference local slot.
func (a *Assembler) AStore(slot int) *Assembler { return a.emitLocal(OpAStore, slot) }

// IInc adds delta to int local slot.
func (a *Assembler) IInc(slot int, delta int32) *Assembler {
	a.emitLocal(OpIInc, slot)
	a.instrs[len(a.instrs)-1].B = delta
	return a
}

// Arithmetic.

func (a *Assembler) IAdd() *Assembler  { return a.emit(Instr{Op: OpIAdd}) }
func (a *Assembler) ISub() *Assembler  { return a.emit(Instr{Op: OpISub}) }
func (a *Assembler) IMul() *Assembler  { return a.emit(Instr{Op: OpIMul}) }
func (a *Assembler) IDiv() *Assembler  { return a.emit(Instr{Op: OpIDiv}) }
func (a *Assembler) IRem() *Assembler  { return a.emit(Instr{Op: OpIRem}) }
func (a *Assembler) INeg() *Assembler  { return a.emit(Instr{Op: OpINeg}) }
func (a *Assembler) IShl() *Assembler  { return a.emit(Instr{Op: OpIShl}) }
func (a *Assembler) IShr() *Assembler  { return a.emit(Instr{Op: OpIShr}) }
func (a *Assembler) IUshr() *Assembler { return a.emit(Instr{Op: OpIUshr}) }
func (a *Assembler) IAnd() *Assembler  { return a.emit(Instr{Op: OpIAnd}) }
func (a *Assembler) IOr() *Assembler   { return a.emit(Instr{Op: OpIOr}) }
func (a *Assembler) IXor() *Assembler  { return a.emit(Instr{Op: OpIXor}) }
func (a *Assembler) FAdd() *Assembler  { return a.emit(Instr{Op: OpFAdd}) }
func (a *Assembler) FSub() *Assembler  { return a.emit(Instr{Op: OpFSub}) }
func (a *Assembler) FMul() *Assembler  { return a.emit(Instr{Op: OpFMul}) }
func (a *Assembler) FDiv() *Assembler  { return a.emit(Instr{Op: OpFDiv}) }
func (a *Assembler) FNeg() *Assembler  { return a.emit(Instr{Op: OpFNeg}) }
func (a *Assembler) FCmp() *Assembler  { return a.emit(Instr{Op: OpFCmp}) }
func (a *Assembler) I2F() *Assembler   { return a.emit(Instr{Op: OpI2F}) }
func (a *Assembler) F2I() *Assembler   { return a.emit(Instr{Op: OpF2I}) }

// Control flow.

func (a *Assembler) Goto(label string) *Assembler      { return a.emitBranch(OpGoto, label) }
func (a *Assembler) IfEq(label string) *Assembler      { return a.emitBranch(OpIfEq, label) }
func (a *Assembler) IfNe(label string) *Assembler      { return a.emitBranch(OpIfNe, label) }
func (a *Assembler) IfLt(label string) *Assembler      { return a.emitBranch(OpIfLt, label) }
func (a *Assembler) IfLe(label string) *Assembler      { return a.emitBranch(OpIfLe, label) }
func (a *Assembler) IfGt(label string) *Assembler      { return a.emitBranch(OpIfGt, label) }
func (a *Assembler) IfGe(label string) *Assembler      { return a.emitBranch(OpIfGe, label) }
func (a *Assembler) IfICmpEq(label string) *Assembler  { return a.emitBranch(OpIfICmpEq, label) }
func (a *Assembler) IfICmpNe(label string) *Assembler  { return a.emitBranch(OpIfICmpNe, label) }
func (a *Assembler) IfICmpLt(label string) *Assembler  { return a.emitBranch(OpIfICmpLt, label) }
func (a *Assembler) IfICmpLe(label string) *Assembler  { return a.emitBranch(OpIfICmpLe, label) }
func (a *Assembler) IfICmpGt(label string) *Assembler  { return a.emitBranch(OpIfICmpGt, label) }
func (a *Assembler) IfICmpGe(label string) *Assembler  { return a.emitBranch(OpIfICmpGe, label) }
func (a *Assembler) IfACmpEq(label string) *Assembler  { return a.emitBranch(OpIfACmpEq, label) }
func (a *Assembler) IfACmpNe(label string) *Assembler  { return a.emitBranch(OpIfACmpNe, label) }
func (a *Assembler) IfNull(label string) *Assembler    { return a.emitBranch(OpIfNull, label) }
func (a *Assembler) IfNonNull(label string) *Assembler { return a.emitBranch(OpIfNonNull, label) }

// Returns.

func (a *Assembler) Return() *Assembler  { return a.emit(Instr{Op: OpReturn}) }
func (a *Assembler) IReturn() *Assembler { return a.emit(Instr{Op: OpIReturn}) }
func (a *Assembler) FReturn() *Assembler { return a.emit(Instr{Op: OpFReturn}) }
func (a *Assembler) AReturn() *Assembler { return a.emit(Instr{Op: OpAReturn}) }

// Field access.

func (a *Assembler) GetStatic(class, field string) *Assembler {
	idx := a.poolIndex("field", func() int32 { return a.pool.FieldIndex(class, field) })
	return a.emit(Instr{Op: OpGetStatic, A: idx})
}

func (a *Assembler) PutStatic(class, field string) *Assembler {
	idx := a.poolIndex("field", func() int32 { return a.pool.FieldIndex(class, field) })
	return a.emit(Instr{Op: OpPutStatic, A: idx})
}

func (a *Assembler) GetField(class, field string) *Assembler {
	idx := a.poolIndex("field", func() int32 { return a.pool.FieldIndex(class, field) })
	return a.emit(Instr{Op: OpGetField, A: idx})
}

func (a *Assembler) PutField(class, field string) *Assembler {
	idx := a.poolIndex("field", func() int32 { return a.pool.FieldIndex(class, field) })
	return a.emit(Instr{Op: OpPutField, A: idx})
}

// Invocation.

func (a *Assembler) InvokeStatic(class, name, desc string) *Assembler {
	idx := a.poolIndex("method", func() int32 { return a.pool.MethodIndex(class, name, desc) })
	return a.emit(Instr{Op: OpInvokeStatic, A: idx})
}

func (a *Assembler) InvokeVirtual(class, name, desc string) *Assembler {
	idx := a.poolIndex("method", func() int32 { return a.pool.MethodIndex(class, name, desc) })
	return a.emit(Instr{Op: OpInvokeVirtual, A: idx})
}

func (a *Assembler) InvokeSpecial(class, name, desc string) *Assembler {
	idx := a.poolIndex("method", func() int32 { return a.pool.MethodIndex(class, name, desc) })
	return a.emit(Instr{Op: OpInvokeSpecial, A: idx})
}

// Objects and arrays.

func (a *Assembler) New(class string) *Assembler {
	idx := a.poolIndex("class", func() int32 { return a.pool.ClassIndex(class) })
	return a.emit(Instr{Op: OpNew, A: idx})
}

// NewArray pops a length and pushes a new array. The element class name is
// informational; "" produces an untyped array.
func (a *Assembler) NewArray(elemClass string) *Assembler {
	var idx int32
	if elemClass != "" {
		idx = a.poolIndex("class", func() int32 { return a.pool.ClassIndex(elemClass) })
	}
	return a.emit(Instr{Op: OpNewArray, A: idx})
}

func (a *Assembler) ArrayLength() *Assembler { return a.emit(Instr{Op: OpArrayLength}) }
func (a *Assembler) ArrayLoad() *Assembler   { return a.emit(Instr{Op: OpArrayLoad}) }
func (a *Assembler) ArrayStore() *Assembler  { return a.emit(Instr{Op: OpArrayStore}) }

func (a *Assembler) InstanceOf(class string) *Assembler {
	idx := a.poolIndex("class", func() int32 { return a.pool.ClassIndex(class) })
	return a.emit(Instr{Op: OpInstanceOf, A: idx})
}

func (a *Assembler) CheckCast(class string) *Assembler {
	idx := a.poolIndex("class", func() int32 { return a.pool.ClassIndex(class) })
	return a.emit(Instr{Op: OpCheckCast, A: idx})
}

// Monitors and exceptions.

func (a *Assembler) MonitorEnter() *Assembler { return a.emit(Instr{Op: OpMonitorEnter}) }
func (a *Assembler) MonitorExit() *Assembler  { return a.emit(Instr{Op: OpMonitorExit}) }
func (a *Assembler) AThrow() *Assembler       { return a.emit(Instr{Op: OpAThrow}) }

// Handler registers an exception handler covering [startLabel, endLabel)
// with the handler code at targetLabel. catchClass may be empty to catch
// all throwables.
func (a *Assembler) Handler(startLabel, endLabel, targetLabel, catchClass string) *Assembler {
	a.handlers = append(a.handlers, pendingHandler{
		start: startLabel, end: endLabel, target: targetLabel, catchClass: catchClass,
	})
	return a
}

// ReserveLocals guarantees that MaxLocals is at least n (for methods whose
// parameters occupy slots never otherwise referenced).
func (a *Assembler) ReserveLocals(n int) *Assembler {
	if n > a.maxLocals {
		a.maxLocals = n
	}
	return a
}

func (a *Assembler) resolve(label string) (int32, bool) {
	pc, ok := a.labels[label]
	return pc, ok
}

// Finish resolves all labels and returns the assembled code.
func (a *Assembler) Finish() (*Code, error) {
	errs := append([]error(nil), a.errs...)
	for _, p := range a.patches {
		pc, ok := a.resolve(p.label)
		if !ok {
			errs = append(errs, fmt.Errorf("undefined label %q", p.label))
			continue
		}
		a.instrs[p.instr].A = pc
	}
	handlers := make([]Handler, 0, len(a.handlers))
	for _, h := range a.handlers {
		start, ok1 := a.resolve(h.start)
		end, ok2 := a.resolve(h.end)
		target, ok3 := a.resolve(h.target)
		if !ok1 || !ok2 || !ok3 {
			errs = append(errs, fmt.Errorf("handler references undefined label (%q, %q, %q)", h.start, h.end, h.target))
			continue
		}
		handlers = append(handlers, Handler{Start: start, End: end, Target: target, CatchClass: h.catchClass})
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	code := &Code{
		Instrs:    a.instrs,
		Handlers:  handlers,
		MaxLocals: a.maxLocals,
	}
	code.MaxStack = estimateMaxStack(code)
	return code, nil
}

// MustFinish is Finish for code that is statically known to assemble, such
// as compiled-in workloads. It panics on error (program-construction bug).
func (a *Assembler) MustFinish() *Code {
	code, err := a.Finish()
	if err != nil {
		panic("bytecode: assemble: " + err.Error())
	}
	return code
}
