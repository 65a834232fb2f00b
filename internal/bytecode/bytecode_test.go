package bytecode_test

import (
	"strings"
	"testing"
	"testing/quick"

	"ijvm/internal/bytecode"
)

// stubPool implements bytecode.Pool with sequential indices.
type stubPool struct {
	entries []string
}

func (p *stubPool) add(key string) int32 {
	for i, e := range p.entries {
		if e == key {
			return int32(i + 1)
		}
	}
	p.entries = append(p.entries, key)
	return int32(len(p.entries))
}

func (p *stubPool) StringIndex(s string) int32 { return p.add("s:" + s) }
func (p *stubPool) ClassIndex(n string) int32  { return p.add("c:" + n) }
func (p *stubPool) FieldIndex(c, n string) int32 {
	return p.add("f:" + c + "." + n)
}
func (p *stubPool) MethodIndex(c, n, d string) int32 {
	return p.add("m:" + c + "." + n + d)
}

func TestOpcodeNamesRoundTrip(t *testing.T) {
	for op := bytecode.Opcode(1); int(op) < bytecode.NumOpcodes; op++ {
		if !op.Valid() {
			continue
		}
		name := op.String()
		back, ok := bytecode.OpcodeByName(name)
		if !ok {
			t.Errorf("OpcodeByName(%q) missing", name)
			continue
		}
		if back != op {
			t.Errorf("OpcodeByName(%q) = %v, want %v", name, back, op)
		}
	}
	if _, ok := bytecode.OpcodeByName("definitely-not-an-op"); ok {
		t.Error("OpcodeByName accepted garbage")
	}
}

func TestOpcodeClassificationConsistency(t *testing.T) {
	for op := bytecode.Opcode(1); int(op) < bytecode.NumOpcodes; op++ {
		if !op.Valid() {
			continue
		}
		if op.IsConditionalBranch() && !op.IsBranch() {
			t.Errorf("%v conditional but not branch", op)
		}
		if op == bytecode.OpGoto && op.IsConditionalBranch() {
			t.Error("goto must be unconditional")
		}
		if op.IsReturn() && !op.IsTerminator() {
			t.Errorf("%v returns but is not a terminator", op)
		}
		if op.UsesPool() && op.UsesLocal() {
			t.Errorf("%v claims both pool and local operands", op)
		}
	}
}

// TestStackEffectCoversEveryOpcode: the table is total over the defined
// opcodes (the preparation verifier treats ok == false as "undefined
// opcode" and has no other check), and a branch or a return pushes nothing.
func TestStackEffectCoversEveryOpcode(t *testing.T) {
	for i := 0; i < 256; i++ { // past NumOpcodes: the undefined tail too
		op := bytecode.Opcode(i)
		pops, pushes, ok := op.StackEffect()
		if ok != op.Valid() {
			t.Errorf("%v: StackEffect ok = %v, Valid = %v", op, ok, op.Valid())
		}
		if !ok {
			continue
		}
		if pops < 0 || pushes < 0 {
			t.Errorf("%v: negative effect (%d, %d)", op, pops, pushes)
		}
		if (op.IsBranch() || op.IsReturn()) && pushes != 0 {
			t.Errorf("%v transfers control but pushes %d", op, pushes)
		}
		if op.IsConditionalBranch() && pops == 0 {
			t.Errorf("%v branches on nothing", op)
		}
	}
}

func TestAssemblerLabelResolution(t *testing.T) {
	a := bytecode.NewAssembler(nil)
	a.Const(1).IfNe("skip").Const(0).IReturn().Label("skip").Const(2).IReturn()
	code, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := bytecode.Validate(code); err != nil {
		t.Fatal(err)
	}
	branch := code.Instrs[1]
	if branch.Op != bytecode.OpIfNe || branch.A != 4 {
		t.Fatalf("branch target = %+v, want ifne -> 4", branch)
	}
}

func TestAssemblerErrors(t *testing.T) {
	t.Run("undefined label", func(t *testing.T) {
		a := bytecode.NewAssembler(nil)
		a.Goto("nowhere")
		if _, err := a.Finish(); err == nil || !strings.Contains(err.Error(), "undefined label") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("duplicate label", func(t *testing.T) {
		a := bytecode.NewAssembler(nil)
		a.Label("x").Label("x").Return()
		if _, err := a.Finish(); err == nil || !strings.Contains(err.Error(), "duplicate label") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("pool required", func(t *testing.T) {
		a := bytecode.NewAssembler(nil)
		a.Str("needs pool").Return()
		if _, err := a.Finish(); err == nil || !strings.Contains(err.Error(), "constant pool") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("handler undefined labels", func(t *testing.T) {
		a := bytecode.NewAssembler(nil)
		a.Return()
		a.Handler("a", "b", "c", "")
		if _, err := a.Finish(); err == nil || !strings.Contains(err.Error(), "handler") {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestValidateRejectsBadCode(t *testing.T) {
	cases := []struct {
		name string
		code *bytecode.Code
		want string
	}{
		{"nil", nil, "nil code"},
		{"empty", &bytecode.Code{}, "empty code"},
		{
			"fallthrough",
			&bytecode.Code{Instrs: []bytecode.Instr{{Op: bytecode.OpNop}}},
			"fall off",
		},
		{
			"bad branch",
			&bytecode.Code{Instrs: []bytecode.Instr{
				{Op: bytecode.OpGoto, A: 99},
			}},
			"out of range",
		},
		{
			"bad local",
			&bytecode.Code{Instrs: []bytecode.Instr{
				{Op: bytecode.OpILoad, A: 3},
				{Op: bytecode.OpReturn},
			}, MaxLocals: 1},
			"local slot",
		},
		{
			"bad handler",
			&bytecode.Code{
				Instrs:   []bytecode.Instr{{Op: bytecode.OpReturn}},
				Handlers: []bytecode.Handler{{Start: 5, End: 2, Target: 0}},
			},
			"bad range",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := bytecode.Validate(tc.code)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestCodeClone(t *testing.T) {
	a := bytecode.NewAssembler(nil)
	a.Const(1).IReturn()
	code := a.MustFinish()
	dup := code.Clone()
	dup.Instrs[0].I = 99
	if code.Instrs[0].I != 1 {
		t.Fatal("Clone shares instruction storage")
	}
	if (*bytecode.Code)(nil).Clone() != nil {
		t.Fatal("nil Clone must be nil")
	}
}

// TestQuickLinearProgramsValidate builds random straight-line stack-safe
// programs and checks assembler output always validates.
func TestQuickLinearProgramsValidate(t *testing.T) {
	fn := func(seed uint64, opsRaw []byte) bool {
		a := bytecode.NewAssembler(&stubPool{})
		depth := 0
		for _, raw := range opsRaw {
			switch raw % 7 {
			case 0:
				a.Const(int64(raw))
				depth++
			case 1:
				a.FConst(float64(raw) / 3)
				depth++
			case 2:
				if depth >= 2 {
					a.IAdd()
					depth--
				}
			case 3:
				if depth >= 1 {
					a.Pop()
					depth--
				}
			case 4:
				if depth >= 1 {
					a.Dup()
					depth++
				}
			case 5:
				a.ILoad(int(raw % 4))
				depth++
			case 6:
				if depth >= 1 {
					a.IStore(int(raw % 4))
					depth--
				}
			}
		}
		a.Const(0).IReturn()
		code, err := a.Finish()
		if err != nil {
			return false
		}
		return bytecode.Validate(code) == nil && code.MaxStack >= 1
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
