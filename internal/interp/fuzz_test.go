package interp_test

import (
	"os"
	"path/filepath"
	"testing"

	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
	"ijvm/internal/syslib"
	"ijvm/internal/textasm"
)

// FuzzPrepareVerifier feeds adversarial instruction streams to the
// prepare-pass dataflow verifier. The contract under test:
//
//   - prepareMethod never panics — garbage is rejected to the reference
//     switch path (nil), never crashed on;
//   - anything the verifier ACCEPTS must then execute on the default
//     engine — the method's closure blocks from its first call, with their
//     unchecked micros, over the reference switch — without a host panic,
//     and byte-identically to the checked seed-style switch (result,
//     failure, instruction count, also when the run ends in a host error)
//     — the verifier's soundness contract. This leg is what drives the
//     closure compiler's operand folding (symbol materialisation,
//     follower-pc entries, bails with operands still symbolic) and chained
//     steps over adversarial verified streams.
//
// The corpus is seeded from the instruction streams of the shipped
// example programs (encoded through the same 3-bytes-per-instruction
// scheme the fuzzer decodes) plus handcrafted edge shapes.
func FuzzPrepareVerifier(f *testing.F) {
	for _, name := range []string{"hello.jasm", "quicksort.jasm", "sieve.jasm"} {
		src, err := os.ReadFile(filepath.Join("../../examples/programs", name))
		if err != nil {
			f.Fatalf("seed corpus: %v", err)
		}
		classes, err := textasm.Parse(string(src))
		if err != nil {
			f.Fatalf("seed corpus: %v", err)
		}
		for _, c := range classes {
			for _, m := range c.Methods {
				if m.Code != nil {
					f.Add(encodeFuzzProgram(m.Code.Instrs))
				}
			}
		}
	}
	f.Add([]byte{byte(bytecode.OpIConst), 7, 0, byte(bytecode.OpIReturn), 0, 0})
	f.Add([]byte{byte(bytecode.OpILoad), 1, 0, byte(bytecode.OpAThrow), 0, 0})
	f.Add([]byte{byte(bytecode.OpInvokeStatic), 5, 0, byte(bytecode.OpReturn), 0, 0})
	f.Add([]byte{255, 255, 255, 0, 0, 0})
	// Operand-folding edges (closure_fold_test.go has the exhaustive
	// versions): a block entered at a follower pc with its operand on the
	// real stack, a store and an iinc to a local a pending symbol names,
	// guarded micros that bail with operands still symbolic, and a loop
	// whose back edge chains.
	op := func(o bytecode.Opcode, a int32) bytecode.Instr { return bytecode.Instr{Op: o, A: a, B: a} }
	for _, prog := range [][]bytecode.Instr{
		{op(bytecode.OpIConst, 7), op(bytecode.OpILoad, 0), op(bytecode.OpIfGt, 4), op(bytecode.OpNop, 0),
			op(bytecode.OpILoad, 1), op(bytecode.OpIAdd, 0), op(bytecode.OpIReturn, 0)},
		{op(bytecode.OpILoad, 0), op(bytecode.OpIConst, 5), op(bytecode.OpIStore, 0),
			op(bytecode.OpILoad, 0), op(bytecode.OpISub, 0), op(bytecode.OpIReturn, 0)},
		{op(bytecode.OpILoad, 1), op(bytecode.OpILoad, 1), op(bytecode.OpIInc, 1), op(bytecode.OpILoad, 0),
			op(bytecode.OpIAdd, 0), op(bytecode.OpIStore, 1), op(bytecode.OpILoad, 1), op(bytecode.OpISub, 0), op(bytecode.OpIReturn, 0)},
		{op(bytecode.OpILoad, 1), op(bytecode.OpAConstNull, 0), op(bytecode.OpILoad, 0), op(bytecode.OpArrayLoad, 0),
			op(bytecode.OpIAdd, 0), op(bytecode.OpIReturn, 0)},
		{op(bytecode.OpILoad, 1), op(bytecode.OpILoad, 0), op(bytecode.OpIConst, 0), op(bytecode.OpIRem, 0),
			op(bytecode.OpIAdd, 0), op(bytecode.OpIReturn, 0)},
		{op(bytecode.OpILoad, 0), op(bytecode.OpIfLe, 5), op(bytecode.OpIInc, 1), {Op: bytecode.OpIInc, A: 0, B: -1}, op(bytecode.OpGoto, 0),
			op(bytecode.OpILoad, 1), op(bytecode.OpIReturn, 0)},
	} {
		f.Add(encodeFuzzProgram(prog))
	}
	// A field access on a receiver of an unrelated class (the verifier does
	// not type operands): `ldc "fz"; getfield inst` and its putfield twin
	// indexed the slot vector out of range and panicked the host in every
	// engine (TestFieldAccessOnUnrelatedReceiver).
	pool := fuzzHostClass(&bytecode.Code{Instrs: []bytecode.Instr{op(bytecode.OpReturn, 0)}}).Pool
	str, inst := pool.StringIndex("fz"), pool.FieldIndex("fz/Fuzz", "inst")
	f.Add(encodeFuzzProgram([]bytecode.Instr{op(bytecode.OpLdcString, str), op(bytecode.OpGetField, inst), op(bytecode.OpIReturn, 0)}))
	f.Add(encodeFuzzProgram([]bytecode.Instr{op(bytecode.OpLdcString, str), op(bytecode.OpILoad, 0), op(bytecode.OpPutField, inst),
		op(bytecode.OpILoad, 1), op(bytecode.OpIReturn, 0)}))

	f.Fuzz(func(t *testing.T, data []byte) {
		instrs := decodeFuzzProgram(data)
		if len(instrs) == 0 {
			return
		}
		// The first byte also steers an (often nonsensical) exception
		// handler; the verifier must bounds-check it, not trust it.
		var handlers []bytecode.Handler
		if data[0]&1 == 1 {
			handlers = append(handlers, bytecode.Handler{
				Start:  int32(int8(data[0] >> 1)),
				End:    int32(len(instrs)),
				Target: int32(int8(data[len(data)/2])),
			})
		}
		code := &bytecode.Code{
			Instrs:    instrs,
			Handlers:  handlers,
			MaxLocals: 16,
			MaxStack:  64,
		}
		class := fuzzHostClass(code)
		m, err := class.LookupMethod("fuzz", "(II)I")
		if err != nil {
			t.Fatal(err)
		}
		p := interp.PrepareMethodForTest(m, core.ModeIsolated) // must not panic
		if p == nil {
			return // rejected to the reference switch path: the safe outcome
		}
		// Execution-worthy code must additionally pass the structural
		// validator — every real pipeline (builder, textasm, loader) runs
		// it before code can reach either interpreter, and the checked
		// reference path sizes frames from its MaxLocals guarantee.
		if bytecode.Validate(code) != nil {
			return
		}
		// Accepted: the closure tier's unchecked fast paths must agree with
		// the checked reference interpreter.
		refV, refFail, refErr, refInstr := execFuzzProgram(t, code, newSeedVM)
		gotV, gotFail, gotErr, gotInstr := execFuzzProgram(t, code, interp.NewVM)
		if gotErr != refErr {
			t.Fatalf("host-error divergence: closure=%v seed=%v", gotErr, refErr)
		}
		if gotV != refV || gotFail != refFail || gotInstr != refInstr {
			t.Fatalf("verified-but-divergent: closure {v:%d fail:%q n:%d} seed {v:%d fail:%q n:%d}",
				gotV, gotFail, gotInstr, refV, refFail, refInstr)
		}
	})
}

// decodeFuzzProgram maps 3 bytes to one instruction: raw opcode (valid
// or not), and a small signed operand reused as slot/pool-index/branch
// target/immediate.
func decodeFuzzProgram(data []byte) []bytecode.Instr {
	n := len(data) / 3
	if n > 256 {
		n = 256
	}
	out := make([]bytecode.Instr, 0, n)
	for i := 0; i < n; i++ {
		a := int32(int8(data[i*3+1]))
		b := int32(int8(data[i*3+2]))
		out = append(out, bytecode.Instr{
			Op: bytecode.Opcode(data[i*3]),
			A:  a,
			B:  b,
			I:  int64(a),
			F:  float64(b),
		})
	}
	return out
}

// encodeFuzzProgram is decodeFuzzProgram's inverse for corpus seeding
// (operands saturate to the encodable range).
func encodeFuzzProgram(instrs []bytecode.Instr) []byte {
	clamp := func(v int32) byte {
		if v > 127 {
			v = 127
		}
		if v < -128 {
			v = -128
		}
		return byte(int8(v))
	}
	out := make([]byte, 0, len(instrs)*3)
	for _, in := range instrs {
		out = append(out, byte(in.Op), clamp(in.A), clamp(in.B))
	}
	return out
}

// fuzzHostClass wraps the fuzzed body in a class whose constant pool has
// one live entry of every kind at small indices, so fuzzed pool operands
// sometimes resolve and sometimes miss.
func fuzzHostClass(code *bytecode.Code) *classfile.Class {
	b := classfile.NewClass("fz/Fuzz").
		StaticField("sf", classfile.KindInt).
		Field("inst", classfile.KindInt).
		Method("helper", "(I)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.ILoad(0).Const(1).IAdd().IReturn()
		}).
		Method(classfile.InitName, "()V", 0, func(a *bytecode.Assembler) {
			a.ALoad(0).InvokeSpecial(classfile.ObjectClassName, classfile.InitName, "()V").Return()
		}).
		RawMethod("fuzz", "(II)I", classfile.FlagStatic, code)
	pool := b.Pool()
	pool.StringIndex("fz")
	pool.ClassIndex("fz/Fuzz")
	pool.ClassIndex("java/lang/Object")
	pool.FieldIndex("fz/Fuzz", "sf")
	pool.FieldIndex("fz/Fuzz", "inst")
	pool.MethodIndex("fz/Fuzz", "helper", "(I)I")
	pool.MethodIndex("fz/Fuzz", "fuzz", "(II)I")
	pool.MethodIndex("fz/Fuzz", classfile.InitName, "()V")
	return b.MustBuild()
}

// execFuzzProgram runs the fuzzed body in a fresh small VM built by one
// dispatch leg's constructor and reports (result, failure, host-error?,
// instructions).
func execFuzzProgram(t *testing.T, code *bytecode.Code, newVM func(interp.Options) *interp.VM) (int64, string, bool, int64) {
	t.Helper()
	vm := newVM(interp.Options{Mode: core.ModeIsolated, HeapLimit: 1 << 20, MaxThreads: 8, MaxFrameDepth: 64})
	syslib.MustInstall(vm)
	iso, err := vm.NewIsolate("main")
	if err != nil {
		t.Fatal(err)
	}
	// Each run needs a fresh class: prepared forms and resolution caches
	// are per-Code, and the two dispatch modes must not share state with
	// each other across runs.
	if err := iso.Loader().Define(fuzzHostClass(code.Clone())); err != nil {
		t.Fatal(err)
	}
	c, _ := iso.Loader().Lookup("fz/Fuzz")
	m, _ := c.LookupMethod("fuzz", "(II)I")
	th, err := vm.SpawnThread("fuzz", iso, m, []heap.Value{heap.IntVal(3), heap.IntVal(-5)})
	if err != nil {
		t.Fatal(err)
	}
	vm.RunUntil(th, 100_000)
	if th.Err() != nil {
		return 0, "", true, vm.TotalInstructions()
	}
	if !th.Done() {
		// Budget exhausted (infinite loop): compare the cut-off point.
		return -1, "budget", false, vm.TotalInstructions()
	}
	return th.Result().I, th.FailureString(), false, vm.TotalInstructions()
}
