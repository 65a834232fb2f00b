package interp_test

import (
	"fmt"
	"strings"
	"testing"

	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
	"ijvm/internal/syslib"
)

// FuzzLeafLine drives the inlined leaf call (closure.go callSite,
// compileLine) with fuzzed callee bodies at one call site. An input
// decodes into a virtual method Base.f — a body of at most 16 instructions
// in FuzzPrepareVerifier's 3-bytes-per-instruction scheme, then the return
// its descriptor needs, with 0–6 int, float and reference parameters —
// defined by a callee bundle's loader, and a caller bundle's loop that
// calls it on receivers of 1–10 classes, binding each argument from a
// local, a constant or the stack; the reference argument is null or an
// array every k-th round and an object otherwise. Each input runs on the
// seed switch (DisablePrepare) and on prepared code, in both modes, at
// sampling periods 1 and 127, and the prepared run must not panic the host
// and must agree with the seed switch on the result, the failure, and
// every isolate's instructions, CPU samples and calls in and out. After
// the loop no frame's inline scratch may hold an object the loop passed
// (InlineScratchHoldsForTest), and no site caches more than eight lines.
func FuzzLeafLine(f *testing.F) {
	i := func(op bytecode.Opcode, a int32) bytecode.Instr { return bytecode.Instr{Op: op, A: a, I: int64(a)} }
	ld, ad := bytecode.OpILoad, bytecode.OpALoad
	v, link := llFieldIndex("v"), llFieldIndex("link")
	I, F, R := classfile.KindInt, classfile.KindFloat, classfile.KindRef
	// TestLeafFormShapes' and TestLeafScratchOracle's shapes, as instance
	// methods (local 0 is the receiver, parameters start at 1).
	for _, s := range []struct {
		params []classfile.Kind
		ret    classfile.Kind
		body   []bytecode.Instr
	}{
		{[]classfile.Kind{R}, I, []bytecode.Instr{i(ad, 1), i(bytecode.OpArrayLength, 0)}},
		{[]classfile.Kind{R, R}, I, []bytecode.Instr{i(ad, 2), i(bytecode.OpAStore, 1), i(ad, 1), i(bytecode.OpArrayLength, 0)}},
		{[]classfile.Kind{R}, I, []bytecode.Instr{i(ad, 1), i(bytecode.OpAStore, 2), i(ad, 2), i(bytecode.OpArrayLength, 0)}},
		{nil, I, []bytecode.Instr{i(ad, 0), i(bytecode.OpGetField, link), i(bytecode.OpArrayLength, 0)}},
		{[]classfile.Kind{I, R}, I, []bytecode.Instr{i(ld, 1), i(ad, 0), i(bytecode.OpSwap, 0), i(bytecode.OpPop, 0), i(bytecode.OpGetField, v)}},
		{[]classfile.Kind{I, I, I, I}, I, append(llBumps(4), i(ld, 1))},
		{[]classfile.Kind{I, I, I, I, I}, I, append(llBumps(5), i(ld, 1))},
		{[]classfile.Kind{I, I, I, I}, I, append(llBumps(4), i(ld, 1), i(bytecode.OpIStore, 5), i(ld, 5))},
		{[]classfile.Kind{I, I}, I, []bytecode.Instr{i(ld, 1), i(ld, 2), i(bytecode.OpSwap, 0), i(bytecode.OpISub, 0)}},
		{[]classfile.Kind{I}, I, []bytecode.Instr{i(ld, 1), i(bytecode.OpIConst, 1), i(bytecode.OpIAdd, 0), i(ld, 1), i(bytecode.OpIMul, 0)}},
		// Fig 1's inc, Table 1's drag, a setter, an empty void leaf, and a
		// reference moved through a local of its own and dup/pop.
		{[]classfile.Kind{I}, I, []bytecode.Instr{i(ad, 0), i(ad, 0), i(bytecode.OpGetField, v), i(ld, 1), i(bytecode.OpIAdd, 0),
			i(bytecode.OpPutField, v), i(ad, 0), i(bytecode.OpGetField, v)}},
		{[]classfile.Kind{R}, I, []bytecode.Instr{i(ad, 0), i(ad, 0), i(bytecode.OpGetField, v), i(bytecode.OpIConst, 1), i(bytecode.OpIAdd, 0),
			i(ad, 1), i(bytecode.OpArrayLength, 0), i(bytecode.OpIAdd, 0), i(bytecode.OpPutField, v), i(ad, 0), i(bytecode.OpGetField, v)}},
		{[]classfile.Kind{R}, classfile.KindVoid, []bytecode.Instr{i(ad, 0), i(ad, 1), i(bytecode.OpPutField, link)}},
		{nil, classfile.KindVoid, nil},
		{[]classfile.Kind{R}, R, []bytecode.Instr{i(ad, 1), i(bytecode.OpAStore, 2), i(ad, 2), i(bytecode.OpDup, 0), i(bytecode.OpPop, 0)}},
		{[]classfile.Kind{F, I, R}, F, []bytecode.Instr{i(bytecode.OpFLoad, 1), i(ld, 2), i(bytecode.OpI2F, 0), i(bytecode.OpFMul, 0)}},
	} {
		for _, srcs := range [][]byte{{0, 0}, {0x55, 0x55}, {0xAA, 0xAA}, {0x24, 0x09}} {
			f.Add(llEncode(s.params, s.ret, srcs, 3, 4, s.body))
			f.Add(llEncode(s.params, s.ret, srcs, 10, 0x83, s.body))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in, ok := llDecode(data)
		if !ok {
			return
		}
		if bytecode.Validate(llCode(in)) != nil {
			return
		}
		for _, mode := range []core.Mode{core.ModeShared, core.ModeIsolated} {
			for _, every := range []int{1, 127} {
				want := runLeafLine(t, in, mode, every, true)
				got := runLeafLine(t, in, mode, every, false)
				if got != want {
					t.Fatalf("%v every=%d: prepared code diverges from the seed switch\n got %s\nwant %s", mode, every, got, want)
				}
			}
		}
	})
}

const (
	llBase = "ll/Base"
	llMain = "ll/Main"
	// llRecvs is how many receiver classes the callee bundle defines.
	llRecvs = 10
	// llRounds is how many calls the caller's loop makes.
	llRounds = 40
)

func llImpl(j int) string { return fmt.Sprintf("ll/Impl%d", j) }

// llInput is one decoded FuzzLeafLine input.
type llInput struct {
	params []classfile.Kind
	ret    classfile.Kind
	// src is where the caller binds each argument from: 0 a local, 1 a
	// constant, 2 the stack; recvLocal puts the receiver in a local first.
	src       []int
	recvLocal bool
	// recvs is how many receiver classes the site sees, every the period
	// of the null (or, with arr, array) reference argument.
	recvs, every int
	arr          bool
	body         []bytecode.Instr
}

// llHeader is the input's header: parameter count and return kind, two
// bytes of parameter kinds, two of argument sources, receivers, and the
// null/array period.
const llHeader = 7

func llDecode(data []byte) (llInput, bool) {
	if len(data) < llHeader {
		return llInput{}, false
	}
	kinds := [...]classfile.Kind{classfile.KindInt, classfile.KindFloat, classfile.KindRef}
	rets := [...]classfile.Kind{classfile.KindVoid, classfile.KindInt, classfile.KindFloat, classfile.KindRef}
	in := llInput{
		ret:       rets[data[0]/7%4],
		recvLocal: data[5]&0x80 != 0,
		recvs:     1 + int(data[5]&0x7F)%llRecvs,
		every:     2 + int(data[6]&0x7F)%8,
		arr:       data[6]&0x80 != 0,
	}
	kindBits := uint(data[1]) | uint(data[2])<<8
	srcBits := uint(data[3]) | uint(data[4])<<8
	for p := 0; p < int(data[0])%7; p++ {
		in.params = append(in.params, kinds[(kindBits>>(2*p)&3)%3])
		in.src = append(in.src, int(srcBits>>(2*p)&3)%3)
	}
	in.body = decodeFuzzProgram(data[llHeader:])
	if len(in.body) > 16 {
		in.body = in.body[:16]
	}
	return in, true
}

// llEncode is llDecode's inverse for corpus seeding; srcs are the two
// argument-source bytes and period the last header byte.
func llEncode(params []classfile.Kind, ret classfile.Kind, srcs []byte, recvs int, period byte, body []bytecode.Instr) []byte {
	var kindBits uint
	for p, k := range params {
		kindBits |= uint(k-classfile.KindInt) << (2 * p)
	}
	out := []byte{byte(int(ret-classfile.KindVoid)*7 + len(params)), byte(kindBits), byte(kindBits >> 8),
		srcs[0], srcs[1], byte(recvs - 1), period}
	return append(out, encodeFuzzProgram(body)...)
}

// llBumps increments parameters 1..n.
func llBumps(n int) []bytecode.Instr {
	var out []bytecode.Instr
	for k := 1; k <= n; k++ {
		out = append(out, bytecode.Instr{Op: bytecode.OpIInc, A: int32(k), B: int32(k)})
	}
	return out
}

// llDesc is f's descriptor.
func llDesc(in llInput) string {
	var b strings.Builder
	b.WriteByte('(')
	for _, k := range in.params {
		b.WriteString(llKindDesc(k))
	}
	b.WriteByte(')')
	if in.ret == classfile.KindVoid {
		b.WriteByte('V')
	} else {
		b.WriteString(llKindDesc(in.ret))
	}
	return b.String()
}

func llKindDesc(k classfile.Kind) string {
	switch k {
	case classfile.KindInt:
		return "I"
	case classfile.KindFloat:
		return "F"
	}
	return "Ljava/lang/Object;"
}

// llCode is f's code: the fuzzed body and the return f's descriptor needs.
func llCode(in llInput) *bytecode.Code {
	ret := map[classfile.Kind]bytecode.Opcode{classfile.KindVoid: bytecode.OpReturn, classfile.KindInt: bytecode.OpIReturn,
		classfile.KindFloat: bytecode.OpFReturn, classfile.KindRef: bytecode.OpAReturn}[in.ret]
	instrs := append(append([]bytecode.Instr(nil), in.body...), bytecode.Instr{Op: ret})
	return &bytecode.Code{Instrs: instrs, MaxLocals: 16, MaxStack: 64}
}

// llBaseBuilder is the callee bundle's Base before f is added: fields v
// and link, a constructor, and makers of the receivers (one of each Impl)
// and of the reference arguments (null or an int array first, then
// objects).
func llBaseBuilder(in llInput) *classfile.ClassBuilder {
	b := classfile.NewClass(llBase).
		Field("v", classfile.KindInt).
		Field("link", classfile.KindRef).
		Method(classfile.InitName, "()V", 0, func(a *bytecode.Assembler) {
			a.ALoad(0).InvokeSpecial(classfile.ObjectClassName, classfile.InitName, "()V").Return()
		}).
		Method("recvs", "()Ljava/lang/Object;", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.Const(llRecvs).NewArray("").AStore(0)
			for j := 0; j < llRecvs; j++ {
				a.ALoad(0).Const(int64(j)).New(llImpl(j)).Dup().InvokeSpecial(llImpl(j), classfile.InitName, "()V").ArrayStore()
			}
			a.ALoad(0).AReturn()
		}).
		Method("args", "()Ljava/lang/Object;", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.Const(int64(in.every)).NewArray("").AStore(0)
			if in.arr {
				a.ALoad(0).Const(0).Const(3).NewArray("").ArrayStore()
			}
			for j := 1; j < in.every; j++ {
				a.ALoad(0).Const(int64(j)).New(llImpl(j)).Dup().InvokeSpecial(llImpl(j), classfile.InitName, "()V").ArrayStore()
			}
			a.ALoad(0).AReturn()
		})
	pool := b.Pool()
	pool.FieldIndex(llBase, "v")
	pool.FieldIndex(llBase, "link")
	pool.ClassIndex(llBase)
	pool.MethodIndex(llBase, "f", llDesc(in))
	return b
}

// llFieldIndex is the pool index of Base's field name in every callee
// bundle (f's body adds no entry).
func llFieldIndex(name string) int32 {
	return llBaseBuilder(llInput{every: 2}).Pool().FieldIndex(llBase, name)
}

// llCalleeClasses is the callee bundle: Base with f, and Impl0..Impl9.
func llCalleeClasses(in llInput) []*classfile.Class {
	out := []*classfile.Class{llBaseBuilder(in).RawMethod("f", llDesc(in), 0, llCode(in)).MustBuild()}
	for j := 0; j < llRecvs; j++ {
		out = append(out, classfile.NewClass(llImpl(j)).Super(llBase).
			Method(classfile.InitName, "()V", 0, func(a *bytecode.Assembler) {
				a.ALoad(0).InvokeSpecial(llBase, classfile.InitName, "()V").Return()
			}).MustBuild())
	}
	return out
}

// llCallerClass is the caller bundle: run(recvs, args, n) calls f n times
// on recvs[i % recvs] with each argument bound as in.src says, mixes each
// result and the receiver's field v into its accumulator, catches what the
// call throws, and passes the accumulator through check, a native that
// inspects the inline scratch with the loop's frame live. The loop keeps
// its own stack shallow — no deeper than the call's operands — so an
// inlined body's pushes reach the headroom check reads.
func llCallerClass(in llInput, check interp.NativeFunc) *classfile.Class {
	const recvLocal, refLocal, tmpLocal, argLocal0 = 5, 6, 7, 8
	return classfile.NewClass(llMain).
		NativeMethod("check", "(I)I", classfile.FlagStatic, check).
		Method("run", "(Ljava/lang/Object;Ljava/lang/Object;I)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			// locals: 0=recvs 1=args 2=n 3=acc 4=i 5=recv 6=ref 7=tmp 8..=arguments
			a.Const(1).IStore(3)
			a.Const(0).IStore(4)
			a.Label("loop").ILoad(4).ILoad(2).IfICmpGe("done")
			a.ILoad(4).Const(int64(in.recvs)).IRem().IStore(tmpLocal)
			a.ALoad(0).ILoad(tmpLocal).ArrayLoad().AStore(recvLocal)
			a.ILoad(4).Const(int64(in.every)).IRem().IStore(tmpLocal)
			a.ALoad(1).ILoad(tmpLocal).ArrayLoad().AStore(refLocal)
			for p, kind := range in.params {
				switch kind {
				case classfile.KindInt:
					a.ILoad(4).Const(int64(p + 3)).IXor().IStore(argLocal0 + p)
				case classfile.KindFloat:
					a.ILoad(4).I2F().FStore(argLocal0 + p)
				default:
					a.ALoad(refLocal).AStore(argLocal0 + p)
				}
			}
			a.Label("try")
			a.ALoad(recvLocal)
			if !in.recvLocal {
				a.CheckCast(llBase) // a real stack entry
			}
			for p, src := range in.src {
				switch kind := in.params[p]; {
				case src == 1 && kind == classfile.KindInt:
					a.Const(int64(p*5 - 7))
				case src == 1 && kind == classfile.KindFloat:
					a.FConst(1.5)
				case src == 1:
					a.Null()
				case kind == classfile.KindInt:
					a.ILoad(argLocal0 + p)
					if src == 2 {
						a.INeg()
					}
				case kind == classfile.KindFloat:
					a.FLoad(argLocal0 + p)
					if src == 2 {
						a.FNeg()
					}
				default:
					a.ALoad(argLocal0 + p)
					if src == 2 {
						a.CheckCast(classfile.ObjectClassName)
					}
				}
			}
			a.InvokeVirtual(llBase, "f", llDesc(in))
			switch in.ret {
			case classfile.KindInt:
				a.ILoad(3).IAdd().IStore(3)
			case classfile.KindFloat:
				a.F2I().ILoad(3).IXor().IStore(3)
			case classfile.KindRef:
				a.IfNull("field").IInc(3, 1)
			}
			a.Label("field")
			a.ILoad(3).Const(31).IMul().ALoad(recvLocal).GetField(llBase, "v").IAdd().IStore(3)
			a.ILoad(3).Const(0xFFFFF).IAnd().IStore(3)
			a.Label("next").IInc(4, 1).Goto("loop")
			a.Label("catch").Pop().IInc(3, 7).Goto("next")
			a.Handler("try", "next", "catch", "")
			a.Label("done").ILoad(3).InvokeStatic(llMain, "check", "(I)I").IReturn()
		}).MustBuild()
}

// runLeafLine runs in's loop on the seed switch (seed) or on prepared code
// and reports the result, the failure and the accounts; on prepared code
// it fails t when the inline scratch holds an object the loop passed or a
// site caches more than eight lines.
func runLeafLine(t *testing.T, in llInput, mode core.Mode, every int, seed bool) string {
	t.Helper()
	vm := interp.NewVM(interp.Options{Mode: mode, SampleEvery: every, DisablePrepare: seed, HeapLimit: 4 << 20, MaxFrameDepth: 64})
	syslib.MustInstall(vm)
	if mode == core.ModeIsolated {
		if _, err := vm.NewIsolate("platform"); err != nil {
			t.Fatal(err)
		}
	}
	callee, err := vm.NewIsolate("callee")
	if err != nil {
		t.Fatal(err)
	}
	if err := callee.Loader().DefineAll(llCalleeClasses(in)); err != nil {
		t.Fatal(err)
	}
	caller, callerLoader := callee, vm.Registry().NewLoader("caller")
	if mode == core.ModeIsolated {
		if caller, err = vm.World().NewIsolate("caller", callerLoader); err != nil {
			t.Fatal(err)
		}
	}
	callerLoader.AddDelegate(callee.Loader())
	base, err := callee.Loader().Lookup(llBase)
	if err != nil {
		t.Fatal(err)
	}
	recvs, args := callStatic(t, vm, callee, base, "recvs"), callStatic(t, vm, callee, base, "args")
	var objs []*heap.Object
	for _, arr := range []heap.Value{recvs, args} {
		for _, e := range arr.R.Elems {
			if e.R != nil {
				objs = append(objs, e.R)
			}
		}
	}
	var held []string
	check := func(vm *interp.VM, th *interp.Thread, recv heap.Value, a []heap.Value) (interp.NativeResult, error) {
		for k, o := range objs {
			if interp.InlineScratchHoldsForTest(th, o) {
				held = append(held, fmt.Sprint(k))
			}
		}
		return interp.NativeReturn(a[0])
	}
	if err := callerLoader.DefineAll([]*classfile.Class{llCallerClass(in, check)}); err != nil {
		t.Fatal(err)
	}
	main, err := callerLoader.Lookup(llMain)
	if err != nil {
		t.Fatal(err)
	}
	run := findMethod(t, main, "run")
	v, th, err := vm.CallRoot(caller, run, []heap.Value{recvs, args, heap.IntVal(llRounds)}, 2_000_000)
	failure := ""
	if th != nil {
		failure = th.FailureString()
	}
	if len(held) > 0 {
		t.Fatalf("%v every=%d: the inline scratch holds objects %v after the loop", mode, every, held)
	}
	if p := run.Code.Prepared(); !seed && p != nil {
		for _, site := range interp.SiteLinesForTest(p) {
			var name string
			var lines, inlined int
			if _, err := fmt.Sscanf(site, "%s lines=%d inlined=%d", &name, &lines, &inlined); err != nil || lines > 8 {
				t.Fatalf("%v every=%d: site %q caches more than eight lines", mode, every, site)
			}
		}
	}
	return fmt.Sprintf("result=%d err=%v failure=%q\n%s", v.I, err, failure, accountRows(vm))
}
