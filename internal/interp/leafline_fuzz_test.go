package interp_test

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
	"ijvm/internal/sched"
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
// every isolate's instructions, CPU samples and calls in and out. The
// prepared loop also runs on sched.Run with 2 workers and must agree with
// the seed switch the same way. The caller may put a branch target inside
// the argument list, or pad the invoke to the block width cap; at a fuzzed
// round, a native the loop calls may kill the callee's isolate, or kill,
// free and rebind its loader to a new isolate, after which no call may
// enter the old one. After the loop no frame's inline scratch may hold an
// object the loop passed (InlineScratchHoldsForTest), no site caches more
// than eight lines, and the isolates' instructions sum to the run's.
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
			f.Add(llEncode(s.params, s.ret, srcs, 3, 4, 0, 0, s.body))
			f.Add(llEncode(s.params, s.ret, srcs, 10, 0x83, 0, 0, s.body))
		}
		// A kill at round 5 on a branch into the argument list, and a
		// rebinding at round 9 on an invoke at the width cap.
		mid := byte(len(s.params)/2) << 2
		f.Add(llEncode(s.params, s.ret, []byte{0x24, 0x09}, 3, 4, llKill<<6|5, mid|llBranch, s.body))
		f.Add(llEncode(s.params, s.ret, []byte{0x55, 0x55}, 10, 0x83, llRebind<<6|9, llAtCap, s.body))
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
				want, _ := runLeafLine(t, in, mode, every, 0, true)
				got, _ := runLeafLine(t, in, mode, every, 0, false)
				if got != want {
					t.Fatalf("%v every=%d: prepared code diverges from the seed switch\n got %s\nwant %s", mode, every, got, want)
				}
				// On workers a budget ends at a slice boundary, so only loops
				// that finished are compared, and each worker counts down its
				// own sampling period.
				got, done := runLeafLine(t, in, mode, every, 2, false)
				if every != 1 {
					got, want = llSamples.ReplaceAllString(got, ""), llSamples.ReplaceAllString(want, "")
				}
				if done && !strings.Contains(want, "did not finish") && got != want {
					t.Fatalf("%v every=%d: prepared code on 2 workers diverges from the seed switch\n got %s\nwant %s", mode, every, got, want)
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

// Actions on the callee's isolate at a round of the loop.
const (
	llKill   = 1 + iota // kill it
	llRebind            // kill, collect and free it, and rebind its loader
)

// Caller shapes besides the plain argument list.
const (
	llBranch = 1 + iota // a branch target between two argument pushes
	llAtCap             // the invoke padded to the block width cap
)

// llSamples matches an account row's CPU samples.
var llSamples = regexp.MustCompile(` samples=\d+`)

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
	// action (llKill, llRebind or 0) happens at round actRound, in
	// Isolated mode.
	action, actRound int
	// shape is llBranch, llAtCap or 0; a llBranch target sits before
	// argument mid.
	shape, mid int
	body       []bytecode.Instr
}

// llHeader is the input's header: parameter count and return kind, two
// bytes of parameter kinds, two of argument sources, receivers, the
// null/array period, the action and its round, and the caller's shape.
const llHeader = 9

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
		action:    int(data[7]>>6) % 3,
		actRound:  int(data[7]&0x3F) % llRounds,
		shape:     int(data[8]&3) % 3,
	}
	kindBits := uint(data[1]) | uint(data[2])<<8
	srcBits := uint(data[3]) | uint(data[4])<<8
	for p := 0; p < int(data[0])%7; p++ {
		in.params = append(in.params, kinds[(kindBits>>(2*p)&3)%3])
		in.src = append(in.src, int(srcBits>>(2*p)&3)%3)
	}
	in.mid = int(data[8]>>2) % (len(in.params) + 1)
	in.body = decodeFuzzProgram(data[llHeader:])
	if len(in.body) > 16 {
		in.body = in.body[:16]
	}
	return in, true
}

// llEncode is llDecode's inverse for corpus seeding; srcs are the two
// argument-source bytes, and period, action and shape the last three
// header bytes.
func llEncode(params []classfile.Kind, ret classfile.Kind, srcs []byte, recvs int, period, action, shape byte, body []bytecode.Instr) []byte {
	var kindBits uint
	for p, k := range params {
		kindBits |= uint(k-classfile.KindInt) << (2 * p)
	}
	out := []byte{byte(int(ret-classfile.KindVoid)*7 + len(params)), byte(kindBits), byte(kindBits >> 8),
		srcs[0], srcs[1], byte(recvs - 1), period, action, shape}
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
// and link and a constructor.
func llBaseBuilder(in llInput) *classfile.ClassBuilder {
	b := classfile.NewClass(llBase).
		Field("v", classfile.KindInt).
		Field("link", classfile.KindRef).
		Method(classfile.InitName, "()V", 0, func(a *bytecode.Assembler) {
			a.ALoad(0).InvokeSpecial(classfile.ObjectClassName, classfile.InitName, "()V").Return()
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
	return llBaseBuilder(llInput{}).Pool().FieldIndex(llBase, name)
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

// llPush is how many instructions push j of the call takes (push 0 is the
// receiver, push p+1 argument p), and whether it ends in a checkcast: no
// micro covers one, so a block starts after it (llCallerClass).
func llPush(in llInput, j int) (int, bool) {
	if j == 0 {
		if in.recvLocal {
			return 1, false
		}
		return 2, true
	}
	src := in.src[j-1]
	return 1 + src/2, src == 2 && in.params[j-1] == classfile.KindRef
}

// llCallerClass is the caller bundle: makers of the receivers (one of each
// Impl) and of the reference arguments (null or an int array first, then
// objects), all charged to the caller, and run(recvs, args, n), which
// calls f n times on recvs[i % recvs] with each argument bound as in.src
// says, mixes each result and the receiver's field v into its
// accumulator, catches what the call throws, and passes the accumulator
// through check, a native that inspects the inline scratch with the loop's
// frame live. Each round starts with a call of the native round(i). The
// loop keeps its own stack shallow — no deeper than the call's operands —
// so an inlined body's pushes reach the headroom check reads.
func llCallerClass(in llInput, check, round interp.NativeFunc) *classfile.Class {
	const recvLocal, refLocal, tmpLocal, argLocal0 = 5, 6, 7, 8
	return classfile.NewClass(llMain).
		NativeMethod("check", "(I)I", classfile.FlagStatic, check).
		NativeMethod("round", "(I)V", classfile.FlagStatic, round).
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
		}).
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
			// The instruction after an invoke or a checkcast starts a
			// block: the last one before f's invoke starts at push from,
			// and nops there put the invoke at the block width cap.
			a.ILoad(4).InvokeStatic(llMain, "round", "(I)V")
			a.Label("try")
			pushes, from, width := len(in.params)+1, 0, 0
			for j := 0; j < pushes; j++ {
				n, cast := llPush(in, j)
				if width += n; cast {
					from, width = j+1, 0
				}
			}
			for j := 0; j <= pushes; j++ {
				if in.shape == llAtCap && j == from {
					for k := width; k < interp.MaxClosureBlockForTest; k++ {
						a.Nop()
					}
				}
				if in.shape == llBranch && j == in.mid+1 {
					// Odd rounds skip a bump of the accumulator and enter
					// the argument list at "mid".
					a.ILoad(4).Const(1).IAnd().IfNe("mid").IInc(3, 1).Label("mid")
				}
				if j == pushes {
					break
				}
				if j == 0 {
					a.ALoad(recvLocal)
					if !in.recvLocal {
						a.CheckCast(llBase) // a real stack entry
					}
					continue
				}
				p := j - 1
				switch kind, src := in.params[p], in.src[p]; {
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

// runLeafLine runs in's loop on the seed switch (seed) or on prepared
// code, sequentially (workers 0) or on sched.Run with that many workers,
// and reports the result, the failure, what in.action did and the
// accounts, and whether the loop finished. It fails t when the inline
// scratch holds an object the loop passed, a site caches more than eight
// lines, a call entered the callee's old isolate after in.action, or, in
// Isolated mode, the isolates' instructions do not sum to the instructions
// run.
func runLeafLine(t *testing.T, in llInput, mode core.Mode, every, workers int, seed bool) (string, bool) {
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
	var (
		objs  []*heap.Object
		held  []string
		acted string // what the action did
		atAct string // the old isolate's account then
		freed int64  // the instructions of a freed isolate
	)
	check := func(vm *interp.VM, th *interp.Thread, recv heap.Value, a []heap.Value) (interp.NativeResult, error) {
		for k, o := range objs {
			if interp.InlineScratchHoldsForTest(th, o) {
				held = append(held, fmt.Sprint(k))
			}
		}
		return interp.NativeReturn(a[0])
	}
	oldAccount := func() string {
		s := vm.SnapshotOf(callee)
		return fmt.Sprintf("instr=%d in=%d", s.Instructions, s.InterBundleCallsIn)
	}
	round := func(vm *interp.VM, th *interp.Thread, recv heap.Value, a []heap.Value) (interp.NativeResult, error) {
		if in.action == 0 || mode != core.ModeIsolated || a[0].I != int64(in.actRound) {
			return interp.NativeVoid()
		}
		if err := vm.KillIsolate(nil, callee); err != nil {
			return interp.NativeResult{}, err
		}
		acted = "killed"
		if vm.CollectGarbage(nil); in.action == llRebind && callee.Disposed() {
			if err := vm.FreeIsolate(callee); err != nil {
				return interp.NativeResult{}, err
			}
			if _, err := vm.World().NewIsolate("reborn", callee.Loader()); err != nil {
				return interp.NativeResult{}, err
			}
			acted, freed = "rebound", vm.SnapshotOf(callee).Instructions
		}
		acted += fmt.Sprintf(" at round %d", in.actRound)
		atAct = oldAccount()
		return interp.NativeVoid()
	}
	if err := callerLoader.DefineAll([]*classfile.Class{llCallerClass(in, check, round)}); err != nil {
		t.Fatal(err)
	}
	main, err := callerLoader.Lookup(llMain)
	if err != nil {
		t.Fatal(err)
	}
	recvs, args := callStatic(t, vm, caller, main, "recvs"), callStatic(t, vm, caller, main, "args")
	for _, arr := range []heap.Value{recvs, args} {
		for _, e := range arr.R.Elems {
			if e.R != nil {
				objs = append(objs, e.R)
			}
		}
	}
	run := findMethod(t, main, "run")
	runArgs := []heap.Value{recvs, args, heap.IntVal(llRounds)}
	var (
		v        heap.Value
		th       *interp.Thread
		rows     int64
		runInstr int64
	)
	if workers == 0 {
		v, th, err = vm.CallRoot(caller, run, runArgs, 2_000_000)
		rows, runInstr = freed, vm.TotalInstructions()
		for _, s := range vm.Snapshots() {
			rows += s.Instructions
		}
	} else {
		if th, err = vm.SpawnThread("run", caller, run, runArgs); err != nil {
			t.Fatal(err)
		}
		// More budget than CallRoot's, so a loop that finished there
		// finishes here too.
		res := sched.Run(vm, workers, 2_500_000)
		if v, err = th.Result(), th.Err(); err != nil {
			v = heap.Value{}
		}
		rows = res.FreedIsolates.Instructions
		for _, ir := range res.PerIsolate {
			rows += ir.Instructions
		}
		runInstr = res.Instructions
	}
	if len(held) > 0 {
		t.Fatalf("%v every=%d workers=%d: the inline scratch holds objects %v after the loop", mode, every, workers, held)
	}
	if acted != "" && oldAccount() != atAct {
		t.Fatalf("%v every=%d workers=%d: a call entered the old callee after it was %s (%s); now %s", mode, every, workers, acted, atAct, oldAccount())
	}
	if acted != "" {
		acted += ", then " + oldAccount()
	}
	// Shared mode keeps no per-isolate account. A scheduler run has a
	// row for every isolate from its creation: the reborn callee's too.
	if mode == core.ModeIsolated && rows != runInstr {
		t.Fatalf("%v every=%d workers=%d: the isolates' rows sum to %d instructions, the run retired %d", mode, every, workers, rows, runInstr)
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
	failure := ""
	if th != nil {
		failure = th.FailureString()
	}
	return fmt.Sprintf("result=%d err=%v failure=%q acted=%q\n%s", v.I, err, failure, acted, accountRows(vm)), th != nil && th.Done()
}
