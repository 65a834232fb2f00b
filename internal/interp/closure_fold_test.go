package interp_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
	"ijvm/internal/sched"
	"ijvm/internal/syslib"
	"ijvm/internal/textasm"
	"ijvm/internal/workloads"
)

// TestPreparedFormIsPureQuickening pins the prepared form's shape: for
// every method of syslib, the shipped example programs and the SPEC
// workloads, in both isolation modes, the form holds one PInstr per
// instruction (nothing fuses or rewrites instructions), and a Code caches
// one prepared form and nothing else.
func TestPreparedFormIsPureQuickening(t *testing.T) {
	programs, err := filepath.Glob("../../examples/programs/*.jasm")
	if err != nil || len(programs) == 0 {
		t.Fatalf("example programs: %v (%d found)", err, len(programs))
	}
	for _, mode := range []core.Mode{core.ModeShared, core.ModeIsolated} {
		// One VM per class set: the example programs and SPEC workloads
		// reuse class names.
		var sets [][]*classfile.Class
		for _, file := range programs {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			classes, err := textasm.Parse(string(src))
			if err != nil {
				t.Fatalf("%s: %v", file, err)
			}
			sets = append(sets, classes)
		}
		for _, s := range workloads.SpecJVM98() {
			sets = append(sets, s.Classes())
		}
		checked := 0
		for _, set := range sets {
			vm := interp.NewVM(interp.Options{Mode: mode})
			syslib.MustInstall(vm)
			iso, err := vm.NewIsolate("main")
			if err != nil {
				t.Fatal(err)
			}
			if err := iso.Loader().DefineAll(set); err != nil {
				t.Fatal(err)
			}
			for _, c := range append(vm.Registry().Bootstrap().Classes(), iso.Loader().Classes()...) {
				for _, m := range c.Methods {
					if m.Code == nil {
						continue // native or abstract
					}
					if k := reflect.ValueOf(m.Code).Elem().FieldByName("prepared").Kind(); k != reflect.Struct {
						t.Fatalf("%s: Code's prepared cache is a %v, want one atomic pointer", m.QualifiedName(), k)
					}
					p := vm.PreparedCodeForTest(m)
					if p == nil {
						continue // unpreparable: runs on the reference switch
					}
					if m.Code.Prepared() != p {
						t.Fatalf("%s: prepared form not cached on its Code", m.QualifiedName())
					}
					if len(p.Instrs) != len(m.Code.Instrs) {
						t.Fatalf("%s: %d prepared instructions for %d", m.QualifiedName(), len(p.Instrs), len(m.Code.Instrs))
					}
					checked++
				}
			}
		}
		if checked < 100 {
			t.Fatalf("mode %v: only %d prepared methods checked", mode, checked)
		}
	}
}

// foldShape is a run of instructions the closure compiler folds into fewer
// micros, as a tiny method shape(sel, x, y, ref): sel 0 enters the run at
// its head, sel k pushes the operands instruction k expects on the real
// stack and branches to it — a block compiled from a follower pc, its
// symbol stack empty.
type foldShape struct {
	name string
	// body emits the run; instruction k carries the label "Gk". Locals:
	// 1 = x, 2 = y, 3 = ref, 4 = out.
	body func(a *bytecode.Assembler)
	// enter[k] pushes the operand stack instruction k is entered with.
	enter []func(a *bytecode.Assembler)
	// tail emits what follows the run, and defines "T" when it branches.
	tail func(a *bytecode.Assembler)
	// catch wraps the run in a catch-all handler that returns a value
	// built from the locals and the caught exception's message.
	catch bool
	// args are the (x, y, ref) triples the shape runs with; ref names one
	// of the objects foldRefs allocates. Nil selects both orders of (7, 3)
	// with the int array.
	args []foldArgs
}

type foldArgs struct {
	x, y int64
	ref  string // "arr", "frozen", "box" or "null"
}

const foldBox = "fs/Box"

// ints pushes n int constants, the operand stack of a follower entered
// where the run has only ints on the stack.
func ints(n int) func(a *bytecode.Assembler) {
	return func(a *bytecode.Assembler) {
		for i := 0; i < n; i++ {
			a.Const(int64(11 + 2*i))
		}
	}
}

func foldShapes() []foldShape {
	type asm = *bytecode.Assembler
	outTail := func(a asm) { a.ILoad(4).IReturn() }
	topTail := func(a asm) { a.IReturn() }
	brTail := func(a asm) {
		a.Const(1).IReturn()
		a.Label("T").Const(2).IReturn()
	}
	ref := func(a asm) { a.ALoad(3) }
	refX := func(a asm) { a.ALoad(3).ILoad(1) }
	refXY := func(a asm) { a.ALoad(3).ILoad(1).ILoad(2) }
	onArrays := []foldArgs{{3, 5, "arr"}, {3, 5, "null"}, {100, 5, "arr"}, {-1, 5, "arr"}}
	return []foldShape{
		// The eight runs the deleted shape table matched by hand.
		{name: "load_load_op_store", body: func(a asm) {
			a.Label("G0").ILoad(1).Label("G1").ILoad(2).Label("G2").ISub().Label("G3").IStore(4)
		}, enter: []func(asm){nil, ints(1), ints(2), ints(1)}, tail: outTail},
		{name: "load_const_op_store", body: func(a asm) {
			a.Label("G0").ILoad(1).Label("G1").Const(5).Label("G2").IShl().Label("G3").IStore(4)
		}, enter: []func(asm){nil, ints(1), ints(2), ints(1)}, tail: outTail},
		{name: "load_load_op", body: func(a asm) {
			a.Label("G0").ILoad(1).Label("G1").ILoad(2).Label("G2").IShl()
		}, enter: []func(asm){nil, ints(1), ints(2)}, tail: topTail},
		{name: "load_const_op", body: func(a asm) {
			a.Label("G0").ILoad(1).Label("G1").Const(1).Label("G2").IShr()
		}, enter: []func(asm){nil, ints(1), ints(2)}, tail: topTail},
		{name: "load_load_if_icmp", body: func(a asm) {
			a.Label("G0").ILoad(1).Label("G1").ILoad(2).Label("G2").IfICmpGt("T")
		}, enter: []func(asm){nil, ints(1), ints(2)}, tail: brTail},
		{name: "load_const_if_icmp", body: func(a asm) {
			a.Label("G0").ILoad(1).Label("G1").Const(5).Label("G2").IfICmpLt("T")
		}, enter: []func(asm){nil, ints(1), ints(2)}, tail: brTail},
		{name: "iinc_goto", body: func(a asm) {
			a.Label("G0").IInc(1, 5).Label("G1").Goto("T")
		}, enter: []func(asm){nil, nil}, tail: func(a asm) {
			a.Const(-1).IReturn() // skipped by the goto
			a.Label("T").ILoad(1).IReturn()
		}},
		{name: "const_store", body: func(a asm) {
			a.Label("G0").Const(42).Label("G1").IStore(4)
		}, enter: []func(asm){nil, ints(1)}, tail: outTail},

		// Materialisation: a store or iinc to a local a pending symbol
		// names must not be seen by that symbol.
		{name: "store_to_pending_local", body: func(a asm) {
			a.Label("G0").ILoad(1).Label("G1").Const(5).Label("G2").IStore(1)
		}, enter: []func(asm){nil, ints(1), ints(2)}, tail: func(a asm) { a.ILoad(1).ISub().IReturn() }},
		{name: "iinc_pending_local", body: func(a asm) {
			a.Label("G0").ILoad(1).Label("G1").IInc(1, 7)
		}, enter: []func(asm){nil, ints(1)}, tail: func(a asm) { a.ILoad(1).ISub().IReturn() }},
		{name: "fused_store_to_pending_local", body: func(a asm) {
			a.Label("G0").ILoad(1).Label("G1").ILoad(1).Label("G2").ILoad(2).Label("G3").IAdd().Label("G4").IStore(1)
		}, enter: []func(asm){nil, ints(1), ints(2), ints(3), ints(2)}, tail: func(a asm) { a.ILoad(1).ISub().IReturn() }},
		{name: "deep_pending", body: func(a asm) {
			a.Label("G0").ILoad(1).Label("G1").ILoad(2).Label("G2").ILoad(1).Label("G3").ILoad(2).
				Label("G4").ISub().Label("G5").IMul().Label("G6").IAdd()
		}, enter: []func(asm){nil, ints(1), ints(2), ints(3), ints(4), ints(3), ints(2)}, tail: topTail},
		{name: "stack_ops_on_symbols", body: func(a asm) {
			a.Label("G0").ILoad(1).Label("G1").ILoad(2).Label("G2").Swap().Label("G3").Dup().
				Label("G4").IMul().Label("G5").ISub()
		}, enter: []func(asm){nil, ints(1), ints(2), ints(2), ints(3), ints(2)}, tail: topTail},
		{name: "dup_x1_on_symbols", body: func(a asm) {
			a.Label("G0").ILoad(1).Label("G1").ILoad(2).Label("G2").DupX1().Label("G3").ISub().Label("G4").IAdd()
		}, enter: []func(asm){nil, ints(1), ints(2), ints(3), ints(2)}, tail: topTail},
		{name: "pop_symbol", body: func(a asm) {
			a.Label("G0").ILoad(1).Label("G1").ILoad(2).Label("G2").Pop().Label("G3").INeg()
		}, enter: []func(asm){nil, ints(1), ints(2), ints(1)}, tail: topTail},
		{name: "float_chain", body: func(a asm) {
			a.Label("G0").ILoad(1).Label("G1").I2F().Label("G2").FConst(2.5).Label("G3").FMul().
				Label("G4").FNeg().Label("G5").F2I().Label("G6").IStore(4)
		}, enter: []func(asm){nil, ints(1), ints(1), ints(2), ints(1), ints(1), ints(1)}, tail: outTail},
		{name: "fcmp_branch", body: func(a asm) {
			a.Label("G0").ILoad(1).Label("G1").I2F().Label("G2").FConst(4).Label("G3").FCmp().Label("G4").IfGt("T")
		}, enter: []func(asm){nil, ints(1), ints(1), ints(2), ints(1)}, tail: brTail},
		{name: "op_then_if", body: func(a asm) {
			a.Label("G0").ILoad(1).Label("G1").ILoad(2).Label("G2").ISub().Label("G3").IfLt("T")
		}, enter: []func(asm){nil, ints(1), ints(2), ints(1)}, tail: brTail},
		{name: "ifnull_local", body: func(a asm) {
			a.Label("G0").ALoad(3).Label("G1").IfNull("T")
		}, enter: []func(asm){nil, ref}, tail: brTail, args: []foldArgs{{7, 3, "arr"}, {7, 3, "null"}}},
		{name: "if_acmp_const_local", body: func(a asm) {
			a.Label("G0").Null().Label("G1").ALoad(3).Label("G2").IfACmpNe("T")
		}, enter: []func(asm){nil, ints(1), ints(2)}, tail: brTail, args: []foldArgs{{7, 3, "arr"}, {7, 3, "null"}}},

		// Guarded micros that bail with symbolic operands pending, inside a
		// try/catch.
		{name: "arrayload", body: func(a asm) {
			a.Label("G0").ILoad(2).Label("G1").ALoad(3).Label("G2").ILoad(1).Label("G3").ArrayLoad().
				Label("G4").IAdd().Label("G5").IStore(4)
		}, enter: []func(asm){nil, ints(1), func(a asm) { a.Const(11).ALoad(3) }, func(a asm) { a.Const(11).ALoad(3).ILoad(1) }, ints(2), ints(1)},
			tail: outTail, catch: true, args: onArrays},
		{name: "arraystore", body: func(a asm) {
			a.Label("G0").ALoad(3).Label("G1").ILoad(1).Label("G2").ILoad(2).Label("G3").ArrayStore()
		}, enter: []func(asm){nil, ref, refX, refXY},
			tail:  func(a asm) { a.ALoad(3).ILoad(1).ArrayLoad().IReturn() },
			catch: true, args: append([]foldArgs{{3, 5, "frozen"}}, onArrays...)},
		{name: "arraylength", body: func(a asm) {
			a.Label("G0").ALoad(3).Label("G1").ArrayLength().Label("G2").IStore(4)
		}, enter: []func(asm){nil, ref, ints(1)},
			tail: outTail, catch: true, args: []foldArgs{{3, 5, "arr"}, {3, 5, "null"}, {3, 5, "box"}}},
		{name: "getfield", body: func(a asm) {
			a.Label("G0").ALoad(3).Label("G1").GetField(foldBox, "v").Label("G2").ILoad(1).Label("G3").IAdd().Label("G4").IStore(4)
		}, enter: []func(asm){nil, ref, ints(1), ints(2), ints(1)},
			tail: outTail, catch: true, args: []foldArgs{{3, 5, "box"}, {3, 5, "null"}}},
		{name: "putfield", body: func(a asm) {
			a.Label("G0").ALoad(3).Label("G1").ILoad(1).Label("G2").PutField(foldBox, "v")
		}, enter: []func(asm){nil, ref, refX},
			tail:  func(a asm) { a.ALoad(3).GetField(foldBox, "v").IReturn() },
			catch: true, args: []foldArgs{{3, 5, "box"}, {3, 5, "null"}}},
		{name: "idiv", body: func(a asm) {
			a.Label("G0").ILoad(1).Label("G1").ILoad(2).Label("G2").IDiv().Label("G3").IStore(4)
		}, enter: []func(asm){nil, ints(1), func(a asm) { a.ILoad(1).ILoad(2) }, ints(1)},
			tail: outTail, catch: true, args: []foldArgs{{7, 3, "arr"}, {7, 0, "arr"}}},
		{name: "irem_const", body: func(a asm) {
			a.Label("G0").ILoad(2).Label("G1").ILoad(1).Label("G2").Const(0).Label("G3").IRem().Label("G4").IAdd()
		}, enter: []func(asm){nil, ints(1), ints(2), ints(3), ints(2)},
			tail: topTail, catch: true, args: []foldArgs{{7, 3, "arr"}}},

		// Statics: the first execution in each VM bails into fs/St's
		// <clinit> (its own putstatic runs while the class is being
		// initialized) with the pending operands materialised; later
		// executions run the micro of the leg's mode.
		{name: "getstatic_store", body: func(a asm) {
			a.Label("G0").GetStatic(foldStatics, "v").Label("G1").IStore(4)
		}, enter: []func(asm){nil, ints(1)}, tail: outTail},
		{name: "getstatic_pending", body: func(a asm) {
			a.Label("G0").ILoad(1).Label("G1").GetStatic(foldStatics, "v").Label("G2").IAdd().Label("G3").IStore(4)
		}, enter: []func(asm){nil, ints(1), ints(2), ints(1)}, tail: outTail},
		{name: "putstatic", body: func(a asm) {
			a.Label("G0").ILoad(1).Label("G1").PutStatic(foldStatics, "v")
		}, enter: []func(asm){nil, ints(1)},
			tail: func(a asm) { a.GetStatic(foldStatics, "v").ILoad(2).IAdd().IReturn() }},
	}
}

const foldStatics = "fs/St"

// staticsClass is fs/St: one int static its <clinit> sets to 21.
func staticsClass() *classfile.Class {
	return classfile.NewClass(foldStatics).StaticField("v", classfile.KindInt).
		Method(classfile.ClinitName, "()V", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.Const(21).PutStatic(foldStatics, "v").Return()
		}).MustBuild()
}

// classes builds fs/<name> with the static method shape, the Box the
// field shapes use and the St the statics shapes use. The entry dispatch (iinc sel; iload sel; iflt) jumps
// to one "Jk: pushes; goto Gk" stub per instruction of the run.
func (s foldShape) classes() []*classfile.Class {
	box := classfile.NewClass(foldBox).Field("v", classfile.KindInt).MustBuild()
	shape := classfile.NewClass("fs/"+s.name).
		Method("shape", "(IIILjava/lang/Object;)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.ReserveLocals(6)
			for k := range s.enter {
				a.IInc(0, -1).ILoad(0).IfLt(fmt.Sprintf("J%d", k))
			}
			a.Const(-7).IReturn() // sel out of range
			for k, push := range s.enter {
				a.Label(fmt.Sprintf("J%d", k))
				if push != nil {
					push(a)
				}
				a.Goto(fmt.Sprintf("G%d", k))
			}
			s.body(a)
			a.Label("end")
			s.tail(a)
			if s.catch {
				// catch (Throwable e) { return e.getMessage().hashCode() ^ x + 31*y + out }
				a.Label("catch").AStore(5)
				a.ALoad(5).InvokeVirtual(interp.ClassThrowable, "getMessage", "()Ljava/lang/String;").
					InvokeVirtual("java/lang/String", "hashCode", "()I")
				a.ILoad(1).IXor().ILoad(2).Const(31).IMul().IAdd().ILoad(4).IAdd().IReturn()
				a.Handler("G0", "end", "catch", "")
			}
		}).MustBuild()
	return []*classfile.Class{box, staticsClass(), shape}
}

// foldRun is one execution leg of the fold tests.
type foldRun struct {
	mode    core.Mode
	workers int // 0: the sequential engine; n: internal/sched with n workers
	opts    interp.Options
	// slice, when positive, runs every call in budget slices of that many
	// instructions and records the VM's instruction total after each: a
	// step that overshoots what is left of its quantum moves them.
	slice int64
}

// exec defines classes in a fresh VM and calls entry once per argument
// vector, on the leg's engine. It returns every result (a failed call
// reports its failure string's hash) and the VM's cumulative trace.
func (r foldRun) exec(t *testing.T, classes []*classfile.Class, class, method, desc string,
	argv func(refs map[string]heap.Value) [][]heap.Value) ([]int64, execTrace, *classfile.Method) {
	t.Helper()
	opts := r.opts
	opts.Mode = r.mode
	opts.SampleEvery = 3
	vm := interp.NewVM(opts)
	syslib.MustInstall(vm)
	iso, err := vm.NewIsolate("main")
	if err != nil {
		t.Fatal(err)
	}
	if err := iso.Loader().DefineAll(classes); err != nil {
		t.Fatal(err)
	}
	cls, err := iso.Loader().Lookup(class)
	if err != nil {
		t.Fatal(err)
	}
	m, err := cls.LookupMethod(method, desc)
	if err != nil {
		t.Fatal(err)
	}
	var results []int64
	var last execTrace
	for _, args := range argv(foldRefs(t, vm, iso)) {
		th, err := vm.SpawnThread("fold", iso, m, args)
		if err != nil {
			t.Fatal(err)
		}
		budget := int64(1_000_000)
		if r.slice > 0 {
			budget = r.slice
		}
		for rounds := 0; !th.Done() && rounds < 1_000_000/int(budget); rounds++ {
			if r.workers == 0 {
				vm.RunUntil(th, budget)
			} else {
				sched.RunConfig(vm, sched.Config{Workers: r.workers, Budget: budget, Target: th})
			}
			if r.slice > 0 {
				results = append(results, vm.TotalInstructions())
			}
		}
		if !th.Done() || th.Err() != nil {
			t.Fatalf("args %v: done=%v err=%v", args, th.Done(), th.Err())
		}
		v := th.Result()
		if th.Failure() != nil {
			v = heap.IntVal(int64(len(th.FailureString())) << 32)
		}
		results = append(results, v.I)
		last = traceOf(vm, v, th)
	}
	return results, last, m
}

// foldRefs allocates the reference arguments: a 16-int array, a frozen
// copy, a Box (when the class set has one) and null.
func foldRefs(t *testing.T, vm *interp.VM, iso *core.Isolate) map[string]heap.Value {
	t.Helper()
	objClass, err := vm.Registry().Bootstrap().Lookup(interp.ClassObject)
	if err != nil {
		t.Fatal(err)
	}
	refs := map[string]heap.Value{"null": heap.Null()}
	for _, name := range []string{"arr", "frozen"} {
		arr, err := vm.AllocArrayIn(nil, objClass, 16, iso)
		if err != nil {
			t.Fatal(err)
		}
		for i := range arr.Elems {
			arr.Elems[i] = heap.IntVal(int64(100 + 3*i))
		}
		refs[name] = heap.RefVal(arr)
	}
	if err := heap.Freeze(refs["frozen"].R); err != nil {
		t.Fatal(err)
	}
	if boxClass, err := iso.Loader().Lookup(foldBox); err == nil {
		box, err := vm.AllocObjectIn(nil, boxClass, iso)
		if err != nil {
			t.Fatal(err)
		}
		box.Elems[0] = heap.IntVal(21)
		refs["box"] = heap.RefVal(box)
	}
	return refs
}

// foldLegs is both isolation modes on both engines.
func foldLegs() []foldRun {
	var legs []foldRun
	for _, mode := range []core.Mode{core.ModeShared, core.ModeIsolated} {
		for _, workers := range []int{0, 1} {
			legs = append(legs, foldRun{mode: mode, workers: workers})
		}
	}
	return legs
}

// compareToSeed runs one program on the closure tier (the default engine)
// and on the reference switch with the quantum boundary — the
// quantum itself, and the budget slices a long quantum is clamped to —
// walked through every offset up to span+2, on every leg, and demands
// equal results, instruction counts at every slice end, clock, per-isolate
// accounts and CPU samples.
func compareToSeed(t *testing.T, span int, classes func() []*classfile.Class, class, method, desc string,
	argv func(refs map[string]heap.Value) [][]heap.Value) {
	t.Helper()
	type boundary struct {
		quantum int
		slice   int64
	}
	sweep := []boundary{{quantum: 1000}}
	for k := 1; k <= span+2; k++ {
		sweep = append(sweep, boundary{quantum: k}, boundary{quantum: 1000, slice: int64(k)})
	}
	for _, leg := range foldLegs() {
		for _, bd := range sweep {
			q := bd.quantum
			leg.slice = bd.slice
			name := fmt.Sprintf("mode %v workers %d quantum %d slice %d", leg.mode, leg.workers, q, bd.slice)
			leg.opts = interp.Options{Quantum: q, DisablePrepare: true}
			wantRes, want, _ := leg.exec(t, classes(), class, method, desc, argv)
			leg.opts = interp.Options{Quantum: q}
			gotRes, got, m := leg.exec(t, classes(), class, method, desc, argv)
			if !reflect.DeepEqual(gotRes, wantRes) {
				t.Fatalf("%s: results %v (closure) != %v (seed)", name, gotRes, wantRes)
			}
			assertTraceEqual(t, name, got, want)
			if folded, _, ok := interp.ClosureShapeForTest(m.Code.Prepared()); !ok || folded < 1 {
				t.Fatalf("%s: closure program (present: %v) holds %d micros covering more than one instruction", name, ok, folded)
			}
		}
	}
}

// TestClosureFoldShapes runs every fold shape on the closure tier —
// entered at its head and at each follower pc, with the quantum boundary
// walked through every offset of the run — against the reference switch.
// The guarded shapes bail with their operands still symbolic (null
// array, index out of range, frozen array, non-array, null receiver,
// zero divisor) inside a try/catch whose handler reads the locals and
// the exception's message.
func TestClosureFoldShapes(t *testing.T) {
	for _, s := range foldShapes() {
		t.Run(s.name, func(t *testing.T) {
			args := s.args
			if args == nil {
				args = []foldArgs{{7, 3, "arr"}, {3, 7, "arr"}}
			}
			argv := func(refs map[string]heap.Value) [][]heap.Value {
				var out [][]heap.Value
				for _, a := range args {
					for sel := range s.enter {
						out = append(out, []heap.Value{heap.IntVal(int64(sel)), heap.IntVal(a.x), heap.IntVal(a.y), refs[a.ref]})
					}
				}
				return out
			}
			compareToSeed(t, len(s.enter), s.classes, "fs/"+s.name, "shape", "(IIILjava/lang/Object;)I", argv)
		})
	}
}

// chainPrograms are loops whose iteration is three or more chained
// blocks: run(n, ref) with locals 0 = n, 1 = ref, 2 = acc, 3 = i.
func chainPrograms() map[string]func(a *bytecode.Assembler) {
	return map[string]func(a *bytecode.Assembler){
		// A straight-line iteration of 53 instructions, over twice the
		// block width cap: its blocks link at the cap.
		"wide": wideLoop,
		// Rule dispatch on i%3 and i&1: head block -> rule block -> "next".
		"rules": func(a *bytecode.Assembler) {
			a.Const(0).IStore(2).Const(0).IStore(3)
			a.Label("loop").ILoad(3).ILoad(0).IfICmpGe("done")
			a.ILoad(3).Const(3).IRem().IfNe("odd")
			a.ILoad(2).ILoad(3).IAdd().IStore(2)
			a.Goto("next")
			a.Label("odd").ILoad(2).Const(1).IShl().ILoad(3).IXor().IStore(2)
			a.ILoad(3).Const(1).IAnd().IfEq("next")
			a.IInc(2, 7)
			a.Label("next").IInc(3, 1).Goto("loop")
			a.Label("done").ILoad(2).IReturn()
		},
		// Array and float traffic; the guarded micros never bail.
		"array_float": func(a *bytecode.Assembler) {
			a.ReserveLocals(6)
			a.Const(0).IStore(2).Const(0).IStore(3).FConst(0).FStore(4)
			a.Label("loop").ILoad(3).ILoad(0).IfICmpGe("done")
			a.ALoad(1).ILoad(3).Const(15).IAnd().ALoad(1).ILoad(3).Const(1).IAdd().Const(15).IAnd().ArrayLoad().ILoad(3).IAdd().ArrayStore()
			a.ALoad(1).ArrayLength().ILoad(3).IfICmpLe("skip")
			a.FLoad(4).FConst(0.5).FMul().ILoad(3).I2F().FAdd().FStore(4)
			a.Goto("next")
			a.Label("skip").ILoad(2).ALoad(1).ILoad(3).Const(7).IAnd().ArrayLoad().IAdd().Const(0xFFFF).IAnd().IStore(2)
			a.Label("next").IInc(3, 1).Goto("loop")
			a.Label("done").ILoad(2).FLoad(4).F2I().IAdd().IReturn()
		},
	}
}

// wideLoop is chain program "wide": run(n, _) folds n iterations of eight
// multiply-adds over the locals.
func wideLoop(a *bytecode.Assembler) {
	a.Const(1).IStore(2).Const(0).IStore(3)
	a.Label("loop").ILoad(3).ILoad(0).IfICmpGe("done")
	for k := int64(0); k < 8; k++ {
		a.ILoad(2).ILoad(3).IMul().Const(k + 3).IAdd().IStore(2)
	}
	a.IInc(3, 1).Goto("loop")
	a.Label("done").ILoad(2).IReturn()
}

// TestWidthCapChains steps the "wide" chain program, whose iterations
// are wider than a block may be: a block cut at the width cap links to the
// block at the cap pc, so the step chains on through every iteration
// instead of ending at the cap. With a quantum far away, every step but the
// set-up's and the exit's retires the chain cap's worth of iterations.
func TestWidthCapChains(t *testing.T) {
	const n, iteration = 40, 53
	for _, mode := range []core.Mode{core.ModeShared, core.ModeIsolated} {
		vm := interp.NewVM(interp.Options{Mode: mode})
		syslib.MustInstall(vm)
		iso, err := vm.NewIsolate("wide")
		if err != nil {
			t.Fatal(err)
		}
		c := classfile.NewClass("chain/Wide").Method("run", "(ILjava/lang/Object;)I", classfile.FlagStatic, wideLoop).MustBuild()
		if err := iso.Loader().Define(c); err != nil {
			t.Fatal(err)
		}
		m := findMethod(t, c, "run")
		args := []heap.Value{heap.IntVal(n), heap.Null()}
		want := callStatic(t, vm, iso, c, "run", args...).I
		th, err := vm.SpawnThread("wide", iso, m, args)
		if err != nil {
			t.Fatal(err)
		}
		sizes, err := vm.StepSizesForTest(th, 1<<40, 1<<20)
		if err != nil || th.Result().I != want {
			t.Fatalf("%v: %v, result %d, want %d", mode, err, th.Result().I, want)
		}
		var total int64
		for i, k := range sizes {
			total += k
			if i > 0 && i < len(sizes)-1 && k < interp.MaxStepInstructionsForTest-iteration {
				t.Fatalf("%v: steps %v: step %d retires %d instructions", mode, sizes, i, k)
			}
		}
		if total != 4+n*iteration+5 {
			t.Fatalf("%v: steps %v retire %d instructions", mode, sizes, total)
		}
	}
}

// TestClosureChainAccounting runs loops whose every iteration chains
// three or more blocks — many iterations per engine step — with the
// quantum boundary walked through every offset of an iteration, in both
// modes on both engines, against the reference switch.
func TestClosureChainAccounting(t *testing.T) {
	for name, body := range chainPrograms() {
		t.Run(name, func(t *testing.T) {
			classes := func() []*classfile.Class {
				return []*classfile.Class{classfile.NewClass("chain/Main").
					Method("run", "(ILjava/lang/Object;)I", classfile.FlagStatic, body).MustBuild()}
			}
			argv := func(refs map[string]heap.Value) [][]heap.Value {
				return [][]heap.Value{{heap.IntVal(40), refs["arr"]}, {heap.IntVal(3), refs["arr"]}}
			}
			const longestIteration = 34 // array_float through "skip"
			compareToSeed(t, longestIteration, classes, "chain/Main", "run", "(ILjava/lang/Object;)I", argv)
		})
	}
}

// The classes of TestStaticMicros: st/C's <clinit> sets x and sums
// 0..stLoop-1 into sum in a static loop; st/Slow's <clinit> sleeps before
// it sets y; st/Use holds the accessors.
const (
	stC, stSlow, stUse = "st/C", "st/Slow", "st/Use"
	stLoop             = 400
)

func stClasses() []*classfile.Class {
	static := classfile.FlagStatic
	c := classfile.NewClass(stC).StaticField("x", classfile.KindInt).StaticField("sum", classfile.KindInt).
		Method(classfile.ClinitName, "()V", static, func(a *bytecode.Assembler) {
			a.Const(40).PutStatic(stC, "x")
			a.Const(0).IStore(0)
			a.Label("loop").ILoad(0).Const(stLoop).IfICmpGe("done")
			a.GetStatic(stC, "sum").ILoad(0).IAdd().PutStatic(stC, "sum")
			a.IInc(0, 1).Goto("loop")
			a.Label("done").Return()
		}).MustBuild()
	slow := classfile.NewClass(stSlow).StaticField("y", classfile.KindInt).
		Method(classfile.ClinitName, "()V", static, func(a *bytecode.Assembler) {
			a.Const(50).InvokeStatic(interp.ClassThread, "sleep", "(I)V")
			a.Const(7).PutStatic(stSlow, "y").Return()
		}).MustBuild()
	use := classfile.NewClass(stUse).
		Method("first", "(I)I", static, func(a *bytecode.Assembler) {
			a.ILoad(0).Const(2).GetStatic(stC, "x").IAdd().IMul().IReturn()
		}).
		Method("bump", "(I)I", static, func(a *bytecode.Assembler) {
			a.Const(0).IStore(1)
			a.Label("loop").ILoad(1).ILoad(0).IfICmpGe("done")
			a.GetStatic(stC, "x").ILoad(1).IXor().PutStatic(stC, "x")
			a.IInc(1, 1).Goto("loop")
			a.Label("done").GetStatic(stC, "x").IReturn()
		}).
		Method("slowY", "()I", static, func(a *bytecode.Assembler) {
			a.GetStatic(stSlow, "y").IReturn()
		}).
		Method("slowPlus", "(I)I", static, func(a *bytecode.Assembler) {
			a.ILoad(0).GetStatic(stSlow, "y").IAdd().IReturn()
		}).MustBuild()
	return []*classfile.Class{c, slow, use}
}

// stVM defines stClasses in a fresh VM of the given engine and mode.
func stVM(t *testing.T, newVM func(interp.Options) *interp.VM, mode core.Mode) (*interp.VM, *core.Isolate, *classfile.Class) {
	t.Helper()
	vm := newVM(interp.Options{Mode: mode})
	syslib.MustInstall(vm)
	iso, err := vm.NewIsolate("main")
	if err != nil {
		t.Fatal(err)
	}
	if err := iso.Loader().DefineAll(stClasses()); err != nil {
		t.Fatal(err)
	}
	use, err := iso.Loader().Lookup(stUse)
	if err != nil {
		t.Fatal(err)
	}
	return vm, iso, use
}

// TestStaticMicros pins the statics micros of both modes on the step
// level: a first access bails with the frame exact and <clinit> pushed; a
// static loop inside <clinit> (the class is being initialized by the
// accessing thread) and one after it run as chained compiled steps — the
// Shared one through the mirror the pool entry caches; and an access
// while another thread runs the <clinit> bails, waits, and reads the
// initialized value, with results, instruction totals and clock equal on
// the seed switch and the closure blocks.
func TestStaticMicros(t *testing.T) {
	spawn := func(t *testing.T, vm *interp.VM, iso *core.Isolate, c *classfile.Class, name string, args ...heap.Value) *interp.Thread {
		t.Helper()
		th, err := vm.SpawnThread(name, iso, findMethod(t, c, name), args)
		if err != nil {
			t.Fatal(err)
		}
		return th
	}
	// chained runs th to completion one engine step at a time and fails
	// unless the steps retired at least 32 instructions each on average
	// (single-stepping after a bail retires a handful).
	chained := func(t *testing.T, vm *interp.VM, th *interp.Thread, what string) {
		t.Helper()
		sizes, err := vm.StepSizesForTest(th, 1<<40, 1<<20)
		if err != nil || !th.Done() {
			t.Fatalf("%s: err %v, done %v", what, err, th.Done())
		}
		var retired int64
		for _, s := range sizes {
			retired += s
		}
		if int64(len(sizes))*32 > retired {
			t.Fatalf("%s: %d instructions in %d engine steps, want compiled chains", what, retired, len(sizes))
		}
	}
	for _, mode := range []core.Mode{core.ModeShared, core.ModeIsolated} {
		t.Run(mode.String(), func(t *testing.T) {
			vm, iso, use := stVM(t, interp.NewVM, mode)
			c, err := iso.Loader().Lookup(stC)
			if err != nil {
				t.Fatal(err)
			}

			// A first access: the block materialises iload/iconst, the
			// getstatic micro bails, and the switch pushes <clinit>.
			th := spawn(t, vm, iso, use, "first", heap.IntVal(5))
			sizes, err := vm.StepSizesForTest(th, 1<<40, 1)
			if err != nil || !reflect.DeepEqual(sizes, []int64{3}) {
				t.Fatalf("first step: sizes %v, err %v; want one step of 3 instructions", sizes, err)
			}
			frames := interp.FramesForTest(th)
			want := []interp.FrameForTest{
				{Method: findMethod(t, use, "first").QualifiedName(), PC: 2, Stack: []heap.Value{heap.IntVal(5), heap.IntVal(2)}},
				{Method: c.Clinit.QualifiedName(), PC: 0},
			}
			if !reflect.DeepEqual(frames, want) {
				t.Fatalf("frames after the bail:\n got %+v\nwant %+v", frames, want)
			}
			// The <clinit> loop, then the re-executed access.
			chained(t, vm, th, "<clinit> static loop")
			if got := th.Result().I; got != 5*42 {
				t.Fatalf("first(5) = %d, want %d", got, 5*42)
			}
			if got := vm.World().Mirror(c, iso).Statics[1].I; got != stLoop*(stLoop-1)/2 {
				t.Fatalf("sum = %d after <clinit>", got)
			}

			// After initialization: a read-modify-write loop.
			th = spawn(t, vm, iso, use, "bump", heap.IntVal(1000))
			chained(t, vm, th, "static loop")
			x := int64(40)
			for i := int64(0); i < 1000; i++ {
				x ^= i
			}
			if got := th.Result().I; got != x {
				t.Fatalf("bump(1000) = %d, want %d", got, x)
			}
		})
	}

	// <clinit> running in another thread: whichever of the two threads
	// reaches st/Slow second finds it InitRunning under the other, bails
	// and retries until the initializer has slept and set y.
	var ref, refName string
	for _, mode := range []core.Mode{core.ModeShared, core.ModeIsolated} {
		for engine, newVM := range engines {
			name := fmt.Sprintf("%s/%v", engine, mode)
			vm, iso, use := stVM(t, newVM, mode)
			a := spawn(t, vm, iso, use, "slowY")
			b := spawn(t, vm, iso, use, "slowPlus", heap.IntVal(10))
			if res := vm.Run(1_000_000); !res.AllDone {
				t.Fatalf("%s: run %+v", name, res)
			}
			if a.Result().I != 7 || b.Result().I != 17 {
				t.Fatalf("%s: slowY %d, slowPlus(10) %d; want 7 and 17", name, a.Result().I, b.Result().I)
			}
			trace := fmt.Sprintf("%d instructions, clock %d", vm.TotalInstructions(), vm.Clock())
			if ref == "" {
				ref, refName = trace, name
			} else if trace != ref {
				t.Fatalf("%s: %s; %s: %s", name, trace, refName, ref)
			}
		}
	}
}
