package interp_test

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
	"ijvm/internal/syslib"
)

// runExpect builds run()I from body, executes it, and asserts the result
// or the uncaught exception class.
func runExpect(t *testing.T, body func(a *bytecode.Assembler)) (heap.Value, *interp.Thread) {
	t.Helper()
	vm, iso := newVM(t, core.ModeIsolated)
	c := define(t, iso, classfile.NewClass("edge/Main").
		Method("run", "()I", classfile.FlagStatic, body).MustBuild())
	m := findMethod(t, c, "run")
	v, th, err := vm.CallRoot(iso, m, nil, 1_000_000)
	if err != nil {
		t.Fatalf("host error: %v", err)
	}
	return v, th
}

func expectValue(t *testing.T, want int64, body func(a *bytecode.Assembler)) {
	t.Helper()
	v, th := runExpect(t, body)
	if th.Failure() != nil {
		t.Fatalf("uncaught: %s", th.FailureString())
	}
	if v.I != want {
		t.Fatalf("got %d, want %d", v.I, want)
	}
}

func expectThrow(t *testing.T, wantClass string, body func(a *bytecode.Assembler)) {
	t.Helper()
	_, th := runExpect(t, body)
	if th.Failure() == nil {
		t.Fatalf("expected %s, got normal return", wantClass)
	}
	if got := th.FailureString(); !strings.Contains(got, wantClass) {
		t.Fatalf("failure = %q, want %s", got, wantClass)
	}
}

func TestStackManipulationOps(t *testing.T) {
	// swap: 1 2 -> 2 1 -> 2 - 1 = 1... ISub computes (second-from-top -
	// top): push 1, push 2, swap -> stack [2,1]; isub -> 2-1 = 1.
	expectValue(t, 1, func(a *bytecode.Assembler) {
		a.Const(1).Const(2).Swap().ISub().IReturn()
	})
	// dup_x1: a b -> b a b. With a=5, b=3: 3 5 3; iadd -> 3, (5+3)=8;
	// imul -> 24.
	expectValue(t, 24, func(a *bytecode.Assembler) {
		a.Const(5).Const(3).DupX1().IAdd().IMul().IReturn()
	})
}

func TestArithmeticEdgeCases(t *testing.T) {
	expectThrow(t, "ArithmeticException", func(a *bytecode.Assembler) {
		a.Const(1).Const(0).IRem().IReturn()
	})
	// Shift counts are masked to 6 bits (64-bit ints).
	expectValue(t, 2, func(a *bytecode.Assembler) {
		a.Const(1).Const(65).IShl().IReturn()
	})
	// Unsigned shift of a negative value.
	expectValue(t, int64(uint64(math.MaxUint64)>>1), func(a *bytecode.Assembler) {
		a.Const(-1).Const(1).IUshr().IReturn()
	})
	// Negation and float conversion round-trip.
	expectValue(t, -7, func(a *bytecode.Assembler) {
		a.Const(7).INeg().I2F().F2I().IReturn()
	})
}

func TestFloatComparison(t *testing.T) {
	expectValue(t, -1, func(a *bytecode.Assembler) {
		a.FConst(1.5).FConst(2.5).FCmp().IReturn()
	})
	expectValue(t, 0, func(a *bytecode.Assembler) {
		a.FConst(2.5).FConst(2.5).FCmp().IReturn()
	})
	expectValue(t, 1, func(a *bytecode.Assembler) {
		a.FConst(3.5).FConst(2.5).FCmp().IReturn()
	})
}

func TestArrayEdgeCases(t *testing.T) {
	expectThrow(t, "NegativeArraySizeException", func(a *bytecode.Assembler) {
		a.Const(-1).NewArray("").Pop().Const(0).IReturn()
	})
	expectThrow(t, "ArrayIndexOutOfBoundsException", func(a *bytecode.Assembler) {
		a.Const(2).NewArray("").Const(5).ArrayLoad().Pop().Const(0).IReturn()
	})
	expectThrow(t, "ArrayIndexOutOfBoundsException", func(a *bytecode.Assembler) {
		a.Const(2).NewArray("").Const(-1).Const(0).ArrayStore().Const(0).IReturn()
	})
	expectThrow(t, "NullPointerException", func(a *bytecode.Assembler) {
		a.Null().ArrayLength().IReturn()
	})
	// arraylength on a non-array object.
	expectThrow(t, "ClassCastException", func(a *bytecode.Assembler) {
		a.New(classfile.ObjectClassName).Dup().
			InvokeSpecial(classfile.ObjectClassName, classfile.InitName, "()V")
		a.ArrayLength().IReturn()
	})
}

func TestCastsAndInstanceOf(t *testing.T) {
	// instanceof on null is 0; checkcast on null passes.
	expectValue(t, 0, func(a *bytecode.Assembler) {
		a.Null().InstanceOf(classfile.ObjectClassName).IReturn()
	})
	expectValue(t, 7, func(a *bytecode.Assembler) {
		a.Null().CheckCast("java/lang/String").Pop().Const(7).IReturn()
	})
	// A String is an Object but not an Integer.
	expectValue(t, 1, func(a *bytecode.Assembler) {
		a.Str("x").InstanceOf(classfile.ObjectClassName).IReturn()
	})
	expectThrow(t, "ClassCastException", func(a *bytecode.Assembler) {
		a.Str("x").CheckCast("java/lang/Integer").Pop().Const(0).IReturn()
	})
}

func TestMonitorIllegalStates(t *testing.T) {
	expectThrow(t, "IllegalMonitorStateException", func(a *bytecode.Assembler) {
		a.New(classfile.ObjectClassName).Dup().
			InvokeSpecial(classfile.ObjectClassName, classfile.InitName, "()V")
		a.MonitorExit().Const(0).IReturn()
	})
	expectThrow(t, "NullPointerException", func(a *bytecode.Assembler) {
		a.Null().MonitorEnter().Const(0).IReturn()
	})
	// Recursive acquisition works.
	expectValue(t, 1, func(a *bytecode.Assembler) {
		a.New(classfile.ObjectClassName).Dup().
			InvokeSpecial(classfile.ObjectClassName, classfile.InitName, "()V").AStore(0)
		a.ALoad(0).MonitorEnter()
		a.ALoad(0).MonitorEnter()
		a.ALoad(0).MonitorExit()
		a.ALoad(0).MonitorExit()
		a.Const(1).IReturn()
	})
}

func TestAThrowNull(t *testing.T) {
	expectThrow(t, "NullPointerException", func(a *bytecode.Assembler) {
		a.Null().AThrow()
	})
}

func TestNullFieldAccess(t *testing.T) {
	vm, iso := newVM(t, core.ModeIsolated)
	define(t, iso, classfile.NewClass("edge/Holder").
		Field("x", classfile.KindInt).MustBuild())
	c := define(t, iso, classfile.NewClass("edge/NullField").
		Method("run", "()I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.Null().GetField("edge/Holder", "x").IReturn()
		}).MustBuild())
	m := findMethod(t, c, "run")
	_, th, err := vm.CallRoot(iso, m, nil, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if th.Failure() == nil || !strings.Contains(th.FailureString(), "NullPointerException") {
		t.Fatalf("failure = %v", th.FailureString())
	}
}

func TestFinallyStyleHandlerNesting(t *testing.T) {
	// Inner handler catches Arithmetic, rethrows as RuntimeException;
	// outer catch-all converts to a code.
	expectValue(t, 99, func(a *bytecode.Assembler) {
		a.Label("outer")
		a.Label("inner")
		a.Const(1).Const(0).IDiv().IReturn()
		a.Label("endinner")
		a.Label("innerh")
		a.Pop()
		a.New("java/lang/RuntimeException").Dup().Str("wrapped").
			InvokeSpecial("java/lang/RuntimeException", classfile.InitName, "(Ljava/lang/String;)V")
		a.AThrow()
		a.Label("endouter")
		a.Label("outerh")
		a.Pop().Const(99).IReturn()
		a.Handler("inner", "endinner", "innerh", "java/lang/ArithmeticException")
		a.Handler("outer", "endouter", "outerh", "java/lang/RuntimeException")
	})
}

// newSeedVM builds a VM on the reference switch interpreter.
func newSeedVM(opts interp.Options) *interp.VM {
	opts.DisablePrepare = true
	return interp.NewVM(opts)
}

// engines selects each way a bytecode executes, by the constructor of its
// VM: the reference switch alone, and the default — closure blocks
// compiled at preparation and run from the first call, over the reference
// switch as their one slow path.
var engines = map[string]func(interp.Options) *interp.VM{
	"seed switch": newSeedVM,
	"closure":     interp.NewVM,
}

// TestF2ISaturates pins float-to-int conversion to the JVM's semantics in
// both engines: NaN is 0 and out-of-range values saturate, whatever
// the host CPU does with an out-of-range conversion (amd64 yields
// MinInt64 for all of them, arm64 saturates).
func TestF2ISaturates(t *testing.T) {
	cases := []struct {
		in   float64
		want int64
	}{
		{math.NaN(), 0},
		{math.Inf(1), math.MaxInt64},
		{math.Inf(-1), math.MinInt64},
		{1e30, math.MaxInt64},
		{-1e30, math.MinInt64},
		{9223372036854775808.0, math.MaxInt64}, // 2^63, the first value out of range
		{-9223372036854775808.0, math.MinInt64},
		{math.Copysign(0, -1), 0},
		{-2.75, -2},
		{1e15 + 0.5, 1e15},
	}
	for name, newVM := range engines {
		vm := newVM(interp.Options{Mode: core.ModeIsolated})
		syslib.MustInstall(vm)
		iso, err := vm.NewIsolate("main")
		if err != nil {
			t.Fatal(err)
		}
		b := classfile.NewClass("edge/F2I")
		for i, c := range cases {
			b.Method(fmt.Sprintf("c%d", i), "()I", classfile.FlagStatic, func(a *bytecode.Assembler) {
				a.FConst(c.in).F2I().IReturn()
			})
		}
		class := define(t, iso, b.MustBuild())
		for i, c := range cases {
			if got := callStatic(t, vm, iso, class, fmt.Sprintf("c%d", i)).I; got != c.want {
				t.Errorf("%s: f2i(%v) = %d, want %d", name, c.in, got, c.want)
			}
		}
	}
}

// TestHugeArrayLengthIsOutOfMemory is the §4.3 memory attack in one
// instruction: `newarray` with a length no heap admits. Admission must
// refuse it from the modelled size alone — the host never materialises
// the slots — so the guest gets OutOfMemoryError after the usual
// collect-and-retry and a neighbour isolate keeps running. Before the
// fix the slot vector was made first and the whole process died (Go's
// "out of memory" for 1<<40, a makeslice panic past MaxInt/32).
func TestHugeArrayLengthIsOutOfMemory(t *testing.T) {
	lengths := []int64{1 << 40, math.MaxInt64/32 + 1, math.MaxInt64}
	for name, newVM := range engines {
		opts := interp.Options{Mode: core.ModeIsolated, HeapLimit: 1 << 20}
		vm := newVM(opts)
		syslib.MustInstall(vm)
		attacker, err := vm.NewIsolate("attacker")
		if err != nil {
			t.Fatal(err)
		}
		neighbour, err := vm.NewIsolate("neighbour")
		if err != nil {
			t.Fatal(err)
		}
		grab := define(t, attacker, classfile.NewClass("edge/Grab").
			Method("grab", "(I)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
				a.Label("try")
				a.ILoad(0).NewArray("").Pop()
				a.Label("end")
				a.Const(0).IReturn()
				a.Label("oom")
				a.Pop().Const(1).IReturn()
				a.Handler("try", "end", "oom", interp.ClassOutOfMemoryError)
			}).MustBuild())
		work := define(t, neighbour, classfile.NewClass("edge/Work").
			Method("work", "()I", classfile.FlagStatic, func(a *bytecode.Assembler) {
				a.Const(16).NewArray("").ArrayLength().IReturn()
			}).MustBuild())
		for _, n := range lengths {
			for round := 0; round < 3; round++ {
				if got := callStatic(t, vm, attacker, grab, "grab", heap.IntVal(n)).I; got != 1 {
					t.Errorf("%s: newarray(%d) returned normally, want OutOfMemoryError", name, n)
				}
				if got := callStatic(t, vm, neighbour, work, "work").I; got != 16 {
					t.Errorf("%s: neighbour got %d after newarray(%d), want 16", name, got, n)
				}
			}
		}
		if gcs := attacker.Account().GCActivations.Load(); gcs == 0 {
			t.Errorf("%s: the refused allocations were not retried across a collection", name)
		}
		if gcs := neighbour.Account().GCActivations.Load(); gcs != 0 {
			t.Errorf("%s: %d collections charged to the neighbour", name, gcs)
		}
		objClass, err := vm.Registry().Bootstrap().Lookup(interp.ClassObject)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range lengths {
			if _, err := vm.Heap().AllocArray(objClass, int(n), attacker.ID()); !errors.Is(err, heap.ErrOutOfMemory) {
				t.Errorf("%s: Heap.AllocArray(%d) = %v, want ErrOutOfMemory", name, n, err)
			}
		}
		if used := vm.Heap().Used(); used > opts.HeapLimit {
			t.Errorf("%s: %d bytes used of %d", name, used, opts.HeapLimit)
		}
	}
}

// TestFieldAccessOnUnrelatedReceiver: bytecode is not type-checked, so
// `ldc "s"; getfield Holder.x` reaches a field access whose receiver has
// no slot at the field's index. Before the guard that indexed the host's
// slot vector out of range and took the process down from guest code, in
// every engine (§4.3: a guest must never be able to). Now it is a
// ClassCastException — the same class, message and instruction count on
// the seed switch and the closure tier, in both modes, on the
// resolving first execution and on the cached-slot ones after it, with
// the receiver a constant, a folded local and a too-short array — and a
// proper receiver still reads and writes its field. A receiver of an
// unrelated class with enough slots throws too: it neither reveals nor
// overwrites the private field at the index. So does an array of Holder
// with enough elements (an array's class is its element class), on the
// field access and through an inlined call of Holder's field getter whose
// site already cached Holder: no element is read or written as a field.
func TestFieldAccessOnUnrelatedReceiver(t *testing.T) {
	const holder, probe, other = "edge/Holder", "edge/Probe", "edge/Other"
	classes := func() []*classfile.Class {
		init := func(a *bytecode.Assembler) {
			a.ALoad(0).InvokeSpecial(classfile.ObjectClassName, classfile.InitName, "()V").Return()
		}
		return []*classfile.Class{
			classfile.NewClass(holder).
				Field("a", classfile.KindInt).Field("b", classfile.KindInt).Field("x", classfile.KindInt).
				Method(classfile.InitName, "()V", 0, init).
				Method("getX", "()I", 0, func(a *bytecode.Assembler) {
					a.ALoad(0).GetField(holder, "x").IReturn()
				}).MustBuild(),
			// Other keeps a private 4242 at Holder.x's slot.
			classfile.NewClass(other).
				Field("p", classfile.KindInt).Field("q", classfile.KindInt).Field("secret", classfile.KindInt).
				Method(classfile.InitName, "()V", 0, func(a *bytecode.Assembler) {
					a.ALoad(0).InvokeSpecial(classfile.ObjectClassName, classfile.InitName, "()V")
					a.ALoad(0).Const(4242).PutField(other, "secret").Return()
				}).MustBuild(),
			classfile.NewClass(probe).
				Method("ldcGet", "()I", classfile.FlagStatic, func(a *bytecode.Assembler) {
					a.Str("s").GetField(holder, "x").IReturn()
				}).
				Method("ldcPut", "()I", classfile.FlagStatic, func(a *bytecode.Assembler) {
					a.Str("s").Const(7).PutField(holder, "x").Const(0).IReturn()
				}).
				Method("get", "(Ljava/lang/Object;)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
					a.ALoad(0).GetField(holder, "x").Const(1).IAdd().IReturn()
				}).
				Method("put", "(Ljava/lang/Object;I)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
					a.Label("try")
					a.ALoad(0).ILoad(1).PutField(holder, "x")
					a.Label("end")
					a.ALoad(0).GetField(holder, "x").IReturn()
					a.Label("cce")
					a.Pop().Const(-1).IReturn()
					a.Handler("try", "end", "cce", interp.ClassClassCastException)
				}).
				Method("fresh", "()Ljava/lang/Object;", classfile.FlagStatic, func(a *bytecode.Assembler) {
					a.New(holder).Dup().InvokeSpecial(holder, classfile.InitName, "()V").AReturn()
				}).
				Method("short", "()Ljava/lang/Object;", classfile.FlagStatic, func(a *bytecode.Assembler) {
					a.Const(2).NewArray("").AReturn()
				}).
				Method("other", "()Ljava/lang/Object;", classfile.FlagStatic, func(a *bytecode.Assembler) {
					a.New(other).Dup().InvokeSpecial(other, classfile.InitName, "()V").AReturn()
				}).
				Method("secret", "(Ljava/lang/Object;)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
					a.ALoad(0).GetField(other, "secret").IReturn()
				}).
				// A Holder[4] whose element 2, at Holder.x's slot, is 4242.
				Method("holders", "()Ljava/lang/Object;", classfile.FlagStatic, func(a *bytecode.Assembler) {
					a.Const(4).NewArray(holder).Dup().Const(2).Const(4242).ArrayStore().AReturn()
				}).
				Method("elem", "(Ljava/lang/Object;)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
					a.ALoad(0).Const(2).ArrayLoad().IReturn()
				}).
				Method("vget", "(Ljava/lang/Object;)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
					a.ALoad(0).InvokeVirtual(holder, "getX", "()I").Const(1).IAdd().IReturn()
				}).MustBuild(),
		}
	}
	var ref []string
	var refName string
	for _, mode := range []core.Mode{core.ModeShared, core.ModeIsolated} {
		for engine, newVM := range engines {
			name := fmt.Sprintf("%s/%v", engine, mode)
			vm := newVM(interp.Options{Mode: mode})
			syslib.MustInstall(vm)
			iso, err := vm.NewIsolate("main")
			if err != nil {
				t.Fatal(err)
			}
			if err := iso.Loader().DefineAll(classes()); err != nil {
				t.Fatal(err)
			}
			c, _ := iso.Loader().Lookup(probe)
			var trace []string
			call := func(method string, args ...heap.Value) heap.Value {
				before := vm.TotalInstructions()
				v, th, err := vm.CallRoot(iso, findMethod(t, c, method), args, 100_000)
				if err != nil || th.Err() != nil {
					t.Fatalf("%s: %s: host error %v / %v", name, method, err, th.Err())
				}
				trace = append(trace, fmt.Sprintf("%s = %d %q in %d", method, v.I, th.FailureString(), vm.TotalInstructions()-before))
				return th.Result()
			}
			str, err := vm.InternString(nil, iso, "receiver")
			if err != nil {
				t.Fatal(err)
			}
			good, short, unrelated, holders := call("fresh"), call("short"), call("other"), call("holders")
			for round := 0; round < 3; round++ { // resolve, then the cached slot
				call("ldcGet")
				call("ldcPut")
				for _, recv := range []heap.Value{heap.RefVal(str), short, unrelated, holders, good} {
					call("get", recv)
					call("put", recv, heap.IntVal(int64(40+round)))
				}
				for _, recv := range []heap.Value{good, holders} {
					call("vget", recv)
				}
			}
			for _, line := range trace {
				if strings.HasPrefix(line, "get = 4243") || strings.HasPrefix(line, "put = 4242") {
					t.Fatalf("%s: %s: a Holder access reached the unrelated receiver's field", name, line)
				}
			}
			for _, line := range trace {
				if strings.Contains(line, "Exception") && !strings.Contains(line, interp.ClassClassCastException) {
					t.Fatalf("%s: %s, want a %s", name, line, interp.ClassClassCastException)
				}
			}
			if got := trace[len(trace)-3]; !strings.HasPrefix(got, `put = 42 ""`) {
				t.Fatalf("%s: a proper receiver's last put: %s", name, got)
			}
			if got, want := trace[len(trace)-1], `vget = 0 "java/lang/ClassCastException: getfield edge/Holder.x on a edge/Holder[]"`; !strings.HasPrefix(got, want) {
				t.Fatalf("%s: the getter on the Holder array: %s, want %s", name, got, want)
			}
			if v := call("secret", unrelated); v.I != 4242 {
				t.Fatalf("%s: the unrelated receiver's private field reads %d after the puts, want 4242", name, v.I)
			}
			if v := call("elem", holders); v.I != 4242 {
				t.Fatalf("%s: the Holder array's element 2 reads %d after the puts, want 4242", name, v.I)
			}
			if ref == nil {
				ref, refName = trace, name
			} else if !reflect.DeepEqual(trace, ref) {
				t.Fatalf("%s diverges from %s:\n%s\n%s", name, refName, strings.Join(trace, "\n"), strings.Join(ref, "\n"))
			}
		}
	}
	if want := `ldcGet = 0 "java/lang/ClassCastException: getfield edge/Holder.x on a java/lang/String"`; !strings.HasPrefix(ref[4], want) {
		t.Fatalf("ldcGet: %s, want %s", ref[4], want)
	}
}
