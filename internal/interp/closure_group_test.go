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
	"ijvm/internal/syslib"
	"ijvm/internal/textasm"
	"ijvm/internal/workloads"
)

// TestPreparedFormIsPureQuickening pins the prepared form's shape: for
// every method of syslib, the shipped example programs and the SPEC
// workloads, in both isolation modes, each PInstr's handler index is its
// instruction's opcode (nothing rewrites heads), and a Code caches one
// prepared form per mode and nothing else.
func TestPreparedFormIsPureQuickening(t *testing.T) {
	programs, err := filepath.Glob("../../examples/programs/*.jasm")
	if err != nil || len(programs) == 0 {
		t.Fatalf("example programs: %v (%d found)", err, len(programs))
	}
	for _, mode := range []core.Mode{core.ModeShared, core.ModeIsolated} {
		pm := bytecode.PModeShared
		if mode == core.ModeIsolated {
			pm = bytecode.PModeIsolated
		}
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
					if n := reflect.ValueOf(m.Code).Elem().FieldByName("prepared").Len(); n != bytecode.NumPModes {
						t.Fatalf("%s: Code caches %d prepared forms, want %d", m.QualifiedName(), n, bytecode.NumPModes)
					}
					p := vm.PreparedCodeForTest(m)
					if p == nil {
						continue // unpreparable: runs on the reference switch
					}
					if m.Code.Prepared(pm) != p {
						t.Fatalf("%s: prepared form not cached under mode index %d", m.QualifiedName(), pm)
					}
					for pc := range p.Instrs {
						if p.Instrs[pc].H != uint8(m.Code.Instrs[pc].Op) {
							t.Fatalf("%s pc %d: H = %d, opcode %s = %d", m.QualifiedName(), pc,
								p.Instrs[pc].H, m.Code.Instrs[pc].Op, uint8(m.Code.Instrs[pc].Op))
						}
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

// groupShape is one of the closure compiler's group shapes as a tiny
// method shape(sel, x, y): sel 0 enters the group at its head, sel k
// pushes depth[k] ints and branches to the group's k-th instruction.
type groupShape struct {
	name string
	// group emits the shape's instructions in order; instruction k must
	// carry the label "Gk". Locals: 1 = x, 2 = y, 3 = out.
	group func(a *bytecode.Assembler)
	// depth[k] is the operand-stack depth on entry to instruction k.
	depth []int
	// tail emits what follows the group: it must not start another
	// shape, and defines "T" when the group branches.
	tail func(a *bytecode.Assembler)
}

func groupShapes() []groupShape {
	outTail := func(a *bytecode.Assembler) { a.ILoad(3).IReturn() }
	topTail := func(a *bytecode.Assembler) { a.IReturn() }
	brTail := func(a *bytecode.Assembler) {
		a.Const(1).IReturn()
		a.Label("T").Const(2).IReturn()
	}
	return []groupShape{
		{"load_load_op_store", func(a *bytecode.Assembler) {
			a.Label("G0").ILoad(1).Label("G1").ILoad(2).Label("G2").ISub().Label("G3").IStore(3)
		}, []int{0, 1, 2, 1}, outTail},
		{"load_const_op_store", func(a *bytecode.Assembler) {
			a.Label("G0").ILoad(1).Label("G1").Const(5).Label("G2").IShl().Label("G3").IStore(3)
		}, []int{0, 1, 2, 1}, outTail},
		{"load_load_op", func(a *bytecode.Assembler) {
			a.Label("G0").ILoad(1).Label("G1").ILoad(2).Label("G2").IShl()
		}, []int{0, 1, 2}, topTail},
		{"load_const_op", func(a *bytecode.Assembler) {
			a.Label("G0").ILoad(1).Label("G1").Const(1).Label("G2").IShr()
		}, []int{0, 1, 2}, topTail},
		{"load_load_if_icmp", func(a *bytecode.Assembler) {
			a.Label("G0").ILoad(1).Label("G1").ILoad(2).Label("G2").IfICmpGt("T")
		}, []int{0, 1, 2}, brTail},
		{"load_const_if_icmp", func(a *bytecode.Assembler) {
			a.Label("G0").ILoad(1).Label("G1").Const(5).Label("G2").IfICmpLt("T")
		}, []int{0, 1, 2}, brTail},
		{"iinc_goto", func(a *bytecode.Assembler) {
			a.Label("G0").IInc(1, 5).Label("G1").Goto("T")
		}, []int{0, 0}, func(a *bytecode.Assembler) {
			a.Const(-1).IReturn() // skipped by the goto
			a.Label("T").ILoad(1).IReturn()
		}},
		{"const_store", func(a *bytecode.Assembler) {
			a.Label("G0").Const(42).Label("G1").IStore(3)
		}, []int{0, 1}, outTail},
	}
}

// class builds gs/<name> with the static method shape(III)I. The entry
// dispatch (iinc sel; iload sel; iflt) and the operand pushes are built
// from instruction runs that match no group shape, so the promoted
// program holds exactly the one group under test.
func (s groupShape) class() *classfile.Class {
	return classfile.NewClass("gs/"+s.name).
		Method("shape", "(III)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			for k := range s.depth {
				a.IInc(0, -1).ILoad(0).IfLt(fmt.Sprintf("J%d", k))
			}
			a.Const(-7).IReturn() // sel out of range
			for k, d := range s.depth {
				a.Label(fmt.Sprintf("J%d", k))
				for i := 0; i < d; i++ {
					a.Const(int64(11 + 2*i))
				}
				a.Goto(fmt.Sprintf("G%d", k))
			}
			s.group(a)
			s.tail(a)
		}).MustBuild()
}

// TestClosureGroupShapes runs every group shape on the closure tier —
// entered at its head and at each follower pc, with the quantum boundary
// walked through every offset of the group — and demands the reference
// switch's results, instruction counts, clock and CPU samples.
func TestClosureGroupShapes(t *testing.T) {
	run := func(t *testing.T, s groupShape, opts interp.Options) ([]int64, execTrace, *classfile.Method) {
		t.Helper()
		opts.Mode = core.ModeIsolated
		opts.SampleEvery = 3
		vm := interp.NewVM(opts)
		syslib.MustInstall(vm)
		iso, err := vm.NewIsolate("main")
		if err != nil {
			t.Fatal(err)
		}
		if err := iso.Loader().Define(s.class()); err != nil {
			t.Fatal(err)
		}
		cls, err := iso.Loader().Lookup("gs/" + s.name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := cls.LookupMethod("shape", "(III)I")
		if err != nil {
			t.Fatal(err)
		}
		var results []int64
		var last execTrace
		// Both branch outcomes of the compare shapes: (7, 3) and (3, 7).
		for _, xy := range [][2]int64{{7, 3}, {3, 7}} {
			for sel := range s.depth {
				args := []heap.Value{heap.IntVal(int64(sel)), heap.IntVal(xy[0]), heap.IntVal(xy[1])}
				v, th, err := vm.CallRoot(iso, m, args, 10_000)
				if err != nil || th.Failure() != nil {
					t.Fatalf("sel %d: %v / %s", sel, err, th.FailureString())
				}
				if v.I == -7 {
					t.Fatalf("sel %d never reached the group", sel)
				}
				results = append(results, v.I)
				last = traceOf(vm, v, th)
			}
		}
		return results, last, m
	}
	for _, s := range groupShapes() {
		t.Run(s.name, func(t *testing.T) {
			width := len(s.depth)
			quanta := []int{1000}
			for q := 1; q <= width+2; q++ {
				quanta = append(quanta, q)
			}
			for _, q := range quanta {
				wantRes, want, _ := run(t, s, interp.Options{Quantum: q, DisablePrepare: true})
				gotRes, got, m := run(t, s, interp.Options{Quantum: q, TierPromoteThreshold: 1})
				if !reflect.DeepEqual(gotRes, wantRes) {
					t.Fatalf("quantum %d: results %v (closure) != %v (seed)", q, gotRes, wantRes)
				}
				assertTraceEqual(t, fmt.Sprintf("quantum %d", q), got, want)
				if n := interp.CombinedMicrosForTest(m.Code.Prepared(bytecode.PModeIsolated)); n != 1 {
					t.Fatalf("quantum %d: closure program holds %d combined micros, want exactly the shape under test", q, n)
				}
			}
		})
	}
}
