package syslib_test

import (
	"strings"
	"testing"

	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
	"ijvm/internal/syslib"
)

// execProbe builds run()I: try { Runtime.exec("rm -rf /"); return 0 }
// catch SecurityException { return 1 }.
func execProbe(op, desc string) *classfile.Class {
	return classfile.NewClass("rt/Probe").
		Method("run", "()I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.Label("try")
			a.Str("payload")
			a.InvokeStatic("java/lang/Runtime", op, desc)
			if strings.HasSuffix(desc, "I") {
				a.Pop()
			}
			a.Const(0).IReturn()
			a.Label("endtry")
			a.Label("catch")
			a.Pop().Const(1).IReturn()
			a.Handler("try", "endtry", "catch", "java/lang/SecurityException")
		}).MustBuild()
}

// TestRuntimePrivilegesFollowRule2 verifies §3.4 rule 2: Runtime.exec and
// the JNI entry point are denied to bundles and permitted to Isolate0.
func TestRuntimePrivilegesFollowRule2(t *testing.T) {
	cases := []struct {
		op   string
		desc string
	}{
		{"exec", "(Ljava/lang/String;)I"},
		{"loadLibrary", "(Ljava/lang/String;)V"},
	}
	for _, tc := range cases {
		t.Run(tc.op, func(t *testing.T) {
			vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated})
			syslib.MustInstall(vm)
			runtime, err := vm.NewIsolate("runtime")
			if err != nil {
				t.Fatal(err)
			}
			bundle, err := vm.NewIsolate("bundle")
			if err != nil {
				t.Fatal(err)
			}

			// Bundle: denied.
			probe := execProbe(tc.op, tc.desc)
			if err := bundle.Loader().Define(probe); err != nil {
				t.Fatal(err)
			}
			m, _ := probe.LookupMethod("run", "()I")
			v, th, err := vm.CallRoot(bundle, m, nil, 1_000_000)
			if err != nil || th.Failure() != nil {
				t.Fatalf("%v / %s", err, th.FailureString())
			}
			if v.I != 1 {
				t.Fatalf("bundle %s not denied (run=%d)", tc.op, v.I)
			}

			// Isolate0: permitted.
			probe0 := execProbe(tc.op, tc.desc)
			// Same class name in a different loader: fine.
			if err := runtime.Loader().Define(probe0); err != nil {
				t.Fatal(err)
			}
			m0, _ := probe0.LookupMethod("run", "()I")
			v, th, err = vm.CallRoot(runtime, m0, nil, 1_000_000)
			if err != nil || th.Failure() != nil {
				t.Fatalf("%v / %s", err, th.FailureString())
			}
			if v.I != 0 {
				t.Fatalf("Isolate0 %s denied (run=%d)", tc.op, v.I)
			}
			if !strings.Contains(vm.Output(), "[runtime]") {
				t.Fatalf("privileged op left no trace: %q", vm.Output())
			}
		})
	}
}

func TestRuntimeMemoryIntrospection(t *testing.T) {
	v, _ := runSnippet(t, func(a *bytecode.Assembler) {
		a.InvokeStatic("java/lang/Runtime", "totalMemory", "()I")
		a.InvokeStatic("java/lang/Runtime", "freeMemory", "()I")
		a.ISub().IReturn() // used bytes >= 0
	})
	if v.I < 0 {
		t.Fatalf("total - free = %d, want >= 0", v.I)
	}
}

// TestFreeMemorySeesOwnAllocations: a guest that allocates and then asks
// for freeMemory in the same quantum sees the drop, byte for byte — the
// native publishes its thread's allocation domain before it reads the
// heap. Without the publish the objects sit in the domain's unpublished
// slack until the quantum ends and the drop reads 0.
func TestFreeMemorySeesOwnAllocations(t *testing.T) {
	const n = 10
	v, _ := runSnippet(t, func(a *bytecode.Assembler) {
		a.InvokeStatic("java/lang/Runtime", "freeMemory", "()I")
		for i := 0; i < n; i++ {
			a.New(interp.ClassObject).Pop()
		}
		a.InvokeStatic("java/lang/Runtime", "freeMemory", "()I")
		a.ISub().IReturn() // free before - free after
	})
	// java/lang/Object has no fields: each instance is one header.
	if want := int64(n * heap.ObjectHeaderBytes); v.I != want {
		t.Fatalf("freeMemory dropped by %d across %d allocations, want %d", v.I, n, want)
	}
}
