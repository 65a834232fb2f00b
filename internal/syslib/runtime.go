package syslib

import (
	"strings"

	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
)

// runtimeClass builds java/lang/Runtime. Per §3.4 rule 2, the OSGi
// runtime "must use Java permissions to deny access of privileged
// resources to bundles. For example, the JVM allows Java applications to
// run non-Java code through the use of the JNI interface or the
// Runtime.exec call. This gives a bundle the possibility to run
// unverified code that could destroy the OSGi platform."
//
// Both escape hatches are therefore permission-checked: only Isolate0
// (which holds RightShutdown, the platform-control right) may use them;
// standard bundle isolates receive SecurityException. The "execution" of
// native commands is simulated — the point of the reproduction is the
// permission boundary, not a process launcher.
func runtimeClass() *classfile.Class {
	b := classfile.NewClass("java/lang/Runtime")
	statics := classfile.FlagPublic | classfile.FlagStatic

	privileged := func(vm *interp.VM, t *interp.Thread, op string) (interp.NativeResult, bool, error) {
		iso := t.CurrentIsolateOrZero()
		if iso.Rights().Has(core.RightShutdown) {
			return interp.NativeResult{}, true, nil
		}
		res, err := interp.NativeThrowName(vm, t, "java/lang/SecurityException",
			op+" denied to bundle "+iso.Name())
		return res, false, err
	}

	// exec(cmd): returns a synthetic exit code (0) for allowed callers.
	b.NativeMethod("exec", "(Ljava/lang/String;)I", statics, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			res, ok, err := privileged(vm, t, "Runtime.exec")
			if !ok || err != nil {
				return res, err
			}
			cmd := ""
			if args[0].R != nil {
				cmd, _ = args[0].R.StringValue()
			}
			if strings.TrimSpace(cmd) == "" {
				return interp.NativeThrowName(vm, t, "java/lang/IllegalArgumentException", "empty command")
			}
			vm.AppendOutput("[runtime] exec: " + cmd + "\n")
			return interp.NativeReturn(heap.IntVal(0))
		}))

	// loadLibrary(name): the JNI entry point, same policy.
	b.NativeMethod("loadLibrary", "(Ljava/lang/String;)V", statics, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			res, ok, err := privileged(vm, t, "Runtime.loadLibrary (JNI)")
			if !ok || err != nil {
				return res, err
			}
			name := ""
			if args[0].R != nil {
				name, _ = args[0].R.StringValue()
			}
			vm.AppendOutput("[runtime] loadLibrary: " + name + "\n")
			return interp.NativeVoid()
		}))

	// freeMemory/totalMemory: harmless introspection, available to all.
	// freeMemory counts the caller's allocations up to the call.
	b.NativeMethod("freeMemory", "()I", statics, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			return interp.NativeReturn(heap.IntVal(vm.Heap().Limit() - vm.HeapUsed(t)))
		}))
	b.NativeMethod("totalMemory", "()I", statics, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			return interp.NativeReturn(heap.IntVal(vm.Heap().Limit()))
		}))

	return b.MustBuild()
}
