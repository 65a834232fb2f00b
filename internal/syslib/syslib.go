// Package syslib implements the Java System Library of the VM:
// java/lang core classes, string support, threads, throwables, simple
// collections, and the connection I/O substrate.
//
// Per the paper (§3.1), system-library code is not executed in a special
// isolate but in the isolate that called it; natives therefore charge all
// resources to the calling thread's current isolate, and system frames
// never cause thread migration.
package syslib

import (
	"errors"
	"fmt"
	"strconv"

	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
)

// bcAsm abbreviates the assembler type in method bodies.
type bcAsm = bytecode.Assembler

// Install defines the full system library into the VM's bootstrap loader.
// It must run before any isolate executes code.
func Install(vm *interp.VM) error {
	classes := []*classfile.Class{
		objectClass(),
		classClass(),
		stringClass(),
		stringBuilderClass(),
		systemClass(),
		runtimeClass(),
		mathClass(),
		integerClass(),
		threadClass(),
	}
	classes = append(classes, throwableClasses()...)
	classes = append(classes, collectionClasses()...)
	classes = append(classes, connectionClass())
	if err := vm.Registry().Bootstrap().DefineAll(classes); err != nil {
		return fmt.Errorf("syslib: %w", err)
	}
	if vm.ConnectionHostRef() == nil {
		vm.SetConnectionHost(NewMemHost())
	}
	return nil
}

// MustInstall panics on installation failure (startup-time configuration
// error).
func MustInstall(vm *interp.VM) {
	if err := Install(vm); err != nil {
		panic(err)
	}
}

// identityHash assigns (once) and returns an object's identity hash from
// the VM's deterministic counter. Assignment is a CAS: two isolates can
// race to hash a shared object under the concurrent scheduler, and the
// first published value must win so the hash stays stable.
func identityHash(vm *interp.VM, obj *heap.Object) int64 {
	if h := obj.IdentityHash(); h != 0 {
		return h
	}
	h := int64(vm.NextRand() >> 1)
	if h == 0 {
		h = 1
	}
	return obj.AssignIdentityHash(h)
}

// objectClass builds java/lang/Object.
func objectClass() *classfile.Class {
	b := classfile.NewClass(classfile.ObjectClassName)
	// The root constructor does nothing.
	b.Method(classfile.InitName, "()V", classfile.FlagPublic, func(a *bcAsm) {
		a.Return()
	})
	b.NativeMethod("hashCode", "()I", classfile.FlagPublic, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			return interp.NativeReturn(heap.IntVal(identityHash(vm, recv.R)))
		}))
	b.NativeMethod("equals", "(Ljava/lang/Object;)Z", classfile.FlagPublic, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			return interp.NativeReturn(heap.BoolVal(recv.R == args[0].R))
		}))
	b.NativeMethod("toString", "()Ljava/lang/String;", classfile.FlagPublic, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			s := recv.R.Class.Name + "@" + strconv.FormatInt(identityHash(vm, recv.R), 16)
			obj, err := vm.NewStringObject(t, t.CurrentIsolateOrZero(), s)
			if err != nil {
				return interp.NativeResult{}, err
			}
			return interp.NativeReturn(heap.RefVal(obj))
		}))
	b.NativeMethod("wait", "()V", classfile.FlagPublic, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			return waitImpl(vm, t, recv.R, 0)
		}))
	b.NativeMethod("waitTicks", "(I)V", classfile.FlagPublic, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			return waitImpl(vm, t, recv.R, args[0].I)
		}))
	b.NativeMethod("notify", "()V", classfile.FlagPublic, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			return notifyImpl(vm, t, recv.R, false)
		}))
	b.NativeMethod("notifyAll", "()V", classfile.FlagPublic, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			return notifyImpl(vm, t, recv.R, true)
		}))
	b.NativeMethod("getClass", "()Ljava/lang/Class;", classfile.FlagPublic, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			// The Class object is per-isolate in I-JVM mode: two bundles
			// observing the "same" class see distinct Class instances.
			obj, err := vm.ClassObjectFor(t, recv.R.Class, t.CurrentIsolateOrZero())
			if err != nil {
				return interp.NativeResult{}, err
			}
			return interp.NativeReturn(heap.RefVal(obj))
		}))
	return b.MustBuild()
}

func waitImpl(vm *interp.VM, t *interp.Thread, obj *heap.Object, ticks int64) (interp.NativeResult, error) {
	if obj == nil {
		return interp.NativeThrowName(vm, t, interp.ClassNullPointerException, "wait on null")
	}
	err := vm.MonitorWait(t, obj, ticks)
	if err != nil && !errors.Is(err, interp.ErrInterrupted) {
		return interp.NativeThrowName(vm, t, interp.ClassIllegalMonitorState, err.Error())
	}
	return parked(vm, t, err)
}

func notifyImpl(vm *interp.VM, t *interp.Thread, obj *heap.Object, all bool) (interp.NativeResult, error) {
	if obj == nil {
		return interp.NativeThrowName(vm, t, interp.ClassNullPointerException, "notify on null")
	}
	if err := vm.MonitorNotify(t, obj, all); err != nil {
		return interp.NativeThrowName(vm, t, interp.ClassIllegalMonitorState, err.Error())
	}
	return interp.NativeVoid()
}

// classClass builds java/lang/Class (payload: *classfile.Class).
func classClass() *classfile.Class {
	b := classfile.NewClass(interp.ClassClass)
	b.NativeMethod("getName", "()Ljava/lang/String;", classfile.FlagPublic, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			class, ok := recv.R.Native().(*classfile.Class)
			if !ok {
				return interp.NativeResult{}, fmt.Errorf("Class object without class payload")
			}
			obj, err := vm.InternString(t, t.CurrentIsolateOrZero(), class.Name)
			if err != nil {
				return interp.NativeResult{}, err
			}
			return interp.NativeReturn(heap.RefVal(obj))
		}))
	return b.MustBuild()
}

// systemClass builds java/lang/System: println/printInt (captured
// output), gc, time, exit (privileged), arraycopy.
func systemClass() *classfile.Class {
	b := classfile.NewClass("java/lang/System")
	statics := classfile.FlagPublic | classfile.FlagStatic
	b.NativeMethod("println", "(Ljava/lang/String;)V", statics, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			s := "null"
			if args[0].R != nil {
				if sv, ok := args[0].R.StringValue(); ok {
					s = sv
				} else {
					s = args[0].R.Class.Name
				}
			}
			vm.AppendOutput(s + "\n")
			return interp.NativeVoid()
		}))
	b.NativeMethod("printInt", "(I)V", statics, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			vm.AppendOutput(strconv.FormatInt(args[0].I, 10) + "\n")
			return interp.NativeVoid()
		}))
	b.NativeMethod("currentTimeMillis", "()I", statics, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			return interp.NativeReturn(heap.IntVal(vm.NowTicks() / 1000))
		}))
	b.NativeMethod("nanoTime", "()I", statics, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			return interp.NativeReturn(heap.IntVal(vm.NowTicks()))
		}))
	b.NativeMethod("gc", "()V", statics, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			vm.CollectGarbage(t.CurrentIsolateOrZero())
			return interp.NativeVoid()
		}))
	b.NativeMethod("exit", "(I)V", statics, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			// Rule 2 of §3.4: privileged resources are denied to bundles
			// by Java permissions; only Isolate0 may shut the platform
			// down.
			iso := t.CurrentIsolateOrZero()
			if !iso.Rights().Has(core.RightShutdown) {
				return interp.NativeThrowName(vm, t, "java/lang/SecurityException",
					"System.exit denied to "+iso.Name())
			}
			vm.Shutdown()
			return interp.NativeVoid()
		}))
	b.NativeMethod("arraycopy", "(Ljava/lang/Object;ILjava/lang/Object;II)V", statics, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			src, dst := args[0].R, args[2].R
			if src == nil || dst == nil {
				return interp.NativeThrowName(vm, t, interp.ClassNullPointerException, "arraycopy")
			}
			sp, dp, n := args[1].I, args[3].I, args[4].I
			if !src.IsArray() || !dst.IsArray() ||
				sp < 0 || dp < 0 || n < 0 ||
				sp+n > int64(len(src.Elems)) || dp+n > int64(len(dst.Elems)) {
				return interp.NativeThrowName(vm, t, interp.ClassArrayIndexException, "arraycopy bounds")
			}
			// A frozen destination (zero-copy RPC payload, an array a
			// snapshot shares by pointer) is memory other isolates read:
			// reject the copy before any slot is written, as every
			// array-store path does.
			if dst.Frozen() {
				return interp.NativeThrowName(vm, t, interp.ClassIllegalState, "store to frozen array")
			}
			if vm.Heap().BarrierActive() {
				// Array slots are scanned by concurrent markers: each
				// element goes through the engines' store (VM.StoreRef),
				// which records an overwritten reference unless the
				// destination is already traced. src is read plainly —
				// the executing thread is this one, and cross-thread
				// guest races on array slots are the guest's own (as in
				// the interpreter's store handlers).
				if src == dst && dp > sp {
					// memmove semantics for overlapping self-copies.
					for i := n - 1; i >= 0; i-- {
						vm.StoreRef(t, dst, &dst.Elems[dp+i], src.Elems[sp+i])
					}
				} else {
					for i := int64(0); i < n; i++ {
						vm.StoreRef(t, dst, &dst.Elems[dp+i], src.Elems[sp+i])
					}
				}
			} else {
				copy(dst.Elems[dp:dp+n], src.Elems[sp:sp+n])
			}
			return interp.NativeVoid()
		}))
	return b.MustBuild()
}

// mathClass builds java/lang/Math.
func mathClass() *classfile.Class {
	b := classfile.NewClass("java/lang/Math")
	statics := classfile.FlagPublic | classfile.FlagStatic
	b.Method("min", "(II)I", statics, func(a *bcAsm) {
		a.ILoad(0).ILoad(1).IfICmpLe("a").ILoad(1).IReturn().Label("a").ILoad(0).IReturn()
	})
	b.Method("max", "(II)I", statics, func(a *bcAsm) {
		a.ILoad(0).ILoad(1).IfICmpGe("a").ILoad(1).IReturn().Label("a").ILoad(0).IReturn()
	})
	b.Method("abs", "(I)I", statics, func(a *bcAsm) {
		a.ILoad(0).IfGe("pos").ILoad(0).INeg().IReturn().Label("pos").ILoad(0).IReturn()
	})
	b.NativeMethod("sqrt", "(F)F", statics, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			return interp.NativeReturn(heap.FloatVal(sqrt(args[0].F)))
		}))
	return b.MustBuild()
}

// sqrt is a dependency-free Newton iteration (stdlib math is fine too,
// but this keeps float behaviour identical across platforms).
func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 32; i++ {
		z = (z + x/z) / 2
	}
	return z
}

// integerClass builds java/lang/Integer (boxing for collections).
func integerClass() *classfile.Class {
	b := classfile.NewClass("java/lang/Integer")
	b.Field("value", classfile.KindInt)
	b.Method(classfile.InitName, "(I)V", classfile.FlagPublic, func(a *bcAsm) {
		a.ALoad(0).InvokeSpecial(classfile.ObjectClassName, classfile.InitName, "()V")
		a.ALoad(0).ILoad(1).PutField("java/lang/Integer", "value")
		a.Return()
	})
	b.Method("intValue", "()I", classfile.FlagPublic, func(a *bcAsm) {
		a.ALoad(0).GetField("java/lang/Integer", "value").IReturn()
	})
	b.Method("valueOf", "(I)Ljava/lang/Integer;", classfile.FlagPublic|classfile.FlagStatic, func(a *bcAsm) {
		a.New("java/lang/Integer").Dup().ILoad(0).
			InvokeSpecial("java/lang/Integer", classfile.InitName, "(I)V").AReturn()
	})
	return b.MustBuild()
}
