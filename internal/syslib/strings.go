package syslib

import (
	"fmt"
	"strconv"
	"strings"

	"ijvm/internal/classfile"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
)

// stringOf extracts the native payload of a guest string.
func stringOf(v heap.Value) (string, bool) {
	if v.R == nil {
		return "", false
	}
	return v.R.StringValue()
}

// stringClass builds java/lang/String. In I-JVM mode strings are interned
// per isolate, so reference equality (==, if_acmpeq) does not hold across
// bundles (§3.5); equals compares content and works everywhere.
func stringClass() *classfile.Class {
	b := classfile.NewClass(interp.ClassString)
	pub := classfile.FlagPublic
	b.NativeMethod("length", "()I", pub, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			s, _ := stringOf(recv)
			return interp.NativeReturn(heap.IntVal(int64(len(s))))
		}))
	b.NativeMethod("charAt", "(I)I", pub, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			s, _ := stringOf(recv)
			i := args[0].I
			if i < 0 || i >= int64(len(s)) {
				return interp.NativeThrowName(vm, t, interp.ClassArrayIndexException,
					fmt.Sprintf("string index %d of %d", i, len(s)))
			}
			return interp.NativeReturn(heap.IntVal(int64(s[i])))
		}))
	b.NativeMethod("equals", "(Ljava/lang/Object;)Z", pub, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			a, _ := stringOf(recv)
			bs, ok := stringOf(args[0])
			return interp.NativeReturn(heap.BoolVal(ok && a == bs))
		}))
	b.NativeMethod("hashCode", "()I", pub, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			s, _ := stringOf(recv)
			var h int64
			for i := 0; i < len(s); i++ {
				h = 31*h + int64(s[i])
			}
			return interp.NativeReturn(heap.IntVal(h))
		}))
	b.NativeMethod("concat", "(Ljava/lang/String;)Ljava/lang/String;", pub, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			a, _ := stringOf(recv)
			bs, _ := stringOf(args[0])
			obj, err := vm.NewStringObject(t, t.CurrentIsolateOrZero(), a+bs)
			if err != nil {
				return interp.NativeResult{}, err
			}
			return interp.NativeReturn(heap.RefVal(obj))
		}))
	b.NativeMethod("substring", "(II)Ljava/lang/String;", pub, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			s, _ := stringOf(recv)
			from, to := args[0].I, args[1].I
			if from < 0 || to > int64(len(s)) || from > to {
				return interp.NativeThrowName(vm, t, interp.ClassArrayIndexException,
					fmt.Sprintf("substring [%d,%d) of %d", from, to, len(s)))
			}
			obj, err := vm.NewStringObject(t, t.CurrentIsolateOrZero(), s[from:to])
			if err != nil {
				return interp.NativeResult{}, err
			}
			return interp.NativeReturn(heap.RefVal(obj))
		}))
	b.NativeMethod("indexOf", "(Ljava/lang/String;)I", pub, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			s, _ := stringOf(recv)
			sub, _ := stringOf(args[0])
			return interp.NativeReturn(heap.IntVal(int64(strings.Index(s, sub))))
		}))
	b.NativeMethod("startsWith", "(Ljava/lang/String;)Z", pub, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			s, _ := stringOf(recv)
			prefix, _ := stringOf(args[0])
			return interp.NativeReturn(heap.BoolVal(strings.HasPrefix(s, prefix)))
		}))
	b.NativeMethod("intern", "()Ljava/lang/String;", pub, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			// Interning goes to the *current isolate's* pool: the same
			// content interned from two bundles yields two objects.
			s, _ := stringOf(recv)
			obj, err := vm.InternString(t, t.CurrentIsolateOrZero(), s)
			if err != nil {
				return interp.NativeResult{}, err
			}
			return interp.NativeReturn(heap.RefVal(obj))
		}))
	b.NativeMethod("toString", "()Ljava/lang/String;", pub, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			return interp.NativeReturn(recv)
		}))
	return b.MustBuild()
}

// builderPayload is the native state of a StringBuilder.
type builderPayload struct {
	b strings.Builder
}

// stringBuilderClass builds java/lang/StringBuilder with append/toString.
func stringBuilderClass() *classfile.Class {
	b := classfile.NewClass("java/lang/StringBuilder")
	pub := classfile.FlagPublic
	b.NativeMethod(classfile.InitName, "()V", pub, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			recv.R.SetNative(&builderPayload{})
			return interp.NativeVoid()
		}))
	appendString := func(vm *interp.VM, t *interp.Thread, recv heap.Value, s string) (interp.NativeResult, error) {
		p, ok := recv.R.Native().(*builderPayload)
		if !ok {
			return interp.NativeThrowName(vm, t, interp.ClassNullPointerException, "uninitialized StringBuilder")
		}
		p.b.WriteString(s)
		vm.Heap().ResizeNative(recv.R, int64(p.b.Len()))
		return interp.NativeReturn(recv)
	}
	b.NativeMethod("append", "(Ljava/lang/String;)Ljava/lang/StringBuilder;", pub, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			s, _ := stringOf(args[0])
			return appendString(vm, t, recv, s)
		}))
	b.NativeMethod("appendInt", "(I)Ljava/lang/StringBuilder;", pub, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			return appendString(vm, t, recv, strconv.FormatInt(args[0].I, 10))
		}))
	b.NativeMethod("lengthOf", "()I", pub, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			p, ok := recv.R.Native().(*builderPayload)
			if !ok {
				return interp.NativeThrowName(vm, t, interp.ClassNullPointerException, "uninitialized StringBuilder")
			}
			return interp.NativeReturn(heap.IntVal(int64(p.b.Len())))
		}))
	b.NativeMethod("toString", "()Ljava/lang/String;", pub, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			p, ok := recv.R.Native().(*builderPayload)
			if !ok {
				return interp.NativeThrowName(vm, t, interp.ClassNullPointerException, "uninitialized StringBuilder")
			}
			obj, err := vm.NewStringObject(t, t.CurrentIsolateOrZero(), p.b.String())
			if err != nil {
				return interp.NativeResult{}, err
			}
			return interp.NativeReturn(heap.RefVal(obj))
		}))
	return b.MustBuild()
}
