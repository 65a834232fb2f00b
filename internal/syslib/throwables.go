package syslib

import (
	"ijvm/internal/classfile"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
)

// throwableClasses builds java/lang/Throwable and the exception hierarchy
// the interpreter raises, plus I-JVM's StoppedIsolateException (which
// extends Error so that bundles catching plain Exception do not swallow
// termination by accident — only deliberately prepared bundles catching
// Throwable/StoppedIsolateException observe it, per rule 1 for bundle
// writers in §3.4).
func throwableClasses() []*classfile.Class {
	throwable := classfile.NewClass(interp.ClassThrowable)
	throwable.Field("message", classfile.KindRef)
	throwable.Method(classfile.InitName, "()V", classfile.FlagPublic, func(a *bcAsm) {
		a.ALoad(0).InvokeSpecial(classfile.ObjectClassName, classfile.InitName, "()V").Return()
	})
	throwable.Method(classfile.InitName, "(Ljava/lang/String;)V", classfile.FlagPublic, func(a *bcAsm) {
		a.ALoad(0).InvokeSpecial(classfile.ObjectClassName, classfile.InitName, "()V")
		a.ALoad(0).ALoad(1).PutField(interp.ClassThrowable, "message")
		a.Return()
	})
	throwable.Method("getMessage", "()Ljava/lang/String;", classfile.FlagPublic, func(a *bcAsm) {
		a.ALoad(0).GetField(interp.ClassThrowable, "message").AReturn()
	})
	throwable.NativeMethod("toString", "()Ljava/lang/String;", classfile.FlagPublic, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			obj, err := vm.NewStringObject(t, t.CurrentIsolateOrZero(), vmDescribe(vm, recv.R))
			if err != nil {
				return interp.NativeResult{}, err
			}
			return interp.NativeReturn(heap.RefVal(obj))
		}))

	classes := []*classfile.Class{throwable.MustBuild()}

	// subclass builds a trivial throwable subclass with the two standard
	// constructors.
	subclass := func(name, super string) *classfile.Class {
		b := classfile.NewClass(name).Super(super)
		b.Method(classfile.InitName, "()V", classfile.FlagPublic, func(a *bcAsm) {
			a.ALoad(0).InvokeSpecial(super, classfile.InitName, "()V").Return()
		})
		b.Method(classfile.InitName, "(Ljava/lang/String;)V", classfile.FlagPublic, func(a *bcAsm) {
			a.ALoad(0).ALoad(1).InvokeSpecial(super, classfile.InitName, "(Ljava/lang/String;)V").Return()
		})
		return b.MustBuild()
	}

	hierarchy := []struct{ name, super string }{
		{"java/lang/Exception", interp.ClassThrowable},
		{"java/lang/Error", interp.ClassThrowable},
		{"java/lang/RuntimeException", "java/lang/Exception"},
		{interp.ClassNullPointerException, "java/lang/RuntimeException"},
		{interp.ClassArithmeticException, "java/lang/RuntimeException"},
		{interp.ClassArrayIndexException, "java/lang/RuntimeException"},
		{interp.ClassClassCastException, "java/lang/RuntimeException"},
		{interp.ClassNegativeArraySize, "java/lang/RuntimeException"},
		{interp.ClassIllegalMonitorState, "java/lang/RuntimeException"},
		{"java/lang/IllegalStateException", "java/lang/RuntimeException"},
		{"java/lang/IllegalArgumentException", "java/lang/RuntimeException"},
		{"java/lang/SecurityException", "java/lang/RuntimeException"},
		{interp.ClassInterruptedException, "java/lang/Exception"},
		{interp.ClassOutOfMemoryError, "java/lang/Error"},
		{interp.ClassStackOverflowError, "java/lang/Error"},
		{interp.ClassStoppedIsolateException, "java/lang/Error"},
	}
	for _, h := range hierarchy {
		classes = append(classes, subclass(h.name, h.super))
	}
	return classes
}

// vmDescribe renders "Class: message".
func vmDescribe(vm *interp.VM, obj *heap.Object) string {
	msg := ""
	if f, err := obj.Class.LookupField("message"); err == nil {
		if mv := obj.Elems[f.Slot]; mv.R != nil {
			if s, ok := mv.R.StringValue(); ok {
				msg = s
			}
		}
	}
	if msg == "" {
		return obj.Class.Name
	}
	return obj.Class.Name + ": " + msg
}
