package interp

import (
	"ijvm/internal/core"
	"ijvm/internal/heap"
)

// NativeControl tells the interpreter how a native method completed.
type NativeControl uint8

// Native completion modes.
const (
	// NativeDone means the call finished; Value carries the result (Void
	// for void methods).
	NativeDone NativeControl = iota + 1
	// NativeThrow means the call raised the guest exception in Throw.
	NativeThrow
	// NativeBlock means the native parked the thread (sleep, wait, join,
	// blocking I/O); the staged resume on the thread delivers the result
	// when it wakes.
	NativeBlock
)

// NativeResult is the outcome of a native method call.
type NativeResult struct {
	Control NativeControl
	Value   heap.Value
	Throw   *heap.Object
}

// NativeFunc is the host implementation of a native method. recv is the
// receiver (Void for static methods); args are the declared parameters. A
// non-nil error is a host-level failure (VM defect or unsupported state)
// that aborts the thread; guest-visible failures must be returned as
// NativeThrow.
//
// Native methods execute in the caller's isolate (paper §3.1: system
// library code runs in the isolate that called it); t.CurrentIsolate()
// names the isolate to charge for any resources consumed.
type NativeFunc func(vm *VM, t *Thread, recv heap.Value, args []heap.Value) (NativeResult, error)

// NativeReturn builds a NativeDone result carrying v.
func NativeReturn(v heap.Value) (NativeResult, error) {
	return NativeResult{Control: NativeDone, Value: v}, nil
}

// NativeVoid builds a NativeDone result for void methods.
func NativeVoid() (NativeResult, error) {
	return NativeResult{Control: NativeDone, Value: heap.Void()}, nil
}

// NativeThrowName allocates an exception of the named system class with a
// message and returns a NativeThrow result.
func NativeThrowName(vm *VM, t *Thread, className, msg string) (NativeResult, error) {
	obj, err := vm.newThrowableT(t, t.cur, className, msg)
	if err != nil {
		return NativeResult{}, err
	}
	return NativeResult{Control: NativeThrow, Throw: obj}, nil
}

// NativeBlocked signals that the native already parked the thread.
func NativeBlocked() (NativeResult, error) {
	return NativeResult{Control: NativeBlock}, nil
}

// StageResumeVoid arranges for nothing to be pushed on wake (void blocking
// natives).
func (t *Thread) StageResumeVoid() {
	t.slowStep = true
	t.resumeKind = resumePushVoid
}

// StageResumeThrow arranges for obj to be thrown in the caller when the
// thread wakes (e.g. InterruptedException).
func (t *Thread) StageResumeThrow(obj *heap.Object) {
	t.slowStep = true
	t.resumeKind = resumeThrowKind
	t.resumeThrow = obj
}

// CurrentIsolateOrZero returns the current isolate, defaulting to Isolate0
// (for host-initiated calls before any frame exists).
func (t *Thread) CurrentIsolateOrZero() *core.Isolate {
	if t.cur != nil {
		return t.cur
	}
	return t.vm.world.Isolate0()
}
