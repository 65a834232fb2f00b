package syslib

import (
	"errors"

	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
)

// threadPayload is the native backref from a guest Thread object to its VM
// thread.
type threadPayload struct {
	thread *interp.Thread
	// target is the object whose run() the thread executes (the Thread
	// itself when subclassed).
	target *heap.Object
}

// Refs keeps the target reachable through the Thread object.
func (p *threadPayload) Refs() []*heap.Object {
	if p.target != nil {
		return []*heap.Object{p.target}
	}
	return nil
}

var _ heap.RefHolder = (*threadPayload)(nil)

// parked ends a blocking native whose park returned err: the thread
// parked, or it had an interrupt pending and throws InterruptedException
// instead (interp.ErrInterrupted).
func parked(vm *interp.VM, t *interp.Thread, err error) (interp.NativeResult, error) {
	if errors.Is(err, interp.ErrInterrupted) {
		return interp.NativeThrowName(vm, t, interp.ClassInterruptedException, "interrupted")
	}
	return interp.NativeBlocked()
}

// threadClass builds java/lang/Thread. Threads run the run()V method of
// their target (or of the Thread subclass itself). Thread creation is
// charged to the creating isolate (§3.2: "threads are charged to their
// creator, but may execute code from any isolate via inter-bundle calls").
func threadClass() *classfile.Class {
	b := classfile.NewClass(interp.ClassThread)
	pub := classfile.FlagPublic
	statics := pub | classfile.FlagStatic

	b.NativeMethod(classfile.InitName, "()V", pub, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			recv.R.SetNative(&threadPayload{target: recv.R})
			return interp.NativeVoid()
		}))
	b.NativeMethod(classfile.InitName, "(Ljava/lang/Object;)V", pub, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			target := args[0].R
			if target == nil {
				target = recv.R
			}
			recv.R.SetNative(&threadPayload{target: target})
			return interp.NativeVoid()
		}))

	b.NativeMethod("start", "()V", pub, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			p, ok := recv.R.Native().(*threadPayload)
			if !ok {
				return interp.NativeThrowName(vm, t, "java/lang/IllegalStateException", "Thread not constructed")
			}
			if p.thread != nil {
				return interp.NativeThrowName(vm, t, "java/lang/IllegalStateException", "Thread already started")
			}
			runMethod, err := p.target.Class.LookupMethod("run", "()V")
			if err != nil {
				return interp.NativeThrowName(vm, t, "java/lang/IllegalStateException", err.Error())
			}
			creator := t.CurrentIsolateOrZero()
			nt, err := vm.SpawnThread("guest:"+p.target.Class.Name, creator, runMethod,
				[]heap.Value{heap.RefVal(p.target)})
			if err != nil {
				if errors.Is(err, interp.ErrTooManyThreads) {
					// Real JVMs surface thread exhaustion as
					// OutOfMemoryError (attack A5).
					return interp.NativeThrowName(vm, t, interp.ClassOutOfMemoryError,
						"unable to create new native thread")
				}
				if errors.Is(err, core.ErrThrottled) {
					// Admission control: the governor refuses new threads
					// for this isolate. Surface it like exhaustion — the
					// offender's spawn loop sees a guest error, everyone
					// else is unaffected.
					return interp.NativeThrowName(vm, t, interp.ClassOutOfMemoryError,
						"thread creation throttled by governor")
				}
				return interp.NativeResult{}, err
			}
			p.thread = nt
			nt.SetGuestObject(recv.R)
			return interp.NativeVoid()
		}))

	b.NativeMethod("join", "()V", pub, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			p, ok := recv.R.Native().(*threadPayload)
			if !ok || p.thread == nil {
				return interp.NativeVoid()
			}
			if p.thread.Done() {
				return interp.NativeVoid()
			}
			return parked(vm, t, vm.Join(t, p.thread))
		}))

	b.NativeMethod("isAlive", "()Z", pub, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			p, ok := recv.R.Native().(*threadPayload)
			alive := ok && p.thread != nil && !p.thread.Done()
			return interp.NativeReturn(heap.BoolVal(alive))
		}))

	b.NativeMethod("interrupt", "()V", pub, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			p, ok := recv.R.Native().(*threadPayload)
			if ok && p.thread != nil {
				if err := vm.InterruptThread(p.thread); err != nil {
					return interp.NativeResult{}, err
				}
			}
			return interp.NativeVoid()
		}))

	// sleep(ticks): ticks <= 0 sleeps forever — the paper's A7 attack
	// ("bundle B calls Thread.sleep(0)", §4.3) hangs the caller
	// indefinitely.
	b.NativeMethod("sleep", "(I)V", statics, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			d := args[0].I
			if d <= 0 {
				d = interp.SleepForever
			}
			return parked(vm, t, vm.Sleep(t, d))
		}))

	b.NativeMethod("yield", "()V", statics, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			// One-tick sleep: reschedules without parking forever.
			vm.Yield(t)
			return interp.NativeBlocked()
		}))

	b.NativeMethod("currentThread", "()Ljava/lang/Thread;", statics, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			if obj := t.GuestObject(); obj != nil {
				return interp.NativeReturn(heap.RefVal(obj))
			}
			// Host-spawned threads materialize a Thread object lazily.
			threadClass, err := vm.Registry().Bootstrap().Lookup(interp.ClassThread)
			if err != nil {
				return interp.NativeResult{}, err
			}
			obj, err := vm.AllocObjectIn(t, threadClass, t.CurrentIsolateOrZero())
			if err != nil {
				return interp.NativeThrowName(vm, t, interp.ClassOutOfMemoryError, err.Error())
			}
			obj.SetNative(&threadPayload{thread: t, target: obj})
			t.SetGuestObject(obj)
			return interp.NativeReturn(heap.RefVal(obj))
		}))

	return b.MustBuild()
}
