package interp

import (
	"fmt"

	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
)

const voidKind = classfile.KindVoid

// NewThrowable allocates an instance of a throwable system class and sets
// its message field, through the host allocation path. It is the
// wake-side entry point: InterruptThread, forceInterrupt and the kill
// patching all allocate the exception for a *parked* thread from a
// goroutine that is not executing it, so they must not touch the
// thread's engine-installed allocation state. Code running on the
// executing goroutine uses newThrowableT (via Throw) instead.
func (vm *VM) NewThrowable(iso *core.Isolate, className, msg string) (*heap.Object, error) {
	return vm.newThrowableT(nil, iso, className, msg)
}

// newThrowableT is NewThrowable with the executing thread's allocation
// state (t may be nil for the host path). The exception is rooted in a
// HostRoots batch while its message string is allocated: that allocation
// may collect, and nothing else references the exception yet.
func (vm *VM) newThrowableT(t *Thread, iso *core.Isolate, className, msg string) (*heap.Object, error) {
	class, err := vm.lookupWellKnown(className)
	if err != nil {
		return nil, err
	}
	obj, err := vm.AllocObjectIn(t, class, iso)
	if err != nil {
		return nil, fmt.Errorf("allocating %s: %w", className, err)
	}
	if msg != "" {
		if f, ferr := class.LookupField("message"); ferr == nil {
			roots := vm.NewHostRoots(iso)
			roots.Add(obj)
			msgObj, serr := vm.NewStringObject(t, iso, msg)
			roots.Release()
			if serr != nil {
				return nil, serr
			}
			obj.Elems[f.Slot] = heap.RefVal(msgObj)
		}
	}
	return obj, nil
}

// Throw raises a guest exception of the named class in thread t,
// unwinding its frame stack. It runs on the goroutine executing t, so
// the exception is allocated through the executing shard's domain.
func (vm *VM) Throw(t *Thread, className, msg string) error {
	iso := t.CurrentIsolateOrZero()
	obj, err := vm.newThrowableT(t, iso, className, msg)
	if err != nil {
		return err
	}
	return vm.DeliverException(t, obj)
}

// isStoppedIsolate reports whether obj is I-JVM's termination exception.
func isStoppedIsolate(obj *heap.Object) bool {
	for c := obj.Class; c != nil; c = c.Super {
		if c.Name == ClassStoppedIsolateException {
			return true
		}
	}
	return false
}

// DeliverException unwinds t's frame stack looking for a handler (§3.3):
//
//   - handlers in frames belonging to a killed isolate are skipped — the
//     terminating isolate cannot catch anything anymore, and in particular
//     "the terminating isolate cannot catch [StoppedIsolateException]:
//     even if the isolate tries to catch it in the Java code, I-JVM will
//     ignore it";
//   - monitors held by synchronized frames are released during unwinding;
//   - the thread's current-isolate reference is restored across
//     inter-isolate frames;
//   - an unhandled exception terminates the thread and is recorded as its
//     failure.
func (vm *VM) DeliverException(t *Thread, exObj *heap.Object) error {
	if exObj == nil {
		return fmt.Errorf("thread %d: throw of nil exception object", t.id)
	}
	stopped := isStoppedIsolate(exObj)
	for len(t.frames) > 0 {
		f := t.top()
		frameKilled := f.iso != nil && f.iso.Killed()
		if !frameKilled {
			if target, ok := vm.findHandler(f, exObj); ok {
				f.stack = f.stack[:0]
				f.push(heap.RefVal(exObj))
				f.pc = target
				return nil
			}
		}
		vm.popFrame(t, f)
		// Returning into a killed isolate's frame converts any in-flight
		// exception into StoppedIsolateException at the lower level
		// (paper: the patched return pointer throws; an exception
		// traversing the killed frame keeps unwinding it).
		if !stopped {
			if nf := t.top(); nf != nil && nf.iso != nil && nf.iso.Killed() {
				replacement, err := vm.newThrowableT(t, t.CurrentIsolateOrZero(), ClassStoppedIsolateException,
					"isolate "+nf.iso.Name()+" stopped")
				if err != nil {
					return err
				}
				exObj = replacement
				stopped = true
			}
		}
	}
	t.failure = exObj
	t.failureText = vm.describeThrowable(exObj)
	vm.finishThread(t)
	return nil
}

// findHandler scans f's exception table for a handler covering the
// current pc that matches the exception's class.
func (vm *VM) findHandler(f *Frame, exObj *heap.Object) (int32, bool) {
	code := f.method.Code
	if code == nil {
		return 0, false
	}
	for _, h := range code.Handlers {
		if !h.Covers(f.pc) {
			continue
		}
		if h.CatchClass == "" {
			return h.Target, true
		}
		catch, err := vm.resolveClassFrom(f.method.Class, h.CatchClass)
		if err != nil {
			continue
		}
		if exObj.Class.IsSubclassOf(catch) {
			return h.Target, true
		}
	}
	return 0, false
}

// popFrame removes the top frame, releasing its monitor, completing a
// <clinit> mirror, and restoring the caller's isolate reference (the
// return half of thread migration, §3.1). The frame is reset and stays
// cached in the thread's frame slice for the next call: callers must
// capture anything they still need from it before calling popFrame.
func (vm *VM) popFrame(t *Thread, f *Frame) {
	if f.lockedMonitor != nil {
		vm.releaseMonitor(t, f.lockedMonitor)
		f.lockedMonitor = nil
	}
	if f.clinitMirror != nil {
		f.clinitMirror.State = core.InitDone
		f.clinitMirror.InitThread = 0
	}
	if f.callerIso != nil {
		t.cur = f.callerIso
		if vm.opts.PerCallCPUAccounting {
			vm.chargePerCallCPU(t, f.iso)
		}
	}
	t.frames = t.frames[:len(t.frames)-1]
	releaseFrame(f)
}

// chargePerCallCPU implements the ablation-only per-call accounting
// strategy the paper rejected: charge the virtual time spent since the
// last isolate switch to the isolate being left.
func (vm *VM) chargePerCallCPU(t *Thread, leaving *core.Isolate) {
	if leaving == nil {
		return
	}
	now := vm.NowTicks()
	leaving.Account().CPUTicks.Add(now - t.lastSwitchTick)
	t.lastSwitchTick = now
}

// finishThread marks t done and releases any monitors still held by its
// frames (uncaught exception path keeps invariants intact). Joiners of
// the finished thread may become runnable; the scheduler hooks are
// notified so idle shards re-poll; host goroutines in Thread.Wait are
// released.
func (vm *VM) finishThread(t *Thread) {
	for len(t.frames) > 0 {
		vm.popFrame(t, t.top())
	}
	// A shell keeps its empty frame stack and the frames cached in it
	// (releaseFrame cleared them: they hold no guest object) for its next
	// respawn. Any other thread hands them to the next thread; the Done
	// publication below orders this with any respawn of t.
	if !t.shell && cap(t.frames) > 0 {
		stack := t.frames
		t.frames = nil
		vm.frameStacks.Put(&stack)
	}
	t.finishTick = vm.NowTicks()
	vm.schedMu.Lock()
	vm.removeSleepGaugeLocked(t)
	t.setState(StateDone)
	if t.done != nil {
		close(t.done)
		t.done = nil
	}
	vm.schedMu.Unlock()
	t.creator.Account().ThreadsLive.Add(-1)
	vm.liveThreads.Add(-1)
	vm.notifyThreadsChanged()
}
