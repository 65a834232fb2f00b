package interp

import (
	"errors"
	"fmt"

	"ijvm/internal/core"
	"ijvm/internal/heap"
)

// KillIsolate terminates an isolate (§3.3). The sequence mirrors the
// paper's signal-based protocol, with a scheduler safepoint as the point
// where "signals" are delivered: under the sequential engine that is the
// cooperative scheduler boundary; under the concurrent engine the world
// is stopped first, so the kill takes effect mid-run no matter which
// workers are executing — the preemptive kill path.
//
//  1. The isolate is marked killed. From now on, any frame push for one of
//     its methods throws StoppedIsolateException (the equivalent of
//     refusing to JIT new methods and patching compiled entry points).
//  2. Every thread's stack is inspected. A thread whose *top* frame
//     belongs to the killed isolate receives StoppedIsolateException
//     immediately. A thread parked in a system-library call (sleep, wait,
//     join, I/O) with a killed-isolate frame below is interrupted so the
//     blocking call aborts. Threads deeper in other isolates are left
//     alone: the patched "return pointers" are modelled by the return-path
//     check in returnFromFrame, which throws when control would re-enter a
//     killed frame.
//  3. Monitors held by frames of the killed isolate are force-released so
//     other bundles do not inherit the isolate's deadlocks; threads
//     blocked on those monitors are released with the exception staged.
//
// killer must hold RightKillIsolate (Isolate0); a nil killer is a
// host-level administrative action.
func (vm *VM) KillIsolate(killer, target *core.Isolate) error {
	if vm.world.Mode() != core.ModeIsolated {
		return errors.New("interp: isolate termination requires isolated mode")
	}
	if target != nil && target.IsIsolate0() {
		return errors.New("interp: Isolate0 cannot be killed")
	}
	var err error
	vm.withWorldStopped(func() {
		if err = vm.world.Kill(killer, target); err != nil {
			return
		}
		for _, t := range vm.Threads() {
			if t.Done() {
				continue
			}
			if perr := vm.patchThreadForKill(t, target); perr != nil {
				err = fmt.Errorf("patching thread %d: %w", t.id, perr)
				return
			}
		}
	})
	return err
}

// AbortRootThread tears down a host-spawned root thread (an RPC
// dispatch whose budget expired or whose link closed) without running
// any more of its code. The caller must own the engine — the thread must
// not be mid-quantum on any worker (the RPC hub calls this between
// RunUntil slices under its execution lock). Every monitor the thread
// still holds is force-released first, exactly as the kill path does for
// killed frames, so an aborted callee never leaves a lock owned by a
// dead thread; then the thread is finished with err recorded as its
// host-visible failure.
func (vm *VM) AbortRootThread(t *Thread, err error) {
	if t == nil || t.Done() {
		return
	}
	vm.schedMu.Lock()
	for _, f := range t.frames {
		if obj := f.lockedMonitor; obj != nil {
			vm.forceReleaseLocked(t, obj)
			f.lockedMonitor = nil
		}
		for _, obj := range f.entered {
			vm.forceReleaseLocked(t, obj)
		}
		f.entered = f.entered[:0]
	}
	vm.schedMu.Unlock()
	t.err = err
	vm.finishThread(t)
}

// forceReleaseLocked releases ONE recursion level of obj's monitor if t
// still owns it — the kill path calls it once per acquisition record of
// a killed frame (lockedMonitor or an entered entry), so recursion
// levels held by the thread's *surviving* frames (a killed frame that
// entered a monitor and then called into another isolate which entered
// it again) are preserved: zeroing outright would break mutual
// exclusion inside the innocent isolate's critical section and make its
// eventual monitorexit throw IllegalMonitorState. schedMu held, world
// stopped; the stripe nests under schedMu.
func (vm *VM) forceReleaseLocked(t *Thread, obj *heap.Object) {
	m, mu := obj.Monitor(), vm.monStripe(obj)
	mu.Lock()
	if m.Owner == t.id {
		m.Count--
		if m.Count <= 0 {
			m.Owner = 0
			m.Count = 0
		}
	}
	mu.Unlock()
}

// patchThreadForKill applies the §3.3 stack treatment to one thread. The
// world is stopped: no worker is executing guest code.
func (vm *VM) patchThreadForKill(t *Thread, target *core.Isolate) error {
	involved := false
	vm.schedMu.Lock()
	for _, f := range t.frames {
		if f.iso == target {
			involved = true
			// Force-release monitors held by killed frames (the monitor
			// word is guarded by its stripe; schedMu -> stripe ordering):
			// the synchronized-method monitor AND every explicit
			// monitorenter the frame still holds — a victim killed
			// inside an explicit monitor section must not leave the
			// monitor owned by its dead thread (the survivors would
			// deadlock on a lock nobody can ever release).
			if obj := f.lockedMonitor; obj != nil {
				vm.forceReleaseLocked(t, obj)
				f.lockedMonitor = nil
			}
			for _, obj := range f.entered {
				vm.forceReleaseLocked(t, obj)
			}
			f.entered = f.entered[:0]
		}
	}
	vm.schedMu.Unlock()
	// Threads whose current isolate is the target have killed code on
	// top (possibly under system-library natives).
	onTop := t.cur == target
	if !involved && !onTop {
		// The thread may still be blocked on a monitor owned by a killed
		// frame — the force-release above (from another thread's walk)
		// lets the scheduler promote it naturally.
		return nil
	}
	switch t.State() {
	case StateRunnable:
		if onTop {
			// Equivalent of the signal handler finding the top frame in
			// the terminating isolate: throw at the next safepoint.
			obj, err := vm.NewThrowable(t.CurrentIsolateOrZero(), ClassStoppedIsolateException,
				"isolate "+target.Name()+" stopped")
			if err != nil {
				return err
			}
			t.StageResumeThrow(obj)
		}
		return nil
	case StateDone:
		return nil
	default:
		// Parked in a blocking system call with killed-isolate frames on
		// the stack: interrupt it (Spring-style protection-domain
		// termination).
		return vm.forceInterrupt(t)
	}
}
