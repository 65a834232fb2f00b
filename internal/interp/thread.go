// Package interp implements the execution engine of the VM: frames,
// operand stacks, the bytecode interpreter, a cooperative green-thread
// scheduler with a virtual clock, monitors, exception dispatch, and the
// I-JVM hooks the paper adds to LadyVM: the isolate switch on
// inter-isolate calls (§3.1), CPU sampling and allocation accounting
// (§3.2), and the isolate termination engine (§3.3).
package interp

import (
	"errors"
	"sync/atomic"

	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
)

// ThreadState enumerates scheduler states of a VM thread.
type ThreadState uint8

// Thread states.
const (
	// StateRunnable threads are eligible for scheduling.
	StateRunnable ThreadState = iota + 1
	// StateSleeping threads wait for the virtual clock (Thread.sleep).
	StateSleeping
	// StateBlockedMonitor threads wait to acquire an object monitor.
	StateBlockedMonitor
	// StateWaitingMonitor threads are parked in Object.wait.
	StateWaitingMonitor
	// StateWaitingJoin threads wait for another thread to finish.
	StateWaitingJoin
	// StateDone threads have finished (normally or with an uncaught
	// exception).
	StateDone

	// stateStaging is a transient internal state used while a cross-shard
	// wake operation (interrupt, forced kill wake) has detached the thread
	// from its wait structures but is still allocating the exception it
	// will deliver. Threads in this state are invisible to the schedulers:
	// not runnable, not wakeable, not done. The allocation must happen
	// outside schedMu (it can trigger a stop-the-world collection), so
	// this state bridges the two critical sections.
	stateStaging ThreadState = 255
)

// String returns the state name.
func (s ThreadState) String() string {
	switch s {
	case StateRunnable:
		return "runnable"
	case StateSleeping:
		return "sleeping"
	case StateBlockedMonitor:
		return "blocked"
	case StateWaitingMonitor:
		return "waiting"
	case StateWaitingJoin:
		return "joining"
	case StateDone:
		return "done"
	default:
		return "invalid"
	}
}

// SleepForever is the wake deadline of an unbounded sleep or wait.
const SleepForever int64 = -1

// Frame is one activation record. Every frame records the isolate it
// executes in: bundle frames carry their class's isolate, system-library
// frames carry the caller's isolate (paper §3.1 — "classes from the Java
// System Library are not executed in a special isolate but in the isolate
// that called it"), which also gives the GC accounting rule of §3.2 step 3
// for free.
type Frame struct {
	method *classfile.Method
	iso    *core.Isolate

	// pcode is the method's quickened body (see prepare.go); nil selects
	// the reference switch interpreter in exec.go.
	pcode *bytecode.PCode

	// hot is pcode's closure-threaded program (closure.go), adopted at
	// the push; nil exactly when pcode is. Owned by the executing
	// goroutine.
	hot *closureProgram

	locals []heap.Value
	stack  []heap.Value
	pc     int32

	// callerIso, when non-nil, is the isolate to restore into the
	// thread's current-isolate reference when this frame returns (thread
	// migration, §3.1).
	callerIso *core.Isolate

	// needsMonitor is the monitor a synchronized method must acquire
	// before its first instruction; cleared once acquired.
	needsMonitor *heap.Object
	// lockedMonitor is released when the frame exits (normally or by
	// unwinding).
	lockedMonitor *heap.Object
	// entered records the monitors this frame acquired through explicit
	// monitorenter instructions (one entry per acquisition, including
	// recursive ones; monitorexit removes the latest matching entry).
	// Frame exits do NOT auto-release them — unmatched enter/exit leaks
	// a monitor exactly as raw bytecode does on a real JVM — but the
	// isolate-termination path force-releases them (§3.3 step 3: a
	// killed isolate's monitors must not outlive it), which per-frame
	// synchronized-method tracking alone cannot do.
	entered []*heap.Object

	// clinitMirror, when non-nil, marks this frame as a <clinit>
	// activation; the mirror transitions to InitDone when the frame
	// returns.
	clinitMirror *core.TaskClassMirror
}

// Method returns the frame's method.
func (f *Frame) Method() *classfile.Method { return f.method }

// Isolate returns the isolate the frame executes in.
func (f *Frame) Isolate() *core.Isolate { return f.iso }

// errStackUnderflow is the preformatted underflow error of the checked
// (reference) interpreter path: the hot loop never constructs fmt.Errorf
// values. Prepared code needs no check at all — its stack discipline is
// verified by the preparation dataflow (prepare.go), so the closure micros
// use the unchecked upop/upeek below.
var errStackUnderflow = errors.New("interp: operand stack underflow")

func (f *Frame) push(v heap.Value) { f.stack = append(f.stack, v) }

func (f *Frame) pop() (heap.Value, error) {
	n := len(f.stack)
	if n == 0 {
		return heap.Value{}, errStackUnderflow
	}
	v := f.stack[n-1]
	f.stack = f.stack[:n-1]
	return v, nil
}

func (f *Frame) peek() (heap.Value, error) {
	n := len(f.stack)
	if n == 0 {
		return heap.Value{}, errStackUnderflow
	}
	return f.stack[n-1], nil
}

// upop pops without an underflow check. Only micros of prepared code may
// call it: the preparation pass proves every pop has an operand.
func (f *Frame) upop() heap.Value {
	n := len(f.stack) - 1
	v := f.stack[n]
	f.stack = f.stack[:n]
	return v
}

// upeek is peek without the underflow check, under the same contract as
// upop.
func (f *Frame) upeek() heap.Value { return f.stack[len(f.stack)-1] }

// noteEnter records one explicit monitorenter acquisition on the frame.
func (f *Frame) noteEnter(obj *heap.Object) { f.entered = append(f.entered, obj) }

// noteExit drops the latest matching explicit-enter record (a no-op for
// cross-frame exits, which the frame that entered still accounts for).
func (f *Frame) noteExit(obj *heap.Object) {
	for i := len(f.entered) - 1; i >= 0; i-- {
		if f.entered[i] == obj {
			f.entered = append(f.entered[:i], f.entered[i+1:]...)
			return
		}
	}
}

// Thread is one green thread. The sequential scheduler multiplexes
// threads onto the host goroutine that calls VM.Run; the concurrent
// scheduler (internal/sched) executes each thread on the worker owning
// the shard of its current isolate. A thread's isolate reference (cur)
// migrates on inter-isolate calls exactly as in the paper.
//
// Concurrency: frames, locals, stacks, cur, and the staged-resume fields
// are only touched by the goroutine currently executing the thread (or
// by wake operations while it is parked, serialized by VM.schedMu). The
// scheduler state word is atomic because other shards observe it
// (Done checks for joins, promote polls).
type Thread struct {
	id   int64
	name string
	vm   *VM

	// frames is the activation stack. Slots between its length and its
	// capacity cache released frames for reuse (acquireFrame).
	frames []*Frame
	state  atomic.Uint32 // holds a ThreadState

	// cur is the isolate the thread currently executes in — the "isolate
	// reference" of §3.1 that inter-isolate calls update and CPU sampling
	// reads.
	cur *core.Isolate
	// creator is the isolate that created the thread; thread creation is
	// charged to it (§3.2, "Threads").
	creator *core.Isolate

	// Park bookkeeping.
	wakeAt    int64        // virtual deadline for Sleeping/timed waits; SleepForever for unbounded
	blockedOn *heap.Object // monitor being acquired (BlockedMonitor)
	waitingOn *heap.Object // monitor waited on (WaitingMonitor)
	savedLock int32        // recursion count to restore after wait
	joinOn    *Thread
	// sleepGauge, when non-nil, is the isolate whose SleepingThreads
	// gauge was incremented when this thread parked.
	sleepGauge *core.Isolate

	interrupted bool

	// lastSwitchTick is the virtual time of the last isolate switch, used
	// only by the per-call CPU accounting ablation.
	lastSwitchTick int64

	// spawnTick/finishTick stamp the thread's lifetime on the virtual
	// clock (spawn or respawn, and completion). Latency harnesses read
	// them instead of wall time: virtual-clock latency measures what the
	// VM scheduler controls and is insensitive to host CPU count and Go
	// runtime scheduling. finishTick is written by the goroutine that
	// finishes the thread before the Done state is published, so a reader
	// that observed Done reads a stable value.
	spawnTick  int64
	finishTick int64

	// Pending native resume: when a blocking native (sleep, wait, join,
	// I/O) returns control to the scheduler, the exception to be
	// delivered on wake, if any, is staged here.
	resumeKind  resumeKind
	resumeThrow *heap.Object

	// slowStep, when set, routes the next step through the staged-work
	// prologue (synchronized-entry monitor acquisition, the resume slots
	// above) so the steady-state dispatch checks a single flag instead of
	// every staging slot. Conservative: a stale true costs one empty
	// prologue pass; it must be set whenever any staged work exists. It
	// follows the same ownership contract as the resume slots (written by
	// wake operations only while the thread is parked, under VM.schedMu).
	slowStep bool

	// alloc is the executing engine's allocation state (shard-local
	// domain + batched byte accounting), installed for the duration of a
	// quantum and nil otherwise. Owned by the goroutine executing the
	// thread: only that goroutine may allocate through it, and wake-side
	// allocation (InterruptThread's exception) must use the host path
	// instead.
	alloc *allocState

	// qa is the state of the driver running this thread's quantum, with
	// the quantum's accountant in it (tier.go), installed for the duration
	// of a quantum and nil otherwise; closure blocks reserve and charge
	// their inlined sub-instructions through it. The state is the
	// driver's own (a worker's, or VM.seq), so installing it allocates
	// nothing. Same ownership contract as alloc.
	qa *SampleState

	// pendingArgs is the in-flight invocation argument window between
	// the caller's stack truncation and the callee's locals copy (or the
	// native call's completion). buildRootSets scans it so an allocation
	// during call setup — a synchronized static's Class object, an
	// allocating native — cannot sweep objects reachable only through
	// the pending arguments. Owned by the goroutine executing the
	// thread; always nil at instruction boundaries.
	pendingArgs []heap.Value

	// threadObj is the guest java/lang/Thread object representing this
	// thread, when one exists.
	threadObj *heap.Object

	// Completion.
	result  heap.Value
	failure *heap.Object // uncaught guest exception
	err     error        // host-level execution error (VM bug or invalid code)
	// failureText is failure rendered when the thread failed (a finished
	// thread is no GC root: failure may be swept afterwards).
	failureText string

	// done is closed when the thread's current run finishes; the first
	// Wait on an unfinished run allocates it. Guarded by VM.schedMu, under
	// which finishThread publishes Done and takes the channel away, so
	// every run starts with none and a waiter on a respawned shell is
	// released by the run it waited on, never by the one before.
	done chan struct{}

	// pruned records that the thread is not in the thread table: it is
	// fresh, or compactThreadsLocked dropped it (guarded by vm.threadsMu).
	// A thread start (VM.start) appends pruned threads; without the flag it
	// could not tell membership without an O(threads) scan.
	pruned bool
	// arming is set while a thread start builds the thread's frames: the
	// thread is listed and still Done, and the table rule must keep it
	// (guarded by vm.threadsMu).
	arming bool
	// shell marks a thread that has been through RespawnThread: a host
	// recycles it, so finishThread leaves its emptied frame stack (and the
	// frames cached in it) attached for the next respawn instead of handing
	// it to vm.frameStacks. Written by RespawnThread, read by the goroutine
	// that finishes the thread; the respawn's Runnable publication orders
	// the two.
	shell bool
}

type resumeKind uint8

const (
	resumeNone resumeKind = iota
	resumePushVoid
	resumeThrowKind
)

// ID returns the thread's VM-unique ID (>= 1).
func (t *Thread) ID() int64 { return t.id }

// Name returns the thread's diagnostic name.
func (t *Thread) Name() string { return t.name }

// State returns the scheduler state.
func (t *Thread) State() ThreadState { return ThreadState(t.state.Load()) }

// setState publishes the thread's scheduler state and keeps the VM's
// gauge of threads that wait for another thread's action (see
// VM.waitingOnOthers) in step with it.
func (t *Thread) setState(s ThreadState) {
	old := ThreadState(t.state.Swap(uint32(s)))
	if d := waitsOnOthers(s) - waitsOnOthers(old); d != 0 {
		t.vm.waitingOnOthers.Add(d)
	}
}

// waitsOnOthers is 1 for the states only a monitor release or a thread
// finish can end, 0 otherwise.
func waitsOnOthers(s ThreadState) int64 {
	if s == StateBlockedMonitor || s == StateWaitingJoin {
		return 1
	}
	return 0
}

// Done reports whether the thread has finished.
func (t *Thread) Done() bool { return t.State() == StateDone }

// Wait blocks until the thread's run current at the call has finished:
// returned, thrown uncaught, aborted, or unwound by a kill. Any number of
// host goroutines may wait on one run. Guest code (a native) must not
// call it: it would block a scheduler worker.
func (t *Thread) Wait() {
	if t.Done() {
		return
	}
	mu := &t.vm.schedMu
	mu.Lock()
	if t.Done() {
		mu.Unlock()
		return
	}
	if t.done == nil {
		t.done = make(chan struct{})
	}
	ch := t.done
	mu.Unlock()
	<-ch
}

// CurrentIsolate returns the isolate the thread currently executes in.
func (t *Thread) CurrentIsolate() *core.Isolate { return t.cur }

// Creator returns the isolate that created the thread.
func (t *Thread) Creator() *core.Isolate { return t.creator }

// Result returns the value produced by the thread's entry method.
func (t *Thread) Result() heap.Value { return t.result }

// Failure returns the uncaught guest exception that terminated the
// thread, or nil. A finished thread is not a GC root: unless the host
// roots the object itself (Pin, HostRoots) before the next collection,
// that collection may sweep it and leave an emptied object behind. Use
// FailureString for the text.
func (t *Thread) Failure() *heap.Object { return t.failure }

// Err returns the host-level error that aborted the thread, or nil. Host
// errors indicate invalid bytecode or a VM defect, not guest exceptions.
func (t *Thread) Err() error { return t.err }

// DropOutcome forgets a finished thread's result, uncaught exception and
// guest Thread object. A host that parks the thread for RespawnThread calls
// it once it has harvested them, so that a parked shell references no guest
// object (a finished thread is not a GC root: whatever the host still needs
// it must have rooted itself).
func (t *Thread) DropOutcome() {
	t.result, t.failure, t.failureText, t.threadObj = heap.Value{}, nil, "", nil
}

// SpawnTick returns the virtual time at which the thread was (re)spawned.
func (t *Thread) SpawnTick() int64 { return t.spawnTick }

// RestampSpawn overwrites the spawn stamp. The concurrent scheduler's
// spawn hook calls it under the pool lock so the arrival time is taken
// atomically with the thread's entry into the run queue: a host
// goroutine descheduled between SpawnThread's own stamp and the hook
// must not bill that gap — VM progress the scheduler was never asked to
// preempt — as queueing delay.
func (t *Thread) RestampSpawn(tick int64) { t.spawnTick = tick }

// FinishTick returns the virtual time at which the thread finished.
// Meaningful only after Done reports true; both engines batch clock
// publication per quantum, so the stamp carries up-to-a-quantum
// granularity.
func (t *Thread) FinishTick() int64 { return t.finishTick }

// GuestObject returns the guest java/lang/Thread object, or nil.
func (t *Thread) GuestObject() *heap.Object { return t.threadObj }

// SetGuestObject associates the guest java/lang/Thread object with this VM
// thread (set by the Thread.start / Thread.currentThread natives).
func (t *Thread) SetGuestObject(obj *heap.Object) { t.threadObj = obj }

// Depth returns the current frame count.
func (t *Thread) Depth() int { return len(t.frames) }

// top returns the active frame, or nil for an empty stack.
func (t *Thread) top() *Frame {
	if len(t.frames) == 0 {
		return nil
	}
	return t.frames[len(t.frames)-1]
}

// FailureString renders the uncaught exception for diagnostics, as it
// read when the thread failed.
func (t *Thread) FailureString() string { return t.failureText }
