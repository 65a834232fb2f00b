package interp

import (
	"errors"
	"fmt"

	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
)

// ErrTooManyThreads is returned by SpawnThread when the thread limit is
// reached; the Thread.start native converts it into
// java/lang/OutOfMemoryError, as real JVMs do (attack A5).
var ErrTooManyThreads = errors.New("interp: thread limit reached")

// resolveClassFrom resolves a class name through the loader of the
// referencing class (bundle-scoped resolution with bootstrap delegation
// and OSGi wiring).
func (vm *VM) resolveClassFrom(from *classfile.Class, name string) (*classfile.Class, error) {
	l := vm.registry.Loader(from.LoaderID)
	if l == nil {
		return nil, fmt.Errorf("class %s has no loader", from.Name)
	}
	return l.Lookup(name)
}

// resolveMethodEntry resolves a MethodRef pool entry relative to the
// frame's class, caching the result.
func (vm *VM) resolveMethodEntry(f *Frame, entry *classfile.PoolEntry) (*classfile.Method, error) {
	if m := entry.ResolvedMethod.Load(); m != nil {
		return m, nil
	}
	class, err := vm.resolveClassFrom(f.method.Class, entry.ClassName)
	if err != nil {
		return nil, err
	}
	m, err := class.LookupMethod(entry.Name, entry.Descriptor)
	if err != nil {
		return nil, err
	}
	entry.ResolvedClass.Store(class)
	entry.ResolvedMethod.Store(m)
	return m, nil
}

// SpawnThread creates a new green thread whose entry point is method m
// with the given arguments, charged to creator. The first instruction runs
// at the next scheduling opportunity.
func (vm *VM) SpawnThread(name string, creator *core.Isolate, m *classfile.Method, args []heap.Value) (*Thread, error) {
	if creator == nil {
		return nil, errors.New("interp: SpawnThread requires a creator isolate")
	}
	// Admission control: a governor-throttled isolate may not grow its
	// thread population. Isolate0 (platform) is never throttled, and
	// RespawnThread is deliberately ungated — RPC dispatch threads are
	// admission-controlled on the caller side at Link submission.
	if creator.Throttled() && !creator.IsIsolate0() {
		return nil, fmt.Errorf("%w: isolate %d", core.ErrThrottled, creator.ID())
	}
	vm.threadsMu.Lock()
	if live := int(vm.liveThreads.Load()); live >= vm.opts.MaxThreads {
		vm.threadsMu.Unlock()
		return nil, fmt.Errorf("%w (%d live)", ErrTooManyThreads, live)
	}
	vm.nextThreadID++
	// A fresh thread is finished and unlisted (pruned) until start lists
	// it and publishes its frames.
	t := &Thread{id: vm.nextThreadID, vm: vm, pruned: true}
	t.setState(StateDone)
	if err := vm.start(t, name, creator, m, args); err != nil {
		return nil, err
	}
	return t, nil
}

// stagedArgs is one staged entry-argument window: the references of a
// spawn/respawn argument list, attributed to the creator isolate. The
// refs slice is never mutated after insertion into vm.stagedEntryArgs,
// so the root scan may read it under threadsMu alone.
type stagedArgs struct {
	iso  heap.IsolateID
	refs []*heap.Object
}

// stageEntryArgs roots a spawn/respawn entry-argument window for the
// interval during which its thread is invisible to the GC root scan
// (listed but still Done, see start). A window without references
// stages nothing. Staged references are also recorded with an open
// incremental cycle, keeping the SATB invariant for host-injected
// values. The registry is threadsMu-guarded (not HostRoots/pinMu):
// finalizer scheduling spawns threads from inside the stopped world
// while CollectGarbage still holds pinMu.
func (vm *VM) stageEntryArgs(t *Thread, creator *core.Isolate, args []heap.Value) {
	var refs []*heap.Object
	for i := range args {
		if r := args[i].R; r != nil {
			refs = append(refs, r)
		}
	}
	if refs == nil {
		return
	}
	vm.threadsMu.Lock()
	vm.stagedEntryArgs[t] = stagedArgs{iso: creator.ID(), refs: refs}
	vm.threadsMu.Unlock()
	if vm.heap.BarrierActive() {
		for _, r := range refs {
			vm.heap.RecordWrite(r)
		}
	}
}

// unstageEntryArgs drops a staged window and ends the thread's arming
// interval (start's publication step and its frame-setup failure path).
func (vm *VM) unstageEntryArgs(t *Thread) {
	vm.threadsMu.Lock()
	delete(vm.stagedEntryArgs, t)
	t.arming = false
	vm.threadsMu.Unlock()
}

// RespawnThread re-arms a finished thread with a fresh entry point,
// reusing its allocation and, when the table rule has not dropped it,
// its place in the thread table (a dropped thread is listed again at the
// end).
// Hosts that dispatch guest calls at high rate — the RPC hub's worker
// pools — recycle threads through this instead of paying SpawnThread's
// allocation and list bookkeeping per call. The thread keeps its ID;
// the respawn is charged to creator exactly like a fresh spawn
// (ThreadsCreated/ThreadsLive), so per-isolate accounting sees the same
// totals either way. Only Done threads whose frames have been popped
// (normal completion, uncaught exception, or AbortRootThread) may be
// respawned.
//
// A respawned thread is a shell: from here on finishThread leaves its
// emptied frame stack and cached frames attached, so the next respawn's
// pushFrame finds them there instead of going through vm.frameStacks. A
// finished shell is not a GC root and its frames hold no guest object; the
// host that parks it drops the last run's result with Thread.DropOutcome.
func (vm *VM) RespawnThread(t *Thread, name string, creator *core.Isolate, m *classfile.Method, args []heap.Value) error {
	if creator == nil {
		return errors.New("interp: RespawnThread requires a creator isolate")
	}
	vm.threadsMu.Lock()
	if !t.Done() || len(t.frames) != 0 {
		vm.threadsMu.Unlock()
		return errors.New("interp: RespawnThread on an unfinished thread")
	}
	if live := int(vm.liveThreads.Load()); live >= vm.opts.MaxThreads {
		vm.threadsMu.Unlock()
		return fmt.Errorf("%w (%d live)", ErrTooManyThreads, live)
	}
	t.shell = true
	return vm.start(t, name, creator, m, args)
}

// start is the one thread start, of a fresh thread (SpawnThread) and of a
// recycled one (RespawnThread): t is Done with no frames, and threadsMu is
// held on entry and released inside. The start is charged to creator
// (ThreadsCreated/ThreadsLive) and t is listed — again, if the table rule
// dropped it — but stays Done, with arming set so the rule keeps it, while
// its frames are built. Frame setup runs on the caller's goroutine, which
// a concurrent run's stop-the-world does not park (only scheduler workers
// reach safepoints), and the root scan skips Done threads, so a scan on
// another goroutine never reads t.frames while this one writes them; the
// atomic flip to Runnable is the publication point.
//
// Until then no scanned frame holds the entry arguments, so the
// staged-args registry keeps them alive across call setup, and records
// them with an open mark phase's barrier — host-held references entering
// the mutator world are outside the cycle's root snapshot, so without the
// record the new thread could store one into an already-scanned holder
// and the terminal re-scan would never see it (the heap fuzz harness
// reproduces exactly this).
func (vm *VM) start(t *Thread, name string, creator *core.Isolate, m *classfile.Method, args []heap.Value) error {
	delete(vm.threadFree, creator)
	t.name = name
	t.cur = creator
	t.creator = creator
	t.lastSwitchTick = vm.NowTicks()
	t.finishTick = 0
	t.result = heap.Value{}
	t.failure, t.failureText = nil, ""
	t.err = nil
	t.interrupted = false
	t.threadObj = nil
	t.wakeAt = 0
	t.blockedOn, t.waitingOn, t.joinOn = nil, nil, nil
	t.savedLock = 0
	t.resumeKind, t.resumeThrow = resumeNone, nil
	t.slowStep = false
	creator.Account().ThreadsCreated.Add(1)
	creator.Account().ThreadsLive.Add(1)
	vm.liveThreads.Add(1)
	if t.pruned {
		t.pruned = false
		vm.threads = append(vm.threads, t)
	}
	t.arming = true
	vm.threadsMu.Unlock()
	vm.stageEntryArgs(t, creator, args)
	err := vm.pushFrame(t, m, args, nil)
	if err != nil {
		vm.unstageEntryArgs(t)
		vm.finishThread(t)
		t.err = err
		return err
	}
	// The arrival stamp is taken here, not at the start: this is the moment
	// the scheduler learns of the thread, and pushFrame above can do real
	// work (frame setup, barrier records) during which a descheduled host
	// goroutine must not bill the VM's progress as request queueing time.
	t.spawnTick = vm.NowTicks()
	// A call into a killed isolate throws, uncaught, and pushFrame has
	// finished the thread already: it stays Done.
	if len(t.frames) > 0 {
		t.setState(StateRunnable)
	}
	// Scannable now (a scan that misses the staged entry must have
	// acquired threadsMu after this delete, hence after the state flip
	// above, so it walks the completed frames instead).
	vm.unstageEntryArgs(t)
	vm.notifyThreadSpawned(t)
	return nil
}

// invokeResolved is the real call of a call micro whose guards held
// (closure.go callSite.call): target is already resolved — and, for
// instance calls, the receiver known non-null; for static calls, the
// class known initialized — so only the argument hand-off remains. The
// caller's pc advances before frames are pushed so returns resume after
// the call site; nargs is the argument-window size baked into the
// prepared instruction (receiver included). Prepared code verified the
// operand-stack discipline, so the window needs no depth check.
func (vm *VM) invokeResolved(t *Thread, f *Frame, target *classfile.Method, nargs int, hasRecv bool, next int32) error {
	args := f.stack[len(f.stack)-nargs:]
	f.pc = next
	// As in execInvoke: pendingArgs keeps the truncated window visible
	// to the GC root scan until the callee owns the values.
	t.pendingArgs = args
	f.stack = f.stack[:len(f.stack)-nargs]
	var err error
	if target.IsNative() {
		err = vm.callNative(t, f, target, args, hasRecv)
	} else {
		err = vm.pushFrame(t, target, args, nil)
	}
	t.pendingArgs = nil
	return err
}

// Threads returns the thread table: every unfinished thread, and the
// finished ones the table rule (compactThreadsLocked) has not dropped
// yet, in spawn order.
func (vm *VM) Threads() []*Thread {
	vm.threadsMu.Lock()
	defer vm.threadsMu.Unlock()
	return append([]*Thread(nil), vm.threads...)
}

// LiveThreads returns the number of unfinished threads.
func (vm *VM) LiveThreads() int { return int(vm.liveThreads.Load()) }

// pushFrame activates method m on thread t with the given argument
// values (receiver first for instance methods). isoOverride forces the
// frame's isolate (used by <clinit>, which must execute in the accessing
// isolate so static writes hit that isolate's mirror).
//
// This is the thread-migration point of §3.1: when the callee's class
// belongs to a different isolate, the thread's isolate reference is
// updated and the caller's recorded for restoration on return. System
// library classes never migrate. A call into a killed isolate throws
// StoppedIsolateException (the paper's method poisoning).
//
// Frames come from the thread's own frame cache (acquireFrame); args may
// be a view of the caller's operand stack — it is copied into the
// callee's locals before this function returns.
func (vm *VM) pushFrame(t *Thread, m *classfile.Method, args []heap.Value, isoOverride *core.Isolate) error {
	if len(t.frames) >= vm.opts.MaxFrameDepth {
		return vm.Throw(t, ClassStackOverflowError, m.QualifiedName())
	}
	frameIso := t.cur
	var callerIso *core.Isolate
	if isoOverride != nil {
		frameIso = isoOverride
	} else if !m.Class.IsSystem() {
		classIso := vm.world.IsolateForLoaderID(m.Class.LoaderID)
		if classIso != nil {
			if classIso.Killed() {
				return vm.Throw(t, ClassStoppedIsolateException, "call into killed isolate "+classIso.Name())
			}
			if classIso != t.cur && vm.world.Isolated() {
				// Inter-isolate call: migrate the thread.
				callerIso = t.cur
				if vm.opts.PerCallCPUAccounting {
					vm.chargePerCallCPU(t, t.cur)
				}
				t.cur = classIso
				frameIso = classIso
				t.noteCall(callerIso, classIso)
			} else {
				frameIso = classIso
			}
		}
	}
	if frameIso == nil {
		return fmt.Errorf("pushFrame %s: no isolate for frame", m.QualifiedName())
	}
	code := m.Code
	if code == nil {
		return fmt.Errorf("pushFrame %s: bytecode method without code", m.QualifiedName())
	}
	var mon *heap.Object
	if m.IsSynchronized() {
		var err error
		mon, err = vm.syncMonitorFor(t, m, args)
		if err != nil {
			return err
		}
	}
	// Code preparation (quickening) runs once per method on its first
	// invocation; prepared methods carry exact frame dimensions.
	pcode := vm.preparedCode(m)
	nLocals, maxStack := code.MaxLocals, code.MaxStack
	var hot *closureProgram
	if pcode != nil {
		nLocals, maxStack = pcode.MaxLocals, pcode.MaxStack
		// The closure program was compiled by preparation and published
		// with the form: the frame runs its blocks from the first call. A
		// method with call sites gets the scratch its inlined leaf bodies
		// run in, past its own locals and stack (closure.go callSite.run).
		if hot = pcode.Closure.(*closureProgram); len(hot.sites) > 0 {
			nLocals, maxStack = nLocals+leafScratch, maxStack+leafHeadroom
		}
	}
	if n := len(args); n > nLocals {
		nLocals = n
	}
	f := t.acquireFrame(nLocals, maxStack)
	f.method = m
	f.iso = frameIso
	f.pcode = pcode
	f.hot = hot
	f.callerIso = callerIso
	f.needsMonitor = mon
	if mon != nil {
		t.slowStep = true // acquire before the first instruction
	}
	copy(f.locals, args)
	for i := len(args); i < nLocals; i++ {
		f.locals[i] = heap.Null()
	}
	t.frames = append(t.frames, f)
	if vm.TraceMethodEntry != nil {
		vm.TraceMethodEntry(m, frameIso)
	}
	return nil
}

// acquireFrame returns the activation record for the thread's next call,
// sized for nLocals and maxStack (exact for prepared methods, whose
// operand stack never grows). The slots of t.frames above its length are
// a LIFO cache of released frames — a returning callee's frame is the
// next call's frame — so a call allocates nothing and touches no shared
// state; a thread without a stack of its own (a fresh one, or a shell on
// its first respawn) adopts one a finished thread left behind
// (finishThread). The frame is not on the stack yet: pushFrame
// publishes it to the root scan by extending the slice once it is set up.
func (t *Thread) acquireFrame(nLocals, maxStack int) *Frame {
	n := len(t.frames)
	if cap(t.frames) == 0 {
		if s, _ := t.vm.frameStacks.Get().(*[]*Frame); s != nil {
			t.frames = *s
		}
	}
	if n == cap(t.frames) {
		t.frames = append(t.frames, nil)[:n]
	}
	f := t.frames[:n+1][n]
	if f == nil {
		f = &Frame{}
		t.frames[:n+1][n] = f
	}
	if cap(f.locals) < nLocals {
		f.locals = make([]heap.Value, nLocals)
	} else {
		f.locals = f.locals[:nLocals]
	}
	if cap(f.stack) < maxStack {
		f.stack = make([]heap.Value, 0, maxStack)
	}
	return f
}

// releaseFrame resets a popped frame for reuse, clearing only what the
// activation could have written — its locals and its operand stack up to
// the prepared body's exact MaxStack (the whole stack for unprepared
// code, which may have grown it) — so a cached frame retains no guest
// object; pushFrame overwrites the method, isolate and body pointers.
func releaseFrame(f *Frame) {
	clear(f.locals)
	extent := cap(f.stack)
	if f.pcode != nil {
		extent = f.pcode.MaxStack
	}
	clear(f.stack[:extent])
	clear(f.entered[:cap(f.entered)])
	f.stack, f.entered = f.stack[:0], f.entered[:0]
	f.pc = 0
	f.hot = nil
	f.callerIso = nil
	f.needsMonitor, f.lockedMonitor = nil, nil
	f.clinitMirror = nil
}

// syncMonitorFor returns the monitor a synchronized method must hold: the
// receiver for instance methods, the (per-isolate!) java.lang.Class object
// for static methods. Per-isolate Class objects are exactly why attack A2
// cannot block a foreign bundle under I-JVM.
func (vm *VM) syncMonitorFor(t *Thread, m *classfile.Method, args []heap.Value) (*heap.Object, error) {
	if m.IsStatic() {
		return vm.ClassObjectFor(t, m.Class, t.cur)
	}
	if len(args) == 0 || args[0].R == nil {
		return nil, fmt.Errorf("synchronized instance method %s without receiver", m.QualifiedName())
	}
	return args[0].R, nil
}

// returnFromFrame completes the top frame with a return value (Void for
// void returns) and resumes the caller. Returning into a frame of a killed
// isolate raises StoppedIsolateException instead of delivering the value
// (the paper's patched return pointers, §3.3).
func (vm *VM) returnFromFrame(t *Thread, v heap.Value) error {
	f := t.top()
	// Capture everything needed from the frame before popFrame recycles
	// it.
	isClinit := f.clinitMirror != nil
	retKind := f.method.Desc.Return
	if v.Kind == voidKind && retKind != classfile.KindVoid {
		// A void return instruction inside a value-returning method: the
		// bytecode lies about its descriptor. Callers (and the prepared
		// verifier) size their stacks from the descriptor, so this must
		// terminate the thread here rather than leave the caller's stack
		// one value short.
		return fmt.Errorf("interp: %s declared a value return but returned void", f.method.QualifiedName())
	}
	vm.popFrame(t, f)
	nf := t.top()
	if nf == nil {
		t.result = v
		vm.finishThread(t)
		return nil
	}
	if nf.iso != nil && nf.iso.Killed() {
		return vm.Throw(t, ClassStoppedIsolateException, "return into killed isolate "+nf.iso.Name())
	}
	if isClinit {
		// The triggering instruction re-executes; nothing is pushed.
		return nil
	}
	if v.Kind != voidKind && retKind != classfile.KindVoid {
		nf.push(v)
	}
	return nil
}

// ensureInitialized guarantees the task class mirror chain of c (supers
// first) is initialized for isolate iso, pushing a <clinit> frame when
// needed. It returns true when execution of the triggering instruction may
// proceed; false means the instruction must re-execute later (a <clinit>
// frame was pushed, or another thread is initializing).
//
// The steady state is one mirror read: c's own mirror is InitDone. That
// implies every super's is too, or is being initialized by the thread that
// initialized c (JVMS §5.5: a fully initialized class is not re-checked
// against its supers), because a class only starts initializing once its
// supers have, and restoreStatics never restores a class as initialized
// beside a super it restores uninitialized.
func (vm *VM) ensureInitialized(t *Thread, c *classfile.Class, iso *core.Isolate) (bool, error) {
	if vm.world.Mirror(c, iso).State == core.InitDone {
		return true, nil
	}
	for {
		var target *classfile.Class
		for k := c; k != nil; k = k.Super {
			m := vm.world.Mirror(k, iso)
			switch m.State {
			case core.InitNone:
				target = k // deepest iteration wins: topmost uninitialized super
			case core.InitRunning:
				if m.InitThread != t.id {
					// Another thread is initializing; retry later.
					return false, nil
				}
			}
		}
		if target == nil {
			return true, nil
		}
		mirror := vm.world.Mirror(target, iso)
		if target.Clinit == nil {
			mirror.State = core.InitDone
			continue
		}
		mirror.State = core.InitRunning
		mirror.InitThread = t.id
		if err := vm.pushFrame(t, target.Clinit, nil, iso); err != nil {
			mirror.State = core.InitDone
			mirror.InitThread = 0
			return false, err
		}
		clinitFrame := t.top()
		clinitFrame.clinitMirror = mirror
		return false, nil
	}
}

// CallRoot spawns a thread for method m, runs the scheduler until that
// thread finishes (or the budget is exhausted), and returns its result.
// Convenience for hosts (examples, OSGi framework, benchmarks).
func (vm *VM) CallRoot(iso *core.Isolate, m *classfile.Method, args []heap.Value, budget int64) (heap.Value, *Thread, error) {
	t, err := vm.SpawnThread("call:"+m.Name, iso, m, args)
	if err != nil {
		return heap.Value{}, nil, err
	}
	res := vm.RunUntil(t, budget)
	if t.err != nil {
		return heap.Value{}, t, t.err
	}
	if !t.Done() {
		return heap.Value{}, t, fmt.Errorf("thread %d did not finish: %v (budget %d, result %+v)", t.id, t.State(), budget, res)
	}
	return t.result, t, nil
}
