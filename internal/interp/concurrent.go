package interp

import (
	"sync/atomic"
	"time"

	"ijvm/internal/core"
)

// This file is the integration surface between the interpreter and the
// concurrent isolate scheduler (internal/sched). The scheduler installs
// two callbacks for the duration of a concurrent run:
//
//   - SchedHooks let the interpreter tell the scheduler that threads
//     appeared, woke up, that a global condition changed (a monitor
//     freed, a thread finished) so parked shards re-poll, or that an
//     isolate was freed. Hooks are always invoked WITHOUT schedMu held,
//     so implementations may take their own locks freely.
//   - Safepointer lets stop-the-world operations (accounting GC, isolate
//     kill) park every worker at an instruction boundary first.
//
// Both are nil in sequential runs, turning the call sites into direct
// passthroughs.

// SchedHooks is implemented by the concurrent scheduler's pool.
type SchedHooks interface {
	// ThreadSpawned reports a newly created runnable thread (its creator
	// isolate decides the shard it lands on).
	ThreadSpawned(t *Thread)
	// ThreadUnparked reports that t may have become runnable (notify,
	// interrupt, forced wake).
	ThreadUnparked(t *Thread)
	// ThreadsChanged reports a global scheduling event without a single
	// affected thread: a monitor was freed or a thread finished while
	// some thread was blocked on a monitor or joining, so such threads
	// anywhere may now be promotable.
	ThreadsChanged()
	// IsolateFreed reports that FreeIsolate recycled iso: no unfinished
	// thread executes in it, and the scheduler should drop what it keeps
	// per isolate.
	IsolateFreed(iso *core.Isolate)
}

// Safepointer stops every scheduler worker at an instruction boundary,
// runs fn alone, and resumes the world. Implementations must be
// reentrant: fn may itself request a stop (a kill patching threads can
// trigger an allocation-pressure collection).
type Safepointer interface {
	StopTheWorld(fn func())
}

type hookBox struct{ h SchedHooks }
type safeBox struct{ s Safepointer }

// SetSchedHooks installs (or, with nil, removes) the scheduler hooks.
func (vm *VM) SetSchedHooks(h SchedHooks) {
	if h == nil {
		vm.hooks.Store(nil)
		return
	}
	vm.hooks.Store(&hookBox{h: h})
}

// SetSafepointer installs (or, with nil, removes) the stop-the-world
// provider.
func (vm *VM) SetSafepointer(s Safepointer) {
	if s == nil {
		vm.safe.Store(nil)
		return
	}
	vm.safe.Store(&safeBox{s: s})
}

// SchedulerAttached reports whether a concurrent run has installed both
// its hooks and its safepointer. Before that a host-side spawn can fall
// between the scheduler's initial thread scan and the hook installation
// and be lost, and a collection can run beside unparked workers.
func (vm *VM) SchedulerAttached() bool {
	return vm.hooks.Load() != nil && vm.safe.Load() != nil
}

// withWorldStopped runs fn with every concurrent worker parked; in
// sequential runs it is a direct call on the run-loop goroutine, with
// the loop's pending batched charges flushed first so the stopped-world
// observer sees exact counters (the sequential safepoint).
func (vm *VM) withWorldStopped(fn func()) {
	if b := vm.safe.Load(); b != nil {
		b.s.StopTheWorld(func() { vm.stoppedSection(fn) })
		return
	}
	vm.flushSequential()
	vm.stoppedSection(fn)
	// fn may have armed or disarmed the incremental collector's write
	// barrier (cycle open/terminate). A mid-quantum sequential safepoint
	// resumes stepping without passing a quantum start, so the cached
	// per-quantum flag must be refreshed here (see allocState.barrierOn).
	if vm.seqAlloc != nil {
		vm.seqAlloc.barrierOn = vm.heap.BarrierActive()
	}
}

// stoppedSection runs fn, the body of a stop, with the world already
// stopped. The outermost section of a stop first applies the
// thread-table rule, so everything that walks the table inside a stop —
// the root scan, the kill's patch loop, FreeIsolate's liveness scan —
// costs what is live, and it keeps StopStats.
func (vm *VM) stoppedSection(fn func()) {
	if vm.stopDepth.Add(1) > 1 {
		// A stop requested from inside a stop (a kill whose exception
		// allocation collects): the outer section does the bookkeeping.
		fn()
		vm.stopDepth.Add(-1)
		return
	}
	start := time.Now()
	vm.threadsMu.Lock()
	vm.compactThreadsLocked()
	listed := len(vm.threads)
	vm.threadsMu.Unlock()
	vm.stop.listed.Store(int64(listed))
	vm.stop.live.Store(vm.liveThreads.Load())
	fn()
	ns := int64(time.Since(start))
	vm.stop.count.Add(1)
	vm.stop.totalNs.Add(ns)
	if ns > vm.stop.maxNs.Load() {
		vm.stop.maxNs.Store(ns) // stops are serialized: no lost update
	}
	vm.stopDepth.Add(-1)
}

// StopStats describes the VM's stop-the-world sections so far.
type StopStats struct {
	// Stops counts outermost stopped sections (collections, incremental
	// cycle starts and finishes, kills, snapshot captures, FreeIsolate
	// scans, mode flips).
	Stops int64
	// TotalNs and MaxNs are the wall time spent inside them, workers
	// parked: the critical sections only, not the wait for the workers to
	// reach their safepoints.
	TotalNs, MaxNs int64
	// ThreadsListed and ThreadsLive are the thread-table length and the
	// unfinished-thread count at the start of the last stop, after the
	// table rule ran: ThreadsListed <= 2*ThreadsLive + 64.
	ThreadsListed, ThreadsLive int
}

// StopStats returns the stop-the-world counters. They are plain atomics
// written on the stop path only; reading them is safe at any time.
func (vm *VM) StopStats() StopStats {
	return StopStats{
		Stops:         vm.stop.count.Load(),
		TotalNs:       vm.stop.totalNs.Load(),
		MaxNs:         vm.stop.maxNs.Load(),
		ThreadsListed: int(vm.stop.listed.Load()),
		ThreadsLive:   int(vm.stop.live.Load()),
	}
}

func (vm *VM) notifyThreadSpawned(t *Thread) {
	if b := vm.hooks.Load(); b != nil {
		b.h.ThreadSpawned(t)
	}
}

func (vm *VM) notifyUnparked(t *Thread) {
	if b := vm.hooks.Load(); b != nil {
		b.h.ThreadUnparked(t)
	}
}

// notifyThreadsChanged tells the scheduler that a monitor was freed or a
// thread finished — unless no thread is blocked on a monitor or joining,
// in which case nobody can be promoted by the event and an uncontended
// monitorexit or a request thread's finish stays off the scheduler's
// lock. A thread that starts to wait just after the gauge read is not
// lost: its shard re-polls promotability before it idles (see "Why the
// enter/park window is safe" in monitor.go).
func (vm *VM) notifyThreadsChanged() {
	if vm.waitingOnOthers.Load() == 0 {
		return
	}
	if b := vm.hooks.Load(); b != nil {
		b.h.ThreadsChanged()
	}
}

func (vm *VM) notifyIsolateFreed(iso *core.Isolate) {
	if b := vm.hooks.Load(); b != nil {
		b.h.IsolateFreed(iso)
	}
}

// Waking reports whether the thread is in the transient staging window
// of a cross-shard wake (see stateStaging): not runnable yet, but about
// to be. The concurrent scheduler's quiescence detector treats such
// threads as pending work rather than as deadlocked.
func (t *Thread) Waking() bool { return t.State() == stateStaging }

// PromoteRunnable attempts to make one thread runnable (elapsed sleep,
// free monitor, notified wait, finished join). The concurrent scheduler
// polls shard threads through it.
func (vm *VM) PromoteRunnable(t *Thread) bool {
	vm.schedMu.Lock()
	defer vm.schedMu.Unlock()
	return vm.promoteLocked(t)
}

// WakeDeadline returns t's virtual-time wake deadline when it is parked
// in a timed sleep or timed wait. The concurrent scheduler uses it to
// re-queue idle shards once the global clock passes the deadline.
func (vm *VM) WakeDeadline(t *Thread) (int64, bool) {
	vm.schedMu.Lock()
	defer vm.schedMu.Unlock()
	switch t.State() {
	case StateSleeping, StateWaitingMonitor:
		if t.wakeAt != SleepForever && t.wakeAt > 0 {
			return t.wakeAt, true
		}
	}
	return 0, false
}

// SampleState carries one worker's per-goroutine execution state across
// quanta: the CPU-sampling countdown (giving each worker the sequential
// engine's sampling cadence), the storage of the running quantum's
// accountant and call-path batch (the batch is flushed, hence empty, when
// a quantum ends; Thread.qa points at qa only while one runs), and the
// worker's allocation state (its shard-local heap allocation domain plus
// the batched per-isolate byte accounting), lazily acquired from the VM's
// pool on first use. Workers must hand the allocation state back with
// ReleaseWorkerState when they exit so later runs reuse domains instead of
// growing the heap's registry. A SampleState serves one quantum at a time.
type SampleState struct {
	count int
	qa    quantumAcct
	batch core.InstrBatch
	alloc *allocState
}

// ReleaseWorkerState flushes and recycles the worker-owned allocation
// state carried in s (no-op if none was acquired).
func (vm *VM) ReleaseWorkerState(s *SampleState) {
	vm.releaseAllocState(s.alloc)
	s.alloc = nil
}

// QuantumResult reports why RunThreadQuantum stopped stepping.
type QuantumResult struct {
	// Instructions executed in this quantum.
	Instructions int64
	// Migrated reports the thread's current isolate left the home
	// isolate (inter-isolate call or return): the thread must be handed
	// to the target isolate's shard.
	Migrated bool
	// Stopped reports the stop flag was observed (stop-the-world pending
	// or budget exhausted globally).
	Stopped bool
	// Shutdown reports the platform was shut down during the quantum.
	Shutdown bool
	// TargetDone reports the run's target thread finished during the
	// quantum (RunUntil parity for the concurrent scheduler).
	TargetDone bool
	// Err is the host-level error that aborted the thread, if any (the
	// thread has already been finished).
	Err error
}

// RunThreadQuantum executes up to budget instructions of t on the
// calling scheduler worker, stopping early when the thread parks,
// finishes, migrates off the home isolate, the stop flag rises, the
// platform shuts down, or the (optional) target thread finishes.
//
// Accounting matches the sequential engine: every instruction is charged
// to the isolate that is current after the step (so a migrating call is
// charged to the callee's isolate), and the virtual clock advances by
// one per instruction — but per-isolate charges go through the shared
// core.InstrBatch and clock and instruction totals are flushed in one
// batch at quantum end, keeping hot-path atomics off the shared cache
// lines. The sequential engine batches identically (see runQuantum).
func (vm *VM) RunThreadQuantum(t *Thread, home *core.Isolate, budget int64, stop *atomic.Bool, s *SampleState, target *Thread) QuantumResult {
	var res QuantumResult
	batch := &s.batch
	if s.alloc == nil {
		s.alloc = vm.acquireAllocState()
	}
	// Quantum-start refresh of the cached write-barrier flag: the barrier
	// is only armed inside a stop-the-world, which this worker's quantum
	// ends for, so a per-quantum refresh keeps reference-store fast paths
	// off the atomic (see allocState.barrierOn).
	s.alloc.barrierOn = vm.heap.BarrierActive()
	// Install the worker's allocation state on the thread for this
	// quantum; it is removed (and its byte batch flushed) before the
	// worker parks, so stop-the-world observers see exact accounts. The
	// quantum accountant (qa) lets closure blocks charge their extra
	// covered instructions with the exact per-instruction semantics of
	// the loop below (see quantumAcct).
	t.alloc = s.alloc
	qa := &s.qa
	*qa = quantumAcct{vm: vm, batch: batch, sampleCount: &s.count, limit: budget}
	t.qa = qa
	for qa.steps < budget && t.State() == StateRunnable {
		if stop != nil && stop.Load() {
			res.Stopped = true
			break
		}
		// Pre-read the mode for the step's closure-block sub-charges: the
		// global mode cannot flip while this worker is mid-step (flips
		// stop the world at step boundaries) except by the step's own
		// guest/native code, whose trailing instructions the re-read
		// below charges under the new mode.
		qa.isolated = vm.world.Isolated()
		err := vm.stepThread(t)
		qa.steps++
		cur := t.cur
		// The mode is re-read per step (one more uncontended atomic load
		// beside the stop flag above) so a worker whose own guest/native
		// code called SetIsolationMode charges the rest of its quantum
		// under the new mode; other workers' quanta break at the flip's
		// stop-the-world safepoint and re-enter here fresh.
		if vm.world.Isolated() {
			batch.Note(cur.Account())
			s.count++
			if s.count >= vm.opts.SampleEvery {
				s.count = 0
				cur.Account().CPUSamples.Add(1)
			}
		}
		if err != nil {
			t.err = err
			vm.finishThread(t)
			res.Err = err
			break
		}
		if vm.IsShutdown() {
			res.Shutdown = true
			break
		}
		if target != nil && target.Done() {
			res.TargetDone = true
			break
		}
		if cur != home {
			res.Migrated = true
			break
		}
	}
	res.Instructions = qa.steps
	t.alloc = nil
	t.qa = nil
	batch.Flush()
	s.alloc.batch.Flush()
	s.alloc.flushSATB(vm.heap)
	vm.clock.Add(res.Instructions)
	vm.totalInstrs.Add(res.Instructions)
	vm.noteQuantumHeat(t, res.Instructions)
	return res
}
