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
	// IsolateCreated reports that iso was just made, or, for a clone,
	// just seeded with its template's account: what it is charged from
	// now on is the run's.
	IsolateCreated(iso *core.Isolate)
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
// what the running quantum still holds batched flushed first so the
// stopped-world observer sees exact counters (the sequential safepoint).
// A worker that requests the stop itself publishes its own batch the
// same way (PublishQuantum) before the others park.
func (vm *VM) withWorldStopped(fn func()) {
	if b := vm.safe.Load(); b != nil {
		b.s.StopTheWorld(func() { vm.stoppedSection(fn) })
		return
	}
	vm.flushQuantum(&vm.seq)
	vm.stoppedSection(fn)
	// fn may have armed or disarmed the incremental collector's write
	// barrier (cycle open/terminate). A mid-quantum sequential safepoint
	// resumes stepping without passing a quantum start, so the cached
	// per-quantum flag must be refreshed here (see allocState.barrierOn).
	if a := vm.seq.alloc; a != nil {
		a.barrierOn = vm.heap.BarrierActive()
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
	// scans).
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

func (vm *VM) notifyIsolateCreated(iso *core.Isolate) {
	if b := vm.hooks.Load(); b != nil {
		b.h.IsolateCreated(iso)
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

// SampleState is the state one engine driver — a scheduler worker, or the
// sequential run loop (VM.seq) — carries across the quanta it runs: the
// running quantum's accountant, the CPU-sampling countdown (every driver
// samples at the same cadence), the call-path batch (flushed, hence
// empty, when a quantum ends), and the allocation state (a shard-local
// heap allocation domain plus the batched per-isolate byte accounting),
// lazily acquired from the VM's pool on first use. Workers must hand the
// allocation state back with ReleaseWorkerState when they exit so later
// runs reuse domains instead of growing the heap's registry; the
// sequential loop keeps its own for the VM's life. Thread.qa points at a
// SampleState only while it runs a quantum, and it runs one at a time.
type SampleState struct {
	quantumAcct
	count int
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
// calling goroutine, stopping early when the thread parks or finishes, the
// platform shuts down, the (optional) target thread finishes, the
// (optional) stop flag rises, or the thread migrates off the (optional)
// home isolate. It is the one routine that steps a thread through a
// quantum: scheduler workers call it with their stop flag and the shard's
// isolate, the sequential run loop with neither and VM.seq.
//
// Every instruction is charged to the isolate that is current after the
// step (so a migrating call is charged to the callee's isolate) and the
// virtual clock advances by one per instruction, but the hot path
// performs no atomic operation: per-isolate charges go through s.batch
// (which flushes when the charged isolate changes), the clock and the
// instruction total are the plain step count, and flushQuantum publishes
// all of it when the quantum ends — or earlier, at a sequential safepoint.
func (vm *VM) RunThreadQuantum(t *Thread, home *core.Isolate, budget int64, stop *atomic.Bool, s *SampleState, target *Thread) QuantumResult {
	var res QuantumResult
	if s.alloc == nil {
		s.alloc = vm.acquireAllocState()
	}
	// Quantum-start refresh of the cached write-barrier flag: the barrier
	// is only armed inside a stop-the-world, which a worker's quantum ends
	// for and which the sequential engine refreshes after, so a
	// per-quantum refresh keeps reference-store fast paths off the atomic
	// (see allocState.barrierOn).
	s.alloc.barrierOn = vm.heap.BarrierActive()
	// Install the driver's state on the thread for this quantum:
	// allocation inside the steps below goes through its shard-local
	// domain with batched byte accounting, and closure blocks charge the
	// instructions they inline through the accountant with the exact
	// per-instruction semantics of the loop below (see quantumAcct). Both
	// are removed, and everything batched flushed, before the driver can
	// park, so stop-the-world observers see exact accounts.
	isolated := vm.world.Isolated()
	s.quantumAcct = quantumAcct{limit: budget, isolated: isolated}
	t.alloc, t.qa = s.alloc, s
	for s.steps < budget && t.State() == StateRunnable {
		if stop != nil && stop.Load() {
			res.Stopped = true
			break
		}
		err := vm.stepThread(t)
		s.steps++
		cur := t.cur
		if isolated {
			s.batch.Note(cur.Account())
			s.count++
			if s.count >= vm.opts.SampleEvery {
				s.count = 0
				// The paper's CPU accounting: sample the isolate
				// reference of the running thread (§3.2).
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
		if home != nil && cur != home {
			res.Migrated = true
			break
		}
	}
	res.Instructions = s.steps
	t.alloc, t.qa = nil, nil
	vm.flushQuantum(s)
	return res
}

// PublishQuantum publishes what s holds batched mid-quantum. A scheduler
// worker calls it on its own goroutine when the code it runs requests a
// stop (a native's collection, kill or free): the other workers publish
// their batches as they park, and the requester's would otherwise stay
// unpublished inside the stop.
func (vm *VM) PublishQuantum(s *SampleState) { vm.flushQuantum(s) }

// flushQuantum publishes everything s holds batched: the clock ticks and
// the instruction total of the steps not yet published, the per-isolate
// instruction and call counts, the byte accounts, the SATB buffer and the
// allocation domain's slack and object count (heap Used/NumObjects). It
// runs when a quantum ends, on both engines, and at the sequential
// safepoint (withWorldStopped, mid-quantum on the run-loop goroutine), so
// stopped-world observers — the accounting GC, isolate kills, precise
// accounting — always see exact counters. Owned by the goroutine driving
// s.
func (vm *VM) flushQuantum(s *SampleState) {
	if n := s.steps - s.published; n != 0 {
		vm.clock.Add(n)
		vm.totalInstrs.Add(n)
		s.published = s.steps
	}
	s.batch.Flush()
	if a := s.alloc; a != nil {
		a.flush(vm.heap)
	}
}
