package interp

import (
	"errors"
	"math"
)

// RunResult summarizes one scheduler run.
type RunResult struct {
	// Instructions executed during this run.
	Instructions int64
	// AllDone reports that every thread finished.
	AllDone bool
	// BudgetExhausted reports that the instruction budget ran out first —
	// the "freeze" detector for baseline denial-of-service attacks.
	BudgetExhausted bool
	// Deadlocked reports that live threads remain but none can ever
	// become runnable (all parked forever).
	Deadlocked bool
	// TargetDone reports that RunUntil's target thread finished.
	TargetDone bool
	// Shutdown reports that the platform was shut down during the run.
	Shutdown bool
	// PerIsolate carries per-isolate execution results, one row per
	// isolate that is not freed when the run ends (one made during the
	// run counts from its creation, a clone from its seed); it is
	// populated by the concurrent scheduler (internal/sched) and empty
	// for sequential runs.
	PerIsolate []IsolateRun
	// FreedIsolates aggregates the rows of the isolates freed during a
	// concurrent run (VM.FreeIsolate), so that the PerIsolate
	// instructions plus FreedIsolates.Instructions equal Instructions.
	FreedIsolates FreedIsolates
	// Sched carries the concurrent scheduler's run statistics.
	Sched SchedStats
}

// FreedIsolates is what a concurrent run keeps of the isolates freed
// while it ran.
type FreedIsolates struct {
	// Count is the number of freed isolates that had a shard.
	Count int
	// Instructions is the total their shards executed.
	Instructions int64
}

// SchedStats are the concurrent scheduler's run statistics (see
// internal/sched: "Sharing the machine", "Costs bounded by live state").
type SchedStats struct {
	// ShardsLive is the number of shards held now; ShardsRetired counts
	// those dropped because their isolate was freed.
	ShardsLive, ShardsRetired int64
	// Yields counts the workers' once-per-slice runtime.Gosched calls.
	Yields int64
	// SpinsFoundWork and SpinsSlept count idle spins by how they ended:
	// a shard was queued in time, or the worker went to sleep.
	SpinsFoundWork, SpinsSlept int64
	// ThreadsChangedCalls counts SchedHooks.ThreadsChanged calls: monitor
	// releases and thread finishes that found some thread blocked or
	// joining.
	ThreadsChangedCalls int64
}

// IsolateRun is the per-isolate slice of a concurrent run's result.
type IsolateRun struct {
	// IsolateID and Name identify the isolate.
	IsolateID int32
	Name      string
	// Instructions is the growth of the isolate's instruction account over
	// the run: what it retired on its own shard and, inlined, on other
	// isolates' (a migrating leaf call charges its body to the callee).
	// An isolate created during the run counts from its first thread.
	Instructions int64
	// Killed reports the isolate was dead (killed or disposed) when the
	// run finished.
	Killed bool
	// ThreadsRemaining counts unfinished threads left in the shard.
	ThreadsRemaining int
	// Weight is the proportional-share weight the isolate ran under
	// (core.DefaultWeight unless set; meaningful only for concurrent
	// runs with the proportional policy).
	Weight int64
}

// Run executes runnable threads until all threads finish, the platform
// shuts down, the system deadlocks, or budget instructions have executed.
// budget <= 0 means unlimited.
func (vm *VM) Run(budget int64) RunResult {
	return vm.run(budget, nil)
}

// RunUntil is Run, stopping early once target finishes.
func (vm *VM) RunUntil(target *Thread, budget int64) RunResult {
	return vm.run(budget, target)
}

func (vm *VM) run(budget int64, target *Thread) RunResult {
	if budget <= 0 {
		budget = math.MaxInt64
	}
	vm.threadsMu.Lock()
	vm.compactThreadsLocked()
	vm.threadsMu.Unlock()
	var res RunResult
	for {
		if vm.IsShutdown() {
			res.Shutdown = true
			return res
		}
		if target != nil && target.Done() {
			res.TargetDone = true
			return res
		}
		if res.Instructions >= budget {
			res.BudgetExhausted = true
			return res
		}
		t := vm.pickRunnable()
		if t == nil {
			if vm.liveThreads.Load() == 0 {
				res.AllDone = true
				return res
			}
			if !vm.advanceClock() {
				res.Deadlocked = true
				return res
			}
			continue
		}
		quantum := int64(vm.opts.Quantum)
		if remaining := budget - res.Instructions; remaining < quantum {
			quantum = remaining
		}
		// The sequential driver of the one quantum routine: no stop flag
		// (stops are direct calls on this goroutine, see withWorldStopped)
		// and no home isolate (a migrating thread keeps running here).
		res.Instructions += vm.RunThreadQuantum(t, nil, quantum, nil, &vm.seq, target).Instructions
		// Collector hook: open a background cycle on occupancy, perform
		// one mark stride, or run the terminal phase — all at this
		// quantum boundary, with the batched charges just flushed.
		vm.GCQuantum(&vm.seq)
	}
}

// compactThreadsLocked is the thread-table rule: once finished threads
// are at least 64 and at least half of the table, drop them, keeping the
// order of the rest. Where it has just run, len(vm.threads) <=
// 2*live + 64. It runs at the start of every stop of either engine
// (stoppedSection) and of every sequential run, so a stop walks what is
// live and a long-lived VM (a gateway serving request threads, the OSGi
// shell) holds O(live) threads. Host references to dropped Thread handles
// stay valid, and RespawnThread lists a dropped thread again. The
// sequential round-robin cursor moves with the thread it points at, so
// the next pick is the one it would have been. threadsMu held.
func (vm *VM) compactThreadsLocked() {
	n := len(vm.threads)
	done := n - int(vm.liveThreads.Load())
	if done < 64 || done < n/2 {
		return
	}
	cursor := vm.rrIndex % n
	live := vm.threads[:0]
	for i, t := range vm.threads {
		if !t.Done() || t.arming {
			live = append(live, t)
		} else {
			t.pruned = true
		}
		if i == cursor {
			vm.rrIndex = len(live) - 1
		}
	}
	for i := len(live); i < n; i++ {
		vm.threads[i] = nil
	}
	vm.threads = live
}

// pickRunnable promotes wakeable threads and returns the next runnable
// thread in round-robin order, or nil. Sequential engine only; the
// concurrent scheduler polls per shard through PromoteRunnable.
//
// A lap of the ring ends on the thread the cursor points at. When that
// thread is the only unfinished one — a finished thread is never picked,
// and a thread counts as live before it can leave Done and after it
// entered Done — the lap's verdict is that thread's, so the pick skips the
// lap's visits to finished threads (CallRoot leaves up to 64 of them in
// the table before compactThreadsLocked drops them).
func (vm *VM) pickRunnable() *Thread {
	n := len(vm.threads)
	if n == 0 {
		return nil
	}
	vm.schedMu.Lock()
	defer vm.schedMu.Unlock()
	// (The cursor is -1 after a compaction that kept no thread.)
	if t := vm.threads[(vm.rrIndex%n+n)%n]; vm.liveThreads.Load() == 1 && !t.Done() {
		vm.rrIndex += n
		if vm.promoteLocked(t) {
			return t
		}
		return nil
	}
	for scan := 0; scan < n; scan++ {
		vm.rrIndex++
		t := vm.threads[(vm.rrIndex)%n]
		if vm.promoteLocked(t) {
			return t
		}
	}
	return nil
}

// promoteLocked attempts to make one thread runnable (waking it from an
// elapsed sleep, a free monitor, a notified wait or a finished join).
// It returns true when the thread is runnable afterwards. schedMu held.
func (vm *VM) promoteLocked(t *Thread) bool {
	switch t.State() {
	case StateRunnable:
		return true
	case StateSleeping:
		if t.wakeAt != SleepForever && vm.clock.Load() >= t.wakeAt {
			vm.wakeFromSleepLocked(t)
			return true
		}
	case StateBlockedMonitor:
		return vm.promoteBlockedLocked(t)
	case StateWaitingMonitor:
		if t.wakeAt != SleepForever && t.wakeAt > 0 && vm.clock.Load() >= t.wakeAt {
			// Timed wait elapsed: leave the wait set and contend for
			// the monitor again.
			obj := t.waitingOn
			vm.removeWaiterLocked(t, obj)
			vm.wakeWaiterLocked(t, obj)
			return vm.promoteBlockedLocked(t)
		}
	case StateWaitingJoin:
		if t.joinOn == nil || t.joinOn.Done() {
			vm.removeSleepGaugeLocked(t)
			t.setState(StateRunnable)
			t.joinOn = nil
			return true
		}
	}
	return false
}

// promoteBlockedLocked attempts to hand a free monitor to a blocked
// thread. For wait-reacquisition (savedLock > 0) the saved recursion
// count is restored; for monitorenter retries the instruction
// re-executes. schedMu held; the monitor word is read (and, for
// reacquisition, written) under its stripe (schedMu -> stripe ordering).
func (vm *VM) promoteBlockedLocked(t *Thread) bool {
	obj := t.blockedOn
	if obj == nil {
		t.setState(StateRunnable)
		return true
	}
	m, mu := obj.Monitor(), vm.monStripe(obj)
	mu.Lock()
	defer mu.Unlock()
	if m.Owner != 0 && m.Owner != t.id {
		return false
	}
	if t.savedLock > 0 {
		// Complete the Object.wait reacquisition atomically.
		m.Owner = t.id
		m.Count = t.savedLock
		t.savedLock = 0
		t.blockedOn = nil
		t.setState(StateRunnable)
		return true
	}
	// monitorenter retry: just make it runnable; the instruction
	// reattempts acquisition.
	t.blockedOn = nil
	t.setState(StateRunnable)
	return true
}

// wakeFromSleepLocked transitions a sleeping thread to runnable.
func (vm *VM) wakeFromSleepLocked(t *Thread) {
	vm.removeSleepGaugeLocked(t)
	t.setState(StateRunnable)
	t.wakeAt = 0
}

// advanceClock jumps the virtual clock to the earliest wake deadline of a
// parked thread. It returns false when no thread can ever wake (true
// deadlock). Sequential engine only.
func (vm *VM) advanceClock() bool {
	earliest, ok := vm.NextWakeDeadline()
	if !ok {
		return false
	}
	vm.AdvanceClockTo(earliest)
	return true
}

// NextWakeDeadline returns the earliest virtual-time deadline among
// parked threads, if any. Used by both engines when every thread is
// parked and only a clock jump can make progress.
func (vm *VM) NextWakeDeadline() (int64, bool) {
	vm.threadsMu.Lock()
	threads := append([]*Thread(nil), vm.threads...)
	vm.threadsMu.Unlock()
	vm.schedMu.Lock()
	defer vm.schedMu.Unlock()
	earliest := int64(math.MaxInt64)
	for _, t := range threads {
		switch t.State() {
		case StateSleeping, StateWaitingMonitor:
			if t.wakeAt != SleepForever && t.wakeAt > 0 && t.wakeAt < earliest {
				earliest = t.wakeAt
			}
		}
	}
	if earliest == math.MaxInt64 {
		return 0, false
	}
	return earliest, true
}

// AdvanceClockTo moves the virtual clock forward to tick (never
// backward).
func (vm *VM) AdvanceClockTo(tick int64) {
	for {
		cur := vm.clock.Load()
		if tick <= cur || vm.clock.CompareAndSwap(cur, tick) {
			return
		}
	}
}

// ErrInterrupted is returned by Sleep, Join and MonitorWait, without
// parking, when the calling thread has an interrupt pending (InterruptThread
// on a running thread sets it); the flag is cleared, and the natives throw
// java/lang/InterruptedException, as the JVM does on entry.
var ErrInterrupted = errors.New("interp: interrupted")

// takeInterruptLocked consumes t's pending interrupt. schedMu held.
func (t *Thread) takeInterruptLocked() bool {
	pending := t.interrupted
	t.interrupted = false
	return pending
}

// Sleep parks the calling thread for d virtual ticks (SleepForever for an
// unbounded sleep), or returns ErrInterrupted. Used by the Thread.sleep
// native.
func (vm *VM) Sleep(t *Thread, d int64) error {
	now := vm.NowTicks() // before schedMu: exact, and keeps schedMu a leaf
	vm.schedMu.Lock()
	defer vm.schedMu.Unlock()
	if t.takeInterruptLocked() {
		return ErrInterrupted
	}
	vm.sleepLocked(t, now, d)
	return nil
}

// Yield parks the calling thread for one tick. Thread.yield is no
// interruption point: a pending interrupt stays pending.
func (vm *VM) Yield(t *Thread) {
	now := vm.NowTicks()
	vm.schedMu.Lock()
	vm.sleepLocked(t, now, 1)
	vm.schedMu.Unlock()
}

// sleepLocked parks t until now+d (forever for SleepForever). schedMu
// held.
func (vm *VM) sleepLocked(t *Thread, now, d int64) {
	t.setState(StateSleeping)
	if d == SleepForever {
		t.wakeAt = SleepForever
	} else {
		t.wakeAt = now + d
	}
	vm.addSleepGaugeLocked(t)
	t.StageResumeVoid()
}

// Join parks the calling thread until other finishes, or returns
// ErrInterrupted.
func (vm *VM) Join(t *Thread, other *Thread) error {
	if other == nil || other.Done() {
		return nil
	}
	vm.schedMu.Lock()
	defer vm.schedMu.Unlock()
	if t.takeInterruptLocked() {
		return ErrInterrupted
	}
	t.setState(StateWaitingJoin)
	t.joinOn = other
	vm.addSleepGaugeLocked(t)
	t.StageResumeVoid()
	return nil
}

// InterruptThread wakes the thread with InterruptedException if it is
// parked in sleep, wait or join, and otherwise sets its interrupt flag,
// which its next sleep, join or wait consumes (ErrInterrupted). Threads
// blocked on monitor acquisition are not interruptible, as in the JVM.
//
// The wake happens in two phases: the thread is detached from its wait
// structures under schedMu (entering an internal staging state invisible
// to the schedulers), then the InterruptedException is allocated outside
// the lock (allocation can trigger a stop-the-world collection), and
// finally the staged throw is installed and the thread made runnable.
func (vm *VM) InterruptThread(t *Thread) error {
	vm.schedMu.Lock()
	wake := false
	switch t.State() {
	case StateSleeping, StateWaitingJoin:
		vm.removeSleepGaugeLocked(t)
		t.wakeAt = 0
		t.joinOn = nil
		t.setState(stateStaging)
		wake = true
	case StateWaitingMonitor:
		obj := t.waitingOn
		vm.removeWaiterLocked(t, obj)
		vm.removeSleepGaugeLocked(t)
		t.blockedOn = obj
		t.waitingOn = nil
		t.wakeAt = 0
		t.setState(stateStaging)
		wake = true
	default:
		t.interrupted = true
	}
	vm.schedMu.Unlock()
	if !wake {
		return nil
	}
	obj, err := vm.NewThrowable(t.CurrentIsolateOrZero(), ClassInterruptedException, "interrupted")
	vm.schedMu.Lock()
	if err == nil {
		t.interrupted = false
		t.StageResumeThrow(obj)
	}
	// Publish the final state even when the allocation failed: a thread
	// left in the staging state would be invisible to both schedulers
	// forever. The failure mode is a spurious wake without the
	// exception — the graceful degradation the pre-staging code had.
	if t.blockedOn != nil {
		// Interrupted out of Object.wait: contend for the monitor again,
		// delivering the exception once it is re-acquired.
		t.setState(StateBlockedMonitor)
	} else {
		t.setState(StateRunnable)
	}
	vm.schedMu.Unlock()
	vm.notifyUnparked(t)
	return err
}

// forceInterrupt wakes a parked thread of a killed isolate with the
// appropriate exception; used by the termination engine for threads
// blocked in system-library calls below killed-isolate frames (§3.3:
// "I-JVM sets the interrupted flag of the thread so that I/O or sleep
// calls are interrupted").
func (vm *VM) forceInterrupt(t *Thread) error {
	vm.schedMu.Lock()
	blocked := t.State() == StateBlockedMonitor
	if blocked {
		// A thread blocked entering a monitor of a killed isolate's
		// object is released with the exception staged; it never
		// acquires.
		t.blockedOn = nil
		t.setState(stateStaging)
	}
	vm.schedMu.Unlock()
	if !blocked {
		switch t.State() {
		case StateSleeping, StateWaitingJoin, StateWaitingMonitor:
			return vm.InterruptThread(t)
		default:
			return nil
		}
	}
	obj, err := vm.NewThrowable(t.CurrentIsolateOrZero(), ClassStoppedIsolateException, "monitor owner stopped")
	vm.schedMu.Lock()
	if err == nil {
		t.StageResumeThrow(obj)
	}
	// As in InterruptThread: never leave the thread in staging — on
	// allocation failure it wakes spuriously instead of vanishing.
	t.setState(StateRunnable)
	vm.schedMu.Unlock()
	vm.notifyUnparked(t)
	return err
}
