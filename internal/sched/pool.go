// Package sched implements the concurrent multi-isolate scheduler: it
// executes the threads of N isolates on a bounded pool of OS workers
// (goroutines), one isolate shard per worker at a time, with per-shard
// instruction budgets refilled by a proportional-share virtual-time run
// queue and a stop-the-world safepoint protocol for the accounting GC
// and the preemptive isolate kill path.
//
// # Execution model
//
// Every isolate of the world is a shard. A shard owns the green threads
// whose *current* isolate it is — the paper's thread-migration rule
// (§3.1) becomes the scheduling rule: when a thread's inter-isolate call
// (or return) changes its isolate reference, the thread is handed off to
// the target isolate's shard. One worker executes one shard at a time,
// so all isolate-keyed state (task class mirrors, statics,
// initialization, string-pool content) is only ever touched by the
// worker currently owning that isolate; cross-isolate state (accounts,
// kill flags, the heap, monitors) is synchronized in the lower layers —
// see internal/interp/README.md for the full locking discipline.
//
// # Budgets and proportional share
//
// A dispatch gives a shard a slice of sliceFactor×Quantum instructions,
// consumed by its runnable threads round-robin in Quantum-sized chunks.
// Under the default PolicyProportional the runnable shard with the
// lowest virtual time runs next: each shard's virtual time advances by
// consumed/Weight, so over any interval runnable shards receive CPU in
// proportion to their isolate weights (stride scheduling) and a
// flooding tenant can never push a competitor below its share. Waking
// shards are capped to the dispatch floor (zero lag) so sleeping earns
// no credit; priority aging and the interactive QoS class adjust
// ordering only — see README.md for the full model and the exact
// magnitude-invariance argument. PolicyRoundRobin keeps the original
// FIFO refill as a baseline. The global budget is a shared pool the
// workers draw quanta from.
//
// # Stop-the-world
//
// CollectGarbage and KillIsolate need the object graph and thread stacks
// quiescent. The pool implements interp.Safepointer: the requester (a
// worker that hit allocation pressure, or a host goroutine such as an
// admin watchdog) raises the stop flag, every worker parks at its next
// instruction boundary, the critical section runs alone, and the world
// resumes. Requests are reentrant per goroutine so a kill that triggers
// an allocation-pressure collection does not self-deadlock.
package sched

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ijvm/internal/core"
	"ijvm/internal/interp"
)

// sliceFactor is how many scheduler quanta one shard dispatch may
// consume before the shard returns to the run queue.
const sliceFactor = 8

// vrtUnit is the virtual-time scale: a shard at core.DefaultWeight
// advances its virtual time by exactly one unit per instruction, so
// vrt = floor(consumed·vrtUnit/weight) stays exact under the
// remainder-carry division in advanceVrt.
const vrtUnit = core.DefaultWeight

// agingFactor sets the default aging threshold (in executed
// instructions, global clock) as a multiple of the slice length: a
// shard queued longer than this outranks class and virtual-time order
// (FIFO among aged shards), bounding worst-case queue delay even under
// pathological weight ratios.
const agingFactor = 64

// Policy selects the run-queue discipline.
type Policy uint8

const (
	// PolicyProportional (the default) dispatches the runnable shard
	// with the lowest virtual time; CPU is shared in proportion to
	// isolate weights.
	PolicyProportional Policy = iota
	// PolicyRoundRobin is the original FIFO refill: every runnable
	// shard gets one slice per cycle regardless of weight. Kept as the
	// baseline leg for the QoS/SLO benchmarks.
	PolicyRoundRobin
)

// Config parameterizes a concurrent run.
type Config struct {
	// Workers is the worker-goroutine count; <= 0 selects GOMAXPROCS.
	Workers int
	// Budget bounds total executed instructions; <= 0 means unlimited.
	Budget int64
	// Target, when non-nil, ends the run as soon as it finishes.
	Target *interp.Thread
	// Policy selects the run-queue discipline (default
	// PolicyProportional).
	Policy Policy
	// Governor, when non-nil, is sampled at dispatch boundaries for
	// admission control and load shedding.
	Governor *Governor
	// AgingInstrs overrides the aging threshold (global executed
	// instructions a shard may wait queued before it outranks class and
	// virtual-time order); 0 selects agingFactor×slice.
	AgingInstrs int64
}

type shardState uint8

const (
	shardIdle shardState = iota
	shardQueued
	shardRunning
)

// shard is the scheduling unit: one isolate and the threads currently
// executing in it. threads is owned by the running worker during a
// slice and by pool.mu otherwise; inbox is always pool.mu-guarded and
// is merged at slice boundaries. The virtual-time fields (vrt, vrtRem,
// vtie) and the queue bookkeeping (queuedAt, intCounted, sliceStart)
// are pool.mu-guarded.
type shard struct {
	iso     *core.Isolate
	seq     int
	threads []*interp.Thread
	inbox   []*interp.Thread
	state   shardState
	rr      int
	instrs  int64

	// vrt is the shard's virtual time: exactly
	// floor(effectiveConsumed·vrtUnit/weight), maintained by
	// remainder-carry division (vrtRem is the running remainder). vtie
	// is the effective consumed-instruction total itself, used as the
	// tiebreak so that at equal weights the dispatch order is a pure
	// function of consumption and shard index — byte-identical across
	// weight magnitudes (see README.md).
	vrt    int64
	vrtRem int64
	vtie   int64
	// queuedAt is the global instruction clock at enqueue (aging).
	queuedAt int64
	// intCounted records that this queued shard is counted in
	// pool.intQueued (interactive preemption).
	intCounted bool
	// sliceStart is s.instrs at dispatch; the delta at slice end is the
	// consumption advancing vrt.
	sliceStart int64
}

// advanceVrt advances the shard's virtual time by n consumed
// instructions at weight w, carrying the division remainder so vrt
// remains the exact floor of the scaled total (no drift, no
// magnitude-dependent truncation ties).
func (s *shard) advanceVrt(n, w int64) {
	num := n*vrtUnit + s.vrtRem
	s.vrt += num / w
	s.vrtRem = num % w
	s.vtie += n
}

type endReason uint8

const (
	endNone endReason = iota
	endAllDone
	endBudget
	endDeadlock
	endShutdown
	endTarget
)

type pool struct {
	vm      *interp.VM
	quantum int64
	slice   int64
	limited bool
	policy  Policy
	gov     *Governor
	aging   int64
	// target, when non-nil, ends the run as soon as it finishes (the
	// concurrent counterpart of VM.RunUntil's per-thread target).
	target *interp.Thread

	budget atomic.Int64
	// stop is polled by workers at every instruction boundary; it rises
	// for stop-the-world pauses and for run termination.
	stop    atomic.Bool
	stwWant atomic.Bool
	// intQueued counts queued interactive shards; batch slices poll it
	// at quantum boundaries and yield early when it is nonzero.
	intQueued atomic.Int64

	mu     sync.Mutex
	cond   *sync.Cond
	shards map[*core.Isolate]*shard
	order  []*shard
	queue  []*shard
	alive  int
	idle   int
	parked int
	ended  bool
	reason endReason
	// vminVrt/vminRem/vminTie form the dispatch floor: the virtual-time
	// key of the most recently dispatched shard (monotone — dispatch
	// always picks the queue minimum and waking shards are capped up to
	// it). An idle shard re-entering the queue below the floor adopts
	// all three fields, so sleeping earns no virtual-time credit (zero
	// lag) and a waker cannot monopolize the CPU to catch up.
	vminVrt int64
	vminRem int64
	vminTie int64
	// nextWake is the earliest timed-sleep deadline among idle shards
	// (MaxInt64 when none): busy workers check it each dispatch so
	// sleepers wake as soon as the running shards advance the clock far
	// enough, without waiting for full quiescence.
	nextWake int64

	stwDepth int
	stwOwner int64

	goidMu  sync.RWMutex
	workers map[int64]bool

	instrs atomic.Int64
	wg     sync.WaitGroup
}

// Run executes every live thread of the VM on a pool of workers until
// all threads finish, the global instruction budget is exhausted, the
// platform shuts down, or no thread can ever run again. workers <= 0
// selects GOMAXPROCS; budget <= 0 means unlimited.
//
// Run must not race with the sequential engine (VM.Run / VM.RunUntil)
// or with a second Run on the same VM; host-side administration
// (snapshots, detection, KillIsolate, CollectGarbage) is safe to call
// concurrently from other goroutines while Run executes. A caller that
// launches Run on a separate goroutine must observe the run before
// administering it preemptively (e.g. wait for VM.TotalInstructions to
// advance): before Run installs its safepoint machinery the VM cannot
// stop workers it does not know about yet.
func Run(vm *interp.VM, workers int, budget int64) interp.RunResult {
	return RunConfig(vm, Config{Workers: workers, Budget: budget})
}

// RunUntil is Run, additionally stopping as soon as target finishes —
// the per-thread target parity with the sequential VM.RunUntil. Workers
// observe the target at every instruction boundary, so the run ends at
// the same precision as the sequential engine.
func RunUntil(vm *interp.VM, workers int, budget int64, target *interp.Thread) interp.RunResult {
	return RunConfig(vm, Config{Workers: workers, Budget: budget, Target: target})
}

// AwaitStart blocks until a concurrent run started on another goroutine
// has attached to vm, so the caller may spawn threads into it and
// administer it (kill, collect, pool refill). Waiting for
// vm.TotalInstructions() to leave zero does not do: after a host-side
// warm-up it already has. The run must outlive the wait.
func AwaitStart(vm *interp.VM) {
	for !vm.SchedulerAttached() {
		time.Sleep(50 * time.Microsecond)
	}
}

// RunConfig is Run with the full QoS surface: scheduling policy,
// per-isolate weights (read from core.Isolate), aging, and an optional
// governor.
func RunConfig(vm *interp.VM, cfg Config) interp.RunResult {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &pool{
		vm:      vm,
		quantum: int64(vm.Options().Quantum),
		limited: cfg.Budget > 0,
		policy:  cfg.Policy,
		gov:     cfg.Governor,
		target:  cfg.Target,
		shards:  make(map[*core.Isolate]*shard),
		workers: make(map[int64]bool),
	}
	p.slice = p.quantum * sliceFactor
	p.aging = cfg.AgingInstrs
	if p.aging <= 0 {
		p.aging = p.slice * agingFactor
	}
	p.nextWake = math.MaxInt64
	p.cond = sync.NewCond(&p.mu)
	if p.limited {
		p.budget.Store(cfg.Budget)
	} else {
		p.budget.Store(math.MaxInt64)
	}

	for _, iso := range vm.World().Isolates() {
		p.shardFor(iso)
	}
	for _, t := range vm.Threads() {
		if t.Done() {
			continue
		}
		s := p.shardFor(t.CurrentIsolate())
		s.threads = append(s.threads, t)
	}
	for _, s := range p.order {
		if len(s.threads) > 0 {
			p.enqueueLocked(s)
		}
	}

	// alive must be published before the safepointer: a host-initiated
	// stop-the-world arriving in the startup window must wait for the
	// (about-to-start) workers to park rather than observe an empty pool
	// and run unprotected.
	p.alive = workers
	vm.SetSchedHooks(p)
	vm.SetSafepointer(p)
	defer func() {
		vm.SetSchedHooks(nil)
		vm.SetSafepointer(nil)
	}()

	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	p.wg.Wait()

	return p.result()
}

// shardFor returns (creating if needed) the shard of iso. Callers during
// the run hold p.mu; the setup phase is single-goroutine.
func (p *pool) shardFor(iso *core.Isolate) *shard {
	if s, ok := p.shards[iso]; ok {
		return s
	}
	s := &shard{iso: iso, seq: len(p.order)}
	p.shards[iso] = s
	p.order = append(p.order, s)
	return s
}

func (p *pool) result() interp.RunResult {
	res := interp.RunResult{Instructions: p.instrs.Load()}
	switch p.reason {
	case endAllDone:
		res.AllDone = true
	case endBudget:
		res.BudgetExhausted = true
	case endDeadlock:
		res.Deadlocked = true
	case endShutdown:
		res.Shutdown = true
	case endTarget:
		res.TargetDone = true
	}
	for _, s := range p.order {
		remaining := 0
		for _, t := range append(s.threads, s.inbox...) {
			if !t.Done() {
				remaining++
			}
		}
		res.PerIsolate = append(res.PerIsolate, interp.IsolateRun{
			IsolateID:        int32(s.iso.ID()),
			Name:             s.iso.Name(),
			Instructions:     s.instrs,
			Killed:           s.iso.Killed(),
			ThreadsRemaining: remaining,
			Weight:           s.iso.Weight(),
		})
	}
	return res
}

// worker is one pool goroutine: it dispatches queued shards, parks for
// stop-the-world requests, and triggers quiescence handling when it is
// the last worker out of work.
func (p *pool) worker() {
	defer p.wg.Done()
	gid := goid()
	p.goidMu.Lock()
	p.workers[gid] = true
	p.goidMu.Unlock()
	defer func() {
		p.goidMu.Lock()
		delete(p.workers, gid)
		p.goidMu.Unlock()
	}()

	var sampler interp.SampleState
	defer p.vm.ReleaseWorkerState(&sampler)

	p.mu.Lock()
	for {
		if p.ended {
			p.alive--
			p.cond.Broadcast()
			p.mu.Unlock()
			return
		}
		if p.stwPendingLocked() {
			p.parked++
			p.cond.Broadcast()
			for p.stwPendingLocked() {
				p.cond.Wait()
			}
			p.parked--
			continue
		}
		if p.target != nil && p.target.Done() {
			p.endLocked(endTarget)
			continue
		}
		if p.limited && p.budget.Load() <= 0 {
			p.endLocked(endBudget)
			continue
		}
		if p.nextWake != math.MaxInt64 && p.vm.Clock() >= p.nextWake {
			p.requeueWakeableLocked()
			p.recomputeNextWakeLocked()
		}
		if s := p.dequeueLocked(); s != nil {
			p.mu.Unlock()
			end := p.runSlice(s, &sampler)
			// Governor sampling happens at the dispatch boundary with
			// p.mu released: an escalation to kill stops the world,
			// which must not be attempted while holding the pool lock.
			if p.gov != nil {
				p.gov.tick(p)
			}
			p.mu.Lock()
			p.finishSliceLocked(s)
			if end != endNone {
				p.endLocked(end)
			}
			continue
		}
		// No work. The last worker to go idle decides whether the run is
		// over, deadlocked, or just waiting for a virtual-clock jump.
		p.idle++
		if p.idle == p.alive && p.parked == 0 && p.stwDepth == 0 {
			p.quiesceLocked()
		}
		if len(p.queue) == 0 && !p.ended && !p.stwPendingLocked() {
			p.cond.Wait()
		}
		p.idle--
	}
}

func (p *pool) stwPendingLocked() bool { return p.stwDepth > 0 || p.stwWant.Load() }

// endLocked terminates the run; p.mu held.
func (p *pool) endLocked(r endReason) {
	if p.ended {
		return
	}
	p.ended = true
	p.reason = r
	p.stop.Store(true)
	p.cond.Broadcast()
}

// enqueueLocked transitions s to shardQueued: stamps the aging clock,
// applies the zero-lag wake cap (idle shards only — a shard requeued
// straight from running keeps its earned virtual-time deficit), and
// maintains the interactive-queued count. p.mu held; the caller has
// established that s is not already queued.
func (p *pool) enqueueLocked(s *shard) {
	if p.policy == PolicyProportional && s.state == shardIdle {
		if s.vrt < p.vminVrt || (s.vrt == p.vminVrt && s.vtie < p.vminTie) {
			s.vrt, s.vrtRem, s.vtie = p.vminVrt, p.vminRem, p.vminTie
		}
	}
	s.state = shardQueued
	s.queuedAt = p.instrs.Load()
	if s.iso.QoS() == core.QoSInteractive {
		s.intCounted = true
		p.intQueued.Add(1)
	}
	p.queue = append(p.queue, s)
}

// dequeueLocked removes and returns the next shard to dispatch (nil when
// the queue is empty), merging its inbox. PolicyRoundRobin pops the
// queue head (FIFO); PolicyProportional scans for the minimum-key shard
// (aged first, then interactive before batch, then lowest virtual time)
// and advances the dispatch floor to its key. p.mu held.
func (p *pool) dequeueLocked() *shard {
	if len(p.queue) == 0 {
		return nil
	}
	best := 0
	if p.policy == PolicyProportional {
		for i := 1; i < len(p.queue); i++ {
			if p.shardLessLocked(p.queue[i], p.queue[best]) {
				best = i
			}
		}
	}
	s := p.queue[best]
	copy(p.queue[best:], p.queue[best+1:])
	p.queue[len(p.queue)-1] = nil
	p.queue = p.queue[:len(p.queue)-1]
	if p.policy == PolicyProportional {
		if s.vrt > p.vminVrt || (s.vrt == p.vminVrt && s.vtie > p.vminTie) {
			p.vminVrt, p.vminRem, p.vminTie = s.vrt, s.vrtRem, s.vtie
		}
	}
	if s.intCounted {
		s.intCounted = false
		p.intQueued.Add(-1)
	}
	s.state = shardRunning
	s.sliceStart = s.instrs
	s.threads = append(s.threads, s.inbox...)
	s.inbox = nil
	return s
}

// agedLocked reports whether s has waited past the aging threshold.
func (p *pool) agedLocked(s *shard) bool {
	return p.instrs.Load()-s.queuedAt >= p.aging
}

// shardLessLocked is the proportional-share dispatch order: aged shards
// first (FIFO among themselves — bounded worst-case queue delay), then
// interactive before batch, then lowest virtual time with ties broken
// by effective consumption and shard index. At equal weights the whole
// key reduces to (consumption, index), which is what makes equal-weight
// runs byte-identical across weight magnitudes. p.mu held.
func (p *pool) shardLessLocked(a, b *shard) bool {
	aAged, bAged := p.agedLocked(a), p.agedLocked(b)
	if aAged != bAged {
		return aAged
	}
	if aAged {
		if a.queuedAt != b.queuedAt {
			return a.queuedAt < b.queuedAt
		}
	} else {
		aInt := a.iso.QoS() == core.QoSInteractive
		bInt := b.iso.QoS() == core.QoSInteractive
		if aInt != bInt {
			return aInt
		}
	}
	if a.vrt != b.vrt {
		return a.vrt < b.vrt
	}
	if a.vtie != b.vtie {
		return a.vtie < b.vtie
	}
	return a.seq < b.seq
}

// finishSliceLocked advances the shard's virtual time by what the slice
// consumed, merges its inbox and requeues or idles it; p.mu held.
func (p *pool) finishSliceLocked(s *shard) {
	if p.policy == PolicyProportional {
		if consumed := s.instrs - s.sliceStart; consumed > 0 {
			s.advanceVrt(consumed, s.iso.Weight())
		}
	}
	s.threads = append(s.threads, s.inbox...)
	s.inbox = nil
	// Compact finished threads.
	live := s.threads[:0]
	for _, t := range s.threads {
		if !t.Done() {
			live = append(live, t)
		}
	}
	for i := len(live); i < len(s.threads); i++ {
		s.threads[i] = nil
	}
	s.threads = live
	// Re-poll promotability (not just the Runnable state) before idling:
	// a monitor release or thread finish that happened while this shard
	// was running was skipped by ThreadsChanged (the shard was not idle),
	// and this poll under p.mu is what closes that window — any later
	// event sees the shard idle and queues it through the hooks.
	runnable := false
	for _, t := range s.threads {
		if t.Waking() || p.vm.PromoteRunnable(t) {
			runnable = true
			break
		}
	}
	if runnable && !p.ended {
		p.enqueueLocked(s)
		p.cond.Broadcast()
	} else {
		s.state = shardIdle
		if w, ok := p.shardWakeDeadline(s); ok && w < p.nextWake {
			p.nextWake = w
		}
	}
}

// shardWakeDeadline returns the earliest timed-sleep deadline among the
// shard's threads. p.mu held (the shard is idle).
func (p *pool) shardWakeDeadline(s *shard) (int64, bool) {
	earliest := int64(math.MaxInt64)
	for _, t := range s.threads {
		if w, ok := p.vm.WakeDeadline(t); ok && w < earliest {
			earliest = w
		}
	}
	for _, t := range s.inbox {
		if w, ok := p.vm.WakeDeadline(t); ok && w < earliest {
			earliest = w
		}
	}
	if earliest == math.MaxInt64 {
		return 0, false
	}
	return earliest, true
}

// recomputeNextWakeLocked rebuilds nextWake from the still-idle shards.
func (p *pool) recomputeNextWakeLocked() {
	p.nextWake = math.MaxInt64
	for _, s := range p.order {
		if s.state != shardIdle {
			continue
		}
		if w, ok := p.shardWakeDeadline(s); ok && w < p.nextWake {
			p.nextWake = w
		}
	}
}

// runSlice executes one dispatch of shard s: its runnable threads in
// round-robin quantum chunks until the slice budget is consumed, the
// shard has nothing runnable, a queued interactive shard preempts a
// batch slice, or the stop flag rises. It returns the end reason the
// slice observed (endNone when the run continues).
func (p *pool) runSlice(s *shard, sampler *interp.SampleState) endReason {
	remaining := p.slice
	interactive := s.iso.QoS() == core.QoSInteractive
	for remaining > 0 && !p.stop.Load() {
		t := p.nextRunnable(s)
		if t == nil {
			return endNone
		}
		q := p.quantum
		if q > remaining {
			q = remaining
		}
		if p.limited {
			q = p.reserveBudget(q)
			if q == 0 {
				return endNone
			}
		}
		res := p.vm.RunThreadQuantum(t, s.iso, q, &p.stop, sampler, p.target)
		// Collector hook at the worker's quantum boundary: open a
		// background cycle on occupancy, contribute one mark stride to
		// the shared gray pool (stealing spilled work from other
		// shards), or run the short terminal phase. The quantum's
		// batched charges and barrier records were flushed by the
		// RunThreadQuantum epilogue, so a stop-the-world started here
		// observes exact state.
		p.vm.GCQuantum(sampler)
		if p.limited && res.Instructions < q {
			p.budget.Add(q - res.Instructions)
		}
		s.instrs += res.Instructions
		p.instrs.Add(res.Instructions)
		remaining -= res.Instructions
		if res.Instructions == 0 && !res.Migrated && !res.Stopped && !res.Shutdown && !res.TargetDone {
			// Defensive: a runnable thread that made no progress (should
			// not happen) must not spin the slice loop.
			remaining--
		}
		if res.Migrated {
			p.migrate(s, t)
		}
		if res.Shutdown {
			return endShutdown
		}
		if res.TargetDone || (p.target != nil && p.target.Done()) {
			return endTarget
		}
		// Interactive preemption: a batch slice yields at the quantum
		// boundary as soon as an interactive shard is waiting. The
		// shard requeues with its virtual time advanced only by what it
		// actually consumed, so the yield costs it nothing in share.
		if !interactive && p.policy == PolicyProportional && p.intQueued.Load() > 0 {
			return endNone
		}
	}
	return endNone
}

// reserveBudget atomically takes up to want instructions from the global
// budget, returning how many were granted.
func (p *pool) reserveBudget(want int64) int64 {
	for {
		rem := p.budget.Load()
		if rem <= 0 {
			return 0
		}
		take := want
		if take > rem {
			take = rem
		}
		if p.budget.CompareAndSwap(rem, rem-take) {
			return take
		}
	}
}

// nextRunnable returns the next runnable thread of s in round-robin
// order, compacting finished threads, or nil.
func (p *pool) nextRunnable(s *shard) *interp.Thread {
	n := len(s.threads)
	for scan := 0; scan < n; scan++ {
		s.rr++
		t := s.threads[s.rr%n]
		if t.Done() {
			continue
		}
		if p.vm.PromoteRunnable(t) {
			return t
		}
	}
	return nil
}

// migrate hands a thread whose current isolate changed to its new shard.
// The caller's worker owns s, so removing from s.threads is safe; the
// target shard only ever receives through its inbox.
func (p *pool) migrate(s *shard, t *interp.Thread) {
	for i, x := range s.threads {
		if x == t {
			s.threads = append(s.threads[:i], s.threads[i+1:]...)
			break
		}
	}
	if t.Done() {
		return
	}
	target := t.CurrentIsolate()
	p.mu.Lock()
	ns := p.shardFor(target)
	ns.inbox = append(ns.inbox, t)
	if ns.state == shardIdle {
		p.enqueueLocked(ns)
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}

// quiesceLocked runs when every worker is idle and the queue is empty:
// promote parked threads, advance the virtual clock to the next wake
// deadline, or end the run (all done / deadlocked / shut down). p.mu
// held.
func (p *pool) quiesceLocked() {
	if p.target != nil && p.target.Done() {
		p.endLocked(endTarget)
		return
	}
	if p.vm.IsShutdown() {
		p.endLocked(endShutdown)
		return
	}
	if p.requeueWakeableLocked() {
		return
	}
	if p.vm.LiveThreads() == 0 {
		p.endLocked(endAllDone)
		return
	}
	// A cross-shard wake may be mid-staging (detached but the exception
	// still allocating): the ThreadUnparked hook will arrive; just wait.
	for _, s := range p.order {
		for _, t := range append(s.threads, s.inbox...) {
			if t.Waking() {
				return
			}
		}
	}
	if deadline, ok := p.vm.NextWakeDeadline(); ok {
		p.vm.AdvanceClockTo(deadline)
		if p.requeueWakeableLocked() {
			return
		}
	}
	p.endLocked(endDeadlock)
}

// requeueWakeableLocked queues every idle shard that has a promotable
// thread; it reports whether any shard was queued. p.mu held.
func (p *pool) requeueWakeableLocked() bool {
	any := false
	for _, s := range p.order {
		if s.state != shardIdle {
			continue
		}
		for _, t := range append(s.threads, s.inbox...) {
			if t.Done() {
				continue
			}
			if p.vm.PromoteRunnable(t) {
				p.enqueueLocked(s)
				any = true
				break
			}
		}
	}
	if any {
		p.cond.Broadcast()
	}
	return any
}

// --- interp.SchedHooks ---------------------------------------------------

// ThreadSpawned routes a new thread to its creator's shard. The spawn
// stamp is retaken here, under p.mu, so latency harnesses measure from
// the moment the scheduler became responsible for the thread.
func (p *pool) ThreadSpawned(t *interp.Thread) {
	p.mu.Lock()
	t.RestampSpawn(p.vm.Clock())
	s := p.shardFor(t.CurrentIsolate())
	s.inbox = append(s.inbox, t)
	if s.state == shardIdle {
		p.enqueueLocked(s)
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

// ThreadUnparked queues the shard of a thread woken by notify/interrupt.
func (p *pool) ThreadUnparked(t *interp.Thread) {
	p.mu.Lock()
	s := p.shardFor(t.CurrentIsolate())
	if s.state == shardIdle {
		p.enqueueLocked(s)
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

// ThreadsChanged re-queues every idle shard with live threads: a monitor
// was freed or a thread finished, so blocked/joining threads anywhere
// may be promotable now.
func (p *pool) ThreadsChanged() {
	p.mu.Lock()
	for _, s := range p.order {
		if s.state != shardIdle {
			continue
		}
		hasLive := false
		for _, t := range append(s.threads, s.inbox...) {
			if !t.Done() {
				hasLive = true
				break
			}
		}
		if hasLive {
			p.enqueueLocked(s)
		}
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

// --- interp.Safepointer --------------------------------------------------

// StopTheWorld parks every worker at an instruction boundary, runs fn
// alone, and resumes. Reentrant per goroutine; safe from workers (a
// worker counts itself as parked while it owns the stop) and from host
// goroutines.
func (p *pool) StopTheWorld(fn func()) {
	gid := goid()
	p.goidMu.RLock()
	isWorker := p.workers[gid]
	p.goidMu.RUnlock()

	p.mu.Lock()
	if p.stwDepth > 0 && p.stwOwner == gid {
		// Nested request from inside the critical section.
		p.mu.Unlock()
		fn()
		return
	}
	if isWorker {
		p.parked++
		p.cond.Broadcast()
	}
	for p.stwDepth > 0 {
		p.cond.Wait()
	}
	p.stwDepth = 1
	p.stwOwner = gid
	p.stwWant.Store(true)
	p.stop.Store(true)
	for p.alive-p.idle-p.parked > 0 {
		p.cond.Wait()
	}
	p.mu.Unlock()

	fn()

	p.mu.Lock()
	p.stwDepth = 0
	p.stwOwner = 0
	p.stwWant.Store(false)
	if !p.ended {
		p.stop.Store(false)
	}
	if isWorker {
		p.parked--
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}
