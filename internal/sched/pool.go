// Package sched implements the concurrent multi-isolate scheduler: it
// executes the threads of N isolates on a bounded pool of OS workers
// (goroutines), one isolate shard per worker at a time, with per-shard
// instruction budgets refilled by a proportional-share virtual-time run
// queue and a stop-the-world safepoint protocol for the accounting GC
// and the preemptive isolate kill path.
//
// # Execution model
//
// Every isolate that existed when the run started or was created during
// it is a shard until the isolate is freed (VM.FreeIsolate retires its
// shard and folds its instruction total into RunResult.FreedIsolates), so
// the shard table is bounded by the isolates alive, not by the sessions
// ever served. A shard owns the green threads
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
// # Sharing the machine
//
// While the workers awake cover every processor, each yields its own to
// the Go runtime once per slice; an idle worker spins for the wall time of
// the last full slice — yielding — before it sleeps; queue events wake one
// sleeping worker per newly queued shard, and nothing else wakes one.
// README.md ("Sharing the machine", "Costs bounded by live state") has the
// contract and the measurements behind it.
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
	"sort"
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

// agingFactor sets the aging threshold (in executed
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
// is merged at slice boundaries — an idle shard's inbox is empty,
// because every arrival queues an idle shard at once. The virtual-time
// fields (vrt, vrtRem, vtie) and the queue bookkeeping (queuedAt,
// intCounted, sliceStart, parked, freed) are pool.mu-guarded.
type shard struct {
	iso     *core.Isolate
	seq     int
	threads []*interp.Thread
	inbox   []*interp.Thread
	state   shardState
	rr      int
	// retired counts the instructions the shard's threads retired,
	// whichever isolate each was charged to (an inlined cross-bundle leaf
	// body is charged to the callee's); base is the isolate's instruction
	// account when the shard was made: the run reports the account's
	// growth since (result).
	retired, base int64
	// parked records membership of pool.parkedShards: the shard is idle
	// and still owns an unfinished thread.
	parked bool
	// freed records that the isolate was freed (IsolateFreed): the shard
	// is retired as soon as it is idle with no thread left.
	freed bool

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
	// sliceStart is s.retired at dispatch; the delta at slice end is the
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

// dropDoneThreads compacts finished threads out of s.threads.
func (s *shard) dropDoneThreads() {
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

	mu sync.Mutex
	// cond is the safepoint condition: workers parked for a stop, stop
	// requesters waiting for them or for each other. work is where idle
	// workers sleep; it is signalled once per newly queued shard (and at
	// the end of a stop that found every worker asleep) and broadcast when
	// the run ends.
	cond *sync.Cond
	work *sync.Cond
	// shards holds the shard of every isolate that is not freed; nextSeq
	// numbers them in creation order. parkedShards is the subset that is
	// idle and still owns an unfinished thread, in seq order: the only
	// shards a wake event (monitor freed, thread finished, clock passed a
	// deadline) can concern, and so the only ones such events walk.
	shards       map[*core.Isolate]*shard
	nextSeq      int
	parkedShards []*shard
	freed        interp.FreedIsolates
	queue        []*shard
	alive        int
	idle         int
	parked       int
	// spinning counts idle workers in their bounded spin (they notice a
	// queued shard by themselves); sleeping counts those waiting on work
	// (written under mu, read without it by crowded).
	spinning int
	sleeping atomic.Int32
	ended    bool
	reason   endReason
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

	goidMu sync.RWMutex
	// workers maps each worker goroutine's ID to its driver state.
	workers map[int64]*interp.SampleState

	instrs atomic.Int64
	wg     sync.WaitGroup

	// queued mirrors len(queue) for spinning workers, which hold no lock.
	queued atomic.Int64
	// sliceWall is the wall time of the last slice that ran its whole
	// instruction budget: the bound of an idle worker's spin.
	sliceWall atomic.Int64
	// nworkers is the worker count and procs GOMAXPROCS at the start of
	// the run (crowded).
	nworkers int
	procs    int

	// Run statistics (statsLocked): plain atomics written on the dispatch
	// path and by the hooks; the shard counts are len(shards) and
	// freed.Count.
	yields         atomic.Int64
	spinsFoundWork atomic.Int64
	spinsSlept     atomic.Int64
	threadsChanged atomic.Int64
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
		workers: make(map[int64]*interp.SampleState),
	}
	p.slice = p.quantum * sliceFactor
	p.nworkers = workers
	p.procs = runtime.GOMAXPROCS(0)
	p.aging = p.slice * agingFactor
	p.nextWake = math.MaxInt64
	p.cond = sync.NewCond(&p.mu)
	p.work = sync.NewCond(&p.mu)
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
	for _, s := range p.shardsBySeq() {
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
	s := &shard{iso: iso, seq: p.nextSeq, base: iso.Account().Instructions.Load()}
	p.nextSeq++
	p.shards[iso] = s
	return s
}

// shardsBySeq returns the live shards in creation order.
func (p *pool) shardsBySeq() []*shard {
	out := make([]*shard, 0, len(p.shards))
	for _, s := range p.shards {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// result summarizes the ended run. The hooks are still installed, so a
// host goroutine may be spawning or freeing beside it: p.mu.
func (p *pool) result() interp.RunResult {
	p.mu.Lock()
	defer p.mu.Unlock()
	res := interp.RunResult{Instructions: p.instrs.Load(), FreedIsolates: p.freed, Sched: p.statsLocked()}
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
	for _, s := range p.shardsBySeq() {
		remaining := 0
		for _, ts := range [2][]*interp.Thread{s.threads, s.inbox} {
			for _, t := range ts {
				if !t.Done() {
					remaining++
				}
			}
		}
		res.PerIsolate = append(res.PerIsolate, interp.IsolateRun{
			IsolateID:        int32(s.iso.ID()),
			Name:             s.iso.Name(),
			Instructions:     s.iso.Account().Instructions.Load() - s.base,
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
	var sampler interp.SampleState
	defer p.vm.ReleaseWorkerState(&sampler)
	gid := goid()
	p.goidMu.Lock()
	p.workers[gid] = &sampler
	p.goidMu.Unlock()
	defer func() {
		p.goidMu.Lock()
		delete(p.workers, gid)
		p.goidMu.Unlock()
	}()

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
			start := time.Now()
			end := p.runSlice(s, &sampler)
			if s.retired-s.sliceStart >= p.slice {
				p.sliceWall.Store(int64(time.Since(start)))
			}
			// Governor sampling happens at the dispatch boundary with
			// p.mu released: an escalation to kill stops the world,
			// which must not be attempted while holding the pool lock.
			if p.gov != nil {
				p.gov.tick(p)
			}
			// The yield contract: once per slice, holding no lock, a
			// worker in a crowded pool offers its processor to the Go
			// runtime, so host goroutines (clients, a serving pool's
			// refiller, timers) run within a slice's wall time instead of
			// at sysmon's 10 ms preemption.
			if p.crowded() {
				runtime.Gosched()
				p.yields.Add(1)
			}
			p.mu.Lock()
			p.finishSliceLocked(s)
			if end != endNone {
				p.endLocked(end)
			}
			continue
		}
		// No work. The last worker to go idle decides at once whether the
		// run is over, deadlocked, or just waiting for a virtual-clock
		// jump; any other spins for a bounded time before it sleeps.
		p.idle++
		switch {
		case p.idle < p.alive:
			p.spinLocked()
		case p.parked == 0 && p.stwDepth == 0:
			p.quiesceLocked()
		}
		if p.nothingToDoLocked() {
			p.sleeping.Add(1)
			p.work.Wait()
			p.sleeping.Add(-1)
		}
		p.idle--
	}
}

// crowded reports that the workers awake — running a slice, spinning, or
// between the two — cover every processor, so host goroutines run only
// when a worker yields: the one condition for the per-slice yield and for
// the yield inside the idle spin. With a processor to spare (a one-worker
// pool on two processors, or the other worker asleep) the host runs there,
// and a yield would only wake that processor to steal the yielding worker
// (a lone worker yielding every slice ran 63 % slower). Lock-free.
func (p *pool) crowded() bool {
	return p.nworkers-int(p.sleeping.Load()) >= p.procs
}

// nothingToDoLocked reports that an idle worker has no reason to go back
// to the top of its loop. p.mu held.
func (p *pool) nothingToDoLocked() bool {
	return len(p.queue) == 0 && !p.ended && !p.stwPendingLocked()
}

// spinLocked is the bounded idle spin: the worker, counted idle, drops
// p.mu and polls the queue length for as long as the last full slice took
// (about 48 µs at the default quantum; not at all before a slice has been
// measured), yielding between polls in a crowded pool. A request that
// arrives within a slice of the last one is taken without a futex wake,
// and while the worker spins its processor keeps serving host goroutines
// and their timers: a worker that sleeps at once leaves the processor
// idle, and the Go runtime fires an idle processor's timers at millisecond
// resolution (README.md, "Sharing the machine": 174 sessions/s without the
// spin, 2 770 with it, in a harness that polls with 20 µs sleeps).
// p.mu held on entry and on return.
func (p *pool) spinLocked() {
	p.spinning++
	p.mu.Unlock()
	deadline := time.Now().Add(time.Duration(p.sliceWall.Load()))
	for {
		if p.crowded() {
			runtime.Gosched()
		}
		if p.queued.Load() > 0 || p.stop.Load() || !time.Now().Before(deadline) {
			break
		}
	}
	p.mu.Lock()
	p.spinning--
	if len(p.queue) > 0 {
		p.spinsFoundWork.Add(1)
	} else {
		p.spinsSlept.Add(1)
	}
}

// wakeWorkerLocked is called once per shard queued by somebody other
// than the worker that will dequeue it: it wakes one sleeping worker,
// unless spinning workers will notice the queue by themselves. p.mu held.
func (p *pool) wakeWorkerLocked() {
	if p.sleeping.Load() > 0 && len(p.queue) > p.spinning {
		p.work.Signal()
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
	p.work.Broadcast()
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
	if s.parked {
		p.unparkLocked(s)
	}
	s.state = shardQueued
	s.queuedAt = p.instrs.Load()
	if s.iso.QoS() == core.QoSInteractive {
		s.intCounted = true
		p.intQueued.Add(1)
	}
	p.queue = append(p.queue, s)
	p.queued.Store(int64(len(p.queue)))
}

// parkLocked adds the idle shard s to parkedShards, keeping seq order
// (wake events queue shards in that order; the set is small — shards
// whose threads all sleep, wait or block). p.mu held.
func (p *pool) parkLocked(s *shard) {
	i := sort.Search(len(p.parkedShards), func(i int) bool { return p.parkedShards[i].seq > s.seq })
	p.parkedShards = append(p.parkedShards, nil)
	copy(p.parkedShards[i+1:], p.parkedShards[i:])
	p.parkedShards[i] = s
	s.parked = true
}

// unparkLocked removes s from parkedShards. p.mu held.
func (p *pool) unparkLocked(s *shard) {
	i := sort.Search(len(p.parkedShards), func(i int) bool { return p.parkedShards[i].seq >= s.seq })
	copy(p.parkedShards[i:], p.parkedShards[i+1:])
	p.parkedShards[len(p.parkedShards)-1] = nil
	p.parkedShards = p.parkedShards[:len(p.parkedShards)-1]
	s.parked = false
}

// retireLocked drops the idle, thread-less shard of a freed isolate and
// folds its instruction total into the run result. p.mu held.
func (p *pool) retireLocked(s *shard) {
	delete(p.shards, s.iso)
	p.freed.Count++
	p.freed.Instructions += s.iso.Account().Instructions.Load() - s.base
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
	p.queued.Store(int64(len(p.queue)))
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
	s.sliceStart = s.retired
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
// consumed, merges its inbox and requeues, parks, idles or retires it;
// p.mu held.
func (p *pool) finishSliceLocked(s *shard) {
	if p.policy == PolicyProportional {
		if consumed := s.retired - s.sliceStart; consumed > 0 {
			s.advanceVrt(consumed, s.iso.Weight())
		}
	}
	s.threads = append(s.threads, s.inbox...)
	s.inbox = nil
	s.dropDoneThreads()
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
		// Nobody is woken: this worker is about to dequeue again, and
		// whoever queued the other shards woke a worker for them.
		p.enqueueLocked(s)
		return
	}
	s.state = shardIdle
	switch {
	case len(s.threads) > 0:
		p.parkLocked(s)
		if w, ok := p.shardWakeDeadline(s); ok && w < p.nextWake {
			p.nextWake = w
		}
	case s.freed:
		p.retireLocked(s)
	}
}

// shardWakeDeadline returns the earliest timed-sleep deadline among the
// shard's threads. p.mu held (the shard is idle, so its inbox is empty).
func (p *pool) shardWakeDeadline(s *shard) (int64, bool) {
	earliest := int64(math.MaxInt64)
	for _, t := range s.threads {
		if w, ok := p.vm.WakeDeadline(t); ok && w < earliest {
			earliest = w
		}
	}
	if earliest == math.MaxInt64 {
		return 0, false
	}
	return earliest, true
}

// recomputeNextWakeLocked rebuilds nextWake from the parked shards.
func (p *pool) recomputeNextWakeLocked() {
	p.nextWake = math.MaxInt64
	for _, s := range p.parkedShards {
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
		s.retired += res.Instructions
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
		p.wakeWorkerLocked()
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
	// Every shard is idle here, so every unfinished thread is in a parked
	// shard.
	for _, s := range p.parkedShards {
		for _, t := range s.threads {
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

// requeueWakeableLocked queues every parked shard that has a promotable
// thread, waking a worker for each; it reports whether any shard was
// queued. p.mu held.
func (p *pool) requeueWakeableLocked() bool {
	any := false
	keep := p.parkedShards[:0]
	for _, s := range p.parkedShards {
		wakeable := false
		for _, t := range s.threads {
			if !t.Done() && p.vm.PromoteRunnable(t) {
				wakeable = true
				break
			}
		}
		if !wakeable {
			keep = append(keep, s)
			continue
		}
		s.parked = false // this loop rebuilds the set itself
		p.enqueueLocked(s)
		p.wakeWorkerLocked()
		any = true
	}
	for i := len(keep); i < len(p.parkedShards); i++ {
		p.parkedShards[i] = nil
	}
	p.parkedShards = keep
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
		p.wakeWorkerLocked()
	}
	p.mu.Unlock()
}

// ThreadUnparked queues the shard of a thread woken by notify/interrupt.
func (p *pool) ThreadUnparked(t *interp.Thread) {
	p.mu.Lock()
	s := p.shardFor(t.CurrentIsolate())
	if s.state == shardIdle {
		p.enqueueLocked(s)
		p.wakeWorkerLocked()
	}
	p.mu.Unlock()
}

// ThreadsChanged re-polls the parked shards: a monitor was freed or a
// thread finished, so a blocked or joining thread in any of them may be
// promotable now. Shards that are queued or running re-poll by
// themselves before they idle (finishSliceLocked).
func (p *pool) ThreadsChanged() {
	p.threadsChanged.Add(1)
	p.mu.Lock()
	p.requeueWakeableLocked()
	p.mu.Unlock()
}

// IsolateCreated gives iso its shard, or retakes the base of the one it
// has: the run's row for iso counts what iso is charged from now on,
// even when its code only ever runs inlined into another shard's blocks.
func (p *pool) IsolateCreated(iso *core.Isolate) {
	p.mu.Lock()
	p.shardFor(iso).base = iso.Account().Instructions.Load()
	p.mu.Unlock()
}

// IsolateFreed retires iso's shard — now if it is idle, else when its
// slice ends — and drops the governor's record of the isolate, so a run
// that serves N sessions holds the shards of the isolates alive, not N.
func (p *pool) IsolateFreed(iso *core.Isolate) {
	p.mu.Lock()
	if s, ok := p.shards[iso]; ok {
		// FreeIsolate found no unfinished thread executing in iso, and an
		// idle shard's threads are all unfinished: it has none.
		s.freed = true
		if s.state == shardIdle && len(s.threads) == 0 {
			p.retireLocked(s)
		}
	}
	p.mu.Unlock()
	if p.gov != nil {
		p.gov.forget(iso)
	}
}

// statsLocked reads the run statistics. p.mu held.
func (p *pool) statsLocked() interp.SchedStats {
	return interp.SchedStats{
		ShardsLive:          int64(len(p.shards)),
		ShardsRetired:       int64(p.freed.Count),
		Yields:              p.yields.Load(),
		SpinsFoundWork:      p.spinsFoundWork.Load(),
		SpinsSlept:          p.spinsSlept.Load(),
		ThreadsChangedCalls: p.threadsChanged.Load(),
	}
}

// --- interp.Safepointer --------------------------------------------------

// StopTheWorld parks every worker at an instruction boundary, runs fn
// alone, and resumes. Reentrant per goroutine; safe from workers (a
// worker counts itself as parked while it owns the stop) and from host
// goroutines.
func (p *pool) StopTheWorld(fn func()) {
	gid := goid()
	p.goidMu.RLock()
	own := p.workers[gid]
	p.goidMu.RUnlock()
	isWorker := own != nil
	if isWorker {
		// A stop the worker's own code requests comes mid-quantum: publish
		// its batch, as the others publish theirs when they park.
		p.vm.PublishQuantum(own)
	}

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
	// A stop queues no shard, so it wakes no sleeper — unless every worker
	// sleeps: then nobody else will notice what the section did to the run
	// (a kill that finished the target, a shutdown beside it), and one is
	// woken to re-run the quiescence checks.
	if int(p.sleeping.Load()) == p.alive {
		p.work.Signal()
	}
	p.mu.Unlock()
}
