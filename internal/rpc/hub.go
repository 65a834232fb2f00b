package rpc

import (
	"sync"
	"sync/atomic"

	"ijvm/internal/core"
	"ijvm/internal/interp"
)

// A Hub owns all guest execution performed on behalf of RPC traffic for
// one VM. The interpreter's engine is sequential — concurrent RunUntil
// calls are unsound — so the hub funnels every dispatched call through
// one execution lock and gives each callee isolate a small worker pool
// that drains its request queue in slices. A caller that waits for a
// result serves the queue itself while the engine is free (Future.Wait),
// so a blocking call on an idle engine runs on its caller's goroutine
// and the workers take what nobody waiting could. Administrative actions
// that need the engine quiescent while traffic is flowing (isolate kills,
// explicit collections, interrupts) go through Sync, which takes the
// same lock; whoever dispatches releases it between slices, so admin
// work lands within one dispatch slice rather than behind a whole call
// budget.
//
// Lock ordering: execMu -> (vm's pinMu -> threadsMu/schedMu -> monitor
// stripe, heap's hostMu); execMu -> a pool's queue mutex (a helping
// waiter claims under the engine lock); mu -> a pool's queue mutex. The
// hub's own mu (pool map) and each pool's queue mutex are leaves taken
// only around queue manipulation, never while guest code runs.
type Hub struct {
	vm *interp.VM
	// collect is Collect(nil), made once: the collector of every link
	// copy's root batch.
	collect func()

	// execMu serializes all guest execution and engine-touching admin
	// operations driven through this hub. Every pool's spare shells and
	// the dispatch counters of Stats are only touched with it held.
	execMu     sync.Mutex
	dispatched HubStats

	// mu guards the pool map, each pool's open-link count and the
	// retirement counters. closed is written under it and read without.
	mu              sync.Mutex
	pools           map[*core.Isolate]*pool
	closed          atomic.Bool
	poolsRetired    int64
	retiredMaxQueue int
}

// HubStats are a hub's counters since it was created: plain integers
// written under the locks the call path already holds. VM.Metrics() will
// absorb them beside interp.StopStats and interp.SchedStats (ROADMAP
// item 10).
type HubStats struct {
	// Calls counts the requests claimed for execution, Batches the engine
	// sessions they ran as, MaxBatch the largest of those: Calls/Batches is
	// what one session's entry and hand-off costs are divided by.
	Calls, Batches int64
	MaxBatch       int
	// Helped counts the batches a waiting caller ran on its own goroutine
	// (Future.Wait on a free engine); the rest of Batches ran on workers.
	Helped int64
	// ShellReuses and FreshSpawns split the dispatched calls by where their
	// thread came from: a parked shell (interp.RespawnThread) or
	// interp.SpawnThread. Requests that fail before dispatch (closed link,
	// killed callee) are in neither.
	ShellReuses, FreshSpawns int64
	// MaxQueue is the deepest any callee's request queue has been.
	MaxQueue int
	// PoolsLive is the number of callees with a pool now, PoolsRetired how
	// many pools were dropped when their last link closed.
	PoolsLive    int
	PoolsRetired int64
}

// DefaultWorkers is the per-callee worker count. Workers multiplex one
// sequential engine, so this bounds how many requests are in flight per
// callee, not parallelism.
const DefaultWorkers = 2

// batchMax bounds how many queued requests one claim takes, by a worker
// or a helping waiter. A claimed batch executes as one engine session —
// all threads spawned up front, round-robined through shared slices — so
// engine entry and handoff costs amortize across the batch; execMu is
// still released between slices so admin Sync work can interleave.
const batchMax = 16

// dispatchSlice is the instruction budget of one RunUntil slice. Between
// slices the dispatcher checks for link closure and budget exhaustion —
// it bounds how long a hung callee can delay cancellation.
const dispatchSlice = 65536

// NewHub creates a hub for vm. One hub should own all RPC traffic on a
// VM: two hubs would each believe they own the engine.
func NewHub(vm *interp.VM) *Hub {
	h := &Hub{vm: vm, pools: make(map[*core.Isolate]*pool)}
	h.collect = func() { h.Collect(nil) }
	return h
}

// VM returns the hub's virtual machine.
func (h *Hub) VM() *interp.VM { return h.vm }

// Sync runs fn with the engine quiescent: no worker is executing guest
// code and none will start until fn returns. Use it for KillIsolate,
// incremental GC phase transitions, interrupts, or any direct engine
// use while hub traffic is flowing. fn must not call back into
// Sync/Collect/Stats or submit blocking calls on the same hub.
func (h *Hub) Sync(fn func()) {
	h.execMu.Lock()
	defer h.execMu.Unlock()
	fn()
}

// Collect runs an exact collection with the engine quiescent.
func (h *Hub) Collect(triggeredBy *core.Isolate) {
	h.Sync(func() { h.vm.CollectGarbage(triggeredBy) })
}

// Stats returns the hub's counters. It takes the engine lock for a moment:
// do not call it from inside Sync.
func (h *Hub) Stats() HubStats {
	h.execMu.Lock()
	s := h.dispatched
	h.execMu.Unlock()
	h.mu.Lock()
	defer h.mu.Unlock()
	s.PoolsLive, s.PoolsRetired, s.MaxQueue = len(h.pools), h.poolsRetired, h.retiredMaxQueue
	for _, p := range h.pools {
		s.MaxQueue = max(s.MaxQueue, p.deepestQueue())
	}
	return s
}

// Close fails all queued requests and stops the workers, and waits for
// them and for any waiter still running a batch. In-flight dispatches are
// cancelled at their next slice boundary. Links remain usable only for
// error returns afterwards.
func (h *Hub) Close() {
	h.mu.Lock()
	if h.closed.Load() {
		h.mu.Unlock()
		return
	}
	h.closed.Store(true)
	pools := make([]*pool, 0, len(h.pools))
	for _, p := range h.pools {
		pools = append(pools, p)
	}
	h.mu.Unlock()
	for _, p := range pools {
		p.close()
	}
	for _, p := range pools {
		p.wg.Wait()
	}
}

// poolFor returns the worker pool serving callee, claimed for one more
// link; it starts the pool if the callee has none.
func (h *Hub) poolFor(callee *core.Isolate) (*pool, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed.Load() {
		return nil, ErrLinkClosed
	}
	p, ok := h.pools[callee]
	if !ok {
		p = &pool{hub: h}
		p.cond = sync.NewCond(&p.mu)
		h.pools[callee] = p
		p.wg.Add(DefaultWorkers)
		for i := 0; i < DefaultWorkers; i++ {
			go p.worker()
		}
	}
	p.links++
	return p, nil
}

// releasePool gives back a closed, drained link's claim on its pool. The
// last link out retires the pool — map entry deleted, workers stopped and
// waited for, spare shells dropped — so a hub holds pools, goroutines and
// shells for the callees that have an open link, not for every callee it
// has ever served. A later NewLink to the same callee starts a fresh pool.
func (h *Hub) releasePool(callee *core.Isolate, p *pool) {
	h.mu.Lock()
	p.links--
	last := p.links == 0
	if last {
		delete(h.pools, callee)
		h.poolsRetired++
		h.retiredMaxQueue = max(h.retiredMaxQueue, p.deepestQueue())
	}
	h.mu.Unlock()
	if !last {
		return
	}
	// Every link is drained, so the queue is empty and stays empty; once
	// the workers and any helper still finishing its batch are gone nothing
	// else reaches the spares.
	p.close()
	p.wg.Wait()
	p.spare = nil
}

// pool is one callee isolate's request queue plus the workers draining
// it; waiters on its futures drain it too while the engine is free
// (help). The queue itself is unbounded; per-link admission control (the
// slot count in Link.state) bounds what can reach it.
type pool struct {
	hub *Hub
	// wg counts the workers and the helpers in the middle of a batch.
	wg sync.WaitGroup
	// links counts the open links this pool serves (hub.mu).
	links int

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []*request
	idle     int
	closed   bool
	maxQueue int // deepest the queue has been

	// spare holds parked shells: dispatch threads that finished and wait
	// for interp.RespawnThread, which keeps the Thread, its scheduler slot
	// and its frame stack instead of paying a spawn per call. Aborted
	// threads are never parked. Guarded by hub.execMu: a batch takes its
	// shells when it arms and parks each one as it finalizes the call.
	spare []*interp.Thread
}

// spareMax bounds how many shells a pool keeps parked.
const spareMax = 2 * batchMax

// takeSpareLocked returns a parked shell, or nil (engine lock held).
func (p *pool) takeSpareLocked() *interp.Thread {
	n := len(p.spare)
	if n == 0 {
		return nil
	}
	t := p.spare[n-1]
	p.spare[n-1] = nil
	p.spare = p.spare[:n-1]
	return t
}

// parkLocked parks a finished, harvested dispatch thread as a shell
// (engine lock held). A parked shell references no guest object: its
// frames were cleared as they were popped and its outcome is dropped here.
func (p *pool) parkLocked(t *interp.Thread) {
	if len(p.spare) < spareMax {
		t.DropOutcome()
		p.spare = append(p.spare, t)
	}
}

func (p *pool) deepestQueue() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.maxQueue
}

// enqueue appends req to the queue. signal asks for a parked worker to be
// woken; a blocking Call passes false, because its caller waits at once
// and either runs the request itself or wakes a worker before it sleeps
// (Future.wait).
func (p *pool) enqueue(req *request, signal bool) bool {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return false
	}
	p.queue = append(p.queue, req)
	p.maxQueue = max(p.maxQueue, len(p.queue))
	// Signal only when a worker is parked: busy workers re-check the
	// queue before waiting, and skipping the wakeup keeps the enqueue
	// path off the runtime's notify list at call rate.
	signal = signal && p.idle > 0
	p.mu.Unlock()
	if signal {
		p.cond.Signal()
	}
	return true
}

// wake signals a parked worker if requests are queued: a waiter that could
// not run them (the engine was busy) calls it before it sleeps, so a
// request enqueued without a signal is never left to nobody.
func (p *pool) wake() {
	p.mu.Lock()
	signal := p.idle > 0 && len(p.queue) > 0
	p.mu.Unlock()
	if signal {
		p.cond.Signal()
	}
}

func (p *pool) close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
}

// batch is one claim's requests and their run records. It lives in the
// goroutine that serves it — a worker, or a waiter's stack frame — so
// nothing is allocated per batch, and it is cleared after each one, so an
// idle server retains no request.
type batch struct {
	reqs [batchMax]*request
	runs [batchMax]run
}

// claimLocked moves up to batchMax requests from the head of the queue
// into b and returns how many (p.mu held).
func (p *pool) claimLocked(b *batch) int {
	n := copy(b.reqs[:], p.queue)
	rest := copy(p.queue, p.queue[n:])
	clear(p.queue[rest:])
	p.queue = p.queue[:rest]
	return n
}

// worker drains the queue in batches, parking while it is empty, until
// the pool closes and is drained.
func (p *pool) worker() {
	defer p.wg.Done()
	var b batch
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.idle++
			p.cond.Wait()
			p.idle--
		}
		if len(p.queue) == 0 {
			p.mu.Unlock()
			return
		}
		p.serveLocked(&b, false)
	}
}

// help is a waiter's turn at the engine: while f is unresolved and the
// engine is free, the waiting goroutine serves the queue — which holds f's
// own request unless somebody has claimed it already — exactly as a worker
// would, holding execMu from its TryLock into the execution. It stops when
// the engine is busy (Sync, a worker, another helper) or the pool is
// closed or empty; the waiter then parks as before. Inside Sync or a
// native the caller holds the engine already, so TryLock fails and nothing
// changes there. A helper registers in wg for each batch, so releasePool
// and Hub.Close wait for it as for a worker.
func (p *pool) help(f *Future) {
	h := p.hub
	if !h.execMu.TryLock() {
		return
	}
	var b batch
	for {
		p.mu.Lock()
		if p.closed || len(p.queue) == 0 {
			p.mu.Unlock()
			h.execMu.Unlock()
			return
		}
		p.wg.Add(1)
		p.serveLocked(&b, true)
		p.wg.Done()
		if f.resolved.Load() || !h.execMu.TryLock() {
			return
		}
	}
}

// serveLocked is the one claim-and-execute pass of workers and helping
// waiters: it claims a batch, executes it as one engine session and
// resolves its futures. It is entered with p.mu held and the queue
// non-empty, and by a helper with execMu held too; a worker takes execMu
// after its claim. It returns with both released. Requests claimed after
// the pool or hub closed are failed, not dropped: every submitted future
// resolves.
func (p *pool) serveLocked(b *batch, helper bool) {
	h := p.hub
	n := p.claimLocked(b)
	closed := p.closed
	p.mu.Unlock()
	reqs, runs := b.reqs[:n], b.runs[:n]
	if closed || h.closed.Load() {
		if helper {
			h.execMu.Unlock()
		}
		for _, req := range reqs {
			req.fail(ErrLinkClosed)
		}
	} else {
		if !helper {
			h.execMu.Lock()
		}
		h.dispatchBatch(reqs, runs, helper)
	}
	clear(reqs)
	clear(runs)
}
