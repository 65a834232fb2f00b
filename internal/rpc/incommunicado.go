package rpc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
)

// CallBudget bounds the guest instructions one RPC-dispatched call may
// execute (the default; LinkOptions.CallBudget overrides per link).
const CallBudget = 10_000_000

// Errors returned by the messaging layer. Dispatch failures inside the
// callee (remote exceptions, budget exhaustion) resolve the future with
// an error; admission failures are returned synchronously by
// Call/CallAsync.
var (
	ErrLinkClosed    = errors.New("rpc: link closed")
	ErrSaturated     = errors.New("rpc: link saturated")
	ErrCalleeStopped = errors.New("rpc: callee isolate stopped")
	ErrCallBudget    = errors.New("rpc: call budget exhausted")
	ErrDeadlocked    = errors.New("rpc: callee deadlocked")
	// ErrThrottled is core.ErrThrottled re-exported: the scheduler
	// governor has the calling isolate under admission control, so new
	// submissions are refused before they occupy a pipelining slot.
	ErrThrottled = core.ErrThrottled
)

// LinkOptions tunes one link. Zero values select the defaults.
type LinkOptions struct {
	// QueueDepth is the pipelining window: how many submitted calls may
	// be unresolved at once before CallAsync fails fast with
	// ErrSaturated (and Call blocks). Default 64.
	QueueDepth int
	// CallBudget bounds guest instructions per dispatched call. Default
	// CallBudget.
	CallBudget int64
	// CopyBudget bounds objects materialized per argument/result copy.
	// Default DefaultCopyBudget.
	CopyBudget int64
	// ZeroCopy shares deeply immutable payloads instead of copying them:
	// interned strings are published into the callee's pool, frozen
	// arrays (heap.Freeze) are shared and rooted for the call window.
	// Off by default — sharing changes which isolate is charged for the
	// payload bytes (creator keeps the charge), where a deep copy
	// charges the receiver.
	ZeroCopy bool
}

func (o *LinkOptions) fill() {
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.CallBudget <= 0 {
		o.CallBudget = CallBudget
	}
	if o.CopyBudget <= 0 {
		o.CopyBudget = DefaultCopyBudget
	}
}

// Link is an Incommunicado-like communication channel between two
// isolates: the caller's arguments are deep-copied (or, for immutable
// payloads, shared zero-copy) into the callee's space, the request is
// queued to the callee's server pool, the callee executes under the
// hub's engine lock, and the result is copied back. Per the paper's
// Table 1 commentary this family of links is roughly an order of
// magnitude faster than RMI and an order of magnitude slower than a
// direct (I-JVM) call.
//
// Calls pipeline: CallAsync returns a Future immediately and up to
// QueueDepth calls may be in flight. Call is CallAsync plus Wait, less
// the worker wake-up: whoever waits on a call runs queued calls itself
// while the engine is free, so a blocking call on an idle engine executes
// on its caller's goroutine.
type Link struct {
	hub    *Hub
	caller *core.Isolate
	callee *core.Isolate
	method *classfile.Method
	recv   heap.Value
	opts   LinkOptions

	pool      *pool
	recvRoots *interp.HostRoots
	// threadName is the dispatch thread label, precomputed once — links
	// carry call-rate traffic and a per-call concat shows up in profiles.
	threadName string

	once sync.Once

	// state is the admission word: the number of calls holding a slot —
	// from admission (before copy-in) to resolution, bounded by QueueDepth —
	// with linkClosing set once Close has begun. It is one word because
	// admission and drain must be one decision, or a submit racing Close
	// could slip in after the drain finished and touch a receiver whose
	// roots were already released: a slot is taken by a CAS from a value
	// without the flag, and Close drains until the word is linkClosing alone.
	state atomic.Int64
	// mu and cond are for goroutines that park (a Call that found the
	// window full, Close draining); waiters counts them. The uncontended
	// path never takes mu. No wake-up is lost because both sides write
	// before they read: a waiter announces itself (waiters++) and then
	// re-reads state before it sleeps, all under mu; a releaser changes
	// state and then re-reads waiters, and takes mu to broadcast when it is
	// non-zero. Whichever of the two atomic writes is second, its author
	// reads the other's.
	mu      sync.Mutex
	cond    *sync.Cond
	waiters atomic.Int32
}

// linkClosing is the closing flag in Link.state, above any slot count.
const linkClosing = 1 << 62

// closing reports that Close has begun: dispatch cancels the link's calls
// at its next look (batch arming, slice boundaries).
func (l *Link) closing() bool { return l.state.Load()&linkClosing != 0 }

// acquireSlot admits one call, charging a pipelining slot. When the
// window is full it fails fast with ErrSaturated (block=false) or waits
// for a release (block=true). Fails with ErrLinkClosed once Close has
// begun.
func (l *Link) acquireSlot(block bool) error {
	// Admission control: a governor-throttled caller is refused before
	// it occupies a pipelining slot (Isolate0 is never throttled).
	if l.caller != nil && l.caller.Throttled() && !l.caller.IsIsolate0() {
		return ErrThrottled
	}
	depth := int64(l.opts.QueueDepth)
	counted := false
	for {
		s := l.state.Load()
		if s&linkClosing != 0 {
			return ErrLinkClosed
		}
		if s < depth {
			if l.state.CompareAndSwap(s, s+1) {
				return nil
			}
			continue
		}
		// Charge the caller one saturation event per acquire that found
		// the window full — fail-fast or blocked alike — so the governor
		// sees the flooding rate either way.
		if !counted {
			counted = true
			if l.caller != nil {
				l.caller.Account().RPCSaturated.Add(1)
			}
		}
		if !block {
			return ErrSaturated
		}
		l.parkWhile(func(s int64) bool { return s >= depth && s&linkClosing == 0 })
	}
}

// parkWhile blocks the caller until stay no longer holds of the admission
// word: the waiter's half of the protocol described at Link.mu.
func (l *Link) parkWhile(stay func(state int64) bool) {
	l.mu.Lock()
	l.waiters.Add(1)
	for stay(l.state.Load()) {
		l.cond.Wait()
	}
	l.waiters.Add(-1)
	l.mu.Unlock()
}

// wakeParked is the other half, run after a change of the admission word:
// parked goroutines (blocked Calls wanting a slot, Close draining to zero)
// re-evaluate it. Passing through mu orders the broadcast after a waiter
// that has announced itself but is not asleep yet.
func (l *Link) wakeParked() {
	if l.waiters.Load() == 0 {
		return
	}
	l.mu.Lock()
	l.cond.Broadcast()
	l.mu.Unlock()
}

// releaseSlot retires one admitted call.
func (l *Link) releaseSlot() {
	l.state.Add(-1)
	l.wakeParked()
}

// Caller returns the link's calling isolate.
func (l *Link) Caller() *core.Isolate { return l.caller }

// NewLink creates a link from caller into callee's method on receiver
// recv (Void for static methods) served by h's worker pool for callee.
func (h *Hub) NewLink(caller, callee *core.Isolate, m *classfile.Method, recv heap.Value, opts LinkOptions) (*Link, error) {
	opts.fill()
	p, err := h.poolFor(callee)
	if err != nil {
		return nil, err
	}
	l := &Link{
		hub:        h,
		caller:     caller,
		callee:     callee,
		method:     m,
		recv:       recv,
		opts:       opts,
		pool:       p,
		threadName: "rpc:" + m.Name,
	}
	l.cond = sync.NewCond(&l.mu)
	// The receiver must stay reachable for the link's lifetime even if
	// the callee drops every other reference to it (the seed version
	// left it unrooted between calls).
	if recv.IsRef() && recv.R != nil {
		l.recvRoots = h.vm.NewHostRoots(callee)
		l.recvRoots.Add(recv.R)
	}
	return l, nil
}

// Future is one in-flight call's result slot. The result value (and, for
// reference results, the copied object graph in the caller's space) is
// GC-rooted until Release; callers that retain a reference result must
// store it into guest-reachable structure (or pin it) before releasing.
// Wait and Release run queued calls on the waiting goroutine while the
// hub's engine is free, and sleep only when it is not.
type Future struct {
	link *Link

	// resolved flips once, after val/err are written; its atomic store
	// publishes them to every reader. parked is a waiter's announcement
	// that it is about to sleep on done, which it creates under mu —
	// pipelined callers usually drain futures already resolved, so most
	// calls never allocate (or close) a channel, and a resolution nobody
	// waits for takes no lock. The two flags are written before they are
	// read: a waiter stores parked and then re-reads resolved before it
	// sleeps; resolve stores resolved and then reads parked, and closes
	// done (under mu) when it is set. Whichever store is second, its
	// author sees the other's, so a sleeping waiter is always woken and a
	// waiter that finds nobody to wake it does not sleep.
	resolved atomic.Bool
	parked   atomic.Bool
	mu       sync.Mutex
	done     chan struct{}

	val heap.Value
	err error

	// roots keeps the caller-space result graph alive; shared roots the
	// zero-copy shares for the result's flight window.
	roots    *interp.HostRoots
	shared   *interp.HostRoots
	released atomic.Bool
}

// wait blocks until resolve has published the outcome. A waiter first
// does the work it waits for (pool.help), so a call on an idle engine
// resolves with no goroutine hand-off and no channel; it parks only if
// that leaves the future unresolved, after waking a worker for whatever
// is still queued (pool.wake).
func (f *Future) wait() {
	if f.resolved.Load() {
		return
	}
	if f.link != nil {
		p := f.link.pool
		p.help(f)
		if f.resolved.Load() {
			return
		}
		p.wake()
	}
	f.mu.Lock()
	if f.done == nil {
		f.done = make(chan struct{})
	}
	ch := f.done
	f.parked.Store(true)
	f.mu.Unlock()
	if f.resolved.Load() {
		return
	}
	<-ch
}

// Wait blocks until the call resolves and returns its result.
func (f *Future) Wait() (heap.Value, error) {
	f.wait()
	return f.val, f.err
}

// TryResult reports whether the call has resolved, and if so its result.
func (f *Future) TryResult() (heap.Value, error, bool) {
	if f.resolved.Load() {
		return f.val, f.err, true
	}
	return heap.Value{}, nil, false
}

// Release waits for resolution and drops the GC roots holding the
// result graph. Idempotent.
func (f *Future) Release() {
	f.wait()
	if !f.released.CompareAndSwap(false, true) {
		return
	}
	f.roots.Release()
	f.shared.Release()
}

// resolve publishes the outcome. Called exactly once per future. The
// val/err writes happen before the resolved store, which is what readers
// synchronize on; only a waiter that announced itself costs the lock.
func (f *Future) resolve(v heap.Value, err error) {
	f.val, f.err = v, err
	f.resolved.Store(true)
	if f.parked.Load() {
		f.mu.Lock()
		close(f.done)
		f.mu.Unlock()
	}
}

// request is one admitted call travelling from submitter to worker. The
// future is embedded (one allocation covers both), and argbuf inlines
// the dispatch argument vector for the common short signatures.
type request struct {
	link *Link
	// args is the full dispatch vector — receiver already in slot 0 for
	// instance methods — living in the callee's space (copied/shared at
	// submit time on the caller's goroutine). roots keeps the copied
	// graph — and later the result — alive until dispatch completes;
	// it is nil for scalar-only traffic, which roots nothing. shared
	// roots the zero-copy shares for the flight window.
	args   []heap.Value
	roots  *interp.HostRoots
	shared *interp.HostRoots
	fut    Future
	argbuf [4]heap.Value
}

// fail resolves the future with err and releases the request's
// callee-side resources. Used for every non-dispatched outcome.
func (req *request) fail(err error) {
	req.release()
	req.resolve(heap.Value{}, err)
}

// resolve retires the call's admission slot and then publishes the
// outcome — in that order, so a caller that resubmits the moment it
// observes a resolution finds the slot it is entitled to: QueueDepth
// calls kept in flight by resubmit-on-resolve are never refused.
func (req *request) resolve(v heap.Value, err error) {
	req.link.releaseSlot()
	req.fut.resolve(v, err)
}

func (req *request) release() {
	req.roots.Release()
	req.shared.Release()
	req.roots, req.shared = nil, nil
}

// CallAsync submits one call and returns its future without waiting.
// It fails fast instead of blocking: ErrSaturated when QueueDepth calls
// are already unresolved, ErrCalleeStopped when the callee isolate was
// killed, ErrLinkClosed after Close.
func (l *Link) CallAsync(args []heap.Value) (*Future, error) {
	if err := l.acquireSlot(false); err != nil {
		return nil, err
	}
	return l.submit(args, true)
}

// Call performs one inter-isolate call synchronously: copy-in, queue,
// execute, copy-out. It blocks for an admission credit when the link is
// saturated (fail-fast callers use CallAsync). Its request is queued
// without waking a worker: when the engine is free the calling goroutine
// executes it (see Future), and otherwise it wakes a worker before it
// sleeps. The returned result's object graph is released from its GC
// roots before returning — callers that must retain a reference result
// across allocations should use CallAsync and hold the Future instead.
func (l *Link) Call(args []heap.Value) (heap.Value, error) {
	if err := l.acquireSlot(true); err != nil {
		return heap.Value{}, err
	}
	fut, err := l.submit(args, false)
	if err != nil {
		return heap.Value{}, err
	}
	v, err := fut.Wait()
	fut.Release()
	return v, err
}

// submit copies the arguments into the callee's space on the calling
// goroutine (pipelining: copy-in overlaps other calls' execution) and
// enqueues the request, waking a parked worker if signal is set. The
// admission slot is already held and is released on every failure path.
func (l *Link) submit(args []heap.Value, signal bool) (*Future, error) {
	vm := l.hub.vm
	if l.callee.Killed() {
		l.releaseSlot()
		return nil, ErrCalleeStopped
	}

	req := &request{link: l}
	req.fut.link = l
	off := 0
	if !l.method.IsStatic() {
		off = 1
	}
	n := len(args) + off
	if n <= len(req.argbuf) {
		req.args = req.argbuf[:n]
	} else {
		req.args = make([]heap.Value, n)
	}
	if off == 1 {
		req.args[0] = l.recv
	}

	hasRef := false
	for i := range args {
		if args[i].IsRef() && args[i].R != nil {
			hasRef = true
			break
		}
	}
	if !hasRef {
		// Scalar-only payload: isolation holds by value semantics alone,
		// so there is nothing to copy, root, or pin.
		copy(req.args[off:], args)
	} else {
		// Root the source graph for the copy window: a collection
		// triggered while we copy (guest pressure on a worker, another
		// caller's OOM retry) must not sweep objects reachable only
		// through args.
		srcRoots := vm.NewHostRoots(l.caller)
		for i := range args {
			srcRoots.AddValue(args[i])
		}
		c := &copier{
			vm:     vm,
			target: l.callee,
			roots:  vm.NewCollectingRoots(l.callee, l.hub.collect),
			budget: l.opts.CopyBudget,
		}
		if l.opts.ZeroCopy {
			c.srcIso = l.caller
		}
		var err error
		for i, a := range args {
			if req.args[off+i], err = c.copyValue(a); err != nil {
				break
			}
		}
		srcRoots.Release()
		if err != nil {
			c.abandon()
			l.releaseSlot()
			return nil, err
		}
		req.roots = c.roots
		req.shared = c.shared
	}

	if !l.pool.enqueue(req, signal) {
		req.fail(ErrLinkClosed)
		return nil, ErrLinkClosed
	}
	return &req.fut, nil
}

// run is one request's execution state inside a dispatched batch.
type run struct {
	req   *request
	t     *interp.Thread
	spent int64
	val   heap.Value
	err   error
	done  bool
}

// dispatchBatch executes a claimed batch in one engine session, then
// copies results out off the engine lock. It is entered with execMu held,
// by a worker or by a helping waiter (helped), and returns with it
// released. Batching is where pipelining pays: all threads of the batch
// are spawned up front and the scheduler round-robins them through shared
// RunUntil slices, so engine entry/exit and handoff costs amortize across
// the batch instead of being paid per call (HubStats: Calls over Batches).
//
// Execution happens in dispatchSlice-sized slices with the engine lock
// released between them: cancellation (closure, budget) and Sync'd
// admin work (kills, GC phases, interrupts) land at slice boundaries,
// so a hung or dead callee delays them by at most one slice instead of
// a whole call budget.
//
// Each call's budget is charged the batch's engine slices while the
// call is in flight — a bound on engine time consumed on the call's
// behalf, not an exact per-call instruction count (RunUntil also
// advances co-scheduled threads).
func (h *Hub) dispatchBatch(reqs []*request, runs []run, helped bool) {
	h.executeLocked(reqs, runs, helped)
	for i := range runs {
		r := &runs[i]
		if r.err != nil {
			r.req.fail(r.err)
			continue
		}
		h.copyOut(r.req, r.val)
	}
}

// executeLocked runs the guest side of every request and leaves the
// per-request outcomes in runs (zeroed, one per request); successful
// results are rooted in their request's root batch before the engine lock
// is released. It is entered with execMu held and returns with it
// released.
func (h *Hub) executeLocked(reqs []*request, runs []run, helped bool) {
	st := &h.dispatched
	st.Batches++
	if helped {
		st.Helped++
	}
	st.Calls += int64(len(reqs))
	st.MaxBatch = max(st.MaxBatch, len(reqs))
	for i, req := range reqs {
		l := req.link
		r := &runs[i]
		r.req = req
		if l.closing() {
			r.err, r.done = ErrLinkClosed, true
			continue
		}
		if l.callee.Killed() {
			r.err, r.done = ErrCalleeStopped, true
			continue
		}
		t := l.pool.takeSpareLocked()
		var err error
		if t != nil {
			st.ShellReuses++
			err = h.vm.RespawnThread(t, l.threadName, l.callee, l.method, req.args)
		} else {
			st.FreshSpawns++
			t, err = h.vm.SpawnThread(l.threadName, l.callee, l.method, req.args)
		}
		if err != nil {
			r.err, r.done = err, true
			continue
		}
		r.t = t
	}
	for {
		// Pick the first unfinished run to drive; finalize any whose
		// thread completed in a previous slice on the way.
		var cur *run
		for i := range runs {
			r := &runs[i]
			if r.done {
				continue
			}
			if r.t.Done() {
				h.finalizeLocked(r)
				continue
			}
			cur = r
			break
		}
		if cur == nil {
			break
		}
		slice := int64(dispatchSlice)
		if rest := cur.req.link.opts.CallBudget - cur.spent; rest < slice {
			slice = rest
		}
		if slice <= 0 {
			h.abortLocked(cur, ErrCallBudget)
			continue
		}
		res := h.vm.RunUntil(cur.t, slice)
		for i := range runs {
			if !runs[i].done {
				runs[i].spent += res.Instructions
			}
		}
		if res.Shutdown || res.Deadlocked {
			reason := ErrLinkClosed
			if res.Deadlocked {
				reason = ErrDeadlocked
			}
			for i := range runs {
				r := &runs[i]
				if r.done {
					continue
				}
				if r.t.Done() {
					h.finalizeLocked(r)
					continue
				}
				h.abortLocked(r, reason)
			}
			continue
		}
		if res.TargetDone {
			// Fast path: the driven call completed within its slice.
			// The top-of-loop scan finalizes it (and any co-scheduled
			// completions); no yield — for short calls the lock drops
			// when the batch drains, at most batchMax slices away.
			continue
		}
		// Real slice boundary: the driven call is still running. Apply
		// cancellation to every pending run, then yield the engine so
		// Sync'd admin work (kills, GC phase transitions, interrupts)
		// can land mid-batch.
		for i := range runs {
			r := &runs[i]
			if r.done {
				continue
			}
			if r.t.Done() {
				// Root the result immediately: the thread is Done, so
				// its result slot is no longer a GC root, and the yield
				// below admits hub-driven collections.
				h.finalizeLocked(r)
				continue
			}
			if r.req.link.closing() {
				h.abortLocked(r, ErrLinkClosed)
				continue
			}
			if r.spent >= r.req.link.opts.CallBudget {
				h.abortLocked(r, ErrCallBudget)
			}
		}
		h.execMu.Unlock()
		h.execMu.Lock()
	}
	h.execMu.Unlock()
}

// finalizeLocked harvests one completed thread and parks it as a shell
// for the pool's next call (engine lock held).
func (h *Hub) finalizeLocked(r *run) {
	r.done = true
	t := r.t
	switch {
	case t.Err() != nil:
		r.err = t.Err()
	case t.Failure() != nil:
		r.err = fmt.Errorf("rpc: remote exception: %s", t.FailureString())
	default:
		r.val = t.Result()
		if r.val.IsRef() && r.val.R != nil {
			// Scalar-only requests carry no root batch; make one for the
			// reference result (the thread is Done, so its result slot is
			// no longer a GC root).
			if r.req.roots == nil {
				r.req.roots = h.vm.NewHostRoots(r.req.link.callee)
			}
			r.req.roots.Add(r.val.R)
		}
	}
	r.req.link.pool.parkLocked(t)
}

// abortLocked tears one dispatched thread down (engine lock held). The
// thread is retired, not parked: the kill path force-released its monitors
// and its residual state is not worth trusting for reuse.
func (h *Hub) abortLocked(r *run, reason error) {
	h.vm.AbortRootThread(r.t, reason)
	r.done = true
	r.err = reason
}

// copyOut copies a rooted result into the caller's space and resolves
// the future. A collection needed mid-copy must quiesce the engine, so
// it goes through the hub (we do not hold execMu here); copy-out of one
// batch overlaps execution of the next on multi-core hosts.
func (h *Hub) copyOut(req *request, v heap.Value) {
	l := req.link
	if !v.IsRef() || v.R == nil {
		// Scalar result: nothing crosses an isolate boundary by
		// reference, so resolve directly.
		req.release()
		req.resolve(v, nil)
		return
	}
	c := &copier{
		vm:     h.vm,
		target: l.caller,
		roots:  h.vm.NewCollectingRoots(l.caller, h.collect),
		budget: l.opts.CopyBudget,
	}
	if l.opts.ZeroCopy {
		c.srcIso = l.callee
	}
	cv, err := c.copyValue(v)
	req.release()
	if err != nil {
		c.abandon()
		req.resolve(heap.Value{}, err)
		return
	}
	req.fut.roots = c.roots
	req.fut.shared = c.shared
	req.resolve(cv, nil)
}

// Close rejects new calls, cancels queued and in-flight ones (they
// resolve with ErrLinkClosed at the next slice boundary — a hung or
// dead callee no longer blocks Close for a whole call budget), waits
// for them to drain, and drops the link's roots.
func (l *Link) Close() {
	l.once.Do(func() {
		for {
			s := l.state.Load()
			if l.state.CompareAndSwap(s, s|linkClosing) {
				break
			}
		}
		// Calls blocked on a slot observe the flag and bail; then drain
		// every admitted call (they resolve with errors at the next slice
		// boundary).
		l.wakeParked()
		l.parkWhile(func(s int64) bool { return s != linkClosing })
		if l.recvRoots != nil {
			l.recvRoots.Release()
		}
		l.hub.releasePool(l.callee, l.pool)
	})
}
