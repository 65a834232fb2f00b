// Package serve is the high-density serving layer: a bounded pre-warmed
// clone pool that sits between an admission edge (gateway, RPC ingress)
// and the concurrent scheduler, so tenant sessions start on an
// already-materialized warmed isolate instead of paying clone — let
// alone cold class-load — latency on the request path.
//
// # Model
//
// A Pool owns a set of isolates cloned from one interp.Snapshot. A
// background refiller goroutine keeps the warm set topped up to
// Capacity: every Acquire/Release kicks it, it materializes
// CloneIsolate copies off the request path, and it retires returned
// sessions through the sanctioned teardown pipeline
// (kill -> accounting collection -> FreeIsolate), which recycles the
// dense isolate ID, mirror slots and registry loader of
// every finished session. Clone materialization is GC-safe behind a
// running scheduler (HostRoots keeps the partial copy rooted until the
// mirrors are published), so refill happens while tenants execute.
//
// # Admission and backpressure
//
// Acquire never blocks and never clones inline. The contract mirrors
// the RPC layer's queue admission (rpc.ErrSaturated):
//
//   - a governor-throttled principal is shed first, with
//     core.ErrThrottled, before a pool slot is spent on it — the
//     scheduler's pressure signal reaches the admission edge;
//   - an empty pool fails fast with ErrSaturated; the caller applies
//     its own retry/shed policy while the refiller catches up;
//   - a closed pool fails with ErrClosed.
//
// # Lock ordering
//
// The pool mutex is a leaf lock: it guards only the warm/dead slices
// and is never held across any VM operation (clone, kill, collect,
// free). VM-side operations therefore take their usual internal locks
// (world stop, pinMu, regMu, heap locks) without ever nesting inside
// pool.mu, and callers may invoke pool methods from scheduler-adjacent
// goroutines without lock-order concerns.
package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ijvm/internal/core"
	"ijvm/internal/interp"
)

var (
	// ErrSaturated is the typed admission-backpressure error: the warm
	// set is empty and the refiller has not caught up. Fail-fast by
	// design — a blocking Acquire would turn pool exhaustion into
	// unbounded queueing at the edge instead of load shedding.
	ErrSaturated = errors.New("serve: clone pool exhausted")
	// ErrClosed is returned by Acquire after Close.
	ErrClosed = errors.New("serve: clone pool closed")
)

// Config configures a Pool.
type Config struct {
	// Capacity is the warm-set bound (default 8). The refiller keeps at
	// most this many materialized clones ready; it is also the prime
	// count NewPool builds synchronously before returning.
	Capacity int
	// NamePrefix names pooled isolates "<prefix>-<seq>" (default
	// "pooled").
	NamePrefix string
}

// Stats is a point-in-time snapshot of pool counters.
type Stats struct {
	Acquired      int64 // successful Acquires
	Saturated     int64 // Acquires refused with ErrSaturated
	Shed          int64 // Acquires refused with core.ErrThrottled
	Cloned        int64 // isolates materialized from the snapshot
	Recycled      int64 // retired sessions whose slot was freed
	CloneFailures int64 // refill clone attempts that failed
	Warm          int   // isolates ready right now
	Retiring      int   // returned isolates awaiting teardown
}

// Pool is a bounded pre-warmed clone pool. All methods are safe for
// concurrent use.
type Pool struct {
	vm   *interp.VM
	snap *interp.Snapshot
	cfg  Config

	mu     sync.Mutex
	warm   []*core.Isolate
	dead   []*core.Isolate
	closed bool

	seq  atomic.Int64
	wake chan struct{}
	done chan struct{}
	idle sync.WaitGroup

	acquired      atomic.Int64
	saturated     atomic.Int64
	shed          atomic.Int64
	cloned        atomic.Int64
	recycled      atomic.Int64
	cloneFailures atomic.Int64
}

// NewPool builds a pool over snap, primes it synchronously to Capacity
// (so the first Acquire after NewPool never sees a cold pool), and
// starts the refiller. The snapshot must stay unreleased for the pool's
// lifetime; the pool does not take ownership of it.
func NewPool(vm *interp.VM, snap *interp.Snapshot, cfg Config) (*Pool, error) {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 8
	}
	if cfg.NamePrefix == "" {
		cfg.NamePrefix = "pooled"
	}
	p := &Pool{
		vm:   vm,
		snap: snap,
		cfg:  cfg,
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	for i := 0; i < cfg.Capacity; i++ {
		iso, err := p.clone()
		if err != nil {
			p.retire(p.warm)
			return nil, fmt.Errorf("serve: priming clone %d/%d: %w", i+1, cfg.Capacity, err)
		}
		p.warm = append(p.warm, iso)
	}
	p.idle.Add(1)
	go p.refiller()
	return p, nil
}

// Acquire hands out a warmed isolate, or fails fast. A throttled
// principal (governor escalation, core.ErrThrottled) is shed before any
// slot is spent; pass nil for principal-less (host/anonymous)
// admission. An empty pool returns ErrSaturated and kicks the refiller.
func (p *Pool) Acquire(principal *core.Isolate) (*core.Isolate, error) {
	if principal != nil && principal.Throttled() && !principal.IsIsolate0() {
		p.shed.Add(1)
		return nil, fmt.Errorf("serve: admission refused for %s: %w", principal.Name(), core.ErrThrottled)
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	if n := len(p.warm); n > 0 {
		iso := p.warm[n-1]
		p.warm = p.warm[:n-1]
		p.mu.Unlock()
		p.acquired.Add(1)
		p.kick()
		return iso, nil
	}
	p.mu.Unlock()
	p.saturated.Add(1)
	p.kick()
	return nil, ErrSaturated
}

// Release returns a finished session's isolate for teardown and
// recycling. The caller must have no undone threads still bound to the
// isolate (wait for its session threads first); killing it beforehand
// is allowed but not required — the refiller kills un-killed returns.
func (p *Pool) Release(iso *core.Isolate) {
	if iso == nil {
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		// The refiller is gone; tear the straggler down inline.
		p.retire([]*core.Isolate{iso})
		return
	}
	p.dead = append(p.dead, iso)
	p.mu.Unlock()
	p.kick()
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	warm, retiring := len(p.warm), len(p.dead)
	p.mu.Unlock()
	return Stats{
		Acquired:      p.acquired.Load(),
		Saturated:     p.saturated.Load(),
		Shed:          p.shed.Load(),
		Cloned:        p.cloned.Load(),
		Recycled:      p.recycled.Load(),
		CloneFailures: p.cloneFailures.Load(),
		Warm:          warm,
		Retiring:      retiring,
	}
}

// Close stops the refiller and tears down every warm and returned
// isolate (kill, sweep, free). Idempotent. Outstanding acquired
// isolates are the caller's to Release (torn down inline after Close).
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	rest := append(p.warm, p.dead...)
	p.warm, p.dead = nil, nil
	p.mu.Unlock()
	close(p.done)
	p.idle.Wait()
	for attempt := 0; len(rest) > 0 && attempt < 1000; attempt++ {
		if attempt > 0 {
			time.Sleep(time.Millisecond)
		}
		rest = p.retire(rest)
	}
}

// kick nudges the refiller without blocking (the wake channel is a
// 1-buffered latch; a pending kick absorbs further ones).
func (p *Pool) kick() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

func (p *Pool) refiller() {
	defer p.idle.Done()
	for {
		select {
		case <-p.done:
			return
		case <-p.wake:
		}
		p.refill()
	}
}

// refill retires returned sessions, then tops the warm set back up to
// Capacity. Runs only on the refiller goroutine; holds no pool lock
// across VM operations.
func (p *Pool) refill() {
	p.mu.Lock()
	dead := p.dead
	p.dead = nil
	closed := p.closed
	p.mu.Unlock()
	if closed {
		p.retire(dead)
		return
	}
	if rest := p.retire(dead); len(rest) > 0 {
		// Threads still unwinding or sweep not terminal yet: put them
		// back and retry shortly.
		p.mu.Lock()
		p.dead = append(p.dead, rest...)
		p.mu.Unlock()
		time.AfterFunc(time.Millisecond, p.kick)
	}
	for {
		p.mu.Lock()
		full := p.closed || len(p.warm) >= p.cfg.Capacity
		p.mu.Unlock()
		if full {
			return
		}
		iso, err := p.clone()
		if err != nil {
			// Likely transient (heap pressure from in-flight sessions);
			// CloneIsolate unwound the attempt, so retrying on the next
			// kick leaks nothing.
			p.cloneFailures.Add(1)
			time.AfterFunc(time.Millisecond, p.kick)
			return
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			p.retire([]*core.Isolate{iso})
			return
		}
		p.warm = append(p.warm, iso)
		p.mu.Unlock()
	}
}

func (p *Pool) clone() (*core.Isolate, error) {
	iso, err := p.vm.CloneIsolate(p.snap, fmt.Sprintf("%s-%d", p.cfg.NamePrefix, p.seq.Add(1)))
	if err != nil {
		return nil, err
	}
	p.cloned.Add(1)
	return iso, nil
}

// retire runs the teardown pipeline over a batch: kill what is not yet
// killed, one amortized accounting collection to sweep the corpses and
// flip them to Disposed, then FreeIsolate each. Isolates that are not
// yet disposable (threads still unwinding) are returned for retry.
func (p *Pool) retire(batch []*core.Isolate) []*core.Isolate {
	if len(batch) == 0 {
		return nil
	}
	for _, iso := range batch {
		if !iso.Killed() {
			_ = p.vm.KillIsolate(nil, iso)
		}
	}
	p.vm.CollectGarbage(nil)
	var rest []*core.Isolate
	for _, iso := range batch {
		if !iso.Disposed() {
			rest = append(rest, iso)
			continue
		}
		if err := p.vm.FreeIsolate(iso); err != nil {
			rest = append(rest, iso)
			continue
		}
		p.recycled.Add(1)
	}
	return rest
}
