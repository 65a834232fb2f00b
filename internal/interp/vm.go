package interp

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/loader"
)

// Well-known class names the interpreter raises or consults directly.
// They are defined by the system library (internal/syslib).
const (
	ClassObject    = "java/lang/Object"
	ClassString    = "java/lang/String"
	ClassClass     = "java/lang/Class"
	ClassThread    = "java/lang/Thread"
	ClassThrowable = "java/lang/Throwable"

	ClassNullPointerException = "java/lang/NullPointerException"
	ClassArithmeticException  = "java/lang/ArithmeticException"
	ClassArrayIndexException  = "java/lang/ArrayIndexOutOfBoundsException"
	ClassClassCastException   = "java/lang/ClassCastException"
	ClassNegativeArraySize    = "java/lang/NegativeArraySizeException"
	ClassIllegalMonitorState  = "java/lang/IllegalMonitorStateException"
	ClassIllegalState         = "java/lang/IllegalStateException"
	ClassInterruptedException = "java/lang/InterruptedException"
	ClassOutOfMemoryError     = "java/lang/OutOfMemoryError"
	ClassStackOverflowError   = "java/lang/StackOverflowError"

	// ClassStoppedIsolateException is I-JVM's termination exception
	// (§3.3). The terminating isolate cannot catch it: handlers in frames
	// belonging to a killed isolate are ignored during unwinding.
	ClassStoppedIsolateException = "ijvm/isolate/StoppedIsolateException"
)

// Options configures a VM.
type Options struct {
	// Mode selects Shared (baseline JVM) or Isolated (I-JVM) semantics.
	Mode core.Mode
	// HeapLimit is the heap capacity in modelled bytes (0 selects the
	// heap default).
	HeapLimit int64
	// MaxThreads caps live threads; exceeding it raises
	// OutOfMemoryError, as real JVMs do (attack A5). 0 selects 4096.
	MaxThreads int
	// Quantum is the scheduler time slice in instructions (0 selects
	// 1000).
	Quantum int
	// SampleEvery is the CPU-sampling period in instructions (0 selects
	// 127). Sampling only runs in Isolated mode.
	SampleEvery int
	// MaxFrameDepth caps the frame stack (0 selects 1024).
	MaxFrameDepth int
	// PerCallCPUAccounting enables the ablation-only accounting strategy
	// the paper rejected (§3.2): charge exact virtual time on every
	// inter-isolate call boundary instead of sampling.
	PerCallCPUAccounting bool
	// DisablePrepare turns the code-preparation (quickening) pass off:
	// every method executes through the seed-style switch interpreter
	// with checked stack discipline. Used as the reference semantics of
	// the dispatch oracle tests and as an escape hatch.
	DisablePrepare bool
	// GCThresholdPercent is the heap occupancy (percent of the limit) at
	// which the engines open a background incremental mark cycle at a
	// quantum boundary. 0 selects 88. Negative selects the reference
	// collector, the differential baseline of the GC oracle and
	// benchmarks: no cycle opens on occupancy, so no write barrier is
	// armed, and collections happen only on allocation pressure or
	// explicit request, each as one exact monolithic stop-the-world
	// mark-sweep at its trigger point.
	GCThresholdPercent int
	// GCMarkStride is how many mark-work units (≈ objects scanned) each
	// engine performs per quantum boundary while a cycle is open. 0
	// selects 256.
	GCMarkStride int
}

func (o *Options) normalize() {
	if o.Mode == 0 {
		o.Mode = core.ModeIsolated
	}
	if o.MaxThreads <= 0 {
		o.MaxThreads = 4096
	}
	if o.Quantum <= 0 {
		o.Quantum = 1000
	}
	if o.SampleEvery <= 0 {
		o.SampleEvery = 127
	}
	if o.MaxFrameDepth <= 0 {
		o.MaxFrameDepth = 1024
	}
	if o.GCThresholdPercent == 0 {
		o.GCThresholdPercent = 88
	}
	if o.GCMarkStride <= 0 {
		o.GCMarkStride = 256
	}
}

// VM is one virtual machine instance: registry, isolate world, heap,
// threads and scheduler state.
//
// Guest code runs either on the cooperative sequential scheduler (Run /
// RunUntil, single goroutine) or on the concurrent isolate scheduler
// (internal/sched via the hooks in concurrent.go), never both at once.
// The shared VM state below is synchronized so the concurrent engine is
// race-free; see internal/interp/README.md for the locking discipline.
type VM struct {
	opts     Options
	registry *loader.Registry
	world    *core.World
	heap     *heap.Heap

	// allocAccounts says whether allocations charge the allocating
	// isolate's AllocatedObjects and AllocatedBytes: Isolated mode only,
	// fixed at construction like the mode (Shared is §4.2's baseline,
	// which does no per-bundle accounting). ConnectionsOpened is counted
	// in both modes.
	allocAccounts bool

	// threadsMu guards the thread registry (threads, nextThreadID) and
	// stagedEntryArgs; liveThreads is atomic so schedulers can poll it
	// lock-free. threads is the thread table: every unfinished thread and
	// the finished ones compactThreadsLocked has not dropped yet, in spawn
	// order.
	threadsMu    sync.Mutex
	threads      []*Thread
	nextThreadID int64
	liveThreads  atomic.Int64
	rrIndex      int // sequential engine only

	// waitingOnOthers counts threads in StateBlockedMonitor or
	// StateWaitingJoin (maintained by Thread.setState): the threads a
	// monitor release or a thread finish can make runnable. While it is
	// zero those events do not call the scheduler (notifyThreadsChanged).
	waitingOnOthers atomic.Int64

	// stopDepth and stop are StopStats' counters, written only on the
	// stop path (stoppedSection).
	stopDepth atomic.Int32
	stop      struct {
		count, totalNs, maxNs, listed, live atomic.Int64
	}

	// stagedEntryArgs roots spawn/respawn entry-argument windows while
	// their thread is invisible to the GC root scan — unlisted, or
	// listed but still Done (see SpawnThread's publication discipline).
	// Each entry's refs slice is immutable once inserted, so the scan
	// reads it safely under threadsMu alone. This deliberately does not
	// use the pinMu-guarded HostRoots registry: finalizer scheduling
	// spawns threads from inside the stopped world while CollectGarbage
	// still holds pinMu.
	stagedEntryArgs map[*Thread]stagedArgs

	// threadFree holds the disposed isolates a collection's stop saw no
	// live thread executing in (noteThreadFree); FreeIsolate consumes the
	// entry instead of stopping the world for its own scan, and a thread
	// spawned with the isolate as creator withdraws it. threadsMu.
	// rootScanCur is what the last root scan read off the live threads'
	// Thread.cur, for noteThreadFree later in the same stopped world.
	threadFree  map[*core.Isolate]struct{}
	rootScanCur []*core.Isolate

	// schedMu serializes the park/wake state machine: wait sets, sleep
	// deadlines and cross-thread state transitions. No allocation and no
	// VM lock other than a monitor stripe (monitor.go) is taken while
	// holding it.
	schedMu sync.Mutex

	// clock is the virtual time in ticks; it advances by one per executed
	// instruction and jumps forward when all threads sleep.
	clock       atomic.Int64
	totalInstrs atomic.Int64

	// seq is the sequential engine's driver state, what a scheduler
	// worker keeps in its own SampleState: the running quantum's
	// accountant, the sampling countdown, the call-path batch and the
	// allocation state (shard-local domain + byte batch). Owned by the
	// goroutine running Run/RunUntil; instructions and clock ticks
	// accumulate in it as plain counters and are published at quantum
	// boundaries and sequential safepoints (see flushQuantum).
	seq SampleState

	// frameStacks passes the frame stacks of finished threads (with the
	// frames cached in them) to new ones. Calls never touch it: a live
	// thread's frames are its own (Thread.acquireFrame).
	frameStacks sync.Pool

	// allocFree pools worker allocation states across concurrent runs so
	// the heap's domain registry stays bounded by the worker high-water
	// mark.
	allocFreeMu sync.Mutex
	allocFree   []*allocState

	// monStripes is the striped monitor-lock table: Object.Monitor words
	// are guarded by the stripe selected by the object's immutable stripe
	// index, so uncontended monitor enter/exit never touches a global
	// lock. Stripes are leaf locks, acquired (if at all) after schedMu;
	// see monitor.go for the full discipline.
	monStripes [monStripeCount]sync.Mutex

	// pinned holds host-side references (Pin) that act as GC roots
	// attributed to an isolate. hostRoots is the registry of HostRoots
	// batches (see hostroots.go) in registration order, guarded by the
	// same mutex so rooted allocation is atomic with respect to root-set
	// construction.
	pinMu     sync.Mutex
	pinned    map[heap.IsolateID][]*heap.Object
	hostRoots []*HostRoots

	// waiters tracks Object.wait sets per monitor object (schedMu).
	waiters map[*heap.Object][]*Thread

	// out captures guest System.out.
	outMu sync.Mutex
	out   strings.Builder

	// wellKnown caches bootstrap classes by name.
	wkMu      sync.Mutex
	wellKnown map[string]*classfile.Class

	// TraceMethodEntry, when set, observes every frame push (used by
	// termination tests to prove killed code never runs again).
	TraceMethodEntry func(m *classfile.Method, iso *core.Isolate)

	// Host services the system library uses (installed by syslib).
	connHost ConnectionHost

	// hooks and safepointer are installed by the concurrent scheduler for
	// the duration of a RunConcurrent; both are nil in sequential runs.
	hooks atomic.Pointer[hookBox]
	safe  atomic.Pointer[safeBox]

	shutdown atomic.Bool
	rngMu    sync.Mutex
	rng      uint64
}

// ConnectionHost backs the guest's connection I/O (the simulated network
// and filesystem substrate).
type ConnectionHost interface {
	// Open returns an opaque endpoint for a connection name.
	Open(name string) (ConnectionEndpoint, error)
}

// ConnectionEndpoint is one open guest connection.
type ConnectionEndpoint interface {
	Read(n int) ([]byte, error)
	Write(b []byte) (int, error)
	Close() error
}

// NewVM creates an empty VM. The system library must be installed (see
// internal/syslib) and at least one isolate created before code can run.
func NewVM(opts Options) *VM {
	opts.normalize()
	registry := loader.NewRegistry()
	h := heap.New(opts.HeapLimit)
	if opts.GCThresholdPercent > 0 {
		h.SetGCThreshold(h.Limit() * int64(opts.GCThresholdPercent) / 100)
	}
	vm := &VM{
		opts:          opts,
		registry:      registry,
		world:         core.NewWorld(opts.Mode, registry),
		heap:          h,
		allocAccounts: opts.Mode == core.ModeIsolated,
		pinned:        make(map[heap.IsolateID][]*heap.Object),
		waiters:       make(map[*heap.Object][]*Thread),

		stagedEntryArgs: make(map[*Thread]stagedArgs),
		wellKnown:       make(map[string]*classfile.Class),
		rng:             0x9E3779B97F4A7C15,
	}
	vm.world.OnIsolateCreated(vm.notifyIsolateCreated)
	return vm
}

// Options returns the VM's effective options.
func (vm *VM) Options() Options { return vm.opts }

// Registry returns the class-loader registry.
func (vm *VM) Registry() *loader.Registry { return vm.registry }

// World returns the isolate world.
func (vm *VM) World() *core.World { return vm.world }

// Heap returns the heap.
func (vm *VM) Heap() *heap.Heap { return vm.heap }

// Clock returns the virtual time in ticks. This is the flushed,
// cross-goroutine-safe view: mid-quantum it may trail the executing
// engine by up to one quantum, because both engines publish ticks in
// batches. Code running on the executing goroutine (natives, deadline
// computation) must use NowTicks for per-instruction-exact time.
func (vm *VM) Clock() int64 { return vm.clock.Load() }

// NowTicks returns the exact virtual time as observed by the goroutine
// executing guest code: the flushed clock plus the steps of the running
// sequential quantum not yet published. Sleep/wait deadline computation
// and the time natives use it so batched tick publication never shortens
// a timed park or freezes guest-visible time within a quantum —
// sequential timing is bit-identical to per-instruction clock
// publication. Host goroutines must use Clock instead: the quantum's
// counters are plain state owned by the run-loop goroutine. (Under the
// concurrent engine VM.seq runs no quantum, nothing of it is pending and
// this equals Clock, whose quantum batching is inherent to parallel
// execution.)
func (vm *VM) NowTicks() int64 { return vm.clock.Load() + vm.seq.steps - vm.seq.published }

// TotalInstructions returns the number of instructions executed so far.
func (vm *VM) TotalInstructions() int64 { return vm.totalInstrs.Load() }

// Output returns everything the guest printed to System.out.
func (vm *VM) Output() string {
	vm.outMu.Lock()
	defer vm.outMu.Unlock()
	return vm.out.String()
}

// AppendOutput appends to the captured System.out stream (used by
// system-library print natives).
func (vm *VM) AppendOutput(s string) {
	vm.outMu.Lock()
	vm.out.WriteString(s)
	vm.outMu.Unlock()
}

// ResetOutput clears the captured output.
func (vm *VM) ResetOutput() {
	vm.outMu.Lock()
	vm.out.Reset()
	vm.outMu.Unlock()
}

// SetConnectionHost installs the I/O substrate used by guest connections.
func (vm *VM) SetConnectionHost(h ConnectionHost) { vm.connHost = h }

// ConnectionHostRef returns the installed I/O substrate (nil if none).
func (vm *VM) ConnectionHostRef() ConnectionHost { return vm.connHost }

// Shutdown marks the platform as shut down (System.exit / admin action);
// the scheduler stops at the next boundary.
func (vm *VM) Shutdown() { vm.shutdown.Store(true) }

// IsShutdown reports whether the platform has been shut down.
func (vm *VM) IsShutdown() bool { return vm.shutdown.Load() }

// NewIsolate creates an application class loader and its isolate. The
// first call creates Isolate0.
func (vm *VM) NewIsolate(name string) (*core.Isolate, error) {
	l := vm.registry.NewLoader(name)
	return vm.world.NewIsolate(name, l)
}

// Pin registers a host-held reference as a GC root charged to iso, until
// FreeIsolate frees iso. It is not atomic with the object's allocation:
// host code that allocates and roots uses a HostRoots batch instead.
func (vm *VM) Pin(iso heap.IsolateID, obj *heap.Object) {
	if obj == nil {
		return
	}
	vm.pinMu.Lock()
	vm.pinned[iso] = append(vm.pinned[iso], obj)
	vm.pinMu.Unlock()
}

// lookupWellKnown resolves a bootstrap class by name with caching.
func (vm *VM) lookupWellKnown(name string) (*classfile.Class, error) {
	vm.wkMu.Lock()
	c, ok := vm.wellKnown[name]
	vm.wkMu.Unlock()
	if ok {
		return c, nil
	}
	c, err := vm.registry.Bootstrap().Lookup(name)
	if err != nil {
		return nil, fmt.Errorf("system library class missing (is syslib installed?): %w", err)
	}
	vm.wkMu.Lock()
	vm.wellKnown[name] = c
	vm.wkMu.Unlock()
	return c, nil
}

// InternString returns the interned string object for s in isolate iso.
// In Isolated mode every isolate has a private pool (paper §3.1/§3.5); in
// Shared mode the single isolate's pool is global. t selects the
// executing shard's allocation domain (nil for host-side callers).
func (vm *VM) InternString(t *Thread, iso *core.Isolate, s string) (*heap.Object, error) {
	if iso == nil {
		return nil, errors.New("interp: InternString requires an isolate")
	}
	if obj, ok := iso.InternedString(s); ok {
		return obj, nil
	}
	obj, err := vm.newString(t, nil, s, iso)
	if err != nil {
		return nil, err
	}
	// First publisher wins: a racing interner's object becomes garbage
	// and everyone returns the pool's canonical one.
	return iso.SetInternedString(s, obj), nil
}

// NewStringObject allocates a fresh (non-interned) guest string.
func (vm *VM) NewStringObject(t *Thread, iso *core.Isolate, s string) (*heap.Object, error) {
	return vm.newString(t, nil, s, iso)
}

// ClassObjectFor returns the per-isolate java.lang.Class object of class c
// (Shared mode: the single shared one), allocating it lazily in the
// class's task class mirror.
func (vm *VM) ClassObjectFor(t *Thread, c *classfile.Class, iso *core.Isolate) (*heap.Object, error) {
	m := vm.world.Mirror(c, iso)
	if obj := m.ClassObject.Load(); obj != nil {
		return obj, nil
	}
	obj, err := vm.newClassObject(t, nil, c, iso)
	if err != nil {
		return nil, err
	}
	// First publisher wins; a racing loser's object becomes garbage and
	// is reclaimed by the next collection.
	if !m.ClassObject.CompareAndSwap(nil, obj) {
		return m.ClassObject.Load(), nil
	}
	return obj, nil
}

// --- Garbage collection ---------------------------------------------------

// CollectGarbage runs the paper's accounting collection (§3.2): roots are
// the per-isolate mirrors and string pools (step 2) plus every thread
// frame attributed to the frame's isolate (step 3), traced in isolate-ID
// order so an object is charged to the first isolate referencing it (step
// 4). triggeredBy, when non-nil, is charged one GC activation.
//
// The result is always exact — post-collection Used() equals live bytes
// and every dead object is reclaimed — regardless of the collector
// configuration: heap.Collect abandons any open incremental cycle and
// runs a fresh full pass from the current roots (see internal/heap
// gc.go), so pressure and explicit collections behave byte-identically
// under the incremental and the reference collector.
func (vm *VM) CollectGarbage(triggeredBy *core.Isolate) heap.CollectResult {
	if triggeredBy != nil {
		triggeredBy.Account().GCActivations.Add(1)
	}
	var res heap.CollectResult
	// The collection traverses thread frames and the full object graph,
	// so under the concurrent scheduler every worker must be parked
	// first; the installed safepointer provides that (and is a no-op
	// passthrough for sequential runs).
	//
	// pinMu is held across snapshot AND sweep: host-side rooted
	// allocation (HostRoots) takes pinMu around alloc+root, so holding it
	// here means no object can be allocated-and-rooted between the root
	// snapshot and the sweep — the exact pass abandons any open cycle
	// (clearing allocate-black marks), so without this exclusion a copy
	// rooted after the snapshot would be swept while a host goroutine
	// still holds it. Lock order: pinMu -> (threadsMu, heap's gcMu/hostMu).
	vm.withWorldStopped(func() {
		vm.pinMu.Lock()
		defer vm.pinMu.Unlock()
		rootSets := vm.buildRootSetsLocked()
		res = vm.heap.Collect(rootSets)
		vm.noteThreadFree(vm.world.UpdateDisposal(res.Live))
		vm.scheduleFinalizers(res.PendingFinalize)
	})
	return res
}

// noteThreadFree records which of the isolates a collection just flipped
// to Disposed have no live thread executing in them, from what the
// collection's own root scan read off the threads (the world has been
// stopped since, so Thread.cur — which workers write on every migration
// without a lock — has not moved). A batch teardown (serve.Pool.retire)
// thus pays the collection's one stop and thread walk, and none per
// FreeIsolate.
func (vm *VM) noteThreadFree(disposed []*core.Isolate) {
	if len(disposed) == 0 {
		return
	}
	vm.threadsMu.Lock()
	defer vm.threadsMu.Unlock()
	if vm.threadFree == nil {
		vm.threadFree = make(map[*core.Isolate]struct{}, len(disposed))
	}
	for _, iso := range disposed {
		vm.threadFree[iso] = struct{}{}
	}
	for _, cur := range vm.rootScanCur {
		delete(vm.threadFree, cur)
	}
}

// scheduleFinalizers spawns one finalizer thread per pending object,
// charged to the object's creator isolate (finalization work is part of
// what attack A4 monopolizes the CPU with). Objects of killed isolates
// are not finalized — their code must never run again (§3.3).
func (vm *VM) scheduleFinalizers(pending []*heap.Object) {
	for _, obj := range pending {
		iso := vm.world.IsolateByID(obj.Creator)
		if iso == nil || iso.Killed() {
			continue
		}
		m, err := obj.Class.LookupMethod(loader.FinalizeName, "()V")
		if err != nil {
			continue
		}
		t, err := vm.SpawnThread("finalizer:"+obj.Class.Name, iso, m, []heap.Value{heap.RefVal(obj)})
		if err != nil {
			continue // thread limit reached: the object stays resurrected
		}
		_ = t
		iso.Account().FinalizersRun.Add(1)
	}
}

// PreciseAccounting runs the precise per-isolate accounting pass (shared
// objects charged to every isolate reaching them) over the same root sets
// CollectGarbage uses — the strategy the paper rejected for its cost
// (§3.2); kept as an ablation and for administrators who want an exact
// view on demand.
func (vm *VM) PreciseAccounting() map[heap.IsolateID]*heap.PreciseStats {
	var out map[heap.IsolateID]*heap.PreciseStats
	vm.withWorldStopped(func() {
		vm.pinMu.Lock()
		defer vm.pinMu.Unlock()
		out = vm.heap.PreciseAccounting(vm.buildRootSetsLocked())
	})
	return out
}

// buildRootSets assembles the accounting root sets: per-isolate mirrors
// and string pools (step 2), pinned host references, and thread frames
// attributed to the frame's isolate (step 3), ordered by isolate ID so
// charging follows the paper's first-tracer rule (step 4). The shared
// HostRoots batches lead, ahead of every isolate: their objects are
// charged to their creators whichever isolate also holds them.
func (vm *VM) buildRootSets() []heap.RootSet {
	vm.pinMu.Lock()
	defer vm.pinMu.Unlock()
	return vm.buildRootSetsLocked()
}

// buildRootSetsLocked is buildRootSets with pinMu already held. Exact
// collections call it and keep pinMu held through the sweep so rooted
// host-side allocation (HostRoots.alloc) cannot slip an object between
// the snapshot and the reclaim; incremental cycle starts only need the
// snapshot (allocate-black admission covers later births).
func (vm *VM) buildRootSetsLocked() []heap.RootSet {
	rootsByIso := vm.world.MirrorRootSets()
	for iso, objs := range vm.pinned {
		rootsByIso[iso] = append(rootsByIso[iso], objs...)
	}
	var rootSets []heap.RootSet
	for _, r := range vm.hostRoots {
		if !r.shared {
			rootsByIso[r.iso] = append(rootsByIso[r.iso], r.refs...)
			continue
		}
		// One set per run of equal creators, extended across batches.
		for _, o := range r.refs {
			if n := len(rootSets); n > 0 && rootSets[n-1].Isolate == o.Creator {
				rootSets[n-1].Refs = append(rootSets[n-1].Refs, o)
			} else {
				rootSets = append(rootSets, heap.RootSet{Isolate: o.Creator, Refs: []*heap.Object{o}})
			}
		}
	}
	vm.threadsMu.Lock()
	threads := append([]*Thread(nil), vm.threads...)
	// Entry-argument windows of threads still being set up (not yet
	// listed, or listed but Done pending a respawn's publication flip).
	for _, sa := range vm.stagedEntryArgs {
		rootsByIso[sa.iso] = append(rootsByIso[sa.iso], sa.refs...)
	}
	vm.threadsMu.Unlock()
	vm.rootScanCur = vm.rootScanCur[:0]
	for _, t := range threads {
		if t.Done() {
			continue
		}
		vm.rootScanCur = append(vm.rootScanCur, t.cur)
		// Thread-identity roots belong to the creator.
		creatorID := t.creator.ID()
		if t.threadObj != nil {
			rootsByIso[creatorID] = append(rootsByIso[creatorID], t.threadObj)
		}
		if t.resumeThrow != nil {
			rootsByIso[creatorID] = append(rootsByIso[creatorID], t.resumeThrow)
		}
		// In-flight invocation arguments (set only while the thread's own
		// goroutine is inside call setup; see Thread.pendingArgs).
		for i := range t.pendingArgs {
			if r := t.pendingArgs[i].R; r != nil {
				rootsByIso[creatorID] = append(rootsByIso[creatorID], r)
			}
		}
		if t.blockedOn != nil {
			rootsByIso[creatorID] = append(rootsByIso[creatorID], t.blockedOn)
		}
		if t.waitingOn != nil {
			rootsByIso[creatorID] = append(rootsByIso[creatorID], t.waitingOn)
		}
		for _, f := range t.frames {
			isoID := f.iso.ID()
			refs := rootsByIso[isoID]
			for i := range f.locals {
				if r := f.locals[i].R; r != nil {
					refs = append(refs, r)
				}
			}
			for i := range f.stack {
				if r := f.stack[i].R; r != nil {
					refs = append(refs, r)
				}
			}
			if f.lockedMonitor != nil {
				refs = append(refs, f.lockedMonitor)
			}
			if f.needsMonitor != nil {
				refs = append(refs, f.needsMonitor)
			}
			// Explicitly entered monitors stay rooted like the
			// synchronized-method one: the kill path must be able to
			// force-release them on a live object.
			refs = append(refs, f.entered...)
			rootsByIso[isoID] = refs
		}
	}
	for _, iso := range vm.world.Isolates() {
		if refs, ok := rootsByIso[iso.ID()]; ok {
			rootSets = append(rootSets, heap.RootSet{Isolate: iso.ID(), Refs: refs})
		}
	}
	return rootSets
}

// MemoryFootprint returns the Figure 3 memory measure: live guest heap
// plus the isolation metadata (task class mirrors, per-isolate string
// pools and statistics). Run CollectGarbage first for a post-GC figure.
func (vm *VM) MemoryFootprint() int64 {
	return vm.heap.Used() + vm.world.StructFootprint()
}

// Snapshots returns per-isolate resource snapshots (refreshing nothing;
// call CollectGarbage first for up-to-date live memory).
func (vm *VM) Snapshots() []core.Snapshot {
	return vm.world.Snapshots()
}

// SnapshotOf returns the snapshot of one isolate.
func (vm *VM) SnapshotOf(iso *core.Isolate) core.Snapshot {
	return vm.world.Snapshot(iso)
}

// NextRand returns a deterministic pseudo-random uint64 (xorshift*), used
// by native methods that need randomness while keeping runs reproducible.
// (Deterministic for sequential runs; concurrent runs interleave callers.)
func (vm *VM) NextRand() uint64 {
	vm.rngMu.Lock()
	defer vm.rngMu.Unlock()
	vm.rng ^= vm.rng >> 12
	vm.rng ^= vm.rng << 25
	vm.rng ^= vm.rng >> 27
	return vm.rng * 0x2545F4914F6CDD1D
}

// describeThrowable renders "Class: message" for an exception object.
func (vm *VM) describeThrowable(obj *heap.Object) string {
	if obj == nil {
		return "<nil throwable>"
	}
	msg := ""
	if f, err := obj.Class.LookupField("message"); err == nil {
		if mv := obj.Elems[f.Slot]; mv.R != nil {
			if s, ok := mv.R.StringValue(); ok {
				msg = s
			}
		}
	}
	if msg == "" {
		return obj.Class.Name
	}
	return obj.Class.Name + ": " + msg
}
