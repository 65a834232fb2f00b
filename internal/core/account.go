package core

import "sync/atomic"

// AccountCounters holds the mutable per-isolate resource counters the
// paper's resource accounting maintains (§3.2), allocation totals
// included: the heap charges no isolate, the interpreter charges every
// admitted object here. The one per-isolate number that is not a counter
// is live usage, which each collection recomputes and hands to the isolate
// (Isolate.Live); it is not part of the account, so Seed never copies it.
//
// Every counter is an atomic: the concurrent scheduler (internal/sched)
// lets threads of different isolates execute in parallel, and counters of
// one isolate are charged both by its own shard and by migrated threads
// and admin-side samplers. Lock-free adds keep the interpreter hot path
// cheap in both the sequential and the concurrent engine.
type AccountCounters struct {
	// CPUSamples counts scheduler samples that observed a thread running
	// in this isolate (§3.2, "CPU time": the chosen sampling design).
	CPUSamples atomic.Int64
	// Instructions counts instructions executed while the current isolate
	// was this isolate. It is the exact counterpart of CPUSamples, kept
	// for the §4.4 precision experiments and the per-call accounting
	// ablation.
	Instructions atomic.Int64
	// ThreadsCreated counts threads created by the isolate ("threads are
	// charged to their creator").
	ThreadsCreated atomic.Int64
	// ThreadsLive is the number of created-by-this-isolate threads that
	// have not terminated.
	ThreadsLive atomic.Int64
	// SleepingThreads is a gauge of threads currently blocked in
	// sleep/wait while executing this isolate's code (attack A7
	// detection).
	SleepingThreads atomic.Int64
	// GCActivations counts collections the isolate demanded: exact
	// stop-the-world collections triggered by its allocation pressure or
	// explicit System.gc calls, plus background incremental mark cycles
	// whose opening occupancy crossing was caused by one of its
	// allocations (the interpreter attributes the crossing on the
	// allocation path, not at the quantum boundary that happens to open
	// the cycle — §4.4 experiment 2 pins this). Mark strides and
	// terminal phases of an already-open cycle charge nothing, so the
	// counter stays comparable between the incremental and the
	// reference collector: one activation per collection the isolate
	// forced (attack A4 detection).
	GCActivations atomic.Int64
	// IOBytesRead and IOBytesWritten count connection I/O performed while
	// executing in the isolate (JRes-style instrumentation of the few
	// system classes that touch connections).
	IOBytesRead    atomic.Int64
	IOBytesWritten atomic.Int64
	// ConnectionsOpened counts connection objects created by the isolate.
	ConnectionsOpened atomic.Int64
	// InterBundleCallsIn counts inter-isolate calls that entered this
	// isolate (paint-demo metric, §4.1).
	InterBundleCallsIn atomic.Int64
	// InterBundleCallsOut counts inter-isolate calls made from this
	// isolate.
	InterBundleCallsOut atomic.Int64
	// CPUTicks accumulates per-call virtual time when the (ablation-only)
	// per-call timestamping accounting strategy is enabled.
	CPUTicks atomic.Int64
	// FinalizersRun counts finalizer invocations scheduled on behalf of
	// the isolate's dead objects (part of the GC-churn cost attack A4
	// inflicts).
	FinalizersRun atomic.Int64
	// RPCSaturated counts RPC submissions by this isolate (as caller)
	// refused or delayed because the link's admission queue was full —
	// the governor's signal that the isolate floods a callee faster than
	// it drains.
	RPCSaturated atomic.Int64
	// AllocatedObjects and AllocatedBytes are the monotonic
	// creator-charged allocation totals: every object the isolate
	// allocated, at its modelled size when admitted. The engines batch
	// them (ByteBatch); the host path adds them directly. Shared mode (the
	// baseline, §4.2) charges neither.
	AllocatedObjects atomic.Int64
	AllocatedBytes   atomic.Int64
}

// Numbers returns a plain-integer copy of the counters, suitable for
// embedding in an immutable Snapshot.
func (a *AccountCounters) Numbers() Account {
	return Account{
		CPUSamples:          a.CPUSamples.Load(),
		Instructions:        a.Instructions.Load(),
		ThreadsCreated:      a.ThreadsCreated.Load(),
		ThreadsLive:         a.ThreadsLive.Load(),
		SleepingThreads:     a.SleepingThreads.Load(),
		GCActivations:       a.GCActivations.Load(),
		IOBytesRead:         a.IOBytesRead.Load(),
		IOBytesWritten:      a.IOBytesWritten.Load(),
		ConnectionsOpened:   a.ConnectionsOpened.Load(),
		InterBundleCallsIn:  a.InterBundleCallsIn.Load(),
		InterBundleCallsOut: a.InterBundleCallsOut.Load(),
		CPUTicks:            a.CPUTicks.Load(),
		FinalizersRun:       a.FinalizersRun.Load(),
		RPCSaturated:        a.RPCSaturated.Load(),
		AllocatedObjects:    a.AllocatedObjects.Load(),
		AllocatedBytes:      a.AllocatedBytes.Load(),
	}
}

// Seed overwrites every counter with the values in v. The snapshot-clone
// path uses it to make a freshly materialized isolate's account
// byte-identical to the warmed template's at capture time (the clone never
// executed the warm-up instructions itself, but must be indistinguishable
// from a cold start that did); the recycling path seeds the zero Account
// so a reused isolate ID starts with a clean slate. Stores are plain
// atomics: callers seed only while the isolate runs no guest code.
func (a *AccountCounters) Seed(v Account) {
	a.CPUSamples.Store(v.CPUSamples)
	a.Instructions.Store(v.Instructions)
	a.ThreadsCreated.Store(v.ThreadsCreated)
	a.ThreadsLive.Store(v.ThreadsLive)
	a.SleepingThreads.Store(v.SleepingThreads)
	a.GCActivations.Store(v.GCActivations)
	a.IOBytesRead.Store(v.IOBytesRead)
	a.IOBytesWritten.Store(v.IOBytesWritten)
	a.ConnectionsOpened.Store(v.ConnectionsOpened)
	a.InterBundleCallsIn.Store(v.InterBundleCallsIn)
	a.InterBundleCallsOut.Store(v.InterBundleCallsOut)
	a.CPUTicks.Store(v.CPUTicks)
	a.FinalizersRun.Store(v.FinalizersRun)
	a.RPCSaturated.Store(v.RPCSaturated)
	a.AllocatedObjects.Store(v.AllocatedObjects)
	a.AllocatedBytes.Store(v.AllocatedBytes)
}

// InstrBatch accumulates the charges of the guest-call path — executed
// instructions and inter-isolate calls in and out — in plain local
// counters and publishes them with atomic adds only when a
// quantum/safepoint boundary flushes the batch or a third isolate evicts
// an entry. Both execution engines use it — the concurrent scheduler per
// worker quantum, the sequential loop per scheduler quantum — so the
// per-instruction hot path performs no atomic operations at all while
// per-isolate attribution stays exact at every flush point.
//
// The batch holds two isolates side by side: a migrated call and its
// return alternate between the caller's and the callee's entry without
// publishing anything, which is what makes thread migration (§3.1) a
// pointer update rather than a round of atomics.
//
// An InstrBatch is single-goroutine state: it must only be used by the
// goroutine executing the instructions it charges.
type InstrBatch struct {
	cur   batchSlot // the isolate charged last
	other batchSlot // the one before it
}

type batchSlot struct {
	acc      *AccountCounters
	instrs   int64
	callsIn  int64
	callsOut int64
}

func (s *batchSlot) flush() {
	if s.acc == nil {
		return
	}
	if s.instrs != 0 {
		s.acc.Instructions.Add(s.instrs)
	}
	if s.callsIn != 0 {
		s.acc.InterBundleCallsIn.Add(s.callsIn)
	}
	if s.callsOut != 0 {
		s.acc.InterBundleCallsOut.Add(s.callsOut)
	}
	s.instrs, s.callsIn, s.callsOut = 0, 0, 0
}

// switchTo makes acc the current entry. The two entries trade places; an
// isolate held by neither takes over the one charged longest ago, whose
// pending counts are published first.
func (b *InstrBatch) switchTo(acc *AccountCounters) {
	b.cur, b.other = b.other, b.cur
	if b.cur.acc != acc {
		b.cur.flush()
		b.cur.acc = acc
	}
}

// Note charges one instruction to acc.
func (b *InstrBatch) Note(acc *AccountCounters) {
	if acc != b.cur.acc {
		b.switchTo(acc)
	}
	b.cur.instrs++
}

// NoteN charges n instructions to acc in one call, exactly as n
// consecutive Note calls would (the closure tier uses it to retire a
// whole block's charges at once).
func (b *InstrBatch) NoteN(acc *AccountCounters, n int64) {
	if acc != b.cur.acc {
		b.switchTo(acc)
	}
	b.cur.instrs += n
}

// NoteCall records one inter-isolate call leaving from and entering to,
// which becomes the current entry — the next instruction is charged to it.
func (b *InstrBatch) NoteCall(from, to *AccountCounters) {
	if from != b.cur.acc {
		b.switchTo(from)
	}
	b.cur.callsOut++
	b.switchTo(to)
	b.cur.callsIn++
}

// NoteCalls records n inter-isolate calls leaving from and entering to,
// and charges instrs instructions to to, which becomes the current entry —
// what n NoteCall calls, each followed by its share of instrs, add up to.
func (b *InstrBatch) NoteCalls(from, to *AccountCounters, n, instrs int64) {
	if from != b.cur.acc {
		b.switchTo(from)
	}
	b.cur.callsOut += n
	b.switchTo(to)
	b.cur.callsIn += n
	b.cur.instrs += instrs
}

// Flush publishes every pending charge.
func (b *InstrBatch) Flush() {
	b.cur.flush()
	b.other.flush()
}

// ByteBatch accumulates one isolate's allocation charges (AllocatedObjects,
// AllocatedBytes) in plain local counters and publishes them with two
// atomic adds when the charged isolate changes or a quantum/safepoint
// boundary flushes the batch — the allocation counterpart of InstrBatch.
// Both execution engines use it for domain (shard-local) allocation, so
// the allocation fast path performs no shared atomic statistic updates;
// per-isolate attribution stays exact at every flush point, and the
// stop-the-world accounting GC observes exact totals (workers flush at
// quantum boundaries before parking, and the allocation-pressure path
// flushes before triggering a collection). Connections are not batched:
// the interpreter counts ConnectionsOpened directly on its one allocation
// path, the only one that admits them.
//
// A ByteBatch is single-goroutine state: it must only be used by the
// goroutine executing the allocations it charges.
type ByteBatch struct {
	acc     *AccountCounters
	objects int64
	bytes   int64
}

// Note charges one allocation of size bytes to acc, flushing the pending
// batch first when the charged isolate changed.
func (b *ByteBatch) Note(acc *AccountCounters, size int64) {
	if acc != b.acc {
		b.Flush()
		b.acc = acc
	}
	b.objects++
	b.bytes += size
}

// Flush publishes the pending charges with one atomic add per counter.
func (b *ByteBatch) Flush() {
	if b.acc != nil && b.objects != 0 {
		b.acc.AllocatedObjects.Add(b.objects)
		b.acc.AllocatedBytes.Add(b.bytes)
	}
	b.objects, b.bytes = 0, 0
}

// Account is an immutable plain-integer view of AccountCounters; see the
// counter documentation there. Snapshot embeds it so detector code and
// tests read ordinary int64 fields.
type Account struct {
	CPUSamples          int64
	Instructions        int64
	ThreadsCreated      int64
	ThreadsLive         int64
	SleepingThreads     int64
	GCActivations       int64
	IOBytesRead         int64
	IOBytesWritten      int64
	ConnectionsOpened   int64
	InterBundleCallsIn  int64
	InterBundleCallsOut int64
	CPUTicks            int64
	FinalizersRun       int64
	RPCSaturated        int64
	AllocatedObjects    int64
	AllocatedBytes      int64
}

// Snapshot is an immutable copy of one isolate's resource usage: its
// Account and its live usage as of the last collection.
type Snapshot struct {
	IsolateID   int32
	IsolateName string
	State       LifeState

	Account

	// LiveObjects/LiveBytes/LiveConnections are the per-isolate usage
	// recomputed by the last accounting GC ("first isolate that
	// references it" charging).
	LiveObjects     int64
	LiveBytes       int64
	LiveConnections int64
}
