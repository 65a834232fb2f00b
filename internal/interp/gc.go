package interp

import (
	"ijvm/internal/heap"
)

// This file drives the heap's incremental collector (internal/heap
// gc.go) from both execution engines and hosts the mutator side of the
// SATB write barrier.
//
// # Collector scheduling
//
// Background cycles open when heap occupancy crosses the configured
// threshold, observed at quantum boundaries (GCQuantum): the opening
// pause is a stop-the-world just long enough to snapshot the root sets
// and arm the barrier. While a cycle is open, every quantum boundary —
// sequential loop and each concurrent worker — contributes a bounded
// stride of mark work through the heap's shared gray pool, so marking
// proceeds concurrently with mutators on other shards. When the mark is
// exhausted the observing boundary runs the short terminal
// stop-the-world (root re-scan, residual drain, finalizer pass, sweep).
//
// Allocation pressure and explicit requests still go through
// VM.CollectGarbage, which is always exact: heap.Collect abandons an
// open cycle and runs a fresh full pass, so the pinned invariants
// (post-GC Used() == live bytes, first-tracer charging, identical
// collection points across collector configurations) hold regardless of
// what the background cycle was doing.
//
// # GC-activation accounting
//
// A background cycle charges one GCActivation to the isolate whose
// quantum observed the threshold crossing — the isolate driving heap
// growth activates the collector, which is what the paper's counter is
// for (attack A4 detection). Pressure and explicit collections charge
// the triggering isolate exactly as before. See core.AccountCounters.

// GCQuantum is the per-quantum collector hook: one bounded collector step
// at the quantum boundary of the driver that owns s, sequential loop or
// scheduler worker. When one of the driver's allocations crossed the
// occupancy threshold (allocState.gcIso), this boundary opens the
// background cycle and charges the activation to that isolate. A shard
// that did not cross the threshold itself never starts a cycle, so the
// activation is always attributed to an allocator. With no threshold
// (GCThresholdPercent < 0, the reference collector) nothing ever crosses
// it and no cycle opens here.
func (vm *VM) GCQuantum(s *SampleState) {
	h, a := vm.heap, s.alloc
	if !h.CycleOpen() {
		if a != nil && a.gcIso != nil {
			if h.NeedCycle() && vm.StartIncrementalCycle() {
				a.gcIso.Account().GCActivations.Add(1)
			}
			a.gcIso = nil
		}
		return
	}
	if a != nil {
		// A crossing observed before another shard opened the cycle is
		// stale; drop it so a later cycle is not double-charged.
		a.gcIso = nil
	}
	if h.MarkQuantum(vm.opts.GCMarkStride) {
		vm.FinishIncrementalCycle()
	}
}

// StartIncrementalCycle opens a background mark cycle now (stopping the
// world briefly to snapshot roots and arm the barrier). It returns
// false when a cycle is already open. Exposed for the GC benchmarks and
// stress tests; the engines normally start cycles from the occupancy
// threshold.
func (vm *VM) StartIncrementalCycle() bool {
	ok := false
	vm.withWorldStopped(func() {
		if !vm.heap.CycleOpen() {
			ok = vm.heap.BeginCycle(vm.buildRootSets())
		}
	})
	return ok
}

// GCMarkStep performs up to n units of mark work on the open cycle and
// reports whether the mark is exhausted. Exposed for benchmarks; the
// engines call the same heap primitive through GCQuantum.
func (vm *VM) GCMarkStep(n int) bool { return vm.heap.MarkQuantum(n) }

// FinishIncrementalCycle runs the terminal phase of the open cycle: a
// short stop-the-world for the root re-scan, residual drain, finalizer
// pass and sweep. Returns false when no cycle is open.
func (vm *VM) FinishIncrementalCycle() (heap.CollectResult, bool) {
	var res heap.CollectResult
	var ok bool
	vm.withWorldStopped(func() {
		if !vm.heap.CycleOpen() {
			return
		}
		res, ok = vm.heap.FinishCycle(vm.buildRootSets())
		if ok {
			vm.noteThreadFree(vm.world.UpdateDisposal(res.Live))
			vm.scheduleFinalizers(res.PendingFinalize)
		}
	})
	return res, ok
}

// StoreRef is the engines' reference-slot store while the barrier is
// armed (barrierOn): heap.StoreRef applies the traced-holder rule and
// publishes the store, and the overwritten reference it hands back is
// recorded with the cycle. Every guest store into a heap slot — the
// closure micros, the reference switch and System.arraycopy — goes
// through it; the idle path stays a plain assignment at the store site.
func (vm *VM) StoreRef(t *Thread, holder *heap.Object, slot *heap.Value, v heap.Value) {
	if old := heap.StoreRef(holder, slot, v); old != nil {
		vm.recordSATB(t, old)
	}
}

// recordSATB records one overwritten, unmarked reference with the open
// cycle. The executing engine's allocation state buffers records and
// hands them to the heap in batches at quantum boundaries (and when the
// buffer fills); callers without an installed state fall back to the
// heap's locked path.
func (vm *VM) recordSATB(t *Thread, old *heap.Object) {
	if a := allocOf(t); a != nil {
		a.recordSATB(vm.heap, old)
		return
	}
	vm.heap.RecordWrite(old)
}

// WriteBarrier records old as overwritten if it is a reference and a
// mark phase is open. System-library natives call it before mutating
// native payloads that hold references (collection set/remove/clear,
// arraycopy): those payloads are scanned only in stop-the-world phases,
// so the deletion record is what keeps a reference removed mid-cycle
// alive until the terminal phase.
func (vm *VM) WriteBarrier(t *Thread, old heap.Value) {
	if old.R != nil && vm.heap.BarrierActive() && !old.R.Marked() {
		vm.recordSATB(t, old.R)
	}
}
