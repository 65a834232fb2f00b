package main

import (
	"fmt"
	"runtime"
	"time"

	"ijvm/internal/core"
	"ijvm/internal/interp"
	paper "ijvm/internal/workloads"
)

var heapChurn = workloadDef{
	name: "heap_churn",
	why: "1 client, small heap: an alloc phase (short-lived garbage: admission, sweep) and a store phase (reference stores into an old graph " +
		"under an open mark cycle: SATB barrier); heap does most of the work",
	setup: setupHeapChurn,
}

const (
	// allocObjects, jackIters and dbScale size the alloc-phase iterations
	// so that each contains several collections. An iteration that holds
	// one collection or none makes iteration times bimodal, and the median
	// of a bimodal sample jumps between runs.
	allocObjects = 400_000
	jackIters    = 8000
	dbScale      = 4
	// storeSwaps is the swap count of one storegraph iteration: two
	// reference stores each. With a mark stride of one object per quantum
	// the 20k-object cycle outlives the iteration, so every store of a
	// marking iteration pays the armed barrier.
	storeSwaps = 40_000
	// pauseSamples is how many explicit cycles the traced run times for
	// the mark-step, terminal-pause and full-STW numbers.
	pauseSamples = 10
)

// allocOptions sizes the heap so the alloc-phase programs collect several
// times per iteration: admission, cycle opening and sweep are all on the
// path.
var allocOptions = interp.Options{HeapLimit: 4 << 20}

// storeOptions disables background cycles (the harness opens and closes
// them explicitly) and marks one object per quantum so an open cycle stays
// open across a whole iteration.
var storeOptions = interp.Options{HeapLimit: 64 << 20, GCThresholdPercent: -1, GCMarkStride: 1}

type heapEnv struct {
	alloc []*leg // alloc, jack, db: both modes, allocOptions
	store *leg   // storegraph: both modes, storeOptions
	graph *storegraph
	// admission is the allocation loop on a heap that never collects
	// inside an iteration: the harness collects between iterations,
	// untimed. Its time against alloc's gives the collector's share.
	admission *prog
}

func setupHeapChurn(h *harness) (env, error) {
	db := paper.SpecByName("db")
	jack := paper.SpecByName("jack")
	if db == nil || jack == nil {
		return nil, fmt.Errorf("the paper's db and jack programs are missing")
	}
	e := &heapEnv{}
	for _, s := range []programSpec{
		intProgram("alloc", paper.AllocClasses, paper.AllocClassName, allocObjects),
		intProgram("jack", jack.Classes, jack.Driver, jackIters),
		intProgram("db", db.Classes, db.Driver, dbScale*db.DefaultN),
	} {
		l, err := buildLeg(s, allocOptions, true)
		if err != nil {
			return nil, err
		}
		h.recordOutput(s.name, l.first, l.instrs)
		e.alloc = append(e.alloc, l)
	}

	idx := make([]int64, storegraphIdxLen)
	for i := range idx {
		idx[i] = int64(h.rng.Intn(storegraphObjects))
	}
	var graphs []*storegraph
	spec := programSpec{name: "storegraph", build: func(vm *interp.VM) (*prog, error) {
		g, err := newStoregraph(vm, "storegraph", idx, storeSwaps)
		if err != nil {
			return nil, err
		}
		graphs = append(graphs, g)
		return g.prog, nil
	}}
	l, err := buildLeg(spec, storeOptions, true)
	if err != nil {
		return nil, err
	}
	h.recordOutput(spec.name, l.first, l.instrs)
	e.store, e.graph = l, graphs[0]

	if h.cfg.trace {
		vm, err := newVM(interp.Options{Mode: core.ModeIsolated, HeapLimit: 512 << 20, GCThresholdPercent: -1})
		if err != nil {
			return nil, err
		}
		if e.admission, err = e.alloc[0].spec.build(vm); err != nil {
			return nil, err
		}
		if _, err := e.admission.run(); err != nil {
			return nil, err
		}
	}
	return e, nil
}

func (e *heapEnv) legs() []*leg { return append(append([]*leg(nil), e.alloc...), e.store) }

func (e *heapEnv) verify(h *harness) error {
	for _, l := range e.alloc {
		if err := checkReference(h, l, allocOptions); err != nil {
			return err
		}
	}
	return checkReference(h, e.store, storeOptions)
}

// markingRun opens a cycle, runs one storegraph iteration under the armed
// barrier, checks the cycle outlived it, and closes the cycle.
func (e *heapEnv) markingRun(h *harness, round int) {
	vm := e.graph.vm
	t0 := time.Now()
	opened := vm.StartIncrementalCycle()
	h.main.end("heap", "start_cycle", int64(round), t0)
	before := vm.Heap().BarrierRecords()
	sum, err := timedRun(h, e.graph.prog, "prog.storegraph.marking", int64(round))
	switch {
	case err != nil:
	case !opened:
		err = fmt.Errorf("storegraph round %d: the mark cycle did not open", round)
	case !vm.Heap().CycleOpen():
		err = fmt.Errorf("storegraph round %d: the mark cycle closed before the iteration ended", round)
	case sum != e.store.first:
		err = fmt.Errorf("storegraph round %d: output %d under marking, %d idle", round, sum, e.store.first)
	}
	h.main.observe("heap.barrier_records", float64(vm.Heap().BarrierRecords()-before))
	t1 := time.Now()
	vm.FinishIncrementalCycle()
	h.main.end("heap", "close_cycle", int64(round), t1)
	h.op(err)
}

func (e *heapEnv) measure(h *harness) error {
	deadline := time.Now().Add(h.window)
	if h.cfg.trace {
		e.measurePauses(h)
	}
	allocVM := e.alloc[0].iso.vm
	gcBefore := allocVM.Heap().GCCount() + allocVM.Heap().IncrementalCycles()
	allocRuns := 0
	until(deadline, 3, func(round int) {
		traced := h.traceRound(round)
		t0 := time.Now()
		for _, l := range e.alloc {
			abRound(h, l, round)
		}
		allocRuns++
		// The alloc phase leaves the host's own collector mid-cycle, and
		// Go's write barrier would tax the store phase's pointer stores
		// in some rounds and not in others. Finish that cycle first: the
		// store phase allocates nothing, so none starts inside it.
		runtime.GC()
		abRound(h, e.store, round)
		e.markingRun(h, round)
		h.unit(traced, time.Since(t0))
		if e.admission != nil {
			_, err := timedRun(h, e.admission, "prog.alloc.admission", int64(round))
			h.op(err)
			t1 := time.Now()
			e.admission.vm.CollectGarbage(nil)
			h.main.end("heap", "collect_garbage", int64(round), t1)
		}
	})
	if !e.graph.intact() {
		h.op(fmt.Errorf("storegraph: the spine lost or duplicated an object"))
	}

	var rates, ratios []float64
	for _, l := range e.legs() {
		iso, shared := l.medians(h)
		rates = append(rates, float64(l.instrs)/iso/1e6)
		ratios = append(ratios, iso/shared)
	}
	allocT, _ := e.alloc[0].medians(h)
	idleT, _ := e.store.medians(h)
	markT := h.rec.medianOf("interp.prog.storegraph.marking", 1)
	stores := float64(e.graph.ops)

	h.set("guest_minstr_per_s", geomean(rates))
	h.set("isolation_overhead", geomean(ratios))
	allocRate := allocObjects / allocT
	h.set("ops_per_s", allocRate)
	h.set("op_p50_us", markT*1e6/(stores/1000)) // us per 1000 reference stores, cycle open
	h.set("alloc_mobj_per_s", allocRate/1e6)
	h.set("store_marking_minstr_per_s", float64(e.store.instrs)/markT/1e6)
	h.set("heap.alloc_ns_per_obj", allocT*1e9/allocObjects)
	gcs := allocVM.Heap().GCCount() + allocVM.Heap().IncrementalCycles() - gcBefore
	h.set("heap.gc_cycles", float64(gcs)/(float64(allocRuns)*allocObjects/1e6))
	h.set("heap.barrier_tax", 1-idleT/markT)
	h.set("heap.barrier_records", median(h.rec.samples("heap.barrier_records"))/(stores/1000))
	if e.admission != nil {
		h.set("heap.sweep_share", 1-h.rec.medianOf("interp.prog.alloc.admission", 1)/allocT)
	}
	h.note("%d rounds; %d collections on the alloc VM", allocRuns, gcs)
	return nil
}

// measurePauses times the collector's explicit phases on the live
// storegraph: mark strides to completion, the terminal pause after a
// complete mark, and one monolithic stop-the-world collection.
func (e *heapEnv) measurePauses(h *harness) {
	vm := e.graph.vm
	for i := 0; i < pauseSamples; i++ {
		h.traceRound(i)
		id := int64(i)
		if !vm.StartIncrementalCycle() {
			h.op(fmt.Errorf("pause sample %d: the mark cycle did not open", i))
			continue
		}
		t0 := time.Now()
		for !vm.GCMarkStep(1024) {
		}
		h.main.end("heap", "mark_to_completion", id, t0)
		t1 := time.Now()
		_, ok := vm.FinishIncrementalCycle()
		h.main.end("heap", "finish_cycle", id, t1)
		t2 := time.Now()
		res := vm.CollectGarbage(nil)
		h.main.end("heap", "full_stw", id, t2)
		var err error
		if !ok || res.LiveObjects < storegraphObjects {
			err = fmt.Errorf("pause sample %d: cycle finished=%v, %d objects live", i, ok, res.LiveObjects)
		}
		h.op(err)
	}
	h.set("heap.mark_step_us_per_kobj", h.rec.medianOf("heap.mark_to_completion", 1e6)/(storegraphObjects/1000))
	h.set("heap.finish_cycle_us", h.rec.medianOf("heap.finish_cycle", 1e6))
	h.set("heap.full_stw_pause_us", h.rec.medianOf("heap.full_stw", 1e6))
}

func (e *heapEnv) close() {}
