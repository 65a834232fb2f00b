package main

import (
	"fmt"
	"time"

	"ijvm/internal/interp"
	paper "ijvm/internal/workloads"
)

var specCompute = workloadDef{
	name: "spec_compute",
	why: "1 client, sequential engine: 7 SPEC-shaped programs, Fig 1 call and static loops, a megamorphic call site, Isolated vs Shared; " +
		"interp does ~all the work, heap GC, rpc, sched and serve ~none",
	setup: setupSpecCompute,
}

// microIters sizes the Fig 1 loops and the call-site programs so one
// iteration takes a few milliseconds, like the SPEC-shaped ones.
const microIters = 20_000

// specOptions gives the programs a heap large enough that none collects:
// GC stays out of this workload by construction.
var specOptions = interp.Options{HeapLimit: 512 << 20}

func megacallProgram(name string, k int, order []int64) programSpec {
	return programSpec{name: name, build: func(vm *interp.VM) (*prog, error) {
		return newMegacall(vm, name, k, order, microIters)
	}}
}

// drawOrder draws a receiver order for a k-class call site: every class
// appears, the sequence is seed-drawn.
func drawOrder(h *harness, k int) []int64 {
	order := make([]int64, megacallOrderLen)
	for i := range order {
		order[i] = int64(i % k)
	}
	h.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

type specEnv struct {
	legs []*leg // specPrograms order
	aux  []*leg // invoke_mono, invoke_poly4: Isolated only, per-layer only
}

func setupSpecCompute(h *harness) (env, error) {
	var specs []programSpec
	for _, s := range paper.SpecJVM98() {
		specs = append(specs, intProgram(s.Name, s.Classes, s.Driver, s.DefaultN))
	}
	specs = append(specs,
		intProgram("intra", paper.IntraCallClasses, paper.IntraClassName, microIters),
		intProgram("static", paper.StaticAccessClasses, paper.StaticClassName, microIters),
		megacallProgram("megacall", 8, drawOrder(h, 8)),
	)
	e := &specEnv{}
	for i, s := range specs {
		if s.name != specPrograms[i] {
			return nil, fmt.Errorf("program %d is %s, the metric table says %s", i, s.name, specPrograms[i])
		}
		l, err := buildLeg(s, specOptions, true)
		if err != nil {
			return nil, err
		}
		h.recordOutput(s.name, l.first, l.instrs)
		e.legs = append(e.legs, l)
	}
	for _, s := range []programSpec{
		megacallProgram("invoke_mono", 1, drawOrder(h, 1)),
		megacallProgram("invoke_poly4", 4, drawOrder(h, 4)),
	} {
		l, err := buildLeg(s, specOptions, false)
		if err != nil {
			return nil, err
		}
		h.recordOutput(s.name, l.first, l.instrs)
		e.aux = append(e.aux, l)
	}
	warmup := 0.0
	for _, l := range e.legs {
		warmup += l.warmup
	}
	h.main.observe("interp.tier_warmup", warmup)
	return e, nil
}

func (e *specEnv) verify(h *harness) error {
	for _, l := range append(append([]*leg(nil), e.legs...), e.aux...) {
		if err := checkReference(h, l, specOptions); err != nil {
			return err
		}
	}
	return nil
}

func (e *specEnv) measure(h *harness) error {
	deadline := time.Now().Add(h.window)
	if h.cfg.trace {
		if err := measureCallRoot(h, e.legs[0].iso.vm); err != nil {
			return err
		}
	}
	perm := make([]int, len(e.legs))
	for i := range perm {
		perm[i] = i
	}
	until(deadline, 3, func(round int) {
		traced := h.traceRound(round)
		h.rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		t0 := time.Now()
		for _, i := range perm {
			abRound(h, e.legs[i], round)
		}
		h.unit(traced, time.Since(t0))
		for _, l := range e.aux {
			_, err := timedRun(h, l.iso, "prog."+l.spec.name+".iso", int64(round))
			h.op(err)
		}
	})

	var rates, ratios []float64
	suite := 0.0
	for _, l := range e.legs {
		iso, shared := l.medians(h)
		rates = append(rates, float64(l.instrs)/iso/1e6)
		ratios = append(ratios, iso/shared)
		suite += iso
		h.set("interp.prog."+l.spec.name+".iso_ms", iso*1e3)
		h.set("interp.prog."+l.spec.name+".shared_ms", shared*1e3)
	}
	perOp := func(l *leg) float64 { // ns per guest-level operation
		iso, _ := l.medians(h)
		return iso * 1e9 / float64(l.iso.ops)
	}
	mega := e.legs[len(e.legs)-1]
	h.set("guest_minstr_per_s", geomean(rates))
	h.set("isolation_overhead", geomean(ratios))
	h.set("ops_per_s", 1/suite)
	h.set("op_p50_us", perOp(mega)) // ns per call = us per 1000 calls
	h.set("interp.ns_per_instr", 1e3/geomean(rates))
	h.set("interp.invoke_mono_ns", perOp(e.aux[0]))
	h.set("interp.invoke_poly4_ns", perOp(e.aux[1]))
	h.set("interp.invoke_mega8_ns", perOp(mega))
	h.set("interp.static_access_ns", perOp(e.legs[8]))
	h.set("interp.tier_warmup_ms", h.rec.medianOf("interp.tier_warmup", 1e3))
	h.note("%d samples per program and mode", len(h.rec.samples("interp.prog.megacall.iso")))
	return nil
}

func (e *specEnv) close() {}
