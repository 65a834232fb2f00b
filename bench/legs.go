package main

import (
	"fmt"
	"time"

	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
	paper "ijvm/internal/workloads"
)

// This file holds what spec_compute and heap_churn share: a guest program
// instantiated in Isolated and Shared mode, warmed up, checked against the
// reference interpreter and run A/B-interleaved.

// programSpec describes one guest program independent of the VM it runs
// in, so the same definition builds the Isolated, Shared and reference
// instances.
type programSpec struct {
	name  string
	build func(vm *interp.VM) (*prog, error)
}

// intProgram is a program whose entry point is the paper's run(I)I.
func intProgram(name string, classes func() []*classfile.Class, driver string, n int64) programSpec {
	return programSpec{name: name, build: func(vm *interp.VM) (*prog, error) {
		p, err := define(vm, name, classes(), driver, paper.MicroDriverMethod, paper.MicroDriverDesc)
		if err != nil {
			return nil, err
		}
		p.args = []heap.Value{heap.IntVal(n)}
		p.ops = n
		return p, nil
	}}
}

// leg is one program instantiated in both modes, with its first output
// and its exact per-iteration guest instruction count.
type leg struct {
	spec        programSpec
	iso, shared *prog
	first       int64
	instrs      int64
	warmup      float64 // seconds the first Isolated iteration took beyond the second
}

// timedRun runs p once, sampling the duration under interp.<key>.
func timedRun(h *harness, p *prog, key string, id int64) (int64, error) {
	t0 := time.Now()
	sum, err := p.run()
	h.main.end("interp", key, id, t0)
	return sum, err
}

// buildLeg instantiates spec in both modes and warms both up: two
// iterations each, which defines the classes' prepared bodies and promotes
// the hot loops, so the window starts at steady state.
func buildLeg(spec programSpec, opts interp.Options, sharedToo bool) (*leg, error) {
	l := &leg{spec: spec}
	modes := []core.Mode{core.ModeIsolated}
	if sharedToo {
		modes = append(modes, core.ModeShared)
	}
	for _, mode := range modes {
		opts.Mode = mode
		vm, err := newVM(opts)
		if err != nil {
			return nil, err
		}
		p, err := spec.build(vm)
		if err != nil {
			return nil, fmt.Errorf("%s (%v): %w", spec.name, mode, err)
		}
		t0 := time.Now()
		first, err := p.run()
		if err != nil {
			return nil, err
		}
		cold := time.Since(t0)
		before := vm.TotalInstructions()
		t1 := time.Now()
		if _, err := p.run(); err != nil {
			return nil, err
		}
		warm := time.Since(t1)
		if mode == core.ModeIsolated {
			l.iso, l.first, l.instrs = p, first, vm.TotalInstructions()-before
			if cold > warm {
				l.warmup = (cold - warm).Seconds()
			}
			continue
		}
		l.shared = p
		if first != l.first {
			return nil, fmt.Errorf("%s: Shared output %d differs from Isolated %d", spec.name, first, l.first)
		}
	}
	return l, nil
}

// checkReference runs spec once on the seed-switch reference interpreter
// (no preparation, no tiers) and compares with the leg's first output.
func checkReference(h *harness, l *leg, opts interp.Options) error {
	opts.Mode, opts.DisablePrepare = core.ModeIsolated, true
	vm, err := newVM(opts)
	if err != nil {
		return err
	}
	p, err := l.spec.build(vm)
	if err != nil {
		return err
	}
	ref, err := p.run()
	if err == nil && ref != l.first {
		err = fmt.Errorf("%s: output %d differs from the reference interpreter's %d", l.spec.name, l.first, ref)
	}
	h.op(err)
	return nil
}

// abRound runs the leg once in each mode, alternating which goes first,
// and checks the two outputs agree. Each run is one operation.
func abRound(h *harness, l *leg, round int) {
	var sums [2]int64
	order := []int{0, 1}
	if round%2 == 1 {
		order = []int{1, 0}
	}
	for _, side := range order {
		p, key := l.iso, "prog."+l.spec.name+".iso"
		if side == 1 {
			p, key = l.shared, "prog."+l.spec.name+".shared"
		}
		sum, err := timedRun(h, p, key, int64(round))
		sums[side] = sum
		if err == nil && side == order[1] && sums[0] != sums[1] {
			err = fmt.Errorf("%s round %d: Isolated output %d, Shared %d", l.spec.name, round, sums[0], sums[1])
		}
		h.op(err)
	}
}

// medians returns the leg's median iteration time in each mode (seconds).
func (l *leg) medians(h *harness) (iso, shared float64) {
	return h.rec.medianOf("interp.prog."+l.spec.name+".iso", 1),
		h.rec.medianOf("interp.prog."+l.spec.name+".shared", 1)
}

// callRootSamples is how many empty CallRoots a traced run times.
const callRootSamples = 2000

// measureCallRoot times CallRoot on an empty guest method: the cost of
// entering and leaving the sequential engine, which every host-driven
// call (RPC dispatch, a gateway serve) pays.
func measureCallRoot(h *harness, vm *interp.VM) error {
	p, err := define(vm, "identity", []*classfile.Class{identityClass("bench/Identity")}, "bench/Identity", "id", "(I)I")
	if err != nil {
		return err
	}
	p.args = []heap.Value{heap.IntVal(7)}
	for i := 0; i < callRootSamples; i++ {
		h.traceRound(i)
		sum, err := timedRun(h, p, "call_root", int64(i))
		if err == nil && sum != 7 {
			err = fmt.Errorf("identity returned %d", sum)
		}
		h.op(err)
	}
	h.set("interp.call_root_us", h.rec.medianOf("interp.call_root", 1e6))
	return nil
}
