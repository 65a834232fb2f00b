package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
	"ijvm/internal/osgi"
	"ijvm/internal/rpc"
	paper "ijvm/internal/workloads"
)

var bundleCalls = workloadDef{
	name: "bundle_calls",
	why: "caller and callee as OSGi bundles: Table 1 migrated direct call, then rpc.Link sync, pipelined, deep-copied and frozen payloads from 2 callers; " +
		"rpc does most of the work, guest code almost none",
	setup: setupBundleCalls,
}

const (
	// directCalls is Table 1's batch: one CallRoot performs 200 drag calls
	// across the bundle boundary.
	directCalls = 200
	// The per-round sizes of the five legs. A round is one iteration; each
	// leg's rate is its call count over the median leg time.
	directBatches  = 20
	syncCalls      = 2000
	pipelinedCalls = 4000 // per caller
	payloadCalls   = 1000 // per caller
	callers        = 2
	// linkDepth is the links' pipelining window. A link frees a call's
	// slot just after it resolves the future, so up to one slot per hub
	// worker (2) can be resolved but not yet free; each caller therefore
	// keeps callerWindow calls in flight and a healthy link never refuses.
	linkDepth    = 16
	callerWindow = linkDepth/callers - 1
	payloadLen   = 64
	dragArrLen   = 8 // the event array the guest's rundrag allocates
	// Baselines and ablations of the traced run.
	serialCalls    = 2000
	rmiCalls       = 200
	migrateBatches = 200
	deepCopies     = 500
	serviceName    = "bench/svc"
)

// pair is a caller and a callee bundle installed through the OSGi
// framework, the callee's service published in the registry and bound
// into the caller — the paper's inter-bundle call set-up.
type pair struct {
	vm             *interp.VM
	fw             *osgi.Framework
	caller, callee *osgi.Bundle
	svc            heap.Value
	direct         *prog // rundrag(directCalls) in the caller
	// drags counts drag() calls made on the service so far: each returns
	// its argument's length plus the running count, so outputs are
	// checkable under any interleaving.
	drags  atomic.Int64
	first  int64 // output of the first direct batch
	instrs int64 // guest instructions of one direct batch
}

func lookupMethod(b *osgi.Bundle, class, name, desc string) (*classfile.Method, error) {
	c, err := b.Loader().Lookup(class)
	if err != nil {
		return nil, err
	}
	return c.LookupMethod(name, desc)
}

func installPair(h *harness, opts interp.Options) (*pair, error) {
	vm, err := newVM(opts)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	fw, err := osgi.NewFramework(vm)
	if err != nil {
		return nil, err
	}
	p := &pair{vm: vm, fw: fw}
	if p.callee, err = fw.Install(osgi.Manifest{Name: "bench-callee", Version: "1.0.0",
		Exports: []string{"micro/callee"}}, paper.ServiceClasses()); err != nil {
		return nil, err
	}
	if p.caller, err = fw.Install(osgi.Manifest{Name: "bench-caller", Version: "1.0.0",
		Imports: []string{"micro/callee"}}, paper.CallerClasses()); err != nil {
		return nil, err
	}
	for _, b := range []*osgi.Bundle{p.callee, p.caller} {
		if _, err := fw.Start(b); err != nil {
			return nil, err
		}
	}
	makeM, err := lookupMethod(p.callee, paper.ServiceClassName, "make", "()Ljava/lang/Object;")
	if err != nil {
		return nil, err
	}
	obj, th, err := vm.CallRoot(p.callee.Isolate(), makeM, nil, 0)
	if err != nil || th.Failure() != nil {
		return nil, fmt.Errorf("creating the service: %v / %s", err, th.FailureString())
	}
	if err := fw.Registry().Register(serviceName, obj.R, p.callee); err != nil {
		return nil, err
	}
	got := fw.Registry().Get(serviceName, p.caller)
	if got == nil {
		return nil, fmt.Errorf("service %s did not resolve", serviceName)
	}
	p.svc = heap.RefVal(got)
	bindM, err := lookupMethod(p.caller, paper.CallerClassName, "bind", "(Ljava/lang/Object;)V")
	if err != nil {
		return nil, err
	}
	if _, th, err := vm.CallRoot(p.caller.Isolate(), bindM, []heap.Value{p.svc}, 0); err != nil || th.Failure() != nil {
		return nil, fmt.Errorf("binding the service: %v / %s", err, th.FailureString())
	}
	h.main.end("osgi", "install_start", 0, t0)

	dragM, err := lookupMethod(p.caller, paper.CallerClassName, paper.DragDriverMethod, paper.MicroDriverDesc)
	if err != nil {
		return nil, err
	}
	p.direct = &prog{name: "direct", vm: vm, iso: p.caller.Isolate(), m: dragM,
		args: []heap.Value{heap.IntVal(directCalls)}, ops: directCalls}
	// Two warm-up batches; the second gives the exact instruction count.
	if err := p.directBatch(); err != nil {
		return nil, err
	}
	p.first = dragArrLen + p.drags.Load()
	before := vm.TotalInstructions()
	if err := p.directBatch(); err != nil {
		return nil, err
	}
	p.instrs = vm.TotalInstructions() - before
	return p, nil
}

// directBatch runs one batch of direct calls and checks its output: the
// last drag returns the event length plus the service's call count.
func (p *pair) directBatch() error {
	sum, err := p.direct.run()
	if err != nil {
		return err
	}
	if want := dragArrLen + p.drags.Add(directCalls); sum != want {
		return fmt.Errorf("direct batch returned %d, want %d", sum, want)
	}
	return nil
}

// dragSum is the sum of n consecutive drag results over payloads of the
// given length when the service had already been called base times.
func dragSum(base, n, length int64) int64 {
	return n*length + n*base + n*(n+1)/2
}

type bundleEnv struct {
	iso, shared *pair
	hub         *rpc.Hub
	scalar      *rpc.Link // fstatic(I)I, legs b and c
	copyLink    *rpc.Link // drag(Object)I, deep copy
	frozenLink  *rpc.Link // drag(Object)I, zero copy
	payload     heap.Value
	frozen      heap.Value
	tracks      [callers]*track
	// plain is a second Isolated pair without a hub, for the baselines
	// that drive the engine themselves (SerialLink, RMI, ablations).
	plain *pair
}

// newPayload builds the 64-slot argument of legs d and e in the caller:
// seed-drawn ints with a string every eighth slot, so a deep copy
// re-allocates nine objects and a frozen share none.
func newPayload(h *harness, p *pair) (heap.Value, error) {
	iso := p.caller.Isolate()
	arr, err := pinnedArray(p.vm, iso, payloadLen)
	if err != nil {
		return heap.Value{}, err
	}
	for i := range arr.Elems {
		if i%8 == 7 {
			s, err := p.vm.NewStringObject(nil, iso, fmt.Sprintf("event-%d", h.rng.Intn(1<<20)))
			if err != nil {
				return heap.Value{}, err
			}
			arr.Elems[i] = heap.RefVal(s)
			continue
		}
		arr.Elems[i] = heap.IntVal(h.rng.Int63n(1 << 20))
	}
	return heap.RefVal(arr), nil
}

func setupBundleCalls(h *harness) (env, error) {
	e := &bundleEnv{}
	var err error
	if e.iso, err = installPair(h, interp.Options{Mode: core.ModeIsolated}); err != nil {
		return nil, err
	}
	if e.shared, err = installPair(h, interp.Options{Mode: core.ModeShared}); err != nil {
		return nil, err
	}
	h.recordOutput("direct", e.iso.first, e.iso.instrs)

	if e.payload, err = newPayload(h, e.iso); err != nil {
		return nil, err
	}
	if e.frozen, err = newPayload(h, e.iso); err != nil {
		return nil, err
	}
	if err := heap.Freeze(e.frozen.R); err != nil {
		return nil, err
	}
	payloadSum := int64(0)
	for _, v := range append(append([]heap.Value(nil), e.payload.R.Elems...), e.frozen.R.Elems...) {
		payloadSum += v.I
	}
	h.recordOutput("payload", payloadSum, 0)
	fstatic, err := lookupMethod(e.iso.callee, paper.ServiceClassName, "fstatic", "(I)I")
	if err != nil {
		return nil, err
	}
	drag, err := lookupMethod(e.iso.callee, paper.ServiceClassName, "drag", "(Ljava/lang/Object;)I")
	if err != nil {
		return nil, err
	}
	e.hub = rpc.NewHub(e.iso.vm)
	callerIso, calleeIso := e.iso.caller.Isolate(), e.iso.callee.Isolate()
	if e.scalar, err = e.hub.NewLink(callerIso, calleeIso, fstatic, heap.Void(), rpc.LinkOptions{QueueDepth: linkDepth}); err != nil {
		return nil, err
	}
	if e.copyLink, err = e.hub.NewLink(callerIso, calleeIso, drag, e.iso.svc, rpc.LinkOptions{QueueDepth: linkDepth}); err != nil {
		return nil, err
	}
	if e.frozenLink, err = e.hub.NewLink(callerIso, calleeIso, drag, e.iso.svc, rpc.LinkOptions{QueueDepth: linkDepth, ZeroCopy: true}); err != nil {
		return nil, err
	}
	for i := range e.tracks {
		e.tracks[i] = h.rec.newTrack(true)
	}
	if h.cfg.trace {
		if e.plain, err = installPair(h, interp.Options{Mode: core.ModeIsolated}); err != nil {
			return nil, err
		}
	}
	// One warm round: links prepare the callee's methods on first dispatch.
	e.round(h, -1)
	return e, nil
}

func (e *bundleEnv) verify(h *harness) error {
	// The direct batch on the seed-switch reference interpreter.
	ref, err := installPair(h, interp.Options{Mode: core.ModeIsolated, DisablePrepare: true})
	if err == nil && ref.instrs == 0 {
		err = fmt.Errorf("reference pair executed no instructions")
	}
	h.op(err)
	return nil
}

// syncLeg is leg b: one caller, blocking calls, each timed on its own —
// the only wall-clock percentiles of this workload come from here, where
// nothing else runs.
func (e *bundleEnv) syncLeg(h *harness, round int) {
	args := make([]heap.Value, 1)
	for i := 0; i < syncCalls; i++ {
		x := int64(round*syncCalls + i)
		args[0] = heap.IntVal(x)
		t0 := time.Now()
		v, err := e.scalar.Call(args)
		h.main.end("rpc", "call_sync", int64(round), t0)
		if err == nil && v.I != x+1 {
			err = fmt.Errorf("fstatic(%d) returned %d", x, v.I)
		}
		h.op(err)
	}
}

// pipelined drives one link from `callers` goroutines, each keeping
// callerWindow calls in flight, n calls per caller. check
// receives every result. It returns how many submissions were refused.
func (e *bundleEnv) pipelined(h *harness, link *rpc.Link, n int, round int, argFor func(caller, i int) heap.Value,
	check func(caller, i int, v heap.Value) error) (saturated int64) {
	const window = callerWindow
	var (
		wg  sync.WaitGroup
		sat atomic.Int64
	)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tr := e.tracks[c]
			timed := h.cfg.trace
			// ring[i%window] holds call i until call i+window needs the slot.
			var ring [window]struct {
				f *rpc.Future
				i int
			}
			settle := func(slot int) {
				f, i := ring[slot].f, ring[slot].i
				if f == nil {
					return
				}
				ring[slot].f = nil
				t0 := time.Now()
				v, err := f.Wait()
				if timed {
					tr.end("rpc", "wait", int64(round), t0)
				}
				f.Release()
				if err == nil {
					err = check(c, i, v)
				}
				h.op(err)
			}
			args := make([]heap.Value, 1)
			for i := 0; i < n; i++ {
				settle(i % window)
				args[0] = argFor(c, i)
				t0 := time.Now()
				f, err := link.CallAsync(args)
				if timed {
					tr.end("rpc", "submit", int64(round), t0)
				}
				if err != nil {
					if errors.Is(err, rpc.ErrSaturated) {
						sat.Add(1)
					}
					h.op(err)
					continue
				}
				ring[i%window].f, ring[i%window].i = f, i
			}
			for slot := range ring {
				settle(slot)
			}
		}(c)
	}
	wg.Wait()
	return sat.Load()
}

// dragLeg runs a payload leg and checks the sum of its results against
// the service's call count.
func (e *bundleEnv) dragLeg(h *harness, link *rpc.Link, payload heap.Value, key string, round int) {
	var sum atomic.Int64
	base := e.iso.drags.Load()
	t0 := time.Now()
	e.pipelined(h, link, payloadCalls, round,
		func(int, int) heap.Value { return payload },
		func(_, _ int, v heap.Value) error { sum.Add(v.I); return nil })
	h.main.end("rpc", key, int64(round), t0)
	n := int64(callers * payloadCalls)
	e.iso.drags.Add(n)
	if got, want := sum.Load(), dragSum(base, n, payloadLen); got != want {
		h.fail(fmt.Errorf("%s round %d: results sum to %d, want %d", key, round, got, want))
	}
}

// round runs the five legs once. Round -1 is the warm-up.
func (e *bundleEnv) round(h *harness, round int) {
	// (a) direct migrated calls, Isolated and Shared interleaved. The hub
	// owns the Isolated VM's engine, so its batches run inside Sync.
	for b := 0; b < directBatches; b++ {
		t0 := time.Now()
		var err error
		e.hub.Sync(func() { err = e.iso.directBatch() })
		h.main.end("interp", "direct.iso", int64(round), t0)
		h.op(err)
		t1 := time.Now()
		err = e.shared.directBatch()
		h.main.end("interp", "direct.shared", int64(round), t1)
		h.op(err)
	}
	// (b) sync scalar.
	e.syncLeg(h, round)
	// (c) pipelined scalar.
	t0 := time.Now()
	sat := e.pipelined(h, e.scalar, pipelinedCalls, round,
		func(c, i int) heap.Value { return heap.IntVal(int64(c*pipelinedCalls + i)) },
		func(c, i int, v heap.Value) error {
			if x := int64(c*pipelinedCalls + i); v.I != x+1 {
				return fmt.Errorf("pipelined fstatic(%d) returned %d", x, v.I)
			}
			return nil
		})
	h.main.end("rpc", "leg_pipelined", int64(round), t0)
	h.main.observe("rpc.saturated", float64(sat))
	// (d) deep-copied payload, (e) frozen payload.
	e.dragLeg(h, e.copyLink, e.payload, "leg_payload", round)
	e.dragLeg(h, e.frozenLink, e.frozen, "leg_frozen", round)
}

func (e *bundleEnv) measure(h *harness) error {
	deadline := time.Now().Add(h.window)
	if h.cfg.trace {
		if err := e.measureLayers(h); err != nil {
			return err
		}
	}
	until(deadline, 3, func(round int) {
		traced := h.traceRound(round)
		t0 := time.Now()
		e.round(h, round)
		h.unit(traced, time.Since(t0))
	})

	isoT := h.rec.medianOf("interp.direct.iso", 1)
	sharedT := h.rec.medianOf("interp.direct.shared", 1)
	syncLat := h.rec.samples("rpc.call_sync")
	p50 := median(syncLat) * 1e6
	p99, pct := tail(syncLat)
	rate := func(key string, calls float64) float64 { return calls / h.rec.medianOf(key, 1) }
	linkRate := rate("rpc.leg_pipelined", callers*pipelinedCalls)

	h.set("guest_minstr_per_s", float64(e.iso.instrs)/isoT/1e6)
	h.set("isolation_overhead", isoT/sharedT)
	h.set("ops_per_s", linkRate)
	h.set("op_p50_us", p50)
	h.set("call_ijvm_ns", isoT*1e9/directCalls)
	h.set("call_link_p50_us", p50)
	h.set("call_link_p99_us", p99*1e6)
	h.set("link_calls_per_s", linkRate)
	h.set("payload_calls_per_s", rate("rpc.leg_payload", callers*payloadCalls))
	h.set("frozen_calls_per_s", rate("rpc.leg_frozen", callers*payloadCalls))
	h.set("osgi.install_start_ms", h.rec.medianOf("osgi.install_start", 1e3))
	sats := h.rec.samples("rpc.saturated")
	total := 0.0
	for _, s := range sats {
		total += s
	}
	h.set("rpc.saturated_share", total/(float64(len(sats))*callers*pipelinedCalls))
	h.set("rpc.submit_us", h.rec.medianOf("rpc.submit", 1e6))
	h.set("rpc.wait_us", h.rec.medianOf("rpc.wait", 1e6))
	h.note("%d sync-call samples, tail reported at p%d; %d rounds (one warm-up round per set-up included)", len(syncLat), pct, len(sats))
	return nil
}

func (e *bundleEnv) close() {
	for _, l := range []*rpc.Link{e.scalar, e.copyLink, e.frozenLink} {
		if l != nil {
			l.Close()
		}
	}
	if e.hub != nil {
		e.hub.Close()
	}
}

// measureLayers runs the traced run's side legs: the paper's baselines
// (SerialLink, RMI), the copier timed directly, thread migration cost, the
// §3.2 per-call accounting ablation, an empty CallRoot and Fig 3's memory
// overhead.
func (e *bundleEnv) measureLayers(h *harness) error {
	plain := e.plain
	callerIso, calleeIso := plain.caller.Isolate(), plain.callee.Isolate()
	fstatic, err := lookupMethod(plain.callee, paper.ServiceClassName, "fstatic", "(I)I")
	if err != nil {
		return err
	}
	drag, err := lookupMethod(plain.callee, paper.ServiceClassName, "drag", "(Ljava/lang/Object;)I")
	if err != nil {
		return err
	}

	// SerialLink: the seed link architecture, one call at a time.
	serial := rpc.NewSerialLink(plain.vm, callerIso, calleeIso, fstatic, heap.Void())
	t0 := time.Now()
	for i := 0; i < serialCalls; i++ {
		v, err := serial.Call([]heap.Value{heap.IntVal(int64(i))})
		if err == nil && v.I != int64(i)+1 {
			err = fmt.Errorf("serial fstatic(%d) returned %d", i, v.I)
		}
		h.op(err)
	}
	d := h.main.end("rpc", "serial_leg", 0, t0)
	serial.Close()
	h.set("rpc.serial_calls_per_s", serialCalls/d.Seconds())

	if err := measureRMI(h, plain, drag); err != nil {
		h.note("RMI baseline skipped: %v", err)
	}

	// The copier on its own: the payload of leg d into the callee.
	for i := 0; i < deepCopies; i++ {
		t0 := time.Now()
		_, err := rpc.DeepCopyValue(e.iso.vm, e.payload, e.iso.callee.Isolate())
		h.main.end("rpc", "deep_copy", int64(i), t0)
		h.op(err)
	}
	h.set("rpc.deepcopy_us_per_kelem", h.rec.medianOf("rpc.deep_copy", 1e6)*1000/payloadLen)

	// Migration cost: Fig 1's inter-isolate call loop against the
	// intra-isolate one, A/B, per call.
	intra, err := paper.NewMicroRunner(core.ModeIsolated, paper.MicroIntra, directCalls)
	if err != nil {
		return err
	}
	inter, err := paper.NewMicroRunner(core.ModeIsolated, paper.MicroInter, directCalls)
	if err != nil {
		return err
	}
	// Per-call CPU accounting (the design §3.2 rejects) against sampling,
	// on the direct batch.
	percall, err := installPair(h, interp.Options{Mode: core.ModeIsolated, PerCallCPUAccounting: true})
	if err != nil {
		return err
	}
	for i := 0; i < migrateBatches; i++ {
		for _, leg := range []struct {
			key string
			run func() error
		}{
			{"micro_intra", func() error { _, err := intra.Run(); return err }},
			{"micro_inter", func() error { _, err := inter.Run(); return err }},
			{"direct_sampling", plain.directBatch},
			{"direct_percall", percall.directBatch},
		} {
			t0 := time.Now()
			err := leg.run()
			h.main.end("interp", leg.key, int64(i), t0)
			h.op(err)
		}
	}
	h.set("interp.migrate_ns", (h.rec.medianOf("interp.micro_inter", 1e9)-h.rec.medianOf("interp.micro_intra", 1e9))/directCalls)
	h.set("core.percall_accounting_ratio", h.rec.medianOf("interp.direct_percall", 1)/h.rec.medianOf("interp.direct_sampling", 1))

	if err := measureCallRoot(h, plain.vm); err != nil {
		return err
	}
	return e.measureFig3(h)
}

// measureRMI times Table 1's RMI baseline: full serialization over loopback
// TCP. A host without a loopback interface cannot run it; the error is
// noted and the baseline reads 0.
func measureRMI(h *harness, plain *pair, drag *classfile.Method) error {
	callerIso, calleeIso := plain.caller.Isolate(), plain.callee.Isolate()
	event, err := pinnedArray(plain.vm, callerIso, dragArrLen)
	if err != nil {
		return err
	}
	srv, err := rpc.NewRMIServer(plain.vm, calleeIso, drag, plain.svc)
	if err != nil {
		return err
	}
	defer srv.Close()
	client, err := rpc.NewRMIClient(plain.vm, callerIso, srv.Addr())
	if err != nil {
		return err
	}
	defer client.Close()
	for i := 0; i < rmiCalls; i++ {
		t0 := time.Now()
		v, err := client.Call([]heap.Value{heap.RefVal(event)})
		h.main.end("rpc", "rmi_call", int64(i), t0)
		if want := dragArrLen + plain.drags.Add(1); err == nil && v.I != want {
			err = fmt.Errorf("RMI drag returned %d, want %d", v.I, want)
		}
		h.op(err)
	}
	h.set("rpc.rmi_call_us", h.rec.medianOf("rpc.rmi_call", 1e6))
	return nil
}

// measureFig3 boots the paper's two OSGi configurations in both modes and
// reports the modelled memory of Isolated over Shared.
func (e *bundleEnv) measureFig3(h *harness) error {
	for _, cfg := range []struct {
		metric string
		specs  func() []osgi.BundleSpec
	}{
		{"osgi.felix_mem_overhead", osgi.FelixConfig},
		{"osgi.equinox_mem_overhead", osgi.EquinoxConfig},
	} {
		var bytes [2]float64
		for i, mode := range []core.Mode{core.ModeIsolated, core.ModeShared} {
			vm, err := newVM(interp.Options{Mode: mode, HeapLimit: 256 << 20})
			if err != nil {
				return err
			}
			t0 := time.Now()
			fw, err := osgi.NewFramework(vm)
			if err != nil {
				return err
			}
			if _, err := osgi.InstallAndStart(fw, cfg.specs()); err != nil {
				return err
			}
			h.main.end("osgi", "boot_config", int64(i), t0)
			vm.CollectGarbage(nil)
			bytes[i] = float64(vm.MemoryFootprint())
		}
		h.set(cfg.metric, bytes[0]/bytes[1])
	}
	return nil
}
