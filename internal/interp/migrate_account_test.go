package interp_test

import (
	"sync/atomic"
	"testing"

	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
	"ijvm/internal/sched"
	"ijvm/internal/syslib"
)

// This file pins the exactness contract of the batched call-path
// counters: inter-isolate calls are counted in the executing engine's
// InstrBatch beside the instruction charges, and every flush point — a
// quantum boundary, a sequential safepoint reached mid-quantum (snapshot
// capture, collection, kill), a stop-the-world park of the concurrent
// engine — must publish exact per-isolate totals. The reference count is
// the VM's own method-entry trace hook, which fires once per frame push.

// migEnv is a caller isolate (Isolate0) looping calls into a callee
// isolate's static method, with a native the caller invokes every eighth
// iteration so the test can reach safepoints from inside a quantum.
type migEnv struct {
	vm             *interp.VM
	caller, callee *core.Isolate
	run, ping      *classfile.Method
	entered        atomic.Int64 // frames pushed for callee-isolate methods
	probe          func()       // called by the caller's native, mid-quantum
}

func newMigEnv(t *testing.T, newVM func(interp.Options) *interp.VM, opts interp.Options) *migEnv {
	t.Helper()
	e := &migEnv{vm: newVM(opts)}
	syslib.MustInstall(e.vm)
	var err error
	if e.caller, err = e.vm.NewIsolate("caller"); err != nil {
		t.Fatal(err)
	}
	if e.callee, err = e.vm.NewIsolate("callee"); err != nil {
		t.Fatal(err)
	}
	svc := classfile.NewClass("mb/Svc").
		StaticField("count", classfile.KindInt).
		Method("ping", "(I)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.GetStatic("mb/Svc", "count").Const(1).IAdd().PutStatic("mb/Svc", "count")
			a.Const(3).NewArray("").Pop() // garbage charged to the callee
			a.ILoad(0).Const(1).IAdd().IReturn()
		}).MustBuild()
	if err := e.callee.Loader().Define(svc); err != nil {
		t.Fatal(err)
	}
	e.caller.Loader().AddDelegate(e.callee.Loader())
	hit := interp.NativeFunc(func(vm *interp.VM, th *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
		if e.probe != nil {
			e.probe()
		}
		return interp.NativeResult{Control: interp.NativeDone}, nil
	})
	main := classfile.NewClass("ma/Main").
		NativeMethod("hit", "()V", classfile.FlagStatic, hit).
		Method("run", "(I)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			// locals: 0 n, 1 acc, 2 i
			a.Const(0).IStore(1)
			a.Const(0).IStore(2)
			a.Label("loop").ILoad(2).ILoad(0).IfICmpGe("done")
			a.ILoad(1).InvokeStatic("mb/Svc", "ping", "(I)I").IStore(1)
			a.ILoad(2).Const(7).IAnd().Const(7).IfICmpNe("next")
			a.InvokeStatic("ma/Main", "hit", "()V")
			a.Label("next").IInc(2, 1).Goto("loop")
			a.Label("done").ILoad(1).IReturn()
		}).MustBuild()
	if err := e.caller.Loader().Define(main); err != nil {
		t.Fatal(err)
	}
	if e.run, err = main.LookupMethod("run", "(I)I"); err != nil {
		t.Fatal(err)
	}
	if e.ping, err = svc.LookupMethod("ping", "(I)I"); err != nil {
		t.Fatal(err)
	}
	e.vm.TraceMethodEntry = func(m *classfile.Method, iso *core.Isolate) {
		if iso == e.callee {
			e.entered.Add(1)
		}
	}
	return e
}

// check asserts the published accounts are exact: every callee entry so
// far is one call into the callee and one call out of the caller, and
// every executed instruction is charged to one of the two.
func (e *migEnv) check(t *testing.T, where string) {
	t.Helper()
	a, b := e.caller.Account().Numbers(), e.callee.Account().Numbers()
	if n := e.entered.Load(); b.InterBundleCallsIn != n || a.InterBundleCallsOut != n {
		t.Fatalf("%s: %d callee entries, callee in=%d, caller out=%d", where, n, b.InterBundleCallsIn, a.InterBundleCallsOut)
	}
	if a.InterBundleCallsIn != 0 || b.InterBundleCallsOut != 0 {
		t.Fatalf("%s: caller in=%d, callee out=%d, want 0", where, a.InterBundleCallsIn, b.InterBundleCallsOut)
	}
	if total := e.vm.TotalInstructions(); a.Instructions+b.Instructions != total {
		t.Fatalf("%s: caller %d + callee %d instructions, VM total %d", where, a.Instructions, b.Instructions, total)
	}
}

func TestMigrationAccountsExactAtFlushPoints(t *testing.T) {
	for name, newVM := range engines {
		e := newMigEnv(t, newVM, interp.Options{Mode: core.ModeIsolated, Quantum: 64})
		// A host-side spawn whose entry method belongs to another isolate
		// migrates outside any quantum and publishes directly.
		direct, err := e.vm.SpawnThread("direct", e.caller, e.ping, []heap.Value{heap.IntVal(1)})
		if err != nil {
			t.Fatal(err)
		}
		e.check(t, "after host-side spawn")

		hits, killed := 0, false
		e.probe = func() {
			hits++
			switch {
			case hits == 40:
				// Kill from the caller's frame: the callee is not on the
				// stack, its counters must already be final.
				if err := e.vm.KillIsolate(nil, e.callee); err != nil {
					t.Fatal(err)
				}
				killed = true
				e.check(t, "after kill")
			case hits%2 == 0:
				snap, err := e.vm.CaptureSnapshot(e.callee, interp.SnapshotOptions{})
				if err != nil {
					t.Fatal(err)
				}
				acct := interp.SnapshotAccount(snap)
				snap.Release()
				live := e.callee.Account().Numbers()
				if acct.InterBundleCallsIn != e.entered.Load() || acct.Instructions != live.Instructions {
					t.Fatalf("snapshot account in=%d instr=%d, want in=%d instr=%d",
						acct.InterBundleCallsIn, acct.Instructions, e.entered.Load(), live.Instructions)
				}
				e.check(t, "after snapshot capture")
			default:
				e.vm.CollectGarbage(nil)
				e.check(t, "after collection")
			}
		}
		th, err := e.vm.SpawnThread("loop", e.caller, e.run, []heap.Value{heap.IntVal(10_000)})
		if err != nil {
			t.Fatal(err)
		}
		slices := 0
		for !th.Done() {
			e.vm.RunUntil(th, 200)
			slices++
			e.check(t, "at a quantum boundary")
		}
		if !killed || slices < 10 || !direct.Done() {
			t.Fatalf("%s: killed=%v after %d slices, direct done=%v", name, killed, slices, direct.Done())
		}
		// The loop dies on its first call into the killed isolate, which
		// is refused before the thread migrates: nothing more is counted.
		if th.Failure() == nil {
			t.Fatalf("%s: loop survived the callee's kill with result %d", name, th.Result().I)
		}
		e.check(t, "after the run")
	}
}

// TestMigrationAccountsExactAtSTWPark captures the callee from a host
// goroutine while two workers hand the looping thread back and forth: the
// capture parks them at quantum boundaries, so the captured count must lie
// between the entry counts read before and after it.
func TestMigrationAccountsExactAtSTWPark(t *testing.T) {
	e := newMigEnv(t, interp.NewVM, interp.Options{Mode: core.ModeIsolated})
	th, err := e.vm.SpawnThread("loop", e.caller, e.run, []heap.Value{heap.IntVal(20_000)})
	if err != nil {
		t.Fatal(err)
	}
	run := sched.Start(e.vm, sched.Config{Workers: 2})
	captures := 0
	for !th.Done() {
		before := e.entered.Load()
		snap, err := e.vm.CaptureSnapshot(e.callee, interp.SnapshotOptions{})
		if err != nil {
			t.Fatal(err)
		}
		after := e.entered.Load()
		in := interp.SnapshotAccount(snap).InterBundleCallsIn
		snap.Release()
		if in < before || in > after {
			t.Fatalf("captured %d calls in, %d entries before the capture and %d after", in, before, after)
		}
		captures++
	}
	if res := run.Wait(); !res.AllDone {
		t.Fatalf("run did not finish: %+v", res)
	}
	if th.Failure() != nil || th.Result().I != 20_000 {
		t.Fatalf("loop: result %d, failure %s", th.Result().I, th.FailureString())
	}
	if captures == 0 {
		t.Fatal("the run finished before a single capture")
	}
	e.check(t, "after the run")
}

// TestWorkerStopPublishesOwnBatch: every eighth iteration the looping
// thread's native captures the thread's own isolate, on a 2-worker run.
// That capture's stop is the worker's own request, made mid-quantum: the
// account it reads inside the stop must hold the charges the worker still
// had batched, and equal what the sequential engine's stop reads at the
// same call — the instructions, and one call out per callee entry so far.
func TestWorkerStopPublishesOwnBatch(t *testing.T) {
	const iters = 2000
	run := func(workers int) (captured []core.Account, pending int) {
		e := newMigEnv(t, interp.NewVM, interp.Options{Mode: core.ModeIsolated})
		e.probe = func() {
			before := e.caller.Account().Instructions.Load()
			snap, err := e.vm.CaptureSnapshot(e.caller, interp.SnapshotOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			acct := interp.SnapshotAccount(snap)
			snap.Release()
			if acct.Instructions > before {
				pending++
			}
			if n := e.entered.Load(); acct.InterBundleCallsOut != n {
				t.Errorf("%d workers: captured %d calls out after %d callee entries", workers, acct.InterBundleCallsOut, n)
			}
			captured = append(captured, acct)
		}
		th, err := e.vm.SpawnThread("loop", e.caller, e.run, []heap.Value{heap.IntVal(iters)})
		if err != nil {
			t.Fatal(err)
		}
		var res interp.RunResult
		if workers > 0 {
			res = sched.Run(e.vm, workers, 0)
		} else {
			res = e.vm.Run(0)
		}
		if !res.AllDone || th.Failure() != nil || th.Result().I != iters {
			t.Fatalf("%d workers: %+v, result %d, failure %s", workers, res, th.Result().I, th.FailureString())
		}
		return captured, pending
	}
	ref, _ := run(0)
	got, pending := run(2)
	if len(ref) != iters/8 || len(got) != len(ref) {
		t.Fatalf("%d captures on 2 workers, %d sequential, want %d", len(got), len(ref), iters/8)
	}
	if pending < len(got)/2 {
		t.Fatalf("only %d of %d captures came with the worker's charges pending", pending, len(got))
	}
	for i := range ref {
		if got[i].Instructions != ref[i].Instructions || got[i].InterBundleCallsOut != ref[i].InterBundleCallsOut {
			t.Fatalf("capture %d read instr=%d out=%d on 2 workers, instr=%d out=%d sequentially",
				i, got[i].Instructions, got[i].InterBundleCallsOut, ref[i].Instructions, ref[i].InterBundleCallsOut)
		}
	}
}

// safepointObs is what a stopped-world observer reads: the clock and, per
// isolate, {instructions, CPU samples, allocated objects, allocated
// bytes, calls in, calls out}.
type safepointObs struct {
	now            int64
	caller, callee [6]int64
}

func (e *migEnv) observe() safepointObs {
	row := func(iso *core.Isolate) [6]int64 {
		a := iso.Account().Numbers()
		return [6]int64{a.Instructions, a.CPUSamples, a.AllocatedObjects, a.AllocatedBytes, a.InterBundleCallsIn, a.InterBundleCallsOut}
	}
	return safepointObs{now: e.vm.Clock(), caller: row(e.caller), callee: row(e.callee)}
}

// TestSequentialSafepointMidQuantum pins what the one flush keeps exact
// when a stop is requested from inside a sequential quantum (a native
// that collects): the stop publishes the steps the quantum has run so far
// and no more — NowTicks() does not move across it, Clock() catches up
// with it, every instruction so far is charged to one of the isolates —
// and the quantum's end publishes only the rest. The reference is the
// seed switch with a quantum of one instruction, where nothing is ever
// pending: every observation of a long-quantum run on the closure tier
// must equal its observation at the same native call,
// and the finished accounts must also equal those of the same program on
// a 1-worker internal/sched run.
func TestSequentialSafepointMidQuantum(t *testing.T) {
	const iters = 2000
	run := func(name string, newVM func(interp.Options) *interp.VM, quantum, workers int) (hits []safepointObs, final safepointObs, midQuantum int) {
		e := newMigEnv(t, newVM, interp.Options{Mode: core.ModeIsolated, SampleEvery: 7, Quantum: quantum})
		e.probe = func() {
			now := e.vm.NowTicks()
			if e.vm.Clock() < now {
				midQuantum++
			}
			e.vm.CollectGarbage(nil)
			if workers > 0 {
				return // NowTicks is the sequential engine's; TestWorkerStopPublishesOwnBatch has the worker leg
			}
			o := e.observe()
			if after := e.vm.NowTicks(); o.now != now || after != now {
				t.Fatalf("%s: NowTicks %d before the stop, Clock %d and NowTicks %d after", name, now, o.now, after)
			}
			if total := e.vm.TotalInstructions(); total != now || o.caller[0]+o.callee[0] != now {
				t.Fatalf("%s: %d steps so far, VM total %d, caller %d + callee %d instructions",
					name, now, total, o.caller[0], o.callee[0])
			}
			hits = append(hits, o)
		}
		th, err := e.vm.SpawnThread("loop", e.caller, e.run, []heap.Value{heap.IntVal(iters)})
		if err != nil {
			t.Fatal(err)
		}
		var res interp.RunResult
		if workers > 0 {
			res = sched.Run(e.vm, workers, 0)
		} else {
			res = e.vm.Run(0)
		}
		if !res.AllDone || th.Failure() != nil || th.Result().I != iters {
			t.Fatalf("%s: %+v, result %d, failure %s", name, res, th.Result().I, th.FailureString())
		}
		e.check(t, "after the run")
		return hits, e.observe(), midQuantum
	}
	refHits, refFinal, mid := run("seed switch, quantum 1", newSeedVM, 1, 0)
	if len(refHits) != iters/8 || mid != 0 {
		t.Fatalf("reference: %d observations, %d of them with steps pending", len(refHits), mid)
	}
	for _, leg := range []struct {
		name    string
		newVM   func(interp.Options) *interp.VM
		quantum int
	}{
		{"closure, quantum 1000", interp.NewVM, 1000},
		{"closure, quantum 61", interp.NewVM, 61},
	} {
		hits, final, mid := run(leg.name, leg.newVM, leg.quantum, 0)
		if mid < len(hits)*9/10 {
			t.Fatalf("%s: only %d of %d stops came with steps pending", leg.name, mid, len(hits))
		}
		if len(hits) != len(refHits) {
			t.Fatalf("%s: %d stops, single-step reference %d", leg.name, len(hits), len(refHits))
		}
		for i := range refHits {
			if hits[i] != refHits[i] {
				t.Fatalf("%s: stop %d observed %+v, single-step reference %+v", leg.name, i, hits[i], refHits[i])
			}
		}
		if final != refFinal {
			t.Fatalf("%s: finished with %+v, single-step reference %+v", leg.name, final, refFinal)
		}
	}
	if _, final, _ := run("1-worker closure, quantum 1000", interp.NewVM, 1000, 1); final != refFinal {
		t.Fatalf("1-worker sched.Run finished with %+v, sequential reference %+v", final, refFinal)
	}
}
