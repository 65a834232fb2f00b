package interp_test

import (
	"testing"

	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
	"ijvm/internal/syslib"
)

// requickenClasses builds a counter class (static state) and a driver
// whose run(I)I spins n iterations bumping the static counter through an
// invokevirtual site — enough surface to prove statics, virtual dispatch
// and live frames survive a mode flip.
func requickenClasses() []*classfile.Class {
	init := func(a *bytecode.Assembler) {
		a.ALoad(0).InvokeSpecial(classfile.ObjectClassName, classfile.InitName, "()V").Return()
	}
	counter := classfile.NewClass("rq/Counter").
		StaticField("total", classfile.KindInt).
		Method(classfile.InitName, "()V", 0, init).
		Method("bump", "(I)I", 0, func(a *bytecode.Assembler) {
			a.GetStatic("rq/Counter", "total").ILoad(1).IAdd().
				Dup().PutStatic("rq/Counter", "total").IReturn()
		}).MustBuild()
	driver := classfile.NewClass("rq/Driver").
		Method("run", "(I)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.New("rq/Counter").Dup().
				InvokeSpecial("rq/Counter", classfile.InitName, "()V").AStore(1)
			a.Const(0).IStore(2)
			a.Label("loop").ILoad(2).ILoad(0).IfICmpGe("done")
			a.ALoad(1).Const(1).InvokeVirtual("rq/Counter", "bump", "(I)I").Pop()
			a.IInc(2, 1).Goto("loop")
			a.Label("done").GetStatic("rq/Counter", "total").IReturn()
		}).MustBuild()
	return []*classfile.Class{counter, driver}
}

// TestSetIsolationModeRequickens boots a Shared-mode VM, runs warm
// (populating the Shared quickening, its field-slot caches and the pool
// entries' ResolvedMirror caches), then flips to Isolated mode —
// including mid-run, with live partially-executed frames — and checks
// that execution continues correctly on the Isolated quickening, that
// isolate 0's statics survive the flip, and that a fresh second isolate
// (impossible under Shared mode) gets its own mirror.
func TestSetIsolationModeRequickens(t *testing.T) {
	vm := interp.NewVM(interp.Options{Mode: core.ModeShared})
	syslib.MustInstall(vm)
	iso, err := vm.NewIsolate("main")
	if err != nil {
		t.Fatal(err)
	}
	if err := iso.Loader().DefineAll(requickenClasses()); err != nil {
		t.Fatal(err)
	}
	c, _ := iso.Loader().Lookup("rq/Driver")
	m, err := c.LookupMethod("run", "(I)I")
	if err != nil {
		t.Fatal(err)
	}

	// Warm run under Shared dispatch.
	v, th, err := vm.CallRoot(iso, m, []heap.Value{heap.IntVal(10)}, 1_000_000)
	if err != nil || th.Failure() != nil {
		t.Fatalf("shared run: %v / %v", err, th.FailureString())
	}
	if v.I != 10 {
		t.Fatalf("shared run total = %d, want 10", v.I)
	}
	if m.Code.Prepared(bytecode.PModeShared) == nil {
		t.Fatal("shared quickening missing after warm run")
	}

	// Flip mid-run: spawn a long run, execute part of it, flip, finish.
	th2, err := vm.SpawnThread("flip", iso, m, []heap.Value{heap.IntVal(1000)})
	if err != nil {
		t.Fatal(err)
	}
	vm.RunUntil(th2, 500) // partial: live frames hold Shared pcode
	if th2.Done() {
		t.Fatal("thread finished before the flip; raise the iteration count")
	}
	if err := vm.SetIsolationMode(core.ModeIsolated); err != nil {
		t.Fatalf("SetIsolationMode: %v", err)
	}
	if !vm.World().Isolated() {
		t.Fatal("world did not flip to isolated")
	}
	res := vm.RunUntil(th2, 0)
	if !res.TargetDone || th2.Failure() != nil || th2.Err() != nil {
		t.Fatalf("post-flip run: %+v / %v / %v", res, th2.FailureString(), th2.Err())
	}
	// Statics survive the flip (isolate 0 indexes mirror slot 0 in both
	// modes): 10 from the warm run plus 1000 from the flipped run.
	if th2.Result().I != 1010 {
		t.Fatalf("post-flip total = %d, want 1010", th2.Result().I)
	}
	if m.Code.Prepared(bytecode.PModeIsolated) == nil {
		t.Fatal("isolated quickening missing after flip")
	}

	// A second isolate is now legal and gets its own statics: its run
	// starts a fresh mirror (counter 0), while isolate 0 keeps its own.
	iso2, err := vm.NewIsolate("tenant")
	if err != nil {
		t.Fatalf("NewIsolate after flip: %v", err)
	}
	if err := iso2.Loader().DefineAll(requickenClasses()); err != nil {
		t.Fatal(err)
	}
	c2, _ := iso2.Loader().Lookup("rq/Driver")
	m2, _ := c2.LookupMethod("run", "(I)I")
	v2, th3, err := vm.CallRoot(iso2, m2, []heap.Value{heap.IntVal(7)}, 1_000_000)
	if err != nil || th3.Failure() != nil {
		t.Fatalf("tenant run: %v / %v", err, th3.FailureString())
	}
	if v2.I != 7 {
		t.Fatalf("tenant total = %d, want 7 (fresh per-isolate statics)", v2.I)
	}
	v3, th4, err := vm.CallRoot(iso, m, []heap.Value{heap.IntVal(5)}, 1_000_000)
	if err != nil || th4.Failure() != nil {
		t.Fatalf("main re-run: %v / %v", err, th4.FailureString())
	}
	if v3.I != 1015 {
		t.Fatalf("main total after tenant run = %d, want 1015", v3.I)
	}

	// Isolated -> Shared is rejected while two isolates exist.
	if err := vm.SetIsolationMode(core.ModeShared); err == nil {
		t.Fatal("flip back to shared with two isolates should fail")
	}
}

// TestRequickenStormAgainstHotTier storms SetIsolationMode against
// closure-promoted code with folded operands and chained steps: a hot loop (promoted
// on first activation via TierPromoteThreshold 1) is advanced in small,
// odd-sized budget slices, flipping the isolation mode between every
// slice. Quantum boundaries land at every offset of the folded runs and
// of the chains — including single-stepped heads (blocks that no longer
// fit) and delegated finals — so a flip observing an unmaterialised
// operand, a stale closure program surviving deopt, or a mis-carried pc
// at a chain exit would corrupt the final total.
func TestRequickenStormAgainstHotTier(t *testing.T) {
	vm := interp.NewVM(interp.Options{Mode: core.ModeShared, TierPromoteThreshold: 1})
	syslib.MustInstall(vm)
	iso, err := vm.NewIsolate("main")
	if err != nil {
		t.Fatal(err)
	}
	if err := iso.Loader().DefineAll(requickenClasses()); err != nil {
		t.Fatal(err)
	}
	c, _ := iso.Loader().Lookup("rq/Driver")
	m, err := c.LookupMethod("run", "(I)I")
	if err != nil {
		t.Fatal(err)
	}

	const iters = 4000
	th, err := vm.SpawnThread("storm", iso, m, []heap.Value{heap.IntVal(iters)})
	if err != nil {
		t.Fatal(err)
	}
	// Prime/co-prime budgets walk the quantum boundary through every
	// offset of a folded run and of a chain as the storm progresses.
	budgets := []int64{1, 2, 3, 5, 7, 11, 13, 17, 101, 997}
	modes := []core.Mode{core.ModeIsolated, core.ModeShared}
	flips := 0
	for i := 0; !th.Done(); i++ {
		vm.RunUntil(th, budgets[i%len(budgets)])
		if th.Done() {
			break
		}
		if err := vm.SetIsolationMode(modes[flips%len(modes)]); err != nil {
			t.Fatalf("flip %d: %v", flips, err)
		}
		flips++
	}
	if th.Failure() != nil || th.Err() != nil {
		t.Fatalf("storm run failed: %v / %v", th.FailureString(), th.Err())
	}
	if th.Result().I != iters {
		t.Fatalf("storm total = %d, want %d", th.Result().I, iters)
	}
	if flips < 10 {
		t.Fatalf("only %d mode flips; the storm never interleaved", flips)
	}

	// The storm must actually have run against the tier under test: both
	// mode quickenings were promoted to the closure tier, and the promoted
	// loop body carries folded micros and chain links.
	for _, pm := range []int{bytecode.PModeShared, bytecode.PModeIsolated} {
		requireLiveChains(t, m, pm)
	}
}

// requireLiveChains fails unless m's quickening for prepared-mode pm was
// promoted to a closure program that holds micros covering more than one
// instruction and blocks ending in an inline transfer, i.e. the storm ran
// against folded operands and chained steps.
func requireLiveChains(t *testing.T, m *classfile.Method, pm int) {
	t.Helper()
	p := m.Code.Prepared(pm)
	if p == nil {
		t.Fatalf("mode %d quickening missing", pm)
	}
	switch folded, links, ok := interp.ClosureShapeForTest(p); {
	case !ok:
		t.Fatalf("mode %d quickening was never promoted to the closure tier", pm)
	case folded == 0 || links == 0:
		t.Fatalf("mode %d closure program has %d folded micros and %d chain links", pm, folded, links)
	}
}

// TestKillStormAgainstHotTier kills an isolate while its hot,
// closure-promoted loop (folded micros and chains live) is mid-flight at
// an arbitrary quantum boundary, and proves termination semantics are unchanged by the hot
// tier: the victim thread dies with StoppedIsolateException-style
// failure (killed code never runs again), while a second isolate's
// identical hot loop still computes the exact total afterwards.
func TestKillStormAgainstHotTier(t *testing.T) {
	for _, budget := range []int64{7, 101, 1009} {
		vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated, TierPromoteThreshold: 1})
		syslib.MustInstall(vm)
		if _, err := vm.NewIsolate("platform"); err != nil { // Isolate0: unkillable
			t.Fatal(err)
		}
		victimIso, err := vm.NewIsolate("victim")
		if err != nil {
			t.Fatal(err)
		}
		if err := victimIso.Loader().DefineAll(requickenClasses()); err != nil {
			t.Fatal(err)
		}
		c, _ := victimIso.Loader().Lookup("rq/Driver")
		m, _ := c.LookupMethod("run", "(I)I")
		th, err := vm.SpawnThread("victim", victimIso, m, []heap.Value{heap.IntVal(100000)})
		if err != nil {
			t.Fatal(err)
		}
		vm.RunUntil(th, budget) // park the hot loop mid-flight
		if th.Done() {
			t.Fatalf("budget %d: victim finished before the kill", budget)
		}
		requireLiveChains(t, m, bytecode.PModeIsolated)
		if err := vm.KillIsolate(nil, victimIso); err != nil {
			t.Fatalf("budget %d: kill: %v", budget, err)
		}
		res := vm.RunUntil(th, 0)
		if !th.Done() {
			t.Fatalf("budget %d: victim still live after kill: %+v", budget, res)
		}
		if th.Failure() == nil && th.Err() == nil {
			t.Fatalf("budget %d: killed thread finished cleanly with %d", budget, th.Result().I)
		}

		// A fresh isolate's hot loop is unaffected by the carnage.
		iso2, err := vm.NewIsolate("survivor")
		if err != nil {
			t.Fatal(err)
		}
		if err := iso2.Loader().DefineAll(requickenClasses()); err != nil {
			t.Fatal(err)
		}
		c2, _ := iso2.Loader().Lookup("rq/Driver")
		m2, _ := c2.LookupMethod("run", "(I)I")
		v, th2, err := vm.CallRoot(iso2, m2, []heap.Value{heap.IntVal(123)}, 1_000_000)
		if err != nil || th2.Failure() != nil {
			t.Fatalf("budget %d: survivor run: %v / %v", budget, err, th2.FailureString())
		}
		if v.I != 123 {
			t.Fatalf("budget %d: survivor total = %d, want 123", budget, v.I)
		}
	}
}

// TestSetIsolationModeSharedDowngrade covers the legal reverse flip: a
// single-isolate Isolated VM may downgrade to Shared semantics.
func TestSetIsolationModeSharedDowngrade(t *testing.T) {
	vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated})
	syslib.MustInstall(vm)
	iso, err := vm.NewIsolate("main")
	if err != nil {
		t.Fatal(err)
	}
	if err := iso.Loader().DefineAll(requickenClasses()); err != nil {
		t.Fatal(err)
	}
	c, _ := iso.Loader().Lookup("rq/Driver")
	m, _ := c.LookupMethod("run", "(I)I")
	if v, th, err := vm.CallRoot(iso, m, []heap.Value{heap.IntVal(4)}, 1_000_000); err != nil || th.Failure() != nil || v.I != 4 {
		t.Fatalf("isolated run: %v / %v", err, th.FailureString())
	}
	if err := vm.SetIsolationMode(core.ModeShared); err != nil {
		t.Fatalf("downgrade: %v", err)
	}
	if v, th, err := vm.CallRoot(iso, m, []heap.Value{heap.IntVal(6)}, 1_000_000); err != nil || th.Failure() != nil || v.I != 10 {
		t.Fatalf("shared re-run: %v / %v (statics must persist)", err, th.FailureString())
	}
}
