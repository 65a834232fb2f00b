package ijvm_test

import (
	"strings"
	"testing"

	"ijvm"
	"ijvm/internal/sched"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	vm, err := ijvm.New(ijvm.Options{Mode: ijvm.ModeIsolated})
	if err != nil {
		t.Fatal(err)
	}
	main, err := vm.NewIsolate("main")
	if err != nil {
		t.Fatal(err)
	}
	class := ijvm.NewClass("demo/Answer").
		Method("compute", "(I)I", ijvm.FlagStatic, func(a *ijvm.Asm) {
			a.ILoad(0).Const(2).IMul().IReturn()
		}).MustBuild()
	if err := main.Define(class); err != nil {
		t.Fatal(err)
	}
	v, th, err := main.Call("demo/Answer", "compute", []ijvm.Value{ijvm.IntVal(21)})
	if err != nil {
		t.Fatal(err)
	}
	if th.Failure() != nil {
		t.Fatalf("uncaught: %s", th.FailureString())
	}
	if v.I != 42 {
		t.Fatalf("compute(21) = %d", v.I)
	}
	vm.GC(main)
	snap := main.Snapshot()
	if snap.Instructions == 0 {
		t.Fatal("no instructions accounted")
	}
}

func TestFacadeSharedModeCollapsesIsolates(t *testing.T) {
	vm, err := ijvm.New(ijvm.Options{Mode: ijvm.ModeShared})
	if err != nil {
		t.Fatal(err)
	}
	a, err := vm.NewIsolate("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := vm.NewIsolate("b")
	if err != nil {
		t.Fatal(err)
	}
	if a.Core() != b.Core() {
		t.Fatal("shared mode must map all handles onto one world isolate")
	}
	if a.Loader() == b.Loader() {
		t.Fatal("handles must still have distinct class loaders")
	}
	if err := vm.Kill(b); err == nil {
		t.Fatal("Kill must fail in shared mode")
	}
}

func TestFacadeWireAndKill(t *testing.T) {
	vm := ijvm.MustNew(ijvm.Options{Mode: ijvm.ModeIsolated})
	if _, err := vm.NewIsolate("runtime"); err != nil {
		t.Fatal(err)
	}
	provider := vm.MustNewIsolate("provider")
	consumer := vm.MustNewIsolate("consumer")

	svcClass := ijvm.NewClass("p/Svc").
		Method("ping", "()I", ijvm.FlagStatic|ijvm.FlagPublic, func(a *ijvm.Asm) {
			a.Const(7).IReturn()
		}).MustBuild()
	provider.MustDefine(svcClass)
	consumer.Wire(provider)

	drv := ijvm.NewClass("c/Drv").
		Method("call", "()I", ijvm.FlagStatic, func(a *ijvm.Asm) {
			a.Label("try")
			a.InvokeStatic("p/Svc", "ping", "()I").IReturn()
			a.Label("endtry")
			a.Label("catch")
			a.Pop().Const(-1).IReturn()
			a.Handler("try", "endtry", "catch", "")
		}).MustBuild()
	consumer.MustDefine(drv)

	v, _, err := consumer.Call("c/Drv", "call", nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.I != 7 {
		t.Fatalf("ping = %d", v.I)
	}
	if err := vm.Kill(provider); err != nil {
		t.Fatal(err)
	}
	if !provider.Killed() {
		t.Fatal("provider not marked killed")
	}
	v, _, err = consumer.Call("c/Drv", "call", nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.I != -1 {
		t.Fatalf("call after kill = %d, want -1 (caught StoppedIsolateException)", v.I)
	}
}

func TestFacadeSpawnAndRun(t *testing.T) {
	vm := ijvm.MustNew(ijvm.Options{})
	iso := vm.MustNewIsolate("main")
	iso.MustDefine(ijvm.NewClass("s/Work").
		StaticField("done", ijvm.KindInt).
		Method("work", "()V", ijvm.FlagStatic, func(a *ijvm.Asm) {
			a.Const(1).PutStatic("s/Work", "done").Return()
		}).MustBuild())
	th, err := iso.Spawn("s/Work", "work", nil)
	if err != nil {
		t.Fatal(err)
	}
	res := vm.RunUntil(th, 100_000)
	if !res.TargetDone {
		t.Fatalf("run result %+v", res)
	}
}

func TestFacadeDetectorsExported(t *testing.T) {
	th := ijvm.DefaultThresholds()
	if th.MaxLiveBytes == 0 {
		t.Fatal("default thresholds empty")
	}
	findings := ijvm.Detect([]ijvm.Snapshot{
		{IsolateID: 1, IsolateName: "x", State: 1 /* live */, LiveBytes: th.MaxLiveBytes + 1},
	}, th)
	if len(findings) != 1 || findings[0].Rule != "live-memory" {
		t.Fatalf("findings = %v", findings)
	}
	if !strings.Contains(findings[0].String(), "live-memory") {
		t.Fatal("finding String() broken")
	}
}

func TestFacadeOutputCapture(t *testing.T) {
	vm := ijvm.MustNew(ijvm.Options{})
	iso := vm.MustNewIsolate("main")
	iso.MustDefine(ijvm.NewClass("o/P").
		Method("p", "()V", ijvm.FlagStatic, func(a *ijvm.Asm) {
			a.Str("captured").InvokeStatic("java/lang/System", "println", "(Ljava/lang/String;)V").Return()
		}).MustBuild())
	if _, _, err := iso.Call("o/P", "p", nil); err != nil {
		t.Fatal(err)
	}
	if vm.Output() != "captured\n" {
		t.Fatalf("output = %q", vm.Output())
	}
	vm.ResetOutput()
	if vm.Output() != "" {
		t.Fatal("ResetOutput failed")
	}
}

func TestFacadeLookupErrors(t *testing.T) {
	vm := ijvm.MustNew(ijvm.Options{})
	iso := vm.MustNewIsolate("main")
	if _, _, err := iso.Call("no/Such", "m", nil); err == nil {
		t.Fatal("missing class accepted")
	}
	iso.MustDefine(ijvm.NewClass("e/C").
		Method("m", "()V", ijvm.FlagStatic, func(a *ijvm.Asm) { a.Return() }).MustBuild())
	if _, err := iso.LookupMethod("e/C", "nope"); err == nil {
		t.Fatal("missing method accepted")
	}
}

// TestFacadeRunConcurrent covers the public concurrent-scheduler entry
// point: independent isolates finish in parallel with per-isolate
// results, and a host-side Kill lands mid-run through the scheduler's
// stop-the-world safepoint.
func TestFacadeRunConcurrent(t *testing.T) {
	vm := ijvm.MustNew(ijvm.Options{})
	spin := func(name string, iters int64) (*ijvm.Isolate, *ijvm.Thread) {
		iso := vm.MustNewIsolate(name)
		cn := "c/" + name
		iso.MustDefine(ijvm.NewClass(cn).
			Method("run", "()I", ijvm.FlagStatic, func(a *ijvm.Asm) {
				a.Const(0).IStore(0)
				a.Label("loop")
				a.ILoad(0).Const(iters).IfICmpGe("done")
				a.IInc(0, 1).Goto("loop")
				a.Label("done")
				a.ILoad(0).IReturn()
			}).MustBuild())
		th, err := iso.Spawn(cn, "run", nil)
		if err != nil {
			t.Fatal(err)
		}
		return iso, th
	}
	_, t1 := spin("worker1", 50_000)
	_, t2 := spin("worker2", 50_000)
	victim, t3 := spin("victim", 2_000_000_000) // effectively endless

	done := make(chan ijvm.RunResult, 1)
	go func() { done <- vm.RunConcurrent(3, 0) }()
	sched.AwaitStart(vm.Inner())
	if err := vm.Kill(victim); err != nil {
		t.Fatal(err)
	}
	res := <-done
	if !res.AllDone {
		t.Fatalf("run result: %+v", res)
	}
	if t1.Result().I != 50_000 || t2.Result().I != 50_000 {
		t.Fatalf("worker results: %d, %d", t1.Result().I, t2.Result().I)
	}
	if !t3.Done() {
		t.Fatal("killed isolate's thread still running")
	}
	if t3.Failure() == nil {
		t.Fatal("killed isolate's thread must die of StoppedIsolateException")
	}
	if len(res.PerIsolate) != 3 {
		t.Fatalf("PerIsolate = %+v", res.PerIsolate)
	}
	for _, ir := range res.PerIsolate {
		if ir.Name == "victim" && !ir.Killed {
			t.Fatalf("victim not marked killed: %+v", ir)
		}
	}
}
