package osgi_test

import (
	"testing"

	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/osgi"
)

// TestAutoAdminMisattribution reproduces the cautionary §4.4 scenario as
// an end-to-end demonstration of why the paper leaves the kill decision
// to a human: a malicious bundle M drives a tight call loop into an
// innocent service bundle A. CPU sampling charges the majority of the
// time to A (the callee), so a naive automated administrator — one
// detection pass keyed on CPU share, killing every bundle it flags —
// kills the *victim*.
func TestAutoAdminMisattribution(t *testing.T) {
	f := newFramework(t, core.ModeIsolated)

	// Innocent service bundle A.
	const svc = "a/Service"
	svcClass := classfile.NewClass(svc).
		Method("work", "(I)I", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.ILoad(0).Const(3).IMul().Const(7).IAdd().IStore(1)
			a.ILoad(1).Const(5).IRem().ILoad(0).IAdd().IStore(1)
			a.ILoad(1).Const(13).IMul().Const(11).IRem().IStore(1)
			a.ILoad(1).ILoad(0).IXor().IReturn()
		}).MustBuild()
	bundleA, err := f.Install(osgi.Manifest{Name: "service-a", Exports: []string{"a"}},
		[]*classfile.Class{svcClass})
	if err != nil {
		t.Fatal(err)
	}

	// Malicious caller M.
	const drv = "m/Loop"
	drvClass := classfile.NewClass(drv).
		Method("attack", "(I)I", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.Const(0).IStore(1).Const(0).IStore(2)
			a.Label("loop")
			a.ILoad(1).ILoad(0).IfICmpGe("done")
			a.ILoad(1).InvokeStatic(svc, "work", "(I)I").IStore(2)
			a.IInc(1, 1).Goto("loop")
			a.Label("done")
			a.ILoad(2).IReturn()
		}).MustBuild()
	bundleM, err := f.Install(osgi.Manifest{Name: "malice-m", Imports: []string{"a"}},
		[]*classfile.Class{drvClass})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Resolve(bundleM); err != nil {
		t.Fatal(err)
	}

	// M hammers A.
	m, err := drvClass.LookupMethod("attack", "(I)I")
	if err != nil {
		t.Fatal(err)
	}
	mt, err := f.VM().SpawnThread("malice:loop", bundleM.Isolate(), m,
		[]heap.Value{heap.IntVal(100_000)})
	if err != nil {
		t.Fatal(err)
	}
	f.VM().RunUntil(mt, 0)

	// The callee was charged more CPU than the caller — sampling's known
	// imprecision.
	if bundleA.Isolate().Account().CPUSamples.Load() <= bundleM.Isolate().Account().CPUSamples.Load() {
		t.Fatalf("expected the callee to dominate the samples: A=%d M=%d",
			bundleA.Isolate().Account().CPUSamples.Load(), bundleM.Isolate().Account().CPUSamples.Load())
	}

	// The naive automated administrator kills the innocent bundle.
	findings := f.DetectOffenders(core.Thresholds{MinCPUSharePercent: 50, MinCPUSamples: 10})
	if len(findings) != 1 {
		t.Fatalf("findings = %v", findings)
	}
	flagged := f.BundleByIsolateID(findings[0].IsolateID)
	if flagged != bundleA {
		t.Fatalf("expected the automation to (wrongly) flag service-a, got %v", findings[0])
	}
	if err := f.KillBundle(flagged); err != nil {
		t.Fatal(err)
	}
	if !bundleA.Isolate().Killed() || bundleM.Isolate().Killed() {
		t.Fatalf("killed: service-a=%v malice-m=%v, want the victim dead and the attacker alive",
			bundleA.Isolate().Killed(), bundleM.Isolate().Killed())
	}
	// This is exactly why §4.4 concludes CPU samples "cannot in the
	// current design be used to automatically kill these bundles".
}
