package osgi_test

import (
	"strings"
	"testing"

	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/osgi"
)

// TestPlatformEndToEnd drives a full platform lifecycle in one scenario:
// a Felix-like base configuration plus a service provider/consumer pair
// and a memory-hogging third-party bundle; the consumer keeps calling the
// provider across the attack, the administrator detects the hog and kills it,
// and the platform state stays consistent throughout.
func TestPlatformEndToEnd(t *testing.T) {
	f := newFramework(t, core.ModeIsolated)

	// Base management bundles.
	if _, err := osgi.InstallAndStart(f, osgi.FelixConfig()); err != nil {
		t.Fatal(err)
	}

	// Application pair.
	pClasses, pMan := providerSpec()
	cClasses, cMan := consumerSpec()
	provider := f.MustInstall(pMan, pClasses)
	consumer := f.MustInstall(cMan, cClasses)
	if _, err := f.Start(provider); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Start(consumer); err != nil {
		t.Fatal(err)
	}

	drive := func(n int64) int64 {
		t.Helper()
		class, err := consumer.Loader().Lookup("consumer/Client")
		if err != nil {
			t.Fatal(err)
		}
		m, err := class.LookupMethod("drive", "(I)I")
		if err != nil {
			t.Fatal(err)
		}
		v, th, err := f.VM().CallRoot(consumer.Isolate(), m, []heap.Value{heap.IntVal(n)}, 10_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if th.Failure() != nil {
			t.Fatalf("drive failed: %s", th.FailureString())
		}
		return v.I
	}
	if got := drive(50); got != 50 {
		t.Fatalf("drive(50) = %d", got)
	}

	// Third-party hog arrives.
	hog := classfile.NewClass("rogue/Hog").
		StaticField("hoard", classfile.KindRef).
		Method("attack", "()V", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.Const(8192).NewArray("").PutStatic("rogue/Hog", "hoard")
			a.Const(0).IStore(0)
			a.Label("loop")
			a.ILoad(0).Const(8192).IfICmpGe("done")
			a.GetStatic("rogue/Hog", "hoard").ILoad(0).Const(256).NewArray("").ArrayStore()
			a.IInc(0, 1).Goto("loop")
			a.Label("done")
			a.Return()
		}).MustBuild()
	rogue := f.MustInstall(osgi.Manifest{Name: "rogue"}, []*classfile.Class{hog})
	am, _ := hog.LookupMethod("attack", "()V")
	at, err := f.VM().SpawnThread("rogue:attack", rogue.Isolate(), am, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.VM().RunUntil(at, 100_000_000)

	// The pair still communicates during the attack (memory pressure is
	// visible to allocation-heavy code, but the call path is fine).
	if got := drive(25); got != 75 {
		t.Fatalf("drive during attack = %d, want cumulative 75", got)
	}

	// The §4.3 administrator identifies the hog — and nothing else — and
	// kills it.
	findings := f.DetectOffenders(core.Thresholds{MaxLiveBytes: 4 << 20})
	if len(findings) != 1 || f.BundleByIsolateID(findings[0].IsolateID) != rogue {
		t.Fatalf("findings = %v", findings)
	}
	if err := f.KillBundle(rogue); err != nil {
		t.Fatal(err)
	}
	// Drain the staged termination exceptions before the next calls.
	f.VM().Run(1_000_000)
	for _, b := range f.Bundles() {
		if b.Name() != "rogue" && b.Isolate().Killed() {
			t.Fatalf("innocent bundle %s killed", b.Name())
		}
	}

	// Platform fully functional after recovery.
	if got := drive(25); got != 100 {
		t.Fatalf("drive after recovery = %d, want cumulative 100", got)
	}

	// The shell reflects the final state coherently.
	var sb strings.Builder
	shell := osgi.NewShell(f)
	if err := shell.Execute(&sb, "bundles"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "rogue") || !strings.Contains(out, "ACTIVE") {
		t.Fatalf("shell bundles:\n%s", out)
	}
	sb.Reset()
	if err := shell.Execute(&sb, "stats"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "provider") {
		t.Fatalf("shell stats:\n%s", sb.String())
	}

	// Heap integrity: after a final collection, the rogue's hoard is
	// gone and the live set is small again.
	f.VM().CollectGarbage(nil)
	if used := f.VM().Heap().Used(); used > 4<<20 {
		t.Fatalf("heap still holds %d bytes after the rogue's death", used)
	}
}
