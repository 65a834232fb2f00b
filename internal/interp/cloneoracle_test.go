package interp_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
	"ijvm/internal/syslib"
)

// This file is the cloned-vs-cold leg of the randomized differential
// oracle: a seeded generator produces statics-rich warm-ups (int statics
// with clinit initializers, deterministically filled arrays, array
// aliasing, interned string literals, a reference cycle) plus a
// deterministic mutating session method, and demands that a tenant
// provisioned by snapshot cloning is byte-identical to a tenant that
// cold-started through the same warm-up: same session results, same
// absolute resource account (creator-charged allocation totals included),
// and the same post-GC reachability fingerprint — across the two
// collector configurations {exact, incremental-paced} and both modes (Isolated via CloneIsolate, Shared
// via RestoreInPlace). The generator avoids finalizers and identity
// hashes, which the snapshot contract excludes from warm state.

const (
	cloneOracleApp  = "co/App"
	cloneOracleNode = "co/Node"
)

type cloneSessionOp struct {
	kind int   // 0 int-static fold, 1 arith, 2 array read, 3 array write, 4 ring walk, 5 intern identity, 6 alloc churn
	a    int   // operand selector
	c    int64 // immediate (non-negative: doubles as an index)
}

type cloneProgram struct {
	seed    int64
	ints    []int64 // initial int-static values
	arrs    []int64 // array lengths (powers of two: session masks with len-1)
	aliasOf int     // which array the alias static points to
	lits    []string
	ops     []cloneSessionOp
}

func genCloneProgram(seed int64) cloneProgram {
	r := rand.New(rand.NewSource(seed))
	p := cloneProgram{seed: seed}
	for i, n := 0, 2+r.Intn(4); i < n; i++ {
		p.ints = append(p.ints, int64(r.Intn(1000)))
	}
	lens := []int64{4, 8, 16}
	for i, n := 0, 1+r.Intn(3); i < n; i++ {
		p.arrs = append(p.arrs, lens[r.Intn(len(lens))])
	}
	p.aliasOf = r.Intn(len(p.arrs))
	// Duplicate literals are deliberate: two statics naming one literal
	// must stay one pooled object through capture and clone.
	for i, n := 0, 1+r.Intn(3); i < n; i++ {
		p.lits = append(p.lits, fmt.Sprintf("co-lit-%d", r.Intn(4)))
	}
	for j, n := 0, 3+r.Intn(6); j < n; j++ {
		p.ops = append(p.ops, cloneSessionOp{kind: r.Intn(7), a: r.Intn(8), c: int64(r.Intn(100))})
	}
	return p
}

// cloneOracleClasses materializes p: co/Node (cycle member) and co/App
// with the generated statics, a heavy-ish <clinit>, and session(I)I.
func cloneOracleClasses(p cloneProgram) []*classfile.Class {
	node := classfile.NewClass(cloneOracleNode).
		Field("next", classfile.KindRef).
		Field("v", classfile.KindInt).
		Method(classfile.InitName, "()V", classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.ALoad(0).InvokeSpecial(classfile.ObjectClassName, classfile.InitName, "()V").Return()
		}).MustBuild()

	b := classfile.NewClass(cloneOracleApp)
	for k := range p.ints {
		b.StaticField(fmt.Sprintf("i%d", k), classfile.KindInt)
	}
	for k := range p.arrs {
		b.StaticField(fmt.Sprintf("a%d", k), classfile.KindRef)
	}
	b.StaticField("alias", classfile.KindRef)
	for k := range p.lits {
		b.StaticField(fmt.Sprintf("s%d", k), classfile.KindRef)
	}
	b.StaticField("ring", classfile.KindRef).StaticField("acc", classfile.KindInt)

	b.Method(classfile.ClinitName, "()V", classfile.FlagStatic, func(a *bytecode.Assembler) {
		for k, v := range p.ints {
			a.Const(v).PutStatic(cloneOracleApp, fmt.Sprintf("i%d", k))
		}
		for k, ln := range p.arrs {
			loop, done := fmt.Sprintf("al%d", k), fmt.Sprintf("ad%d", k)
			a.Const(ln).NewArray("").AStore(0)
			a.Const(0).IStore(1)
			a.Label(loop).ILoad(1).Const(ln).IfICmpGe(done)
			a.ALoad(0).ILoad(1).ILoad(1).Const(int64(k*7 + 3)).IMul().ArrayStore()
			a.IInc(1, 1).Goto(loop)
			a.Label(done).ALoad(0).PutStatic(cloneOracleApp, fmt.Sprintf("a%d", k))
		}
		a.GetStatic(cloneOracleApp, fmt.Sprintf("a%d", p.aliasOf)).PutStatic(cloneOracleApp, "alias")
		for k, lit := range p.lits {
			a.Str(lit).PutStatic(cloneOracleApp, fmt.Sprintf("s%d", k))
		}
		a.New(cloneOracleNode).Dup().InvokeSpecial(cloneOracleNode, classfile.InitName, "()V").AStore(2)
		a.New(cloneOracleNode).Dup().InvokeSpecial(cloneOracleNode, classfile.InitName, "()V").AStore(3)
		a.ALoad(2).ALoad(3).PutField(cloneOracleNode, "next")
		a.ALoad(3).ALoad(2).PutField(cloneOracleNode, "next")
		a.ALoad(2).Const(p.seed%13).PutField(cloneOracleNode, "v")
		a.ALoad(2).PutStatic(cloneOracleApp, "ring")
		// Warm loop: what makes the snapshot worth taking.
		a.Const(0).IStore(1)
		a.Const(0).IStore(4)
		a.Label("wl").ILoad(1).Const(500).IfICmpGe("wd")
		a.ILoad(4).ILoad(1).IAdd().Const(0xFFFFF).IAnd().IStore(4)
		a.IInc(1, 1).Goto("wl")
		a.Label("wd").ILoad(4).PutStatic(cloneOracleApp, "acc")
		a.Return()
	})

	b.Method("session", "(I)I", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
		a.ILoad(0).IStore(1)
		for j, op := range p.ops {
			switch op.kind {
			case 0: // mutate an int static and fold it in
				f := fmt.Sprintf("i%d", op.a%len(p.ints))
				a.GetStatic(cloneOracleApp, f).ILoad(1).IAdd().Const(op.c).IAdd().
					PutStatic(cloneOracleApp, f)
				a.ILoad(1).GetStatic(cloneOracleApp, f).IXor().IStore(1)
			case 1:
				a.ILoad(1).Const(3).IMul().Const(op.c).IAdd().Const(0x7FFFFF).IAnd().IStore(1)
			case 2: // array read through the masked accumulator
				k := op.a % len(p.arrs)
				a.ILoad(1).
					GetStatic(cloneOracleApp, fmt.Sprintf("a%d", k)).
					ILoad(1).Const(p.arrs[k] - 1).IAnd().ArrayLoad().
					IAdd().IStore(1)
			case 3: // array write (sessions age the warm arrays)
				k := op.a % len(p.arrs)
				a.GetStatic(cloneOracleApp, fmt.Sprintf("a%d", k)).
					Const(op.c % p.arrs[k]).ILoad(1).ArrayStore()
			case 4: // bump the ring node, fold, and walk the cycle
				a.GetStatic(cloneOracleApp, "ring").Dup().
					GetField(cloneOracleNode, "v").Const(op.c).IAdd().
					PutField(cloneOracleNode, "v")
				a.ILoad(1).GetStatic(cloneOracleApp, "ring").
					GetField(cloneOracleNode, "v").IAdd().IStore(1)
				a.GetStatic(cloneOracleApp, "ring").
					GetField(cloneOracleNode, "next").PutStatic(cloneOracleApp, "ring")
			case 5: // Ldc identity must survive capture/clone/restore
				lit := p.lits[op.a%len(p.lits)]
				eq := fmt.Sprintf("eq%d", j)
				a.Str(lit).Str(lit).IfACmpEq(eq)
				a.ILoad(1).Const(9999).IXor().IStore(1) // interning broken
				a.Label(eq).ILoad(1).Const(op.c).IAdd().IStore(1)
			case 6: // allocation churn (dropped garbage)
				a.Const(8).NewArray("").AStore(2)
				a.ALoad(2).Const(2).ILoad(1).ArrayStore()
				a.ALoad(2).Const(2).ArrayLoad().IStore(1)
				a.Null().AStore(2)
			}
		}
		a.ILoad(1).IReturn()
	})
	return []*classfile.Class{node, b.MustBuild()}
}

func cloneOracleVM(gc oracleGC, mode core.Mode) *interp.VM {
	// Generous heap: no pressure collections in any configuration, so the
	// two collector configs must agree on EVERYTHING (no masking).
	pct, stride := gc.options()
	vm := interp.NewVM(interp.Options{
		Mode:               mode,
		HeapLimit:          4 << 20,
		GCThresholdPercent: pct,
		GCMarkStride:       stride,
	})
	syslib.MustInstall(vm)
	return vm
}

func cloneOracleSession(t *testing.T, vm *interp.VM, iso *core.Isolate, arg int64) int64 {
	t.Helper()
	c, err := iso.Loader().Lookup(cloneOracleApp)
	if err != nil {
		t.Fatal(err)
	}
	m, err := c.LookupMethod("session", "(I)I")
	if err != nil {
		t.Fatal(err)
	}
	v, th, err := vm.CallRoot(iso, m, []heap.Value{heap.IntVal(arg)}, 5_000_000)
	if err != nil || th.Failure() != nil {
		t.Fatalf("session(%d): %v / %s", arg, err, th.FailureString())
	}
	return v.I
}

// cloneOracleTrace is the comparison surface of one Isolated-mode leg:
// everything observable about the tenant after warm-up + three sessions +
// an exact terminal collection.
type cloneOracleTrace struct {
	warm    int64
	results [3]int64
	account core.Account // allocation totals included
	fp      uint64
}

func (a cloneOracleTrace) diff(b cloneOracleTrace) string {
	switch {
	case a.warm != b.warm:
		return fmt.Sprintf("warm result %d != %d", a.warm, b.warm)
	case a.results != b.results:
		return fmt.Sprintf("session results %v != %v", a.results, b.results)
	case a.account != b.account:
		return fmt.Sprintf("account %+v != %+v", a.account, b.account)
	case a.fp != b.fp:
		return fmt.Sprintf("reachability fingerprint %x != %x", a.fp, b.fp)
	}
	return ""
}

// runCloneLeg runs one Isolated-mode leg. Cold provisions the tenant as a
// fresh isolate delegating to the template loader and runs the warm-up
// itself; cloned runs the warm-up in a warmer isolate, captures it, and
// provisions the tenant with CloneIsolate. Both then run the same three
// sessions.
func runCloneLeg(t *testing.T, p cloneProgram, gc oracleGC, cloned bool) cloneOracleTrace {
	t.Helper()
	vm := cloneOracleVM(gc, core.ModeIsolated)
	if _, err := vm.NewIsolate("runtime"); err != nil {
		t.Fatal(err)
	}
	tl := vm.Registry().NewLoader("template")
	if err := tl.DefineAll(cloneOracleClasses(p)); err != nil {
		t.Fatal(err)
	}
	var tr cloneOracleTrace
	var tenant *core.Isolate
	if cloned {
		warmer, err := vm.NewIsolate("warmer")
		if err != nil {
			t.Fatal(err)
		}
		warmer.Loader().AddDelegate(tl)
		tr.warm = cloneOracleSession(t, vm, warmer, 1)
		snap, err := vm.CaptureSnapshot(warmer, interp.SnapshotOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer snap.Release()
		tenant, err = vm.CloneIsolate(snap, "tenant")
		if err != nil {
			t.Fatal(err)
		}
	} else {
		var err error
		tenant, err = vm.NewIsolate("tenant")
		if err != nil {
			t.Fatal(err)
		}
		tenant.Loader().AddDelegate(tl)
		tr.warm = cloneOracleSession(t, vm, tenant, 1)
	}
	for i, arg := range [...]int64{5, 9, 13} {
		tr.results[i] = cloneOracleSession(t, vm, tenant, arg)
	}
	vm.CollectGarbage(nil)
	tr.account = tenant.Account().Numbers()
	tr.fp = vm.ReachabilityFingerprint(tenant)
	return tr
}

// runSharedRestoreLeg is the Shared-mode leg: a cold VM that warms and
// runs one session is the reference; the restore VM warms, captures, runs
// a dirty session, rewinds with RestoreInPlace, and must then replay the
// reference session byte-identically (fingerprint at the warm point,
// session result, and absolute account after the session).
func runSharedRestoreLeg(t *testing.T, p cloneProgram, gc oracleGC) {
	t.Helper()
	const sessionArg = 7
	classes := func() []*classfile.Class { return cloneOracleClasses(p) }

	cold := cloneOracleVM(gc, core.ModeShared)
	coldWorld, err := cold.NewIsolate("world")
	if err != nil {
		t.Fatal(err)
	}
	if err := coldWorld.Loader().DefineAll(classes()); err != nil {
		t.Fatal(err)
	}
	coldWarm := cloneOracleSession(t, cold, coldWorld, 1)
	cold.CollectGarbage(nil)
	coldWarmFP := cold.ReachabilityFingerprint(coldWorld)
	coldSession := cloneOracleSession(t, cold, coldWorld, sessionArg)
	cold.CollectGarbage(nil)
	coldAccount := coldWorld.Account().Numbers()
	coldFinalFP := cold.ReachabilityFingerprint(coldWorld)

	rvm := cloneOracleVM(gc, core.ModeShared)
	world, err := rvm.NewIsolate("world")
	if err != nil {
		t.Fatal(err)
	}
	if err := world.Loader().DefineAll(classes()); err != nil {
		t.Fatal(err)
	}
	if got := cloneOracleSession(t, rvm, world, 1); got != coldWarm {
		t.Fatalf("seed %d gc %d: warm result %d != cold %d", p.seed, gc, got, coldWarm)
	}
	snap, err := rvm.CaptureSnapshot(world, interp.SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	if got := cloneOracleSession(t, rvm, world, sessionArg); got != coldSession {
		t.Fatalf("seed %d gc %d: dirty session %d != cold %d", p.seed, gc, got, coldSession)
	}
	if err := snap.RestoreInPlace(); err != nil {
		t.Fatal(err)
	}
	rvm.CollectGarbage(nil)
	if got := rvm.ReachabilityFingerprint(world); got != coldWarmFP {
		t.Fatalf("seed %d gc %d: post-restore fingerprint %x != cold warm fingerprint %x",
			p.seed, gc, got, coldWarmFP)
	}
	if got := cloneOracleSession(t, rvm, world, sessionArg); got != coldSession {
		t.Fatalf("seed %d gc %d: replayed session %d != cold %d", p.seed, gc, got, coldSession)
	}
	rvm.CollectGarbage(nil)
	if got := world.Account().Numbers(); got != coldAccount {
		t.Fatalf("seed %d gc %d: restored account %+v != cold %+v", p.seed, gc, got, coldAccount)
	}
	if got := rvm.ReachabilityFingerprint(world); got != coldFinalFP {
		t.Fatalf("seed %d gc %d: final fingerprint %x != cold %x", p.seed, gc, got, coldFinalFP)
	}
}

// TestClonedVsColdOracle replays generated statics-rich programs and
// demands clone/restore provisioning be indistinguishable from a cold
// start, across the two collector configurations — which must also
// agree with each other, since the generous heap leaves no pressure
// collections to reschedule.
func TestClonedVsColdOracle(t *testing.T) {
	n := 30
	if testing.Short() {
		n = 8
	}
	gcs := []oracleGC{gcExact, gcIncPaced}
	for i := 0; i < n; i++ {
		seed := int64(i)*7919 + 17
		p := genCloneProgram(seed)
		var ref cloneOracleTrace
		for gi, gc := range gcs {
			coldTr := runCloneLeg(t, p, gc, false)
			cloneTr := runCloneLeg(t, p, gc, true)
			if d := coldTr.diff(cloneTr); d != "" {
				t.Fatalf("program %d (seed %d) gc %d: cloned tenant diverges from cold start: %s",
					i, seed, gc, d)
			}
			if gi == 0 {
				ref = coldTr
			} else if d := ref.diff(coldTr); d != "" {
				t.Fatalf("program %d (seed %d): gc config %d diverges from the exact reference: %s",
					i, seed, gc, d)
			}
			runSharedRestoreLeg(t, p, gc)
		}
	}
}
