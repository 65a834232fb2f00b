package core_test

import (
	"errors"
	"testing"

	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/loader"
)

func newWorld(t *testing.T, mode core.Mode) (*core.World, *loader.Registry) {
	t.Helper()
	r := loader.NewRegistry()
	obj := classfile.NewClass(classfile.ObjectClassName).MustBuild()
	if err := r.Bootstrap().Define(obj); err != nil {
		t.Fatal(err)
	}
	return core.NewWorld(mode, r), r
}

func classWithStatics(t *testing.T, r *loader.Registry, l *loader.Loader, name string) *classfile.Class {
	t.Helper()
	c := classfile.NewClass(name).
		StaticField("a", classfile.KindInt).
		StaticField("b", classfile.KindRef).
		Method("m", "()V", classfile.FlagStatic, func(a *bytecode.Assembler) { a.Return() }).
		MustBuild()
	if err := l.Define(c); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestIsolate0GetsAllRights(t *testing.T) {
	w, r := newWorld(t, core.ModeIsolated)
	iso0, err := w.NewIsolate("runtime", r.NewLoader("runtime"))
	if err != nil {
		t.Fatal(err)
	}
	if !iso0.IsIsolate0() || !iso0.Rights().Has(core.AllRights) {
		t.Fatal("first isolate must be Isolate0 with all rights")
	}
	iso1, err := w.NewIsolate("bundle", r.NewLoader("bundle"))
	if err != nil {
		t.Fatal(err)
	}
	if iso1.Rights() != 0 {
		t.Fatal("standard isolates must have no rights")
	}
	if w.Isolate0() != iso0 || w.IsolateByID(1) != iso1 || w.IsolateByID(7) != nil {
		t.Fatal("isolate accessors broken")
	}
}

func TestWorldRejectsInvalidIsolates(t *testing.T) {
	w, r := newWorld(t, core.ModeIsolated)
	if _, err := w.NewIsolate("x", nil); err == nil {
		t.Fatal("nil loader accepted")
	}
	if _, err := w.NewIsolate("x", r.Bootstrap()); err == nil {
		t.Fatal("bootstrap loader accepted")
	}
	l := r.NewLoader("a")
	if _, err := w.NewIsolate("a", l); err != nil {
		t.Fatal(err)
	}
	if _, err := w.NewIsolate("a2", l); err == nil {
		t.Fatal("duplicate loader accepted")
	}
}

func TestSharedModeSingleIsolate(t *testing.T) {
	w, r := newWorld(t, core.ModeShared)
	if _, err := w.NewIsolate("only", r.NewLoader("only")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.NewIsolate("second", r.NewLoader("second")); err == nil {
		t.Fatal("shared mode must reject a second isolate")
	}
}

func TestMirrorsPerIsolateVsShared(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeShared, core.ModeIsolated} {
		t.Run(mode.String(), func(t *testing.T) {
			w, r := newWorld(t, mode)
			l0 := r.NewLoader("l0")
			iso0, err := w.NewIsolate("i0", l0)
			if err != nil {
				t.Fatal(err)
			}
			c := classWithStatics(t, r, l0, "m/C")

			var iso1 *core.Isolate
			if mode == core.ModeIsolated {
				iso1, err = w.NewIsolate("i1", r.NewLoader("l1"))
				if err != nil {
					t.Fatal(err)
				}
			} else {
				iso1 = iso0
			}

			m0 := w.Mirror(c, iso0)
			m1 := w.Mirror(c, iso1)
			if len(m0.Statics) != 2 {
				t.Fatalf("statics slots = %d", len(m0.Statics))
			}
			m0.Statics[0] = heap.IntVal(42)
			if mode == core.ModeIsolated {
				if m0 == m1 {
					t.Fatal("isolates must have distinct mirrors")
				}
				if m1.Statics[0].I == 42 {
					t.Fatal("static leak between isolates")
				}
			} else if m0 != m1 {
				t.Fatal("shared mode must have one mirror")
			}
			if w.Mirror(c, iso0) != m0 {
				t.Fatal("mirror identity unstable")
			}
			if w.MirrorIfPresent(c, iso0) != m0 {
				t.Fatal("MirrorIfPresent missed an existing mirror")
			}
		})
	}
}

func TestKillRightsAndStates(t *testing.T) {
	w, r := newWorld(t, core.ModeIsolated)
	iso0, _ := w.NewIsolate("runtime", r.NewLoader("r"))
	bundle, _ := w.NewIsolate("bundle", r.NewLoader("b"))
	other, _ := w.NewIsolate("other", r.NewLoader("o"))

	if err := w.Kill(other, bundle); !errors.Is(err, core.ErrNoRight) {
		t.Fatalf("unprivileged kill: %v", err)
	}
	if err := w.Kill(iso0, bundle); err != nil {
		t.Fatalf("privileged kill: %v", err)
	}
	if !bundle.Killed() || bundle.State() != core.StateKilled {
		t.Fatal("bundle not killed")
	}
	if err := w.Kill(iso0, bundle); !errors.Is(err, core.ErrKilled) {
		t.Fatalf("double kill: %v", err)
	}
	// Host-initiated kill (nil killer) is allowed.
	if err := w.Kill(nil, other); err != nil {
		t.Fatalf("host kill: %v", err)
	}
}

func TestKilledIsolateContributesNoRoots(t *testing.T) {
	w, r := newWorld(t, core.ModeIsolated)
	l := r.NewLoader("b")
	iso, _ := w.NewIsolate("bundle", l)
	c := classWithStatics(t, r, l, "k/C")
	h := heap.New(1 << 20)
	obj, err := h.AllocObject(r.ClassByStaticsID(c.StaticsID), iso.ID())
	if err != nil {
		t.Fatal(err)
	}
	w.Mirror(c, iso).Statics[1] = heap.RefVal(obj)

	roots := w.MirrorRootSets()
	if len(roots[iso.ID()]) == 0 {
		t.Fatal("live isolate must contribute its static roots")
	}
	if err := w.Kill(nil, iso); err != nil {
		t.Fatal(err)
	}
	roots = w.MirrorRootSets()
	if len(roots[iso.ID()]) != 0 {
		t.Fatal("killed isolate must contribute no roots (§3.3 reclamation)")
	}
	// After a GC finds nothing charged to it, the isolate is disposed.
	w.UpdateDisposal(h.Collect(nil).Live)
	if !iso.Disposed() {
		t.Fatal("killed isolate with no live objects must be disposed")
	}
}

func TestDetectRules(t *testing.T) {
	th := core.Thresholds{
		MaxLiveBytes:       1000,
		MaxGCActivations:   3,
		MaxThreadsCreated:  5,
		MinCPUSharePercent: 60,
		MinCPUSamples:      10,
		MaxSleepingThreads: 2,
		MaxConnections:     4,
		MaxIOBytes:         100,
	}
	snaps := []core.Snapshot{
		{IsolateID: 0, IsolateName: "runtime", State: core.StateLive,
			Account: core.Account{CPUSamples: 5}},
		{IsolateID: 1, IsolateName: "hog", State: core.StateLive,
			LiveBytes: 5000,
			Account: core.Account{
				CPUSamples: 95, GCActivations: 10, ThreadsCreated: 50,
				SleepingThreads: 3, IOBytesRead: 80, IOBytesWritten: 70,
			},
			LiveConnections: 9},
		{IsolateID: 2, IsolateName: "good", State: core.StateLive,
			LiveBytes: 10, Account: core.Account{CPUSamples: 0}},
		{IsolateID: 3, IsolateName: "dead", State: core.StateKilled,
			LiveBytes: 99999, Account: core.Account{GCActivations: 99}},
	}
	findings := core.Detect(snaps, th)
	rules := make(map[string]int32)
	for _, f := range findings {
		if f.IsolateName == "dead" {
			t.Fatal("killed isolates must not be flagged")
		}
		rules[f.Rule] = f.IsolateID
	}
	for _, rule := range []string{
		"live-memory", "gc-activations", "threads-created", "cpu-share",
		"sleeping-threads", "connections", "io-bytes",
	} {
		if rules[rule] != 1 {
			t.Errorf("rule %s flagged isolate %d, want 1", rule, rules[rule])
		}
	}
	// Runtime exemption: isolate0 with dominant CPU is not flagged.
	snaps[0].CPUSamples = 1000
	snaps[1].CPUSamples = 1
	for _, f := range core.Detect(snaps, th) {
		if f.Rule == "cpu-share" && f.IsolateID == 0 {
			t.Fatal("Isolate0 must be exempt from the CPU rule")
		}
	}
}

func TestStructFootprintGrowsWithIsolation(t *testing.T) {
	// Two isolates touching the same class must cost more metadata than
	// one isolate touching it (the Figure 3 overhead source).
	w, r := newWorld(t, core.ModeIsolated)
	l0 := r.NewLoader("l0")
	iso0, _ := w.NewIsolate("i0", l0)
	c := classWithStatics(t, r, l0, "fp/C")
	w.Mirror(c, iso0)
	single := w.StructFootprint()

	iso1, _ := w.NewIsolate("i1", r.NewLoader("l1"))
	w.Mirror(c, iso1)
	double := w.StructFootprint()
	if double <= single {
		t.Fatalf("footprint did not grow: %d -> %d", single, double)
	}
}

func TestSnapshotMergesHeapViews(t *testing.T) {
	w, r := newWorld(t, core.ModeIsolated)
	l := r.NewLoader("b")
	iso, _ := w.NewIsolate("bundle", l)
	h := heap.New(1 << 20)
	obj := classfile.NewClass("s/C").MustBuild()
	if err := l.Define(obj); err != nil {
		t.Fatal(err)
	}
	o, err := h.AllocObject(obj, iso.ID())
	if err != nil {
		t.Fatal(err)
	}
	if snap := w.Snapshot(iso); snap.LiveObjects != 0 {
		t.Fatalf("live usage before any collection: %+v", snap)
	}
	w.UpdateDisposal(h.Collect([]heap.RootSet{{Isolate: iso.ID(), Refs: []*heap.Object{o}}}).Live)
	iso.Account().ThreadsCreated.Store(7)
	iso.Account().AllocatedObjects.Store(1)
	snap := w.Snapshot(iso)
	if snap.ThreadsCreated != 7 || snap.AllocatedObjects != 1 || snap.LiveObjects != 1 || snap.LiveBytes != o.Size() {
		t.Fatalf("snapshot = %+v", snap)
	}
	// A collection that finds nothing charged to the isolate zeroes its
	// live usage; the account is untouched.
	w.UpdateDisposal(h.Collect(nil).Live)
	if snap := w.Snapshot(iso); snap.LiveObjects != 0 || snap.LiveBytes != 0 || snap.AllocatedObjects != 1 {
		t.Fatalf("after a collection that freed everything: %+v", snap)
	}
	if snap.IsolateName != "bundle" || snap.State != core.StateLive {
		t.Fatalf("identity = %q %v", snap.IsolateName, snap.State)
	}
}

// TestInstrBatchHoldsCallerAndCalleeSideBySide: a migrated call and its
// return alternate between two isolates without publishing anything; a
// third isolate evicts the entry charged longest ago, publishing exactly
// its pending counts; Flush publishes the rest.
func TestInstrBatchHoldsCallerAndCalleeSideBySide(t *testing.T) {
	var a, b, c core.AccountCounters
	published := func(acc *core.AccountCounters) [3]int64 {
		return [3]int64{acc.Instructions.Load(), acc.InterBundleCallsIn.Load(), acc.InterBundleCallsOut.Load()}
	}
	var batch core.InstrBatch
	for i := 0; i < 100; i++ {
		batch.Note(&a)         // the invoke
		batch.NoteCall(&a, &b) // migration
		batch.NoteN(&b, 3)     // callee body
		batch.Note(&a)         // back in the caller
	}
	if published(&a) != [3]int64{} || published(&b) != [3]int64{} {
		t.Fatalf("call/return pairs published a=%v b=%v before any flush point", published(&a), published(&b))
	}
	batch.Note(&c) // evicts b: a was charged last
	if published(&b) != [3]int64{300, 100, 0} || published(&a) != [3]int64{} {
		t.Fatalf("after eviction: a=%v b=%v", published(&a), published(&b))
	}
	batch.NoteCall(&c, &b) // evicts a
	if published(&a) != [3]int64{200, 0, 100} {
		t.Fatalf("after second eviction: a=%v", published(&a))
	}
	batch.Flush()
	batch.Flush() // idempotent
	if published(&b) != [3]int64{300, 101, 0} || published(&c) != [3]int64{1, 0, 1} {
		t.Fatalf("after flush: b=%v c=%v", published(&b), published(&c))
	}
}

// TestLoaderBindingFollowsIsolateLifecycle: the invoke path's lock-free
// loader-ID index tracks creation and recycling.
func TestLoaderBindingFollowsIsolateLifecycle(t *testing.T) {
	w, r := newWorld(t, core.ModeIsolated)
	if _, err := w.NewIsolate("runtime", r.NewLoader("runtime")); err != nil {
		t.Fatal(err)
	}
	l := r.NewLoader("tenant")
	if w.IsolateForLoaderID(l.ID()) != nil || w.IsolateForLoaderID(0) != nil || w.IsolateForLoaderID(99) != nil {
		t.Fatal("unbound, bootstrap and unknown loaders must have no isolate")
	}
	iso, err := w.NewIsolate("tenant", l)
	if err != nil {
		t.Fatal(err)
	}
	if w.IsolateForLoaderID(l.ID()) != iso {
		t.Fatal("binding not published")
	}
	if err := w.Kill(nil, iso); err != nil {
		t.Fatal(err)
	}
	w.UpdateDisposal(nil)
	if err := w.FreeIsolate(iso); err != nil {
		t.Fatal(err)
	}
	if w.IsolateForLoaderID(l.ID()) != nil {
		t.Fatal("a freed isolate's loader is still bound")
	}

	// Across directory doublings: every binding made before a doubling is
	// still there after it, a store after it lands in the directory readers
	// now see, and IDs past the end read as unbound.
	bound := make(map[int]*core.Isolate)
	for i := 0; i < 100; i++ {
		l := r.NewLoader("more")
		if w.IsolateForLoaderID(l.ID()) != nil {
			t.Fatalf("loader %d bound before it has an isolate", l.ID())
		}
		iso, err := w.NewIsolate("more", l)
		if err != nil {
			t.Fatal(err)
		}
		bound[l.ID()] = iso
		for id, want := range bound {
			if w.IsolateForLoaderID(id) != want {
				t.Fatalf("after binding loader %d, loader %d reads %v, want %v", l.ID(), id, w.IsolateForLoaderID(id), want)
			}
		}
	}
	for id, iso := range bound {
		if id%3 != 0 {
			continue
		}
		if err := w.Kill(nil, iso); err != nil {
			t.Fatal(err)
		}
		w.UpdateDisposal(nil)
		if err := w.FreeIsolate(iso); err != nil {
			t.Fatal(err)
		}
		delete(bound, id)
		if w.IsolateForLoaderID(id) != nil {
			t.Fatalf("loader %d still bound after its isolate was freed", id)
		}
	}
	for id, want := range bound {
		if w.IsolateForLoaderID(id) != want {
			t.Fatalf("loader %d lost its binding to a neighbour's free", id)
		}
	}
	if w.IsolateForLoaderID(1<<20) != nil {
		t.Fatal("a loader ID past the directory must read as unbound")
	}
}
