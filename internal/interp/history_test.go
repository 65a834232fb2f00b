package interp_test

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
	"ijvm/internal/loader"
	"ijvm/internal/syslib"
	paper "ijvm/internal/workloads"
)

const (
	historyTenants = 2000 // cold tenants that come and go between the two measurements
	historyReps    = 200
	historySlack   = 256 // host bytes an operation may gain over its fresh cost
)

// historyGateway is a gateway VM on the sequential engine: a host isolate,
// the gateway template captured as a snapshot, and a loader that only
// defines classes.
type historyGateway struct {
	t       *testing.T
	vm      *interp.VM
	host    *core.Isolate
	snap    *interp.Snapshot
	serve   *classfile.Method
	definer *loader.Loader
	defined int
}

func newHistoryGateway(t *testing.T) *historyGateway {
	t.Helper()
	vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated, HeapLimit: 64 << 20})
	syslib.MustInstall(vm)
	g := &historyGateway{t: t, vm: vm}
	var err error
	if g.host, err = vm.NewIsolate("gateway"); err != nil {
		t.Fatal(err)
	}
	tl := vm.Registry().NewLoader("template")
	if err := tl.DefineAll(paper.GatewayClasses()); err != nil {
		t.Fatal(err)
	}
	warmer, err := vm.NewIsolate("warmer")
	if err != nil {
		t.Fatal(err)
	}
	warmer.Loader().AddDelegate(tl)
	app, err := tl.Lookup(paper.GatewayAppClass)
	if err != nil {
		t.Fatal(err)
	}
	if g.serve, err = app.LookupMethod("serve", "(I)I"); err != nil {
		t.Fatal(err)
	}
	g.call(warmer, g.serve, 1)
	if g.snap, err = vm.CaptureSnapshot(warmer, interp.SnapshotOptions{}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.snap.Release)
	g.definer = vm.Registry().NewLoader("definer")
	return g
}

func (g *historyGateway) call(iso *core.Isolate, m *classfile.Method, arg int64) {
	g.t.Helper()
	if _, th, err := g.vm.CallRoot(iso, m, []heap.Value{heap.IntVal(arg)}, 0); err != nil || th.Failure() != nil {
		g.t.Fatalf("%s in %s: %v / %s", m.Name, iso.Name(), err, th.FailureString())
	}
}

// coldClass is a tenant's own class: one static and a method that reads it.
func coldClass(name string) *classfile.Class {
	return classfile.NewClass(name).
		StaticField("hits", classfile.KindInt).
		Method("touch", "()I", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.GetStatic(name, "hits").IReturn()
		}).MustBuild()
}

// teardown is the sanctioned end of a tenant: kill, collect, free.
func (g *historyGateway) teardown(iso *core.Isolate) {
	g.t.Helper()
	if err := g.vm.KillIsolate(g.host, iso); err != nil {
		g.t.Fatal(err)
	}
	g.vm.CollectGarbage(g.host)
	if err := g.vm.FreeIsolate(iso); err != nil {
		g.t.Fatal(err)
	}
}

// coldTenant provisions a tenant the slow way — own loader, own class,
// first static access — and tears it down.
func (g *historyGateway) coldTenant(i int) {
	g.t.Helper()
	l := g.vm.Registry().NewLoader("cold")
	iso, err := g.vm.World().NewIsolate("cold", l)
	if err != nil {
		g.t.Fatal(err)
	}
	c := coldClass(fmt.Sprintf("cold/T%d", i))
	if err := l.Define(c); err != nil {
		g.t.Fatal(err)
	}
	m, err := c.LookupMethod("touch", "()I")
	if err != nil {
		g.t.Fatal(err)
	}
	g.call(iso, m, 0)
	g.teardown(iso)
}

// lifecycleOps names the measured operations, in the order one repetition
// runs them.
var lifecycleOps = []string{"CloneIsolate", "KillIsolate+CollectGarbage", "FreeIsolate", "NewLoader+NewIsolate", "Define"}

type lifecycleCost struct {
	bytes [5]uint64 // median host bytes allocated per operation
	rows  int64     // mirror rows one teardown collection visits
}

// measureLifecycle runs historyReps repetitions of clone → serve → kill and
// collect → free → bare isolate → one-class define, each operation between
// two readings of the host allocator's byte counter.
func (g *historyGateway) measureLifecycle() lifecycleCost {
	g.t.Helper()
	var (
		ms      runtime.MemStats
		samples [5][]uint64
		cost    lifecycleCost
	)
	measured := func(op int, f func()) {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		f()
		runtime.ReadMemStats(&ms)
		samples[op] = append(samples[op], ms.TotalAlloc-before)
	}
	reg, world := g.vm.Registry(), g.vm.World()
	for rep := 0; rep < historyReps; rep++ {
		var (
			iso *core.Isolate
			err error
		)
		measured(0, func() { iso, err = g.vm.CloneIsolate(g.snap, "tenant") })
		if err != nil {
			g.t.Fatal(err)
		}
		g.call(iso, g.serve, int64(rep))
		rows := world.RootRowsVisitedForTest()
		measured(1, func() {
			err = g.vm.KillIsolate(g.host, iso)
			g.vm.CollectGarbage(g.host)
		})
		cost.rows = world.RootRowsVisitedForTest() - rows
		if err != nil || !iso.Disposed() {
			g.t.Fatalf("kill: %v, disposed %v", err, iso.Disposed())
		}
		measured(2, func() { err = g.vm.FreeIsolate(iso) })
		if err != nil {
			g.t.Fatal(err)
		}
		measured(3, func() { iso, err = world.NewIsolate("bare", reg.NewLoader("bare")) })
		if err != nil {
			g.t.Fatal(err)
		}
		g.teardown(iso)
		g.defined++
		c := coldClass(fmt.Sprintf("def/C%d", g.defined))
		measured(4, func() { err = g.definer.Define(c) })
		if err != nil {
			g.t.Fatal(err)
		}
	}
	for op := range samples {
		slices.Sort(samples[op])
		cost.bytes[op] = samples[op][historyReps/2]
	}
	return cost
}

// TestLifecycleCostIndependentOfClassHistory: what an isolate's lifecycle
// operations allocate on the host, and how many mirror rows a collection
// visits, must not depend on how many classes and loaders tenants that are
// long gone have left linked in the VM. The per-operation figure is the
// median of the repetitions, so the rare repetition in which an
// append-only table doubles does not count against the operation.
func TestLifecycleCostIndependentOfClassHistory(t *testing.T) {
	g := newHistoryGateway(t)
	g.coldTenant(-1) // the first teardown pays one-time set-up
	fresh := g.measureLifecycle()
	classes, loaders := g.vm.Registry().NumClasses(), g.vm.Registry().NumLoaders()
	for i := 0; i < historyTenants; i++ {
		g.coldTenant(i)
	}
	after := g.measureLifecycle()
	t.Logf("%d cold tenants: classes %d -> %d, loaders %d -> %d", historyTenants,
		classes, g.vm.Registry().NumClasses(), loaders, g.vm.Registry().NumLoaders())
	for op, name := range lifecycleOps {
		t.Logf("%-28s %6d B fresh, %6d B after", name, fresh.bytes[op], after.bytes[op])
		if after.bytes[op] > fresh.bytes[op]+historySlack {
			t.Errorf("%s allocates %d B after %d cold tenants, %d B on a fresh VM", name, after.bytes[op], historyTenants, fresh.bytes[op])
		}
	}
	t.Logf("mirror rows visited by a teardown collection: %d fresh, %d after", fresh.rows, after.rows)
	if after.rows != fresh.rows {
		t.Errorf("a teardown collection visits %d mirror rows after %d cold tenants, %d on a fresh VM", after.rows, historyTenants, fresh.rows)
	}
}
