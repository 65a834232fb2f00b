package serve_test

import (
	"errors"
	"testing"
	"time"

	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
	"ijvm/internal/serve"
	"ijvm/internal/syslib"
)

const poolApp = "pl/App"

// poolClasses is the minimal serving app: clinit seeds count=5, serve(x)
// adds x and returns the new count (tenant-private state feeds the
// result, so a stale or shared mirror shows up immediately).
func poolClasses() []*classfile.Class {
	app := classfile.NewClass(poolApp).
		StaticField("count", classfile.KindInt).
		Method(classfile.ClinitName, "()V", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.Const(5).PutStatic(poolApp, "count").Return()
		}).
		Method("serve", "(I)I", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.GetStatic(poolApp, "count").ILoad(0).IAdd().PutStatic(poolApp, "count")
			a.GetStatic(poolApp, "count").IReturn()
		}).MustBuild()
	return []*classfile.Class{app}
}

// poolVM builds an isolated VM with a host Isolate0, a warmed template
// and its snapshot (count=6 at capture), returning the serve method
// resolvable from every clone.
func poolVM(t *testing.T, heapLimit int64) (*interp.VM, *core.Isolate, *interp.Snapshot, *classfile.Method) {
	t.Helper()
	if heapLimit <= 0 {
		heapLimit = 16 << 20
	}
	vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated, HeapLimit: heapLimit})
	syslib.MustInstall(vm)
	host, err := vm.NewIsolate("host")
	if err != nil {
		t.Fatal(err)
	}
	tl := vm.Registry().NewLoader("pl-template")
	if err := tl.DefineAll(poolClasses()); err != nil {
		t.Fatal(err)
	}
	wl := vm.Registry().NewLoader("pl-warmer")
	warmer, err := vm.World().NewIsolate("pl-warmer", wl)
	if err != nil {
		t.Fatal(err)
	}
	wl.AddDelegate(tl)
	app, err := tl.Lookup(poolApp)
	if err != nil {
		t.Fatal(err)
	}
	m, err := app.LookupMethod("serve", "(I)I")
	if err != nil {
		t.Fatal(err)
	}
	if v, th, err := vm.CallRoot(warmer, m, []heap.Value{heap.IntVal(1)}, 0); err != nil || th.Failure() != nil || v.I != 6 {
		t.Fatalf("warm-up: %v / %v", err, th)
	}
	snap, err := vm.CaptureSnapshot(warmer, interp.SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return vm, host, snap, m
}

func waitWarm(t *testing.T, p *serve.Pool, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if p.Stats().Warm >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool never refilled to %d: %+v", want, p.Stats())
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestPoolAcquireServeRelease covers the basic lifecycle: a primed pool
// hands out distinct fresh clones, exhaustion fails fast with the typed
// ErrSaturated, released sessions recycle through kill/sweep/free, and
// the refiller restores the warm set.
func TestPoolAcquireServeRelease(t *testing.T) {
	vm, _, snap, serveM := poolVM(t, 0)
	defer snap.Release()
	p, err := serve.NewPool(vm, snap, serve.Config{Capacity: 4, NamePrefix: "pl"})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if st := p.Stats(); st.Warm != 4 || st.Cloned != 4 {
		t.Fatalf("priming: %+v", st)
	}

	// Each Acquire kicks the refiller: held, it cannot put a fifth clone
	// into the warm set before the exhaustion check.
	resume := p.HoldRefillForTest()
	defer resume()
	got := make([]*core.Isolate, 0, 4)
	seen := map[*core.Isolate]bool{}
	for i := 0; i < 4; i++ {
		iso, err := p.Acquire(nil)
		if err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
		if seen[iso] {
			t.Fatalf("acquire %d returned a duplicate isolate", i)
		}
		seen[iso] = true
		got = append(got, iso)
	}
	// Exhausted: the typed admission error, not a block.
	if _, err := p.Acquire(nil); !errors.Is(err, serve.ErrSaturated) {
		t.Fatalf("exhausted acquire: %v, want ErrSaturated", err)
	}
	resume()

	// Every acquired isolate is a fresh warmed clone: count starts at the
	// captured 6.
	for i, iso := range got {
		v, th, err := vm.CallRoot(iso, serveM, []heap.Value{heap.IntVal(int64(i + 1))}, 0)
		if err != nil || th.Failure() != nil {
			t.Fatalf("serve on %s: %v / %s", iso.Name(), err, th.FailureString())
		}
		if want := int64(6 + i + 1); v.I != want {
			t.Fatalf("serve on %s = %d, want %d", iso.Name(), v.I, want)
		}
	}

	for _, iso := range got {
		p.Release(iso)
	}
	waitWarm(t, p, 4)
	// The refiller may have taken its list of returns just before the
	// releases above and topped the warm set up first: a full warm set does
	// not mean the retirements are through.
	for deadline := time.Now().Add(10 * time.Second); p.Stats().Recycled < 4 && time.Now().Before(deadline); {
		time.Sleep(200 * time.Microsecond)
	}
	st := p.Stats()
	if st.Recycled != 4 {
		t.Fatalf("recycled %d sessions, want 4 (%+v)", st.Recycled, st)
	}
	if st.Acquired != 4 || st.Saturated != 1 {
		t.Fatalf("counter mismatch: %+v", st)
	}
	// The refilled isolates are fresh again.
	iso, err := p.Acquire(nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, th, err := vm.CallRoot(iso, serveM, []heap.Value{heap.IntVal(2)}, 0); err != nil || th.Failure() != nil || v.I != 8 {
		t.Fatalf("refilled serve = %v (%v), want 8", v.I, err)
	}
	p.Release(iso)
}

// TestPoolRecyclesIsolateSlots proves steady-state churn does not grow
// the world: many acquire/release cycles reuse the same dense IDs.
func TestPoolRecyclesIsolateSlots(t *testing.T) {
	vm, _, snap, _ := poolVM(t, 0)
	defer snap.Release()
	p, err := serve.NewPool(vm, snap, serve.Config{Capacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// One extra slot may exist transiently while a retired session and
	// its replacement clone overlap; the world table must stay bounded
	// regardless of how many sessions churn through.
	bound := vm.World().NumIsolates() + p.Stats().Warm + 1
	for cycle := 0; cycle < 20; cycle++ {
		iso, err := p.Acquire(nil)
		if err != nil {
			time.Sleep(500 * time.Microsecond)
			continue
		}
		p.Release(iso)
		waitWarm(t, p, 1)
	}
	waitWarm(t, p, 2)
	if got := vm.World().NumIsolates(); got > bound {
		t.Fatalf("world grew to %d isolates under churn, bound %d", got, bound)
	}
	if st := p.Stats(); st.Recycled == 0 {
		t.Fatalf("no sessions recycled: %+v", st)
	}
}

// TestPoolShedsThrottled: a governor-throttled principal is refused with
// core.ErrThrottled before any slot is spent; Isolate0 is exempt.
func TestPoolShedsThrottled(t *testing.T) {
	vm, host, snap, _ := poolVM(t, 0)
	defer snap.Release()
	p, err := serve.NewPool(vm, snap, serve.Config{Capacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	abuser, err := vm.NewIsolate("abuser")
	if err != nil {
		t.Fatal(err)
	}
	abuser.SetThrottled(true)
	if _, err := p.Acquire(abuser); !errors.Is(err, core.ErrThrottled) {
		t.Fatalf("throttled acquire: %v, want ErrThrottled", err)
	}
	st := p.Stats()
	if st.Shed != 1 {
		t.Fatalf("shed count %d, want 1", st.Shed)
	}
	if st.Warm != 2 {
		t.Fatalf("shedding spent a slot: warm %d, want 2", st.Warm)
	}
	// Isolate0 (the runtime) is governance-exempt at the admission edge
	// too, matching SpawnThread's throttle gate.
	host.SetThrottled(true)
	iso, err := p.Acquire(host)
	if err != nil {
		t.Fatalf("Isolate0 acquire while throttled: %v", err)
	}
	p.Release(iso)
	// An untrottled principal is admitted normally.
	abuser.SetThrottled(false)
	iso, err = p.Acquire(abuser)
	if err != nil {
		t.Fatalf("unthrottled acquire: %v", err)
	}
	p.Release(iso)
}

// TestPoolClose: Close tears everything down, further Acquires fail
// typed, and a post-Close Release of an outstanding isolate is torn
// down inline instead of leaking.
func TestPoolClose(t *testing.T) {
	vm, _, snap, _ := poolVM(t, 0)
	defer snap.Release()
	p, err := serve.NewPool(vm, snap, serve.Config{Capacity: 3})
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Acquire(nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	p.Close() // idempotent
	if _, err := p.Acquire(nil); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("acquire after close: %v, want ErrClosed", err)
	}
	// The refiller may have cloned a replacement for the acquired isolate
	// before Close stopped it: Close tears down every clone but the
	// outstanding one, however many there were.
	if st := p.Stats(); st.Warm != 0 || st.Recycled != st.Cloned-1 {
		t.Fatalf("close teardown: %+v, want warm=0 recycled=cloned-1", st)
	}
	p.Release(out)
	if st := p.Stats(); st.Recycled != st.Cloned {
		t.Fatalf("post-close release not torn down: %+v, want recycled=cloned", st)
	}
	if !out.Disposed() {
		t.Fatal("outstanding isolate not disposed after post-close release")
	}
}

// TestPoolPrimingFailure: a pool that cannot prime (snapshot already
// released) fails construction without leaking partial state.
func TestPoolPrimingFailure(t *testing.T) {
	vm, _, snap, _ := poolVM(t, 0)
	isolates := vm.World().NumIsolates()
	loaders := vm.Registry().NumLoaders()
	snap.Release()
	if _, err := serve.NewPool(vm, snap, serve.Config{Capacity: 2}); err == nil {
		t.Fatal("NewPool over a released snapshot succeeded")
	}
	if got := vm.World().NumIsolates(); got != isolates {
		t.Fatalf("failed priming leaked isolates: %d, want %d", got, isolates)
	}
	if got := vm.Registry().NumLoaders(); got != loaders {
		t.Fatalf("failed priming leaked loaders: %d, want %d", got, loaders)
	}
}
