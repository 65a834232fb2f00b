package rpc_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
	"ijvm/internal/rpc"
	"ijvm/internal/workloads"
)

// graphBuilder constructs deterministic random payload graphs: nested
// arrays, fresh and interned strings, scalars, back-references (cycles
// and sharing). Two builders seeded identically on twin VMs produce
// structurally identical graphs.
type graphBuilder struct {
	vm       *interp.VM
	iso      *core.Isolate
	objClass *classfile.Class
	roots    *interp.HostRoots
	r        *rand.Rand
	built    []*heap.Object
}

func newGraphBuilder(t *testing.T, vm *interp.VM, iso *core.Isolate, seed int64) *graphBuilder {
	t.Helper()
	objClass, err := vm.Registry().Bootstrap().Lookup(interp.ClassObject)
	if err != nil {
		t.Fatal(err)
	}
	return &graphBuilder{
		vm:       vm,
		iso:      iso,
		objClass: objClass,
		roots:    vm.NewHostRoots(iso),
		r:        rand.New(rand.NewSource(seed)),
	}
}

func (g *graphBuilder) value(t *testing.T, depth int) heap.Value {
	t.Helper()
	roll := g.r.Intn(10)
	switch {
	case roll < 3 || depth <= 0:
		return heap.IntVal(g.r.Int63n(1000))
	case roll < 4:
		return heap.Null()
	case roll < 5 && len(g.built) > 0:
		// Back-reference: sharing, possibly a cycle.
		return heap.RefVal(g.built[g.r.Intn(len(g.built))])
	case roll < 6:
		obj, err := g.vm.NewStringObject(nil, g.iso, fmt.Sprintf("s%d", g.r.Intn(32)))
		if err != nil {
			t.Fatal(err)
		}
		g.roots.Add(obj)
		return heap.RefVal(obj)
	case roll < 7:
		obj, err := g.vm.InternString(nil, g.iso, fmt.Sprintf("i%d", g.r.Intn(8)))
		if err != nil {
			t.Fatal(err)
		}
		return heap.RefVal(obj)
	default:
		n := g.r.Intn(4) + 1
		arr, err := g.vm.AllocArrayRooted(g.roots, g.objClass, n, g.iso)
		if err != nil {
			t.Fatal(err)
		}
		g.built = append(g.built, arr)
		for i := 0; i < n; i++ {
			arr.Elems[i] = g.value(t, depth-1)
		}
		return heap.RefVal(arr)
	}
}

// sameGraph checks a and b are isomorphic value graphs: identical
// shapes, scalars, string contents and aliasing structure.
func sameGraph(a, b heap.Value, fwd, bwd map[*heap.Object]*heap.Object) error {
	if a.IsRef() != b.IsRef() {
		return fmt.Errorf("kind mismatch: %v vs %v", a.Kind, b.Kind)
	}
	if !a.IsRef() {
		if a.I != b.I || a.F != b.F {
			return fmt.Errorf("scalar mismatch: %d/%g vs %d/%g", a.I, a.F, b.I, b.F)
		}
		return nil
	}
	if (a.R == nil) != (b.R == nil) {
		return fmt.Errorf("null mismatch")
	}
	if a.R == nil {
		return nil
	}
	if prev, ok := fwd[a.R]; ok {
		if prev != b.R {
			return fmt.Errorf("aliasing mismatch (fwd)")
		}
		return nil
	}
	if _, ok := bwd[b.R]; ok {
		return fmt.Errorf("aliasing mismatch (bwd)")
	}
	fwd[a.R], bwd[b.R] = b.R, a.R
	if a.R.Class.Name != b.R.Class.Name {
		return fmt.Errorf("class mismatch: %s vs %s", a.R.Class.Name, b.R.Class.Name)
	}
	sa, oka := a.R.StringValue()
	sb, okb := b.R.StringValue()
	if oka != okb || sa != sb {
		return fmt.Errorf("string mismatch: %q vs %q", sa, sb)
	}
	if len(a.R.Elems) != len(b.R.Elems) || a.R.IsArray() != b.R.IsArray() {
		return fmt.Errorf("shape mismatch: %d/%d slots, array %v/%v",
			len(a.R.Elems), len(b.R.Elems), a.R.IsArray(), b.R.IsArray())
	}
	for i := range a.R.Elems {
		if err := sameGraph(a.R.Elems[i], b.R.Elems[i], fwd, bwd); err != nil {
			return fmt.Errorf("slot %d: %w", i, err)
		}
	}
	return nil
}

// oracleEnv is one half of the twin-VM differential setup: env plus the
// extra helper class.
func newOracleEnv(t *testing.T) *rpcEnv {
	t.Helper()
	e := newRPCEnv(t)
	if err := e.callee.Loader().DefineAll(extraClasses()); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestOracleSyncVsAsyncMessaging runs the same randomized cross-isolate
// messaging sequence through the serialized seed-architecture link on
// one VM and the pipelined async link on a twin VM, then checks the
// results are byte-identical, the copied graphs isomorphic, and the
// post-GC per-isolate accounting equal.
func TestOracleSyncVsAsyncMessaging(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			serial := newOracleEnv(t)
			async := newOracleEnv(t)

			idS := serial.extraMethod(t, "id", "(Ljava/lang/Object;)Ljava/lang/Object;")
			idA := async.extraMethod(t, "id", "(Ljava/lang/Object;)Ljava/lang/Object;")

			sLinkID := rpc.NewSerialLink(serial.vm, serial.caller, serial.callee, idS, heap.Value{})
			sLinkInc := rpc.NewSerialLink(serial.vm, serial.caller, serial.callee, serial.method, serial.recv)
			hub := rpc.NewHub(async.vm)
			aLinkID, err := hub.NewLink(async.caller, async.callee, idA, heap.Value{}, rpc.LinkOptions{})
			if err != nil {
				t.Fatal(err)
			}
			aLinkInc, err := hub.NewLink(async.caller, async.callee, async.method, async.recv, rpc.LinkOptions{})
			if err != nil {
				t.Fatal(err)
			}

			gS := newGraphBuilder(t, serial.vm, serial.caller, seed)
			gA := newGraphBuilder(t, async.vm, async.caller, seed)
			seq := rand.New(rand.NewSource(seed * 31))

			for i := 0; i < 40; i++ {
				if seq.Intn(2) == 0 {
					// Stateful scalar call: results must match exactly.
					arg := heap.IntVal(seq.Int63n(100))
					vs, errS := sLinkInc.Call([]heap.Value{arg})
					fut, errA := aLinkInc.CallAsync([]heap.Value{arg})
					if errS != nil || errA != nil {
						t.Fatalf("call %d: serial %v, async %v", i, errS, errA)
					}
					va, errA := fut.Wait()
					if errA != nil {
						t.Fatalf("call %d async: %v", i, errA)
					}
					if vs.I != va.I {
						t.Fatalf("call %d: serial inc = %d, async inc = %d", i, vs.I, va.I)
					}
					fut.Release()
					continue
				}
				// Structured payload through id: copies must be isomorphic
				// to each other and to the source.
				ps := gS.value(t, 3)
				pa := gA.value(t, 3)
				if err := sameGraph(ps, pa, map[*heap.Object]*heap.Object{}, map[*heap.Object]*heap.Object{}); err != nil {
					t.Fatalf("call %d: twin payloads diverge: %v", i, err)
				}
				vs, errS := sLinkID.Call([]heap.Value{ps})
				fut, errA := aLinkID.CallAsync([]heap.Value{pa})
				if errS != nil || errA != nil {
					t.Fatalf("call %d: serial %v, async %v", i, errS, errA)
				}
				va, errA := fut.Wait()
				if errA != nil {
					t.Fatalf("call %d async: %v", i, errA)
				}
				if err := sameGraph(vs, va, map[*heap.Object]*heap.Object{}, map[*heap.Object]*heap.Object{}); err != nil {
					t.Fatalf("call %d: result graphs diverge: %v", i, err)
				}
				if err := sameGraph(ps, va, map[*heap.Object]*heap.Object{}, map[*heap.Object]*heap.Object{}); err != nil {
					t.Fatalf("call %d: async copy not isomorphic to source: %v", i, err)
				}
				// The async result stays reachable through its future's
				// roots across a collection.
				async.vm.CollectGarbage(nil)
				if va.R != nil && va.R.Dead() {
					t.Fatalf("call %d: rooted async result swept", i)
				}
				fut.Release()
			}

			// Drop all transient roots, collect both worlds, compare the
			// per-isolate accounting: the messaging layers must leave
			// byte-identical live heaps behind.
			sLinkID.Close()
			sLinkInc.Close()
			aLinkID.Close()
			aLinkInc.Close()
			hub.Close()
			gS.roots.Release()
			gA.roots.Release()
			serial.vm.CollectGarbage(nil)
			async.vm.CollectGarbage(nil)
			for _, iso := range []struct {
				name string
				s, a *core.Isolate
			}{
				{"caller", serial.caller, async.caller},
				{"callee", serial.callee, async.callee},
			} {
				ls, la := iso.s.Live(), iso.a.Live()
				if ls.Objects != la.Objects || ls.Bytes != la.Bytes {
					t.Fatalf("%s accounting diverged: serial %d obj/%d B, async %d obj/%d B",
						iso.name, ls.Objects, ls.Bytes, la.Objects, la.Bytes)
				}
			}
		})
	}
}

// TestStressPipelinedStorm drives pipelined calls from 8 concurrent
// caller goroutines through GC cycles, an isolate kill and thread
// interrupts, all Sync'd through the hub. Run with -race; the test
// asserts the world stays consistent, not timing.
func TestStressPipelinedStorm(t *testing.T) {
	e := newOracleEnv(t)
	hub := rpc.NewHub(e.vm)
	defer hub.Close()

	// A killable victim isolate with its own service.
	victimLoader := e.vm.Registry().NewLoader("victim")
	victim, err := e.vm.World().NewIsolate("victim", victimLoader)
	if err != nil {
		t.Fatal(err)
	}
	if err := victimLoader.DefineAll(workloads.ServiceClasses()); err != nil {
		t.Fatal(err)
	}
	victimClass, err := victimLoader.Lookup(workloads.ServiceClassName)
	if err != nil {
		t.Fatal(err)
	}
	victimStatic, err := victimClass.LookupMethod("fstatic", "(I)I")
	if err != nil {
		t.Fatal(err)
	}

	incLink, err := hub.NewLink(e.caller, e.callee, e.method, e.recv, rpc.LinkOptions{QueueDepth: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer incLink.Close()
	victimLink, err := hub.NewLink(e.caller, victim, victimStatic, heap.Value{}, rpc.LinkOptions{QueueDepth: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer victimLink.Close()

	const callers = 8
	const callsPerCaller = 60
	var incOK, victimOK, victimFailed int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g) * 977))
			for i := 0; i < callsPerCaller; i++ {
				link, isVictim := incLink, false
				if r.Intn(3) == 0 {
					link, isVictim = victimLink, true
				}
				fut, err := link.CallAsync([]heap.Value{heap.IntVal(1)})
				if errors.Is(err, rpc.ErrSaturated) {
					_, err = link.Call([]heap.Value{heap.IntVal(1)})
					if err == nil {
						mu.Lock()
						if isVictim {
							victimOK++
						} else {
							incOK++
						}
						mu.Unlock()
						continue
					}
				}
				if err != nil {
					if isVictim && (errors.Is(err, rpc.ErrCalleeStopped) || errors.Is(err, rpc.ErrLinkClosed)) {
						mu.Lock()
						victimFailed++
						mu.Unlock()
						continue
					}
					t.Errorf("caller %d call %d: %v", g, i, err)
					return
				}
				_, werr := fut.Wait()
				fut.Release()
				mu.Lock()
				if werr != nil {
					if !isVictim {
						t.Errorf("caller %d inc call failed: %v", g, werr)
					}
					victimFailed++
				} else if isVictim {
					victimOK++
				} else {
					incOK++
				}
				mu.Unlock()
			}
		}(g)
	}

	// Storm: incremental GC cycles, interrupts, then a kill mid-traffic.
	stormQuit := make(chan struct{})
	stormDone := make(chan struct{})
	go func() {
		defer close(stormDone)
		killed := false
		for round := 0; ; round++ {
			select {
			case <-stormQuit:
				return
			default:
			}
			hub.Sync(func() { e.vm.StartIncrementalCycle() })
			for i := 0; i < 8; i++ {
				hub.Sync(func() { e.vm.GCMarkStep(64) })
			}
			hub.Sync(func() { e.vm.FinishIncrementalCycle() })
			time.Sleep(500 * time.Microsecond) // let traffic flow between storms
			if round == 8 && !killed {
				killed = true
				hub.Sync(func() {
					if err := e.vm.KillIsolate(nil, victim); err != nil {
						t.Error(err)
					}
				})
			}
			hub.Sync(func() {
				for _, th := range e.vm.Threads() {
					if !th.Done() && th.Creator() == victim {
						_ = e.vm.InterruptThread(th)
						break
					}
				}
			})
		}
	}()
	wg.Wait()
	close(stormQuit)
	<-stormDone

	// Final verification: count survived, world collects cleanly, the
	// stateful service total matches the successful increments.
	incLink.Close()
	victimLink.Close()
	e.vm.CollectGarbage(nil)
	v, th, err := e.vm.CallRoot(e.callee, e.method, []heap.Value{e.recv, heap.IntVal(0)}, 1_000_000)
	if err != nil || th.Failure() != nil {
		t.Fatalf("post-storm probe: %v / %s", err, th.FailureString())
	}
	if v.I != incOK {
		t.Fatalf("service total = %d, want %d successful increments", v.I, incOK)
	}
	t.Logf("storm: %d inc ok, %d victim ok, %d victim failed", incOK, victimOK, victimFailed)
}
