package workloads

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
	"ijvm/internal/sched"
	"ijvm/internal/serve"
)

func TestGatewayModesAgree(t *testing.T) {
	base := GatewayConfig{Sessions: 6, Requests: 8, HeapLimit: 32 << 20}
	var checksums []int64
	var serves []int
	for _, mode := range []GatewayMode{GatewayCold, GatewayClone, GatewayRecycled} {
		cfg := base
		cfg.Mode = mode
		res, err := RunGateway(cfg)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.Serves == 0 || res.SpawnP50 <= 0 {
			t.Fatalf("%v: degenerate result %+v", mode, res)
		}
		checksums = append(checksums, res.Checksum)
		serves = append(serves, res.Serves-boolToInt(mode == GatewayCold)*cfg.Sessions)
		if mode == GatewayRecycled && res.RecycledIDs != cfg.Sessions {
			t.Fatalf("recycled: want %d freed slots, got %d", cfg.Sessions, res.RecycledIDs)
		}
	}
	// The serve sequences are identical across provisioning strategies
	// (cold additionally serves once during spawn, excluded above), so the
	// checksums and serve counts must agree byte-for-byte.
	for i := 1; i < len(checksums); i++ {
		if checksums[i] != checksums[0] || serves[i] != serves[0] {
			t.Fatalf("mode results diverge: checksums %v serves %v", checksums, serves)
		}
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// gwStack is the concurrent gateway bench/ tenant_gateway measures, built
// directly on the serving stack: the gateway VM, whose host isolate spins
// at weight 1 to hold the run open, sched.RunConfig on 2 workers, and for
// pool sessions a serve.Pool over the warmed template. Cold sessions
// define, link and warm the app per session instead.
type gwStack struct {
	vm    *interp.VM
	pool  *serve.Pool       // nil: cold sessions
	serve *classfile.Method // the template's serve
	run   *sched.Running

	checksum, serves atomic.Int64
	mu               sync.Mutex
	spawnTicks       []int64 // per session: the clock across provisioning
	serveTicks       []int64 // per request: FinishTick - SpawnTick
}

// newGwStack builds the stack with a pool of the given capacity, or none
// for capacity 0; start runs it.
func newGwStack(t *testing.T, heapLimit int64, capacity int) *gwStack {
	t.Helper()
	vm, host, err := gatewayVM(GatewayConfig{HeapLimit: heapLimit})
	if err != nil {
		t.Fatal(err)
	}
	g := &gwStack{vm: vm}
	host.SetWeight(1)
	g.spawnAttack(t, host, spinForeverClasses("gw/Keeper"))
	if capacity == 0 {
		return g
	}
	snap, m, err := gatewayTemplate(vm)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(snap.Release)
	if g.pool, err = serve.NewPool(vm, snap, serve.Config{Capacity: capacity, NamePrefix: "gw-pooled"}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.pool.Close)
	g.serve = m
	return g
}

// spawnAttack defines c in iso and starts a thread on its attack().
func (g *gwStack) spawnAttack(t *testing.T, iso *core.Isolate, c *classfile.Class) {
	t.Helper()
	if err := iso.Loader().Define(c); err != nil {
		t.Fatal(err)
	}
	m, err := c.LookupMethod("attack", "()V")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.vm.SpawnThread(c.Name, iso, m, nil); err != nil {
		t.Fatal(err)
	}
}

func (g *gwStack) start(gov *sched.Governor) {
	g.run = sched.Start(g.vm, sched.Config{Workers: 2, Policy: sched.PolicyProportional, Governor: gov})
}

// stop ends the run and closes the pool, whose counters are final then.
func (g *gwStack) stop() {
	g.vm.Shutdown()
	g.run.Wait()
	if g.pool != nil {
		g.pool.Close()
	}
}

// clients runs tenants closed-loop clients of perTenant back-to-back
// sessions each, and returns when they are through. Session s serves
// s*1000+r for r < requests: RunGateway's argument sequence, so the
// checksum is the sequential gateway's.
func (g *gwStack) clients(t *testing.T, tenants, perTenant, requests int) {
	var wg sync.WaitGroup
	for ti := 0; ti < tenants; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			for s := ti * perTenant; s < (ti+1)*perTenant; s++ {
				if err := g.session(s, requests); err != nil {
					t.Errorf("session %d: %v", s, err)
					return
				}
			}
		}(ti)
	}
	wg.Wait()
}

// session provisions a tenant — a pool Acquire, retried while the pool is
// saturated, or a cold define, link and warm serve, counted as a serve but
// not in the checksum, like RunGateway's cold leg — serves its requests
// and tears it down: back to the pool, or an admin kill.
func (g *gwStack) session(s, requests int) error {
	t0 := g.vm.Clock()
	var iso *core.Isolate
	m := g.serve
	if g.pool != nil {
		var err error
		for iso, err = g.pool.Acquire(nil); errors.Is(err, serve.ErrSaturated); iso, err = g.pool.Acquire(nil) {
			time.Sleep(20 * time.Microsecond)
		}
		if err != nil {
			return err
		}
	} else {
		name := fmt.Sprintf("gw-tenant-%d", s)
		l := g.vm.Registry().NewLoader(name)
		var err error
		if iso, err = g.vm.World().NewIsolate(name, l); err != nil {
			return err
		}
		if err := l.DefineAll(GatewayClasses()); err != nil {
			return err
		}
		app, err := l.Lookup(GatewayAppClass)
		if err != nil {
			return err
		}
		if m, err = app.LookupMethod("serve", "(I)I"); err != nil {
			return err
		}
		if _, err := g.request(iso, m, 1); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	spawn := g.vm.Clock() - t0
	ticks := make([]int64, 0, requests)
	for r := 0; r < requests; r++ {
		th, err := g.request(iso, m, int64(s*1000+r))
		if err != nil {
			return fmt.Errorf("request %d: %w", r, err)
		}
		g.checksum.Add(th.Result().I)
		ticks = append(ticks, th.FinishTick()-th.SpawnTick())
	}
	g.mu.Lock()
	g.spawnTicks = append(g.spawnTicks, spawn)
	g.serveTicks = append(g.serveTicks, ticks...)
	g.mu.Unlock()
	if g.pool != nil {
		g.pool.Release(iso)
		return nil
	}
	return g.vm.KillIsolate(nil, iso)
}

// request serves arg on iso in a request thread, spawned again while the
// governor throttles iso, and waits for it.
func (g *gwStack) request(iso *core.Isolate, m *classfile.Method, arg int64) (*interp.Thread, error) {
	args := []heap.Value{heap.IntVal(arg)}
	th, err := g.vm.SpawnThread("gw-req", iso, m, args)
	for ; errors.Is(err, core.ErrThrottled); th, err = g.vm.SpawnThread("gw-req", iso, m, args) {
		time.Sleep(50 * time.Microsecond)
	}
	if err != nil {
		return nil, err
	}
	th.Wait()
	if th.Failure() != nil || th.Err() != nil {
		return nil, fmt.Errorf("%v / %s", th.Err(), th.FailureString())
	}
	g.serves.Add(1)
	return th, nil
}

// p99 sorts v and reads its 99th percentile the way the gateway tables do.
func p99(v []int64) int64 {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	return v[int(0.99*float64(len(v)-1))]
}

// TestGatewayConcurrentChecksumAgreesWithSequential is the differential
// oracle for the concurrent gateway: pool sessions serve the sequential
// clone gateway's request sequence, so the checksums must agree
// byte-for-byte — concurrency, pool recycling and refill order must not
// change results. Cold concurrent sessions must agree too (their warm
// serves are counted but, like the sequential cold leg's, not summed).
func TestGatewayConcurrentChecksumAgreesWithSequential(t *testing.T) {
	const tenants, perTenant, requests = 4, 2, 6
	seq, err := RunGateway(GatewayConfig{
		Mode: GatewayClone, Sessions: tenants * perTenant, Requests: requests,
		HeapLimit: 64 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, capacity := range []int{tenants, 0} {
		g := newGwStack(t, 64<<20, capacity)
		g.start(nil)
		g.clients(t, tenants, perTenant, requests)
		g.stop()
		mode := map[bool]string{true: "pool", false: "cold"}[g.pool != nil]
		if g.checksum.Load() != seq.Checksum {
			t.Fatalf("%s checksum %d != sequential clone checksum %d", mode, g.checksum.Load(), seq.Checksum)
		}
		wantServes := tenants * perTenant * requests
		if g.pool == nil {
			wantServes += tenants * perTenant // cold warm serves
		}
		if g.serves.Load() != int64(wantServes) {
			t.Fatalf("%s serves %d, want %d", mode, g.serves.Load(), wantServes)
		}
		// A pool spawn can be 0 ticks (a warm Acquire executes no guest
		// instructions); a cold spawn always pays clinit ticks.
		if p99(g.serveTicks) <= 0 || (g.pool == nil && p99(g.spawnTicks) <= 0) {
			t.Fatalf("%s: degenerate tick percentiles: spawn %v serve %v", mode, g.spawnTicks, g.serveTicks)
		}
		if g.pool != nil && g.pool.Stats().Recycled < tenants*perTenant {
			t.Fatalf("pool recycled %d sessions, want >= %d", g.pool.Stats().Recycled, tenants*perTenant)
		}
	}
}

// TestGatewayConcurrentPoolSpawnSpeedup is the acceptance gate: with 64
// in-flight tenants, provisioning from a pool sized for the load must put
// spawn p99 (virtual ticks) at least 5x under cold provisioning, which pays
// define+link+clinit per session while every other tenant's instructions
// advance the clock, and must never refuse an acquire.
func TestGatewayConcurrentPoolSpawnSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("64-tenant concurrent run in -short mode")
	}
	const tenants = 64
	var runs [2]*gwStack
	for i, capacity := range []int{0, tenants} {
		runs[i] = newGwStack(t, 128<<20, capacity)
		runs[i].start(nil)
		runs[i].clients(t, tenants, 1, 2)
		runs[i].stop()
	}
	cold, pool := runs[0], runs[1]
	coldP99, poolP99 := p99(cold.spawnTicks), p99(pool.spawnTicks)
	if coldP99 <= 0 {
		t.Fatalf("degenerate cold spawn ticks: %v", cold.spawnTicks)
	}
	// A warm Acquire can be 0 ticks; floor it at 1 so the ratio is
	// well-defined.
	if max(poolP99, 1)*5 > coldP99 {
		t.Fatalf("pool spawn p99 %d ticks not 5x under cold %d ticks", poolP99, coldP99)
	}
	if pool.checksum.Load() != cold.checksum.Load() {
		t.Fatalf("pool checksum %d != cold checksum %d", pool.checksum.Load(), cold.checksum.Load())
	}
	// Primed for the load, the pool never made a session wait: a wait
	// advances the clock by whatever the keeper runs, which the 5x gate
	// alone does not notice.
	if st := pool.pool.Stats(); st.Saturated != 0 {
		t.Fatalf("a pool primed for %d tenants refused %d acquires", tenants, st.Saturated)
	}
}

// TestGatewayConcurrentGovernedSheds: allocation-flood abusers hammering the
// pool's admission edge under a governed run are refused with
// core.ErrThrottled before any warm slot is spent, while the tenants'
// sessions complete. The run is not over until every abuser has had its
// first refusal — tenants can finish before the governor's windows reach
// the throttle stage — and an abuser still admitted 2^30 virtual ticks
// after the start fails the test.
func TestGatewayConcurrentGovernedSheds(t *testing.T) {
	const tenants, perTenant, requests, abusers = 4, 2, 4, 2
	g := newGwStack(t, 64<<20, tenants)
	isos := make([]*core.Isolate, abusers)
	for i := range isos {
		var err error
		if isos[i], err = g.vm.NewIsolate(fmt.Sprintf("gw-abuser%d", i)); err != nil {
			t.Fatal(err)
		}
		// 512-byte payloads keep the flood over the alloc criterion after
		// the deprioritize stage cuts its weight, so escalation reaches the
		// throttle stage that admission shedding keys on.
		g.spawnAttack(t, isos[i], allocFloodClasses(fmt.Sprintf("gwa/Flood%d", i), 512))
	}
	// Small windows, because most of a gateway run's ticks are host-side
	// warm-up and a throttle streak must fit the scheduler's own
	// instructions; the CPU criterion off, so only the alloc path fires;
	// a gentle stage-one weight cut, so the flood still trips the alloc
	// criterion on the way to throttle.
	gov := sched.NewGovernor(sched.GovernorConfig{
		WindowInstrs:        4096,
		CPUFactor:           100,
		SleepersMax:         8,
		AllocBytesPerWindow: 8 << 10,
		DeprioritizeAfter:   2,
		ThrottleAfter:       3,
		DeprioritizeDivisor: 2,
	})
	g.start(gov)
	deadline := g.vm.Clock() + 1<<30
	var shed sync.WaitGroup
	var unshed atomic.Int64
	for _, iso := range isos {
		shed.Add(1)
		go func(iso *core.Isolate) {
			defer shed.Done()
			for {
				got, err := g.pool.Acquire(iso)
				if err == nil {
					g.pool.Release(got) // not throttled yet: the slot goes straight back
				}
				if errors.Is(err, core.ErrThrottled) {
					return
				}
				if g.vm.Clock() > deadline {
					unshed.Add(1)
					return
				}
				time.Sleep(200 * time.Microsecond)
			}
		}(iso)
	}
	g.clients(t, tenants, perTenant, requests)
	shed.Wait()
	g.stop()
	if n := unshed.Load(); n > 0 {
		t.Fatalf("%d of %d abusers not shed within 2^30 ticks, governor %+v", n, abusers, gov.Stats())
	}
	if st := g.pool.Stats(); st.Shed == 0 {
		t.Fatalf("governed run shed no abuser admissions: %+v", st)
	}
	if n := g.serves.Load(); n != tenants*perTenant*requests {
		t.Fatalf("governed tenants served %d, want %d", n, tenants*perTenant*requests)
	}
	if gov.Stats().Throttles == 0 {
		t.Fatalf("governor never reached the throttle stage: %+v", gov.Stats())
	}
}
