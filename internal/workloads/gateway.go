package workloads

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
	"ijvm/internal/sched"
	"ijvm/internal/serve"
	"ijvm/internal/syslib"
)

// GatewayMode selects the tenant provisioning strategy for the serving
// workload: cold spawns (define + link + run the heavy clinit per tenant),
// snapshot clones (materialize a warmed isolate from a captured template),
// or clones recycled through the isolate free pool (kill, sweep, free,
// reuse ID/loader/thread slots).
type GatewayMode uint8

// Gateway provisioning modes.
const (
	GatewayCold GatewayMode = iota + 1
	GatewayClone
	GatewayRecycled
)

// String names the mode for tables and JSON keys.
func (m GatewayMode) String() string {
	switch m {
	case GatewayCold:
		return "cold"
	case GatewayClone:
		return "clone"
	case GatewayRecycled:
		return "recycled"
	default:
		return "invalid"
	}
}

// GatewayAppClass is the tenant application class name.
const GatewayAppClass = "gw/App"

// gatewayWarmIters sizes the clinit warm loop; it is what makes a cold
// spawn expensive and a snapshot clone worth taking.
const gatewayWarmIters = 20000

// gatewayRoutes are interned per tenant at warm-up; clones share them
// copy-on-write through the snapshot's string pool.
var gatewayRoutes = []string{
	"gw/route/index", "gw/route/assets", "gw/route/api/v1", "gw/route/admin",
}

// GatewayClasses builds a fresh (unlinked) copy of the tenant
// application: a heavy <clinit> that fills a 256-entry route table,
// interns the route strings, and runs a warm loop; and a light serve(I)I
// handler that walks the table and bumps a private hit counter.
func GatewayClasses() []*classfile.Class {
	app := classfile.NewClass(GatewayAppClass).
		StaticField("table", classfile.KindRef).
		StaticField("routes", classfile.KindRef).
		StaticField("hits", classfile.KindInt).
		StaticField("seed", classfile.KindInt).
		Method(classfile.ClinitName, "()V", classfile.FlagStatic, func(a *bytecode.Assembler) {
			// table = new int[256]; table[i] = i*i + 7
			a.Const(256).NewArray("").PutStatic(GatewayAppClass, "table")
			a.Const(0).IStore(0)
			a.Label("tloop")
			a.ILoad(0).Const(256).IfICmpGe("tdone")
			a.GetStatic(GatewayAppClass, "table").ILoad(0)
			a.ILoad(0).ILoad(0).IMul().Const(7).IAdd()
			a.ArrayStore()
			a.IInc(0, 1).Goto("tloop")
			a.Label("tdone")
			// routes = { interned literals }
			a.Const(int64(len(gatewayRoutes))).NewArray("").PutStatic(GatewayAppClass, "routes")
			for k, s := range gatewayRoutes {
				a.GetStatic(GatewayAppClass, "routes").Const(int64(k)).Str(s).ArrayStore()
			}
			// warm loop: seed = fold of table over gatewayWarmIters steps
			a.Const(0).IStore(1)
			a.Const(0).IStore(0)
			a.Label("wloop")
			a.ILoad(0).Const(gatewayWarmIters).IfICmpGe("wdone")
			a.ILoad(1)
			a.GetStatic(GatewayAppClass, "table").ILoad(0).Const(255).IAnd().ArrayLoad()
			a.IAdd().Const(0x7FFFFF).IAnd().IStore(1)
			a.IInc(0, 1).Goto("wloop")
			a.Label("wdone")
			a.ILoad(1).PutStatic(GatewayAppClass, "seed")
			a.Return()
		}).
		Method("serve", "(I)I", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			// x = arg; 32 table-walk steps; one small garbage allocation;
			// hits++; return x + hits (tenant-private state feeds the result).
			a.ILoad(0).IStore(1)
			a.Const(0).IStore(2)
			a.Label("sloop")
			a.ILoad(2).Const(32).IfICmpGe("sdone")
			a.ILoad(1)
			a.GetStatic(GatewayAppClass, "table").ILoad(1).Const(255).IAnd().ArrayLoad()
			a.IAdd().Const(1).IAdd().Const(0x7FFFFF).IAnd().IStore(1)
			a.IInc(2, 1).Goto("sloop")
			a.Label("sdone")
			a.Const(8).NewArray("").Pop()
			a.GetStatic(GatewayAppClass, "hits").Const(1).IAdd().PutStatic(GatewayAppClass, "hits")
			a.ILoad(1).GetStatic(GatewayAppClass, "hits").IAdd().IReturn()
		}).
		MustBuild()
	return []*classfile.Class{app}
}

// GatewayConfig parameterizes one serving run.
type GatewayConfig struct {
	Mode     GatewayMode
	Sessions int // tenants spawned sequentially (spawn/serve/kill churn)
	Requests int // serves per tenant session
	// HeapLimit bounds the VM heap (0 = 64 MiB).
	HeapLimit int64
	// FreezeShared also shares frozen warmed arrays between clones
	// (clone/recycled modes).
	FreezeShared bool
	// InstrLimit, when > 0, is the per-tenant instruction budget; a
	// session whose account exceeds it mid-serve is admin-killed early
	// (counted in LimitKills). Every 8th session is "greedy" (4x the
	// requests) so a budget between normal and greedy consumption
	// exercises enforcement deterministically.
	InstrLimit int64
}

// GatewayResult reports spawn latency and steady-state serving throughput.
//
// Measurement contract: the sequential gateway is single-threaded host
// driving — nothing else runs while a session spawns or serves — so its
// latencies are wall-clock durations (the p99 gate compares like with
// like and the 1-CPU caveat cancels out). The concurrent gateway
// (GatewayConcurrentResult) must NOT use wall clock: with N sessions in
// flight on scheduler workers, wall time measures Go runtime preemption
// of the measuring goroutine, not this system. Its latencies are virtual
// ticks (slo.go contract: 1 tick per executed instruction, 1000 ticks =
// 1 virtual ms).
type GatewayResult struct {
	Mode     string        `json:"mode"`
	Sessions int           `json:"sessions"`
	Serves   int           `json:"serves"`
	Checksum int64         `json:"checksum"`
	SpawnP50 time.Duration `json:"spawn_p50_ns"`
	SpawnP99 time.Duration `json:"spawn_p99_ns"`
	SpawnMax time.Duration `json:"spawn_max_ns"`
	// SpawnTotal is the summed tenant provisioning time.
	SpawnTotal time.Duration `json:"spawn_total_ns"`
	// ServeDuration is the summed in-session serving time.
	ServeDuration time.Duration `json:"serve_total_ns"`
	ServesPerSec  float64       `json:"serves_per_sec"`
	// RecycledIDs counts isolate slots returned to (and reused from) the
	// free pool (recycled mode only).
	RecycledIDs int `json:"recycled_ids"`
	// LimitKills counts tenants admin-killed for exceeding InstrLimit.
	LimitKills int `json:"limit_kills"`
	// GCs is the collector activation count across the run.
	GCs int64 `json:"gcs"`
}

func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

// gatewayVM builds the serving VM with a runtime Isolate0 (the gateway
// host: admin kills and GC triggers are charged to it).
func gatewayVM(cfg GatewayConfig) (*interp.VM, *core.Isolate, error) {
	limit := cfg.HeapLimit
	if limit <= 0 {
		limit = 64 << 20
	}
	vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated, HeapLimit: limit})
	if err := syslib.Install(vm); err != nil {
		return nil, nil, err
	}
	host, err := vm.World().NewIsolate("gateway", vm.Registry().NewLoader("gateway"))
	if err != nil {
		return nil, nil, err
	}
	return vm, host, nil
}

// RunGateway executes one serving run: cfg.Sessions sequential tenant
// sessions, each provisioned per cfg.Mode, served cfg.Requests times, then
// killed and swept (recycled mode additionally frees the isolate slot back
// to the pool). Spawn latencies are wall-clock per session; the serve
// window is timed separately for steady-state throughput.
func RunGateway(cfg GatewayConfig) (GatewayResult, error) {
	if cfg.Sessions <= 0 || cfg.Requests <= 0 {
		return GatewayResult{}, fmt.Errorf("gateway: need positive Sessions and Requests")
	}
	vm, host, err := gatewayVM(cfg)
	if err != nil {
		return GatewayResult{}, err
	}
	world := vm.World()
	reg := vm.Registry()

	var (
		snap  *interp.Snapshot
		serve *classfile.Method
	)
	if cfg.Mode == GatewayClone || cfg.Mode == GatewayRecycled {
		// Untimed template setup: a template loader owns the classes, a
		// warmer isolate (kept alive: snapshot pool strings pin to it)
		// runs the heavy clinit once, and the snapshot captures the
		// warmed state.
		tl := reg.NewLoader("gw-template")
		if err := tl.DefineAll(GatewayClasses()); err != nil {
			return GatewayResult{}, err
		}
		wl := reg.NewLoader("gw-warmer")
		warmer, err := world.NewIsolate("gw-warmer", wl)
		if err != nil {
			return GatewayResult{}, err
		}
		wl.AddDelegate(tl)
		app, err := tl.Lookup(GatewayAppClass)
		if err != nil {
			return GatewayResult{}, err
		}
		serve, err = app.LookupMethod("serve", "(I)I")
		if err != nil {
			return GatewayResult{}, err
		}
		if _, th, err := vm.CallRoot(warmer, serve, []heap.Value{heap.IntVal(1)}, 0); err != nil || th.Failure() != nil {
			return GatewayResult{}, fmt.Errorf("gateway warm-up: %v / %s", err, th.FailureString())
		}
		snap, err = vm.CaptureSnapshot(warmer, interp.SnapshotOptions{FreezeShared: cfg.FreezeShared})
		if err != nil {
			return GatewayResult{}, err
		}
		defer snap.Release()
	}

	res := GatewayResult{Mode: cfg.Mode.String(), Sessions: cfg.Sessions}
	spawns := make([]time.Duration, 0, cfg.Sessions)
	var worker *interp.Thread // recycled mode reuses one thread slot

	callServe := func(iso *core.Isolate, m *classfile.Method, arg int64) (heap.Value, error) {
		if cfg.Mode != GatewayRecycled {
			v, th, err := vm.CallRoot(iso, m, []heap.Value{heap.IntVal(arg)}, 0)
			if err != nil {
				return heap.Value{}, err
			}
			if th.Failure() != nil {
				return heap.Value{}, fmt.Errorf("serve failed: %s", th.FailureString())
			}
			return v, nil
		}
		if worker == nil {
			t, err := vm.SpawnThread("gw-worker", iso, m, []heap.Value{heap.IntVal(arg)})
			if err != nil {
				return heap.Value{}, err
			}
			worker = t
		} else if err := vm.RespawnThread(worker, "gw-worker", iso, m, []heap.Value{heap.IntVal(arg)}); err != nil {
			return heap.Value{}, err
		}
		vm.RunUntil(worker, 0)
		if worker.Err() != nil {
			return heap.Value{}, worker.Err()
		}
		if !worker.Done() {
			return heap.Value{}, fmt.Errorf("serve did not finish")
		}
		if worker.Failure() != nil {
			return heap.Value{}, fmt.Errorf("serve failed: %s", worker.FailureString())
		}
		return worker.Result(), nil
	}

	for s := 0; s < cfg.Sessions; s++ {
		name := fmt.Sprintf("tenant-%d", s)
		var (
			iso     *core.Isolate
			serveM  *classfile.Method
			elapsed time.Duration
		)
		switch cfg.Mode {
		case GatewayCold:
			// The whole provisioning path is the spawn: build, define,
			// link, and run the heavy clinit.
			start := time.Now()
			l := reg.NewLoader(name)
			iso, err = world.NewIsolate(name, l)
			if err != nil {
				return res, err
			}
			if err := l.DefineAll(GatewayClasses()); err != nil {
				return res, err
			}
			app, err := l.Lookup(GatewayAppClass)
			if err != nil {
				return res, err
			}
			serveM, err = app.LookupMethod("serve", "(I)I")
			if err != nil {
				return res, err
			}
			if _, terr := callServe(iso, serveM, 1); terr != nil {
				return res, terr
			}
			elapsed = time.Since(start)
			res.Serves++
		case GatewayClone, GatewayRecycled:
			start := time.Now()
			iso, err = vm.CloneIsolate(snap, name)
			if err != nil {
				return res, err
			}
			elapsed = time.Since(start)
			serveM = serve
		default:
			return res, fmt.Errorf("gateway: unknown mode %d", cfg.Mode)
		}
		spawns = append(spawns, elapsed)
		res.SpawnTotal += elapsed

		requests := cfg.Requests
		greedy := cfg.InstrLimit > 0 && s%8 == 7
		if greedy {
			requests *= 4
		}
		serveStart := time.Now()
		for r := 0; r < requests; r++ {
			v, terr := callServe(iso, serveM, int64(s*1000+r))
			if terr != nil {
				return res, terr
			}
			res.Checksum += v.I
			res.Serves++
			if cfg.InstrLimit > 0 && iso.Account().Numbers().Instructions > cfg.InstrLimit {
				res.LimitKills++
				break
			}
		}
		res.ServeDuration += time.Since(serveStart)

		// Session teardown: admin kill, sweep, and (recycled mode) return
		// the slot to the pool.
		if err := vm.KillIsolate(host, iso); err != nil {
			return res, fmt.Errorf("kill %s: %w", name, err)
		}
		vm.CollectGarbage(host)
		if cfg.Mode == GatewayRecycled && iso.Disposed() {
			if err := vm.FreeIsolate(iso); err != nil {
				return res, fmt.Errorf("free %s: %w", name, err)
			}
			res.RecycledIDs++
		}
	}

	sort.Slice(spawns, func(i, j int) bool { return spawns[i] < spawns[j] })
	res.SpawnP50 = percentile(spawns, 0.50)
	res.SpawnP99 = percentile(spawns, 0.99)
	res.SpawnMax = spawns[len(spawns)-1]
	if res.ServeDuration > 0 {
		res.ServesPerSec = float64(res.Serves) / res.ServeDuration.Seconds()
	}
	res.GCs = vm.Heap().GCCount()
	return res, nil
}

// GatewayConcurrentConfig parameterizes one concurrent serving run: N
// closed-loop tenant clients drive sessions through the scheduler at
// once, provisioned either cold (define + link + clinit per session,
// all contending on the world and registry locks) or from a pre-warmed
// serve.Pool.
type GatewayConcurrentConfig struct {
	// Tenants is the number of concurrent closed-loop clients (in-flight
	// sessions). Default 8.
	Tenants int
	// SessionsPerTenant is how many back-to-back sessions each client
	// runs. Default 1.
	SessionsPerTenant int
	// Requests is the serve count per session. Default 8.
	Requests int
	// UsePool provisions sessions from a pre-warmed clone pool instead of
	// cold spawns.
	UsePool bool
	// PoolCapacity bounds the warm set (default min(Tenants, 16)).
	PoolCapacity int
	// Workers is the scheduler worker count. Default 2.
	Workers int
	// HeapLimit bounds the VM heap (0 = 64 MiB).
	HeapLimit int64
	// FreezeShared shares frozen warmed arrays between clones.
	FreezeShared bool
	// Governed attaches a governor; with Abusers > 0 this is what sheds
	// abusive principals at the pool's admission edge.
	Governed bool
	// Governor overrides governor tuning (nil = defaults).
	Governor *sched.GovernorConfig
	// Abusers adds allocation-flood adversary isolates that also hammer
	// Acquire; once the governor throttles them the pool must shed their
	// admissions (core.ErrThrottled) without spending warm slots.
	Abusers int
}

func (c *GatewayConcurrentConfig) fill() {
	if c.Tenants <= 0 {
		c.Tenants = 8
	}
	if c.SessionsPerTenant <= 0 {
		c.SessionsPerTenant = 1
	}
	if c.Requests <= 0 {
		c.Requests = 8
	}
	if c.PoolCapacity <= 0 {
		c.PoolCapacity = c.Tenants
		if c.PoolCapacity > 16 {
			c.PoolCapacity = 16
		}
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.HeapLimit <= 0 {
		c.HeapLimit = 64 << 20
	}
}

// GatewayConcurrentResult aggregates one concurrent serving run.
//
// Latencies are virtual ticks on the VM clock (1 tick per executed
// instruction; 1000 ticks = 1 virtual ms — see VirtualMS and the slo.go
// measurement contract): a session's spawn latency is the clock
// interval its client observed across provisioning, and a request's
// serve latency is the worker-stamped FinishTick-SpawnTick interval.
// Wall clock on a small host would measure Go runtime preemption of the
// client goroutines, not how many instructions the rest of the world
// executed while this tenant waited. ServesPerSec stays wall-clock on
// purpose, like SLO goodput: it is a work-conservation number, not a
// latency.
type GatewayConcurrentResult struct {
	Mode     string `json:"mode"` // "cold" or "pool"
	Tenants  int    `json:"tenants"`
	Sessions int    `json:"sessions"`
	Serves   int    `json:"serves"`
	Checksum int64  `json:"checksum"`
	// Spawn percentiles are per-session provisioning latency in virtual
	// ticks (pool acquire vs cold define+clinit, under contention).
	SpawnP50Ticks int64 `json:"spawn_p50_ticks"`
	SpawnP99Ticks int64 `json:"spawn_p99_ticks"`
	SpawnMaxTicks int64 `json:"spawn_max_ticks"`
	// Serve percentiles are per-request latency in virtual ticks.
	ServeP50Ticks int64 `json:"serve_p50_ticks"`
	ServeP99Ticks int64 `json:"serve_p99_ticks"`
	// SaturatedRejects counts Acquire calls that got ErrSaturated (the
	// typed fail-fast admission error) before a slot freed up.
	SaturatedRejects int64 `json:"saturated_rejects"`
	// Shed counts admissions refused with core.ErrThrottled before any
	// pool slot was spent (governed abusers).
	Shed int64 `json:"shed"`
	// Recycled counts isolates whose slot was freed back through the
	// pool's teardown pipeline. Read after pool Close, so it is final:
	// every released session plus any warm clones left at shutdown.
	Recycled int64 `json:"recycled"`
	// CloneFailures counts refill clones that failed (transient heap
	// pressure; each failure is fully unwound and retried).
	CloneFailures int64         `json:"clone_failures"`
	TotalTicks    int64         `json:"total_ticks"`
	Wall          time.Duration `json:"wall_ns"`
	ServesPerSec  float64       `json:"serves_per_sec"`
	GCs           int64         `json:"gcs"`
	// Governor is the governor's counter snapshot (zero when ungoverned).
	Governor sched.GovernorStats `json:"governor"`
}

// shedBudgetTicks bounds, in virtual ticks from the scheduler's start, how
// long a governed RunGatewayConcurrent waits for the governor to throttle
// every abuser.
const shedBudgetTicks = 1 << 30

// RunGatewayConcurrent executes one concurrent serving run: the
// template is warmed and captured up front (pool mode primes the clone
// pool from it), the scheduler runs on its own goroutine with a
// weight-1 keeper holding the run open, and cfg.Tenants client
// goroutines drive sessions concurrently — provision, serve
// cfg.Requests times through spawned request threads, tear down —
// using the sanctioned live-administration pattern throughout. The
// request argument sequence matches the sequential gateway's, so a
// pool-mode run's checksum equals RunGateway's clone-mode checksum for
// Tenants*SessionsPerTenant sessions: concurrency must not change
// results.
func RunGatewayConcurrent(cfg GatewayConcurrentConfig) (GatewayConcurrentResult, error) {
	cfg.fill()
	vm, host, err := gatewayVM(GatewayConfig{HeapLimit: cfg.HeapLimit})
	if err != nil {
		return GatewayConcurrentResult{}, err
	}
	world := vm.World()
	reg := vm.Registry()
	res := GatewayConcurrentResult{
		Mode:    "cold",
		Tenants: cfg.Tenants,
	}
	if cfg.UsePool {
		res.Mode = "pool"
	}

	// Keeper: the gateway host (Isolate0, governance-exempt) spins at
	// weight 1 so the scheduler never quiesces between sessions.
	host.SetWeight(1)
	if err := host.Loader().Define(spinForeverClasses("gw/Keeper")); err != nil {
		return res, err
	}
	kc, err := host.Loader().Lookup("gw/Keeper")
	if err != nil {
		return res, err
	}
	km, err := kc.LookupMethod("attack", "()V")
	if err != nil {
		return res, err
	}
	if _, err := vm.SpawnThread("gw-keeper", host, km, nil); err != nil {
		return res, err
	}

	// Template warm-up and capture happen before the scheduler starts
	// (CallRoot drives the sequential engine). Cold mode needs no
	// snapshot but shares the rest of the setup.
	var (
		snap   *interp.Snapshot
		serveM *classfile.Method
		pool   *serve.Pool
	)
	if cfg.UsePool {
		tl := reg.NewLoader("gw-template")
		if err := tl.DefineAll(GatewayClasses()); err != nil {
			return res, err
		}
		wl := reg.NewLoader("gw-warmer")
		warmer, err := world.NewIsolate("gw-warmer", wl)
		if err != nil {
			return res, err
		}
		wl.AddDelegate(tl)
		app, err := tl.Lookup(GatewayAppClass)
		if err != nil {
			return res, err
		}
		serveM, err = app.LookupMethod("serve", "(I)I")
		if err != nil {
			return res, err
		}
		if _, th, err := vm.CallRoot(warmer, serveM, []heap.Value{heap.IntVal(1)}, 0); err != nil || th.Failure() != nil {
			return res, fmt.Errorf("gateway warm-up: %v / %s", err, th.FailureString())
		}
		snap, err = vm.CaptureSnapshot(warmer, interp.SnapshotOptions{FreezeShared: cfg.FreezeShared})
		if err != nil {
			return res, err
		}
		defer snap.Release()
		pool, err = serve.NewPool(vm, snap, serve.Config{Capacity: cfg.PoolCapacity, NamePrefix: "gw-pooled"})
		if err != nil {
			return res, err
		}
		defer pool.Close()
	}

	// Abusers: allocation-flood adversaries, threads pre-spawned so the
	// governor sees their burn from the first window.
	abusers := make([]*core.Isolate, 0, cfg.Abusers)
	for i := 0; i < cfg.Abusers; i++ {
		iso, err := vm.NewIsolate(fmt.Sprintf("gw-abuser%d", i))
		if err != nil {
			return res, err
		}
		// 512-byte payloads: the flood must stay over the governor's
		// alloc criterion even after the deprioritize stage cuts its
		// scheduling weight, so escalation reliably reaches the throttle
		// stage the pool's admission shedding keys on.
		cn := fmt.Sprintf("gwa/Flood%d", i)
		if err := iso.Loader().Define(allocFloodClasses(cn, 512)); err != nil {
			return res, err
		}
		c, err := iso.Loader().Lookup(cn)
		if err != nil {
			return res, err
		}
		m, err := c.LookupMethod("attack", "()V")
		if err != nil {
			return res, err
		}
		if _, err := vm.SpawnThread(fmt.Sprintf("gw-abuse%d", i), iso, m, nil); err != nil {
			return res, err
		}
		abusers = append(abusers, iso)
	}

	var gov *sched.Governor
	if cfg.Governed {
		gcfg := sched.GovernorConfig{}
		if cfg.Governor != nil {
			gcfg = *cfg.Governor
		}
		gov = sched.NewGovernor(gcfg)
	}
	resCh := make(chan interp.RunResult, 1)
	go func() {
		resCh <- sched.RunConfig(vm, sched.Config{
			Workers:  cfg.Workers,
			Policy:   sched.PolicyProportional,
			Governor: gov,
		})
	}()
	sched.AwaitStart(vm)

	// Abuser admission clients: hammer Acquire so throttle-stage shedding
	// is observable at the admission edge. Pre-throttle admissions give
	// the slot straight back. In a governed run each abuser also records
	// its first admission refused with core.ErrThrottled (shedWG), and the
	// run is not over until every abuser has one: the tenants can finish
	// before the governor's windows reach the throttle stage. An abuser
	// still unshed shedBudgetTicks of virtual time after the start gives
	// up (unshed) and the run fails.
	stopAbuse := make(chan struct{})
	var abuseWG, shedWG sync.WaitGroup
	var unshed atomic.Int64
	shedDeadline := vm.Clock() + shedBudgetTicks
	if pool != nil {
		for _, iso := range abusers {
			abuseWG.Add(1)
			awaitShed := gov != nil
			if awaitShed {
				shedWG.Add(1)
			}
			go func(iso *core.Isolate) {
				defer abuseWG.Done()
				for {
					select {
					case <-stopAbuse:
						return
					default:
					}
					got, err := pool.Acquire(iso)
					if err == nil {
						pool.Release(got)
					}
					if shed := errors.Is(err, core.ErrThrottled); awaitShed && (shed || vm.Clock() > shedDeadline) {
						if !shed {
							unshed.Add(1)
						}
						awaitShed = false
						shedWG.Done()
					}
					time.Sleep(200 * time.Microsecond)
				}
			}(iso)
		}
	}

	var (
		checksum  atomic.Int64
		serves    atomic.Int64
		spawnMu   sync.Mutex
		spawnLats []int64
		serveLats []int64
		clientErr atomic.Pointer[error]
		wg        sync.WaitGroup
	)
	fail := func(err error) { clientErr.CompareAndSwap(nil, &err) }
	start := time.Now()
	for ti := 0; ti < cfg.Tenants; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			mySpawn := make([]int64, 0, cfg.SessionsPerTenant)
			myServe := make([]int64, 0, cfg.SessionsPerTenant*cfg.Requests)
			for s := 0; s < cfg.SessionsPerTenant; s++ {
				session := ti*cfg.SessionsPerTenant + s
				var (
					iso *core.Isolate
					m   *classfile.Method
				)
				t0 := vm.Clock()
				if cfg.UsePool {
					for attempt := 0; ; attempt++ {
						got, err := pool.Acquire(nil)
						if err == nil {
							iso = got
							break
						}
						if !errors.Is(err, serve.ErrSaturated) {
							fail(fmt.Errorf("session %d acquire: %w", session, err))
							return
						}
						if attempt > 1<<20 {
							fail(fmt.Errorf("session %d: pool never refilled", session))
							return
						}
						time.Sleep(20 * time.Microsecond)
					}
					m = serveM
				} else {
					name := fmt.Sprintf("gw-tenant-%d", session)
					l := reg.NewLoader(name)
					var err error
					iso, err = world.NewIsolate(name, l)
					if err != nil {
						fail(err)
						return
					}
					if err := l.DefineAll(GatewayClasses()); err != nil {
						fail(err)
						return
					}
					app, err := l.Lookup(GatewayAppClass)
					if err != nil {
						fail(err)
						return
					}
					m, err = app.LookupMethod("serve", "(I)I")
					if err != nil {
						fail(err)
						return
					}
					// The warm serve runs the heavy clinit on a scheduler
					// worker; like the sequential cold leg, it is part of
					// the spawn and excluded from the checksum.
					th, err := vm.SpawnThread(name+":warm", iso, m, []heap.Value{heap.IntVal(1)})
					if err != nil {
						fail(err)
						return
					}
					for !th.Done() {
						time.Sleep(20 * time.Microsecond)
					}
					if th.Failure() != nil || th.Err() != nil {
						fail(fmt.Errorf("session %d warm-up: %v / %s", session, th.Err(), th.FailureString()))
						return
					}
					serves.Add(1)
				}
				mySpawn = append(mySpawn, vm.Clock()-t0)

				for r := 0; r < cfg.Requests; r++ {
					arg := int64(session*1000 + r)
					var th *interp.Thread
					for attempt := 0; ; attempt++ {
						var err error
						th, err = vm.SpawnThread(fmt.Sprintf("gw-req-%d-%d", session, r), iso, m,
							[]heap.Value{heap.IntVal(arg)})
						if err == nil {
							break
						}
						if !errors.Is(err, core.ErrThrottled) || attempt > 1<<20 {
							fail(fmt.Errorf("session %d request %d: %w", session, r, err))
							return
						}
						time.Sleep(50 * time.Microsecond)
					}
					for !th.Done() {
						time.Sleep(20 * time.Microsecond)
					}
					if th.Failure() != nil || th.Err() != nil {
						fail(fmt.Errorf("session %d request %d: %v / %s", session, r, th.Err(), th.FailureString()))
						return
					}
					myServe = append(myServe, th.FinishTick()-th.SpawnTick())
					checksum.Add(th.Result().I)
					serves.Add(1)
				}

				// Teardown: pool sessions return through the recycling
				// pipeline; cold corpses are admin-killed and left to the
				// pressure collector.
				if cfg.UsePool {
					pool.Release(iso)
				} else if err := vm.KillIsolate(nil, iso); err != nil {
					fail(fmt.Errorf("session %d kill: %w", session, err))
					return
				}
			}
			spawnMu.Lock()
			spawnLats = append(spawnLats, mySpawn...)
			serveLats = append(serveLats, myServe...)
			spawnMu.Unlock()
		}(ti)
	}
	wg.Wait()
	res.Wall = time.Since(start)
	shedWG.Wait()
	close(stopAbuse)
	abuseWG.Wait()
	res.TotalTicks = vm.Clock()
	vm.Shutdown()
	<-resCh
	if pool != nil {
		// Close first: it drains the dead list through the teardown
		// pipeline, so the recycled counter is final rather than a
		// point-in-time race with the background refiller.
		pool.Close()
		st := pool.Stats()
		res.SaturatedRejects = st.Saturated
		res.Shed = st.Shed
		res.Recycled = st.Recycled
		res.CloneFailures = st.CloneFailures
	}
	if errp := clientErr.Load(); errp != nil {
		return res, *errp
	}
	if n := unshed.Load(); n > 0 {
		return res, fmt.Errorf("governed run: %d of %d abusers not shed within %d ticks, governor %+v",
			n, len(abusers), shedBudgetTicks, gov.Stats())
	}

	res.Sessions = cfg.Tenants * cfg.SessionsPerTenant
	res.Serves = int(serves.Load())
	res.Checksum = checksum.Load()
	sortInt64(spawnLats)
	sortInt64(serveLats)
	res.SpawnP50Ticks = pctTicks(spawnLats, 0.50)
	res.SpawnP99Ticks = pctTicks(spawnLats, 0.99)
	if n := len(spawnLats); n > 0 {
		res.SpawnMaxTicks = spawnLats[n-1]
	}
	res.ServeP50Ticks = pctTicks(serveLats, 0.50)
	res.ServeP99Ticks = pctTicks(serveLats, 0.99)
	if res.Wall > 0 {
		res.ServesPerSec = float64(res.Serves) / res.Wall.Seconds()
	}
	res.GCs = vm.Heap().GCCount()
	if gov != nil {
		res.Governor = gov.Stats()
	}
	return res, nil
}

func sortInt64(v []int64) {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
}

func pctTicks(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(p*float64(len(sorted)-1))]
}
