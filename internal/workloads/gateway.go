package workloads

import (
	"fmt"
	"sort"
	"time"

	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
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
}

// GatewayResult reports spawn latency and steady-state serving throughput.
//
// Measurement contract: the sequential gateway is single-threaded host
// driving — nothing else runs while a session spawns or serves — so its
// latencies are wall-clock durations (the p99 gate compares like with
// like and the 1-CPU caveat cancels out). A concurrent gateway (bench/
// tenant_gateway, the TestGatewayConcurrent* tests) must NOT use wall
// clock: with N sessions in flight on scheduler workers, wall time
// measures Go runtime preemption of the measuring goroutine, not this
// system. Its latencies are virtual ticks (slo.go contract: 1 tick per
// executed instruction, 1000 ticks = 1 virtual ms).
type GatewayResult struct {
	Mode     string        `json:"mode"`
	Sessions int           `json:"sessions"`
	Serves   int           `json:"serves"`
	Checksum int64         `json:"checksum"`
	SpawnP50 time.Duration `json:"spawn_p50_ns"`
	SpawnP99 time.Duration `json:"spawn_p99_ns"`
	// ServeDuration is the summed in-session serving time.
	ServeDuration time.Duration `json:"serve_total_ns"`
	ServesPerSec  float64       `json:"serves_per_sec"`
	// RecycledIDs counts isolate slots returned to (and reused from) the
	// free pool (recycled mode only).
	RecycledIDs int `json:"recycled_ids"`
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

// gatewayTemplate is the untimed setup of clone provisioning: a template
// loader owns the classes, a warmer isolate (kept alive: snapshot pool
// strings pin to it) runs the heavy clinit once, and the snapshot captures
// the warmed state. It returns the snapshot and the template's serve.
func gatewayTemplate(vm *interp.VM) (*interp.Snapshot, *classfile.Method, error) {
	tl := vm.Registry().NewLoader("gw-template")
	if err := tl.DefineAll(GatewayClasses()); err != nil {
		return nil, nil, err
	}
	wl := vm.Registry().NewLoader("gw-warmer")
	warmer, err := vm.World().NewIsolate("gw-warmer", wl)
	if err != nil {
		return nil, nil, err
	}
	wl.AddDelegate(tl)
	app, err := tl.Lookup(GatewayAppClass)
	if err != nil {
		return nil, nil, err
	}
	serve, err := app.LookupMethod("serve", "(I)I")
	if err != nil {
		return nil, nil, err
	}
	if _, th, err := vm.CallRoot(warmer, serve, []heap.Value{heap.IntVal(1)}, 0); err != nil || th.Failure() != nil {
		return nil, nil, fmt.Errorf("gateway warm-up: %v / %s", err, th.FailureString())
	}
	snap, err := vm.CaptureSnapshot(warmer, interp.SnapshotOptions{})
	if err != nil {
		return nil, nil, err
	}
	return snap, serve, nil
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
		if snap, serve, err = gatewayTemplate(vm); err != nil {
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

		serveStart := time.Now()
		for r := 0; r < cfg.Requests; r++ {
			v, terr := callServe(iso, serveM, int64(s*1000+r))
			if terr != nil {
				return res, terr
			}
			res.Checksum += v.I
			res.Serves++
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
	if res.ServeDuration > 0 {
		res.ServesPerSec = float64(res.Serves) / res.ServeDuration.Seconds()
	}
	return res, nil
}
