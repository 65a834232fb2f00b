// slo.go is the adversarial SLO harness: N well-behaved tenant isolates
// serve closed-loop requests while §4.3-style attackers (CPU spinners,
// allocation floods, monitor hogs, cross-isolate call floods) run beside
// them on the concurrent scheduler. The harness runs one scheduling leg
// per configuration — round-robin vs proportional-share, governed vs
// not — and reports tail-latency percentiles and goodput, turning the
// attack suite from a pass/fail gate into a continuous isolation-quality
// metric.
//
// Latency is measured on the VM's virtual clock (1 tick per executed
// instruction; 1000 ticks = 1 virtual millisecond, the syslib
// currentTimeMillis convention), stamped by the worker that finishes the
// request thread. Wall-clock latency on a host with few CPUs measures Go
// runtime goroutine scheduling — the completion-poll goroutine can wait
// ~10ms for a sysmon preemption while VM workers saturate GOMAXPROCS —
// whereas virtual-clock latency measures exactly what the VM scheduler
// controls: how many instructions the rest of the world executed while a
// tenant request waited and ran.
package workloads

import (
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
	"ijvm/internal/syslib"
)

// AttackerKind names one adversarial tenant in the SLO harness.
type AttackerKind string

// Attacker kinds (the §4.3 classes expressible under the concurrent
// scheduler; RPC-hub floods need the sequential engine and are covered
// by the rpc package's own saturation tests).
const (
	// AttackSpin is the A6 standalone infinite loop: one thread burning
	// CPU forever.
	AttackSpin AttackerKind = "spin"
	// AttackAllocFlood allocates garbage arrays as fast as possible
	// (A1/A4 style memory and GC-churn pressure).
	AttackAllocFlood AttackerKind = "allocflood"
	// AttackMonitorHog spawns threads that sleep forever (A5/A7 style
	// thread and sleeper-slot exhaustion), then spins.
	AttackMonitorHog AttackerKind = "monitorhog"
	// AttackCallFlood hammers cross-isolate static calls into a second
	// attacker-owned isolate (migration churn + CPU dominance).
	AttackCallFlood AttackerKind = "callflood"
)

// AllAttackers lists every attacker kind in presentation order.
func AllAttackers() []AttackerKind {
	return []AttackerKind{AttackSpin, AttackAllocFlood, AttackMonitorHog, AttackCallFlood}
}

// SLOConfig sizes one SLO harness leg.
type SLOConfig struct {
	// Tenants is the number of well-behaved tenant isolates (each gets
	// one closed-loop client goroutine). Default 4.
	Tenants int
	// RequestsPerTenant is the per-tenant request count. Default 50.
	RequestsPerTenant int
	// WorkIters is the tenant request cost in spin-loop iterations
	// (~5 instructions each). Default 2000.
	WorkIters int
	// Attackers selects the adversarial tenants running beside the
	// well-behaved ones (empty = no-attack baseline).
	Attackers []AttackerKind
	// RoundRobin selects the FIFO baseline scheduler leg instead of
	// proportional share.
	RoundRobin bool
	// Governed attaches a governor (admission control / load shedding).
	Governed bool
	// Governor overrides the governor tuning (nil = defaults); only
	// meaningful with Governed.
	Governor *sched.GovernorConfig
	// Workers is the scheduler worker count. Default 2.
	Workers int
}

// The SLO VM's heap size and thread population bound.
const (
	sloHeapLimit  = 32 << 20
	sloMaxThreads = 256
)

func (c *SLOConfig) fill() {
	if c.Tenants <= 0 {
		c.Tenants = 4
	}
	if c.RequestsPerTenant <= 0 {
		c.RequestsPerTenant = 50
	}
	if c.WorkIters <= 0 {
		c.WorkIters = 2000
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
}

// AttackerFate is one attacker's end-of-run condition.
type AttackerFate struct {
	Kind AttackerKind
	// Stage is the governor's final escalation stage for the attacker
	// (StageNormal when ungoverned).
	Stage sched.Stage
	// Killed reports the isolate was dead when the run ended.
	Killed bool
	// Instructions the attacker's isolate executed (its obtained CPU).
	Instructions int64
}

// SLOResult aggregates one leg of the SLO harness.
type SLOResult struct {
	Requests  int   // issued tenant requests
	Completed int64 // requests that finished with the right result
	Failed    int64 // requests lost (spawn refused, wrong result, attacker damage)
	Wall      time.Duration
	// P50/P99/P999 are tenant request latencies in virtual ticks
	// (spawn to finish on the VM clock; 1000 ticks = 1 virtual ms).
	P50, P99, P999 int64
	// TotalTicks is the VM clock at the end of the leg.
	TotalTicks int64
	// Goodput is completed tenant requests per second of wall time.
	// (Virtual-time goodput would penalize work conservation: between
	// closed-loop requests the scheduler rightly hands the CPU to
	// whoever is runnable, advancing the clock without tenant work.)
	Goodput float64
	// TenantInstructions / AttackerInstructions split the executed
	// instructions between the well-behaved and adversarial tenants
	// (the obtained-share view of proportional fairness).
	TenantInstructions   int64
	AttackerInstructions int64
	// Governor is the governor's counter snapshot (zero when
	// ungoverned).
	Governor sched.GovernorStats
	// Attackers reports each adversarial tenant's fate.
	Attackers []AttackerFate
}

// VirtualMS renders a tick latency as virtual milliseconds.
func VirtualMS(ticks int64) string {
	return fmt.Sprintf("%.2fvms", float64(ticks)/1000)
}

func (r *SLOResult) String() string {
	return fmt.Sprintf("slo: %d req, %d ok / %d failed, p50=%s p99=%s p999=%s, %.1f req/s, tenant/attacker instrs %d/%d",
		r.Requests, r.Completed, r.Failed, VirtualMS(r.P50), VirtualMS(r.P99), VirtualMS(r.P999),
		r.Goodput, r.TenantInstructions, r.AttackerInstructions)
}

// tenantClasses builds the tenant service: work(n) burns n loop
// iterations and returns n (checkable result).
func tenantClasses(cn string) *classfile.Class {
	return classfile.NewClass(cn).
		Method("work", "(I)I", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.Const(0).IStore(1)
			a.Label("loop")
			a.ILoad(1).ILoad(0).IfICmpGe("done")
			a.IInc(1, 1).Goto("loop")
			a.Label("done")
			a.ILoad(0).IReturn()
		}).MustBuild()
}

// spinForeverClasses builds the A6-style spinner (also the keeper that
// holds the run open in the no-attack baseline).
func spinForeverClasses(cn string) *classfile.Class {
	return classfile.NewClass(cn).
		Method("attack", "()V", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.Const(0).IStore(0)
			a.Label("loop")
			a.IInc(0, 1)
			a.Goto("loop")
		}).MustBuild()
}

// allocFloodClasses builds the garbage-flood attacker: an endless loop
// allocating len-element Object[] arrays and dropping them.
func allocFloodClasses(cn string, arrLen int) *classfile.Class {
	return classfile.NewClass(cn).
		Method("attack", "()V", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.Label("loop")
			a.Const(int64(arrLen)).NewArray(classfile.ObjectClassName).Pop()
			a.Goto("loop")
		}).MustBuild()
}

// monitorHogClasses builds the sleeper-spawn attacker: attack(n) starts
// n guest threads that sleep forever (catching the refusal once the
// governor throttles or the thread limit bites), then spins.
func monitorHogClasses(cn string) []*classfile.Class {
	sleeper := cn + "$Sleeper"
	s := classfile.NewClass(sleeper).
		Method(classfile.InitName, "()V", classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.ALoad(0).InvokeSpecial(classfile.ObjectClassName, classfile.InitName, "()V").Return()
		}).
		Method("run", "()V", classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.Const(0).InvokeStatic("java/lang/Thread", "sleep", "(I)V").Return()
		}).MustBuild()
	h := classfile.NewClass(cn).
		Method("attack", "(I)V", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.Const(0).IStore(1)
			a.Label("loop")
			a.ILoad(1).ILoad(0).IfICmpGe("spin")
			a.Label("try")
			a.New(sleeper).Dup().InvokeSpecial(sleeper, classfile.InitName, "()V").AStore(2)
			a.New("java/lang/Thread").Dup().ALoad(2).
				InvokeSpecial("java/lang/Thread", classfile.InitName, "(Ljava/lang/Object;)V").AStore(3)
			a.ALoad(3).InvokeVirtual("java/lang/Thread", "start", "()V")
			a.Label("endtry")
			a.IInc(1, 1).Goto("loop")
			// A refused spawn (throttle, thread limit) ends the spawn
			// phase; the hog keeps burning CPU either way.
			a.Label("catch")
			a.Pop().Goto("spin")
			a.Label("spin")
			a.Const(0).IStore(1)
			a.Label("spinloop")
			a.IInc(1, 1).Goto("spinloop")
			a.Handler("try", "endtry", "catch", "java/lang/Throwable")
		}).MustBuild()
	return []*classfile.Class{s, h}
}

// callFloodClasses builds the cross-isolate call flood: main's attack()
// loops invoking peerCn.ping(x) (defined in a second attacker-owned
// isolate), migrating the thread on every call and return.
func callFloodClasses(cn, peerCn string) (main, peer *classfile.Class) {
	peer = classfile.NewClass(peerCn).
		Method("ping", "(I)I", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.ILoad(0).Const(1).IAdd().IReturn()
		}).MustBuild()
	main = classfile.NewClass(cn).
		Method("attack", "()V", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.Const(0).IStore(0)
			a.Label("loop")
			a.ILoad(0).InvokeStatic(peerCn, "ping", "(I)I").IStore(0)
			a.Goto("loop")
		}).MustBuild()
	return main, peer
}

// governorSettleWindows is how many governor windows a governed leg lasts
// at least: the priming window, the default ladder (2 hot windows to
// deprioritize, 3 to throttle, 6 critical to kill) and as many again for
// an attacker that needs a few windows to become hot (the monitor hog
// parks its sleepers first). governorSettleTimeout bounds the wait.
const (
	governorSettleWindows = 16
	governorSettleTimeout = 5 * time.Second
)

// RunSLO executes one leg of the adversarial SLO harness and returns
// its latency/goodput aggregate. The scheduler runs on its own
// goroutine while host-side closed-loop clients spawn tenant request
// threads and poll their completion — the sanctioned live-administration
// pattern (observe the run via TotalInstructions before administering).
func RunSLO(cfg SLOConfig) (*SLOResult, error) {
	cfg.fill()
	vm := interp.NewVM(interp.Options{
		Mode:       core.ModeIsolated,
		HeapLimit:  sloHeapLimit,
		MaxThreads: sloMaxThreads,
	})
	syslib.MustInstall(vm)

	// The keeper is created first so it becomes Isolate0, the OSGi
	// runtime: exempt from governance, unkillable, and the governor's
	// killer credential for the §3.3 path. At weight 1 it only consumes
	// CPU nobody else wants; its spin holds the run open (the scheduler
	// never quiesces to AllDone between tenant requests) until Shutdown.
	keeperIso, err := vm.NewIsolate("keeper")
	if err != nil {
		return nil, err
	}
	keeperIso.SetWeight(1)
	if err := keeperIso.Loader().Define(spinForeverClasses("slo/Keeper")); err != nil {
		return nil, err
	}
	kc, err := keeperIso.Loader().Lookup("slo/Keeper")
	if err != nil {
		return nil, err
	}
	km, err := kc.LookupMethod("attack", "()V")
	if err != nil {
		return nil, err
	}
	if _, err := vm.SpawnThread("keeper", keeperIso, km, nil); err != nil {
		return nil, err
	}

	// Tenants: interactive class, default weight.
	type tenant struct {
		iso  *core.Isolate
		work *classfile.Method
	}
	tenants := make([]*tenant, cfg.Tenants)
	for i := range tenants {
		iso, err := vm.NewIsolate(fmt.Sprintf("tenant%d", i))
		if err != nil {
			return nil, err
		}
		cn := fmt.Sprintf("slo/Tenant%d", i)
		if err := iso.Loader().Define(tenantClasses(cn)); err != nil {
			return nil, err
		}
		c, err := iso.Loader().Lookup(cn)
		if err != nil {
			return nil, err
		}
		m, err := c.LookupMethod("work", "(I)I")
		if err != nil {
			return nil, err
		}
		iso.SetQoS(core.QoSInteractive)
		tenants[i] = &tenant{iso: iso, work: m}
	}

	// Attackers: one isolate per kind (call floods get a second,
	// attacker-owned peer isolate), threads pre-spawned.
	type attacker struct {
		kind AttackerKind
		iso  *core.Isolate
	}
	attackers := make([]*attacker, 0, len(cfg.Attackers))
	for i, kind := range cfg.Attackers {
		iso, err := vm.NewIsolate(fmt.Sprintf("attacker%d-%s", i, kind))
		if err != nil {
			return nil, err
		}
		cn := fmt.Sprintf("atk/Attack%d", i)
		var entry string
		var args []heap.Value
		switch kind {
		case AttackSpin:
			if err := iso.Loader().Define(spinForeverClasses(cn)); err != nil {
				return nil, err
			}
			entry = "()V"
		case AttackAllocFlood:
			if err := iso.Loader().Define(allocFloodClasses(cn, 64)); err != nil {
				return nil, err
			}
			entry = "()V"
		case AttackMonitorHog:
			if err := iso.Loader().DefineAll(monitorHogClasses(cn)); err != nil {
				return nil, err
			}
			entry = "(I)V"
			// Target half the thread table: enough to trip any sleeper
			// gauge many times over, but never enough to wedge the VM —
			// an exhausted global table would turn every leg (including
			// the ungoverned baseline) into a deadlock instead of a
			// latency measurement.
			args = []heap.Value{heap.IntVal(sloMaxThreads / 2)}
		case AttackCallFlood:
			peerIso, err := vm.NewIsolate(fmt.Sprintf("attacker%d-peer", i))
			if err != nil {
				return nil, err
			}
			peerCn := fmt.Sprintf("atkpeer/Peer%d", i)
			mainC, peerC := callFloodClasses(cn, peerCn)
			if err := peerIso.Loader().Define(peerC); err != nil {
				return nil, err
			}
			iso.Loader().AddDelegate(peerIso.Loader())
			if err := iso.Loader().Define(mainC); err != nil {
				return nil, err
			}
			entry = "()V"
		default:
			return nil, fmt.Errorf("slo: unknown attacker kind %q", kind)
		}
		c, err := iso.Loader().Lookup(cn)
		if err != nil {
			return nil, err
		}
		m, err := c.LookupMethod("attack", entry)
		if err != nil {
			return nil, err
		}
		if _, err := vm.SpawnThread(fmt.Sprintf("atk:%s", kind), iso, m, args); err != nil {
			return nil, err
		}
		attackers = append(attackers, &attacker{kind: kind, iso: iso})
	}

	var gov *sched.Governor
	if cfg.Governed {
		gcfg := sched.GovernorConfig{}
		if cfg.Governor != nil {
			gcfg = *cfg.Governor
		}
		gov = sched.NewGovernor(gcfg)
	}
	policy := sched.PolicyProportional
	if cfg.RoundRobin {
		policy = sched.PolicyRoundRobin
	}

	resCh := make(chan interp.RunResult, 1)
	go func() {
		resCh <- sched.RunConfig(vm, sched.Config{
			Workers:  cfg.Workers,
			Policy:   policy,
			Governor: gov,
		})
	}()
	sched.AwaitStart(vm)

	var completed, failed int64
	latMu := sync.Mutex{}
	lats := make([]int64, 0, cfg.Tenants*cfg.RequestsPerTenant)
	start := time.Now()
	var wg sync.WaitGroup
	for ti, tn := range tenants {
		wg.Add(1)
		go func(ti int, tn *tenant) {
			defer wg.Done()
			myLats := make([]int64, 0, cfg.RequestsPerTenant)
			for r := 0; r < cfg.RequestsPerTenant; r++ {
				th, err := vm.SpawnThread(fmt.Sprintf("req:t%d-%d", ti, r), tn.iso, tn.work,
					[]heap.Value{heap.IntVal(int64(cfg.WorkIters))})
				if err != nil {
					atomic.AddInt64(&failed, 1)
					continue
				}
				// The latency is the worker-stamped virtual interval, not
				// when this goroutine got to run again.
				th.Wait()
				lat := th.FinishTick() - th.SpawnTick()
				if th.Failure() != nil || th.Err() != nil || th.Result().I != int64(cfg.WorkIters) {
					atomic.AddInt64(&failed, 1)
					continue
				}
				atomic.AddInt64(&completed, 1)
				myLats = append(myLats, lat)
			}
			latMu.Lock()
			lats = append(lats, myLats...)
			latMu.Unlock()
		}(ti, tn)
	}
	wg.Wait()
	wall := time.Since(start)
	totalTicks := vm.Clock()
	// A governed leg stays open, tenants idle, until the governor has
	// sampled governorSettleWindows windows: the attackers' fates are part
	// of the result, and a leg of a few requests is over in a millisecond,
	// before the ladder's consecutive-window streaks fit. The keeper
	// spins, so windows keep passing; latencies, wall time and the clock
	// were taken above.
	if gov != nil {
		for deadline := time.Now().Add(governorSettleTimeout); gov.Stats().Ticks < governorSettleWindows && time.Now().Before(deadline); {
			time.Sleep(50 * time.Microsecond)
		}
	}
	vm.Shutdown()
	runRes := <-resCh

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) int64 {
		if len(lats) == 0 {
			return 0
		}
		i := int(p * float64(len(lats)-1))
		return lats[i]
	}
	res := &SLOResult{
		Requests:   cfg.Tenants * cfg.RequestsPerTenant,
		Completed:  completed,
		Failed:     failed,
		Wall:       wall,
		P50:        pct(0.50),
		P99:        pct(0.99),
		P999:       pct(0.999),
		TotalTicks: totalTicks,
	}
	if wall > 0 {
		res.Goodput = float64(completed) / wall.Seconds()
	}
	if gov != nil {
		res.Governor = gov.Stats()
	}
	attackerByIso := make(map[string]*attacker, len(attackers))
	for _, a := range attackers {
		attackerByIso[a.iso.Name()] = a
	}
	for _, ir := range runRes.PerIsolate {
		if a, ok := attackerByIso[ir.Name]; ok {
			fate := AttackerFate{Kind: a.kind, Killed: ir.Killed, Instructions: ir.Instructions}
			if gov != nil {
				fate.Stage = gov.StageOf(a.iso)
			}
			res.Attackers = append(res.Attackers, fate)
			res.AttackerInstructions += ir.Instructions
			continue
		}
		for _, tn := range tenants {
			if tn.iso.Name() == ir.Name {
				res.TenantInstructions += ir.Instructions
				break
			}
		}
	}
	// Call-flood peers are attacker CPU too.
	for _, ir := range runRes.PerIsolate {
		if len(ir.Name) > 5 && ir.Name[len(ir.Name)-5:] == "-peer" {
			res.AttackerInstructions += ir.Instructions
		}
	}
	return res, nil
}
