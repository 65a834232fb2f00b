package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
	"ijvm/internal/sched"
	"ijvm/internal/serve"
	paper "ijvm/internal/workloads"
)

var tenantGateway = workloadDef{
	name: "tenant_gateway",
	why: "multi-tenant: a cold-vs-clone spawn/serve/teardown ladder, 2 closed-loop clients on a 16-slot serve.Pool behind 2 workers, " +
		"then the same beside 4 attackers; serve, clone, sched and loader do the work",
	setup: setupTenantGateway,
}

const (
	gatewayRequests = 16  // serves per session
	gatewayClients  = 2   // closed-loop clients of the pool phases
	gatewayWorkers  = 2   // scheduler workers
	poolCapacity    = 16  // warm clones
	sessionTable    = 64  // distinct session argument sets; session s uses s % sessionTable
	gatewayThreads  = 256 // VM thread table; the monitor hog parks half of it
	// Window shares of the three phases.
	ladderShare, poolShare = 0.30, 0.35
	// Side legs of the traced run.
	refillSamples = 20
	schedRounds   = 12
	schedIsolates = 8
	schedIters    = 100_000
	// pollEvery is how often a client looks at its request threads; the
	// latency itself is the worker-stamped virtual interval.
	pollEvery = 20 * time.Microsecond
	// requestTimeout bounds the wait for one request thread, so a starved
	// request fails its session instead of hanging the run.
	requestTimeout = 5 * time.Second
	// minSessions is how many sessions each client runs even when the
	// phase's share of a very short window is already spent.
	minSessions = 3
	// acquireTimeout is how long a client retries a refused Acquire.
	acquireTimeout = time.Second
)

// gateway is one serving VM: a host isolate, a warmed template captured
// as a snapshot, and (for the pool phases) a primed clone pool.
type gateway struct {
	vm    *interp.VM
	host  *core.Isolate
	snap  *interp.Snapshot
	serve *classfile.Method
	pool  *serve.Pool
}

func newGateway(h *harness, withPool bool) (*gateway, error) {
	vm, err := newVM(interp.Options{Mode: core.ModeIsolated, HeapLimit: 64 << 20, MaxThreads: gatewayThreads})
	if err != nil {
		return nil, err
	}
	g := &gateway{vm: vm}
	// The host is created first so it is Isolate0: exempt from governance
	// and the credential for admin kills.
	if g.host, err = vm.NewIsolate("gateway"); err != nil {
		return nil, err
	}
	reg, world := vm.Registry(), vm.World()
	tl := reg.NewLoader("gw-template")
	if err := tl.DefineAll(paper.GatewayClasses()); err != nil {
		return nil, err
	}
	wl := reg.NewLoader("gw-warmer")
	warmer, err := world.NewIsolate("gw-warmer", wl)
	if err != nil {
		return nil, err
	}
	wl.AddDelegate(tl)
	app, err := tl.Lookup(paper.GatewayAppClass)
	if err != nil {
		return nil, err
	}
	if g.serve, err = app.LookupMethod("serve", "(I)I"); err != nil {
		return nil, err
	}
	if _, th, err := vm.CallRoot(warmer, g.serve, []heap.Value{heap.IntVal(1)}, 0); err != nil || th.Failure() != nil {
		return nil, fmt.Errorf("template warm-up: %v / %s", err, th.FailureString())
	}
	t0 := time.Now()
	g.snap, err = vm.CaptureSnapshot(warmer, interp.SnapshotOptions{})
	h.main.end("interp", "capture_snapshot", 0, t0)
	if err != nil {
		return nil, err
	}
	if withPool {
		t1 := time.Now()
		g.pool, err = serve.NewPool(vm, g.snap, serve.Config{Capacity: poolCapacity, NamePrefix: "gw-pooled"})
		h.main.end("serve", "prime_pool", 0, t1)
		if err != nil {
			g.snap.Release()
			return nil, err
		}
	}
	return g, nil
}

func (g *gateway) close() {
	if g.pool != nil {
		g.pool.Close()
	}
	g.snap.Release()
}

// call runs one serve on the sequential engine.
func (g *gateway) call(iso *core.Isolate, m *classfile.Method, arg int64) (int64, error) {
	v, th, err := g.vm.CallRoot(iso, m, []heap.Value{heap.IntVal(arg)}, 0)
	if err != nil {
		return 0, err
	}
	if th.Failure() != nil {
		return 0, fmt.Errorf("serve failed: %s", th.FailureString())
	}
	return v.I, nil
}

// teardown is the sanctioned end of a session: admin kill, accounting
// collection, and the isolate slot back to the free pool.
func (g *gateway) teardown(h *harness, iso *core.Isolate, id int64) error {
	t0 := time.Now()
	err := g.vm.KillIsolate(g.host, iso)
	h.main.end("interp", "kill", id, t0)
	if err != nil {
		return err
	}
	t1 := time.Now()
	g.vm.CollectGarbage(g.host)
	h.main.end("heap", "teardown_gc", id, t1)
	if !iso.Disposed() {
		return fmt.Errorf("%s not disposed after kill and collection", iso.Name())
	}
	t2 := time.Now()
	err = g.vm.FreeIsolate(iso)
	h.main.end("interp", "free_isolate", id, t2)
	return err
}

type gatewayEnv struct {
	ladder, pooled, attacked *gateway
	shared                   *prog // the serve handler on a Shared VM
	sharedHits               int64
	argBase                  int64
	table                    [sessionTable]int64 // sequential clone-mode checksum per session
	serveInstrs              int64               // guest instructions of one clone-mode serve
	sessions                 atomic.Int64
}

// arg is request r of session s. Sessions cycle through sessionTable
// argument sets so every session's checksum has a sequential reference.
func (e *gatewayEnv) arg(s int64, r int) int64 {
	return e.argBase + (s%sessionTable)*1000 + int64(r)
}

func setupTenantGateway(h *harness) (env, error) {
	e := &gatewayEnv{argBase: h.rng.Int63n(1 << 16)}
	var err error
	if e.ladder, err = newGateway(h, false); err != nil {
		return nil, err
	}
	if e.pooled, err = newGateway(h, true); err != nil {
		return nil, err
	}
	if e.attacked, err = newGateway(h, true); err != nil {
		return nil, err
	}
	vm, err := newVM(interp.Options{Mode: core.ModeShared, HeapLimit: 64 << 20})
	if err != nil {
		return nil, err
	}
	if e.shared, err = define(vm, "gw-shared", paper.GatewayClasses(), paper.GatewayAppClass, "serve", "(I)I"); err != nil {
		return nil, err
	}
	// The warm serve, as in the template: runs the class initializer.
	e.shared.args = []heap.Value{heap.IntVal(1)}
	if _, err := e.shared.run(); err != nil {
		return nil, err
	}
	e.sharedHits = 1
	return e, nil
}

// cloneSession runs session s sequentially on a fresh clone and returns
// its checksum; serves are sampled under interp.serve_clone.
func (e *gatewayEnv) cloneSession(h *harness, s int64) (int64, error) {
	g := e.ladder
	t0 := time.Now()
	iso, err := g.vm.CloneIsolate(g.snap, fmt.Sprintf("clone-%d", e.sessions.Add(1)))
	h.main.end("interp", "clone", s, t0)
	if err != nil {
		return 0, err
	}
	sum := int64(0)
	for r := 0; r < gatewayRequests; r++ {
		t1 := time.Now()
		v, err := g.call(iso, g.serve, e.arg(s, r))
		h.main.end("interp", "serve_clone", s, t1)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, g.teardown(h, iso, s)
}

// coldSession provisions session s the slow way — loader, isolate, class
// definition, class initializer — then serves and tears down like a clone.
func (e *gatewayEnv) coldSession(h *harness, vm *gateway, s int64) (int64, error) {
	name := fmt.Sprintf("cold-%d", e.sessions.Add(1))
	t0 := time.Now()
	l := vm.vm.Registry().NewLoader(name)
	tIso := time.Now()
	iso, err := vm.vm.World().NewIsolate(name, l)
	h.main.end("core", "new_isolate", s, tIso)
	if err != nil {
		return 0, err
	}
	tDef := time.Now()
	err = l.DefineAll(paper.GatewayClasses())
	h.main.end("loader", "define_all", s, tDef)
	if err != nil {
		return 0, err
	}
	app, err := l.Lookup(paper.GatewayAppClass)
	if err != nil {
		return 0, err
	}
	m, err := app.LookupMethod("serve", "(I)I")
	if err != nil {
		return 0, err
	}
	tInit := time.Now()
	_, err = vm.call(iso, m, 1)
	h.main.end("loader", "clinit", s, tInit)
	h.main.end(benchLayer, "spawn_cold", s, t0)
	if err != nil {
		return 0, err
	}
	sum := int64(0)
	for r := 0; r < gatewayRequests; r++ {
		t1 := time.Now()
		v, err := vm.call(iso, m, e.arg(s, r))
		h.main.end("interp", "serve_cold", s, t1)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, vm.teardown(h, iso, s)
}

// sharedSession serves session s on the Shared VM. Its one global hit
// counter keeps growing, so the checksum is normalized to a fresh
// isolate's (hits 2..17) before it is compared.
func (e *gatewayEnv) sharedSession(h *harness, s int64) (int64, error) {
	sum := int64(0)
	for r := 0; r < gatewayRequests; r++ {
		e.shared.args[0] = heap.IntVal(e.arg(s, r))
		v, err := timedRun(h, e.shared, "serve_shared", s)
		if err != nil {
			return 0, err
		}
		e.sharedHits++
		sum += v - e.sharedHits + int64(r) + 2
	}
	return sum, nil
}

func (e *gatewayEnv) verify(h *harness) error {
	// The sequential clone-mode reference of every session argument set.
	for s := int64(0); s < sessionTable; s++ {
		sum, err := e.cloneSession(h, s)
		if err != nil {
			return err
		}
		e.table[s] = sum
	}
	// One clone serve's exact instruction count.
	iso, err := e.ladder.vm.CloneIsolate(e.ladder.snap, "count")
	if err != nil {
		return err
	}
	start := iso.Account().Numbers().Instructions
	if _, err := e.ladder.call(iso, e.ladder.serve, e.arg(0, 0)); err != nil {
		return err
	}
	e.serveInstrs = iso.Account().Numbers().Instructions - start
	if err := e.ladder.teardown(h, iso, 0); err != nil {
		return err
	}
	digest := int64(0)
	for _, v := range e.table {
		digest = (digest*31 + v) % 1_000_000_007
	}
	h.recordOutput("sessions", digest, e.serveInstrs)

	// Cold, Shared and the reference interpreter must agree with it.
	cold, err := e.coldSession(h, e.ladder, 0)
	if err == nil && cold != e.table[0] {
		err = fmt.Errorf("cold session checksum %d, clone %d", cold, e.table[0])
	}
	h.op(err)
	shared, err := e.sharedSession(h, 0)
	if err == nil && shared != e.table[0] {
		err = fmt.Errorf("Shared session checksum %d, clone %d", shared, e.table[0])
	}
	h.op(err)
	refVM, err := newVM(interp.Options{Mode: core.ModeIsolated, HeapLimit: 64 << 20, DisablePrepare: true})
	if err != nil {
		return err
	}
	host, err := refVM.NewIsolate("gateway")
	if err != nil {
		return err
	}
	ref, err := e.coldSession(h, &gateway{vm: refVM, host: host}, 0)
	if err == nil && ref != e.table[0] {
		err = fmt.Errorf("reference interpreter session checksum %d, clone %d", ref, e.table[0])
	}
	h.op(err)
	return nil
}

func (e *gatewayEnv) measure(h *harness) error {
	start := time.Now()
	if h.cfg.trace {
		if err := measureSched(h); err != nil {
			return err
		}
		if err := measureCallRoot(h, e.ladder.vm); err != nil {
			return err
		}
	}
	e.runLadder(h, start.Add(time.Duration(ladderShare*float64(h.window))))
	poolTicks, err := e.runPool(h, e.pooled, "pool", start.Add(time.Duration((ladderShare+poolShare)*float64(h.window))), false)
	if err != nil {
		return err
	}
	attackedTicks, err := e.runPool(h, e.attacked, "attacked", start.Add(h.window), true)
	if err != nil {
		return err
	}

	cloneServe := h.rec.medianOf("interp.serve_clone", 1)
	poolP99, pct := tail(poolTicks)
	attackedP99, apct := tail(attackedTicks)
	sessionT := h.rec.medianOf("bench.session.pool", 1)
	cloneUS := h.rec.medianOf("interp.clone", 1e6)
	h.set("guest_minstr_per_s", float64(e.serveInstrs)/cloneServe/1e6)
	h.set("isolation_overhead", cloneServe/h.rec.medianOf("interp.serve_shared", 1))
	h.set("ops_per_s", gatewayClients/sessionT)
	h.set("op_p50_us", cloneUS)
	h.set("spawn_cold_p50_ms", h.rec.medianOf("bench.spawn_cold", 1e3))
	h.set("spawn_clone_p50_us", cloneUS)
	h.set("sessions_per_s", gatewayClients/sessionT)
	h.set("serve_p99_ticks", poolP99)
	h.set("attacked_p99_ratio", attackedP99/poolP99)
	h.set("attacked_sessions_ratio", sessionT/h.rec.medianOf("bench.session.attacked", 1))
	h.set("interp.capture_snapshot_ms", h.rec.medianOf("interp.capture_snapshot", 1e3))
	h.set("interp.clone_us", cloneUS)
	h.set("interp.kill_us", h.rec.medianOf("interp.kill", 1e6))
	h.set("interp.free_isolate_us", h.rec.medianOf("interp.free_isolate", 1e6))
	h.set("interp.serve_cold_us", h.rec.medianOf("interp.serve_cold", 1e6))
	h.set("interp.serve_clone_us", cloneServe*1e6)
	h.set("heap.teardown_gc_us", h.rec.medianOf("heap.teardown_gc", 1e6))
	h.set("loader.define_all_us", h.rec.medianOf("loader.define_all", 1e6))
	h.set("loader.clinit_ms", h.rec.medianOf("loader.clinit", 1e3))
	h.set("serve.acquire_us", h.rec.medianOf("serve.acquire", 1e6))
	h.set("serve.release_us", h.rec.medianOf("serve.release", 1e6))
	h.set("core.snapshots_us", h.rec.medianOf("core.snapshots", 1e6))
	h.note("pool phase: %d serve samples, tail at p%d; attacked phase: %d, tail at p%d",
		len(poolTicks), pct, len(attackedTicks), apct)
	return nil
}

// runLadder alternates cold, clone and Shared sessions on the sequential
// engine, every call timed on its own, until the deadline.
func (e *gatewayEnv) runLadder(h *harness, deadline time.Time) {
	until(deadline, 3, func(round int) {
		traced := h.traceRound(round)
		s := int64(round)
		t0 := time.Now()
		for _, session := range []struct {
			kind string
			run  func() (int64, error)
		}{
			{"cold", func() (int64, error) { return e.coldSession(h, e.ladder, s) }},
			{"clone", func() (int64, error) { return e.cloneSession(h, s) }},
			{"shared", func() (int64, error) { return e.sharedSession(h, s) }},
		} {
			sum, err := session.run()
			if want := e.table[s%sessionTable]; err == nil && sum != want {
				err = fmt.Errorf("ladder %s session %d: checksum %d, sequential clone reference %d", session.kind, s, sum, want)
			}
			h.op(err)
		}
		h.unit(traced, time.Since(t0))
	})
}

// attacker is one adversarial isolate of the attacked phase.
type attacker struct {
	kind paper.AttackerKind
	isos []*core.Isolate
}

// spawnAttackers starts the paper's four §4.3 attackers on vm, threads
// pre-spawned so the governor sees their burn from its first window.
func spawnAttackers(vm *interp.VM) ([]attacker, error) {
	var out []attacker
	for i, kind := range paper.AllAttackers() {
		iso, err := vm.NewIsolate(fmt.Sprintf("attacker%d-%s", i, kind))
		if err != nil {
			return nil, err
		}
		a := attacker{kind: kind, isos: []*core.Isolate{iso}}
		cn := fmt.Sprintf("atk/Attack%d", i)
		desc, args := "()V", []heap.Value(nil)
		switch kind {
		case paper.AttackSpin:
			err = iso.Loader().Define(spinForeverClass(cn))
		case paper.AttackAllocFlood:
			err = iso.Loader().Define(allocFloodClass(cn, 64))
		case paper.AttackMonitorHog:
			err = iso.Loader().DefineAll(monitorHogClasses(cn))
			desc, args = "(I)V", []heap.Value{heap.IntVal(gatewayThreads / 2)}
		case paper.AttackCallFlood:
			peerIso, perr := vm.NewIsolate(fmt.Sprintf("attacker%d-peer", i))
			if perr != nil {
				return nil, perr
			}
			mainC, peerC := callFloodClasses(cn, fmt.Sprintf("atkpeer/Peer%d", i))
			if err = peerIso.Loader().Define(peerC); err == nil {
				iso.Loader().AddDelegate(peerIso.Loader())
				err = iso.Loader().Define(mainC)
			}
			a.isos = append(a.isos, peerIso)
		default:
			err = fmt.Errorf("unknown attacker kind %q", kind)
		}
		if err != nil {
			return nil, err
		}
		c, err := iso.Loader().Lookup(cn)
		if err != nil {
			return nil, err
		}
		m, err := c.LookupMethod("attack", desc)
		if err != nil {
			return nil, err
		}
		if _, err := vm.SpawnThread("atk:"+string(kind), iso, m, args); err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

// runPool starts the scheduler behind g's pool and drives closed-loop
// sessions from gatewayClients goroutines until the deadline: Acquire, 16
// request threads one after the other, Release. It returns every request's serve latency in
// virtual ticks (worker-stamped finish minus spawn).
func (e *gatewayEnv) runPool(h *harness, g *gateway, phase string, deadline time.Time, attack bool) ([]float64, error) {
	vm := g.vm
	// The keeper spins at weight 1 in the host isolate so the scheduler
	// never quiesces between sessions.
	g.host.SetWeight(1)
	if err := g.host.Loader().Define(spinForeverClass("gw/Keeper")); err != nil {
		return nil, err
	}
	kc, err := g.host.Loader().Lookup("gw/Keeper")
	if err != nil {
		return nil, err
	}
	km, err := kc.LookupMethod("attack", "()V")
	if err != nil {
		return nil, err
	}
	if _, err := vm.SpawnThread("gw-keeper", g.host, km, nil); err != nil {
		return nil, err
	}
	var (
		attackers []attacker
		gov       *sched.Governor
	)
	if attack {
		if attackers, err = spawnAttackers(vm); err != nil {
			return nil, err
		}
		gov = sched.NewGovernor(sched.GovernorConfig{})
	}
	// Observe the run before administering it: the scheduler must have
	// installed its hooks and safepoint machinery before host-side spawns
	// and the pool's collections arrive. The template's warm-up already
	// executed instructions on this VM, so "running" means the count moved
	// past where it stood, not that it is nonzero.
	before := vm.TotalInstructions()
	resCh := make(chan interp.RunResult, 1)
	go func() {
		resCh <- sched.RunConfig(vm, sched.Config{Workers: gatewayWorkers, Policy: sched.PolicyProportional, Governor: gov})
	}()
	for vm.TotalInstructions() == before {
		time.Sleep(50 * time.Microsecond)
	}
	if h.cfg.trace && !attack {
		e.measureRefill(h, g)
	}

	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		ticks []float64
		stop  atomic.Bool
	)
	for c := 0; c < gatewayClients; c++ {
		wg.Add(1)
		tr := h.rec.newTrack(false)
		go func(c int) {
			defer wg.Done()
			var mine []float64
			for n := 0; n < minSessions || !stop.Load(); n++ {
				s := e.sessions.Add(1)
				t0 := time.Now()
				lat, err := e.poolSession(h, tr, g, s, c == 0 && h.cfg.trace)
				tr.end(benchLayer, "session."+phase, s, t0)
				h.op(err)
				mine = append(mine, lat...)
			}
			mu.Lock()
			ticks = append(ticks, mine...)
			mu.Unlock()
		}(c)
	}
	// The driver flips tracing on and off while the clients run.
	for i := 0; time.Now().Before(deadline); i++ {
		h.toggleTrace(i)
		time.Sleep(50 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	vm.Shutdown()
	res := <-resCh
	g.pool.Close()

	if !attack {
		st := g.pool.Stats()
		h.set("serve.saturated_rejects", float64(st.Saturated))
		h.set("serve.shed", float64(st.Shed))
		h.set("serve.clone_failures", float64(st.CloneFailures))
		return ticks, nil
	}
	st := gov.Stats()
	h.set("sched.governor_ticks", float64(st.Ticks))
	h.set("sched.governor_throttles", float64(st.Throttles))
	h.set("sched.governor_kills", float64(st.Kills))
	byName := make(map[string]int64, len(res.PerIsolate))
	for _, ir := range res.PerIsolate {
		byName[ir.Name] = ir.Instructions
	}
	attackerInstrs := int64(0)
	for _, a := range attackers {
		for _, iso := range a.isos {
			attackerInstrs += byName[iso.Name()]
		}
	}
	if res.Instructions > 0 {
		h.set("sched.attacker_instr_share", float64(attackerInstrs)/float64(res.Instructions))
	}
	return ticks, nil
}

// poolSession is one tenant session against the running scheduler.
func (e *gatewayEnv) poolSession(h *harness, tr *track, g *gateway, s int64, snapshots bool) ([]float64, error) {
	// An empty pool refuses fail-fast and the caller owns the retry policy:
	// this client waits for the refiller, so a refusal costs the session
	// time (and shows in serve.saturated_rejects); only a pool that stays
	// empty for acquireTimeout fails the session.
	var iso *core.Isolate
	for t0 := time.Now(); ; {
		t := time.Now()
		got, err := g.pool.Acquire(nil)
		tr.end("serve", "acquire", s, t)
		if err == nil {
			iso = got
			break
		}
		if !errors.Is(err, serve.ErrSaturated) || time.Since(t0) > acquireTimeout {
			return nil, fmt.Errorf("session %d: %w", s, err)
		}
		time.Sleep(pollEvery)
	}
	abandoned := false
	defer func() {
		if abandoned {
			return
		}
		t := time.Now()
		g.pool.Release(iso)
		tr.end("serve", "release", s, t)
	}()
	// Tenant sessions are latency-sensitive: the interactive class is what
	// lets the scheduler run a request ahead of batch work and attackers.
	iso.SetQoS(core.QoSInteractive)
	sum := int64(0)
	lat := make([]float64, 0, gatewayRequests)
	for r := 0; r < gatewayRequests; r++ {
		t1 := time.Now()
		th, err := g.vm.SpawnThread("req", iso, g.serve, []heap.Value{heap.IntVal(e.arg(s, r))})
		tr.end("interp", "spawn_thread", s, t1)
		if err != nil {
			return nil, fmt.Errorf("session %d request %d: %w", s, r, err)
		}
		// The poll only detects completion; the latency is the
		// worker-stamped virtual interval.
		t2 := time.Now()
		for !th.Done() {
			time.Sleep(pollEvery)
			if time.Since(t2) > requestTimeout {
				// The isolate still has a live thread, so it cannot go
				// back to the pool; it is left to the pool's Close.
				abandoned = true
				return nil, fmt.Errorf("session %d request %d: not scheduled within %v", s, r, requestTimeout)
			}
		}
		tr.end("sched", "await_request", s, t2)
		if th.Failure() != nil || th.Err() != nil {
			return nil, fmt.Errorf("session %d request %d: %v / %s", s, r, th.Err(), th.FailureString())
		}
		sum += th.Result().I
		lat = append(lat, float64(th.FinishTick()-th.SpawnTick()))
		if snapshots && r == 0 {
			t := time.Now()
			g.vm.Snapshots()
			tr.end("core", "snapshots", s, t)
		}
	}
	if want := e.table[s%sessionTable]; sum != want {
		return nil, fmt.Errorf("session %d: checksum %d, sequential clone reference %d", s, sum, want)
	}
	return lat, nil
}

// measureRefill times how long the pool takes to be full again after one
// session's slot comes back, with the scheduler running and no other
// client.
func (e *gatewayEnv) measureRefill(h *harness, g *gateway) {
	for i := 0; i < refillSamples; i++ {
		h.traceRound(i)
		iso, err := g.pool.Acquire(nil)
		if err != nil {
			h.op(err)
			continue
		}
		t0 := time.Now()
		g.pool.Release(iso)
		for {
			st := g.pool.Stats()
			if st.Warm == poolCapacity && st.Retiring == 0 {
				break
			}
			time.Sleep(pollEvery)
		}
		h.main.end("serve", "refill_lag", int64(i), t0)
		h.op(nil)
	}
	h.set("serve.refill_lag_us", h.rec.medianOf("serve.refill_lag", 1e6))
}

func (e *gatewayEnv) close() {
	for _, g := range []*gateway{e.ladder, e.pooled, e.attacked} {
		if g != nil {
			g.close()
		}
	}
}

// spinVM builds the scheduler legs' VM: schedIsolates isolates, one thread
// each spinning schedIters iterations.
func spinVM() (*interp.VM, []*interp.Thread, error) {
	vm, err := newVM(interp.Options{Mode: core.ModeIsolated})
	if err != nil {
		return nil, nil, err
	}
	var threads []*interp.Thread
	for k := 0; k < schedIsolates; k++ {
		p, err := define(vm, fmt.Sprintf("spin%d", k), []*classfile.Class{spinClass(fmt.Sprintf("bench/Spin%d", k))},
			fmt.Sprintf("bench/Spin%d", k), "run", "(I)I")
		if err != nil {
			return nil, nil, err
		}
		th, err := vm.SpawnThread(p.name, p.iso, p.m, []heap.Value{heap.IntVal(schedIters)})
		if err != nil {
			return nil, nil, err
		}
		threads = append(threads, th)
	}
	return vm, threads, nil
}

// measureSched runs the same eight-isolate spin load on the sequential
// engine, on the concurrent scheduler with one worker and with two, A/B/C
// interleaved on freshly built VMs of one shape.
func measureSched(h *harness) error {
	legs := []struct {
		key string
		run func(vm *interp.VM) interp.RunResult
	}{
		{"sequential", func(vm *interp.VM) interp.RunResult { return vm.Run(0) }},
		{"w1", func(vm *interp.VM) interp.RunResult { return sched.Run(vm, 1, 0) }},
		{"w2", func(vm *interp.VM) interp.RunResult { return sched.Run(vm, 2, 0) }},
	}
	for round := 0; round < schedRounds; round++ {
		h.traceRound(round)
		for _, leg := range legs {
			vm, threads, err := spinVM()
			if err != nil {
				return err
			}
			t0 := time.Now()
			res := leg.run(vm)
			h.main.end("sched", leg.key, int64(round), t0)
			if !res.AllDone {
				err = fmt.Errorf("sched %s: run did not finish: %+v", leg.key, res)
			}
			for _, th := range threads {
				if err == nil && th.Result().I != schedIters {
					err = fmt.Errorf("sched %s: spin returned %d", leg.key, th.Result().I)
				}
			}
			h.op(err)
		}
	}
	w1 := h.rec.medianOf("sched.w1", 1)
	h.set("sched.w1_vs_sequential", w1/h.rec.medianOf("sched.sequential", 1))
	h.set("sched.w2_speedup", w1/h.rec.medianOf("sched.w2", 1))
	return nil
}
