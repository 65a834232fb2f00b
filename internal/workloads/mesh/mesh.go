// Package mesh drives a microservice-mesh workload over the async
// messaging layer: frontend isolates fan requests out to a pool of
// service bundles through the OSGi registry, aggregate the responses,
// and keep going while an administrator churns tenants underneath them
// (bundle kill + fresh reinstall, the §4.3 response loop). Legs that
// land on a saturated queue are rejected fail-fast; legs in flight to
// a killed service fail and surface to the aggregator as cascading
// timeouts rather than wedging the mesh.
package mesh

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
	"ijvm/internal/osgi"
	"ijvm/internal/rpc"
	"ijvm/internal/syslib"
	"ijvm/internal/workloads"
)

// Config sizes one mesh run.
type Config struct {
	// Services is the number of service bundles registered under the
	// fan-out prefix; every request produces one leg per service.
	Services int
	// Frontends is the number of concurrent caller isolates.
	Frontends int
	// Requests is the number of fan-out requests each frontend issues.
	Requests int
	// QueueDepth bounds each link's pipelining window (backpressure).
	QueueDepth int
	// PayloadLen selects the call shape: 0 sends scalar fstatic(x)
	// calls with a checkable x+1 result; >0 sends an Object[] payload
	// of that length through the stateful drag entry point.
	PayloadLen int
	// ZeroCopy freezes the payload arrays so the copier shares them
	// across isolates instead of deep-copying per leg.
	ZeroCopy bool
	// ChurnEvery kills and reinstalls one service bundle each time the
	// mesh completes that many requests (0 disables churn).
	ChurnEvery int
}

func (c *Config) fill() {
	if c.Services <= 0 {
		c.Services = 4
	}
	if c.Frontends <= 0 {
		c.Frontends = 4
	}
	if c.Requests <= 0 {
		c.Requests = 32
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
}

// Result aggregates one run. Legs = Completed + Failed + Rejected.
type Result struct {
	Requests  int   // fan-out requests issued (Frontends * Requests)
	Completed int64 // legs that returned a value
	Failed    int64 // legs lost to kills, closed links, budgets
	Rejected  int64 // legs refused fail-fast by queue backpressure
	Churns    int   // kill + reinstall cycles performed
	Checksum  int64 // sum of completed scalar results
	Wall      time.Duration
	P50, P99  time.Duration // per-request fan-out + aggregate latency
	// Throughput is completed legs per second of wall time.
	Throughput float64
}

func (r *Result) String() string {
	return fmt.Sprintf("mesh: %d req, %d ok / %d failed / %d rejected legs, %d churns, p50=%s p99=%s, %.0f legs/s",
		r.Requests, r.Completed, r.Failed, r.Rejected, r.Churns, r.P50, r.P99, r.Throughput)
}

const prefix = "mesh/svc/"

func serviceName(slot int) string { return fmt.Sprintf("%s%02d", prefix, slot) }

// Run executes the workload on a fresh isolated-mode VM and returns the
// aggregate. It errors on setup failure or on a completed leg carrying
// a wrong scalar result — lost legs under churn are data, not errors.
func Run(cfg Config) (*Result, error) {
	cfg.fill()
	vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated})
	syslib.MustInstall(vm)
	fw, err := osgi.NewFramework(vm)
	if err != nil {
		return nil, err
	}
	hub := rpc.NewHub(vm)
	defer hub.Close()
	reg := fw.Registry()

	// Service pool: one bundle per slot, its Service instance published
	// under a generation-independent registry name so reinstalls slide
	// back under the same fan-out prefix.
	bundles := make([]*osgi.Bundle, cfg.Services)
	gen := 0
	install := func(slot int) error {
		name := fmt.Sprintf("mesh-svc-%d-g%d", slot, gen)
		b, err := fw.Install(osgi.Manifest{Name: name, Version: "1.0.0"}, workloads.ServiceClasses())
		if err != nil {
			return err
		}
		svcClass, err := b.Loader().Lookup(workloads.ServiceClassName)
		if err != nil {
			return err
		}
		makeM, err := svcClass.LookupMethod("make", "()Ljava/lang/Object;")
		if err != nil {
			return err
		}
		v, th, err := vm.CallRoot(b.Isolate(), makeM, nil, 10_000_000)
		if err != nil {
			return err
		}
		if th.Failure() != nil {
			return fmt.Errorf("mesh: make service: %s", th.FailureString())
		}
		// Register pins the instance before any GC can run: inside a
		// hub.Sync window (churn) collections are excluded, and during
		// setup no other mutator exists yet.
		if err := reg.Register(serviceName(slot), v.R, b); err != nil {
			return err
		}
		bundles[slot] = b
		return nil
	}
	for slot := 0; slot < cfg.Services; slot++ {
		if err := install(slot); err != nil {
			return nil, err
		}
		gen++
	}

	// Frontends: plain caller isolates; their traffic is host-driven.
	method, desc := "fstatic", "(I)I"
	if cfg.PayloadLen > 0 {
		method, desc = "drag", "(Ljava/lang/Object;)I"
	}
	objClass, err := vm.Registry().Bootstrap().Lookup(interp.ClassObject)
	if err != nil {
		return nil, err
	}
	type frontend struct {
		iso     *core.Isolate
		roots   *interp.HostRoots
		payload heap.Value
	}
	fronts := make([]*frontend, cfg.Frontends)
	for i := range fronts {
		l := vm.Registry().NewLoader(fmt.Sprintf("mesh-frontend-%d", i))
		iso, err := vm.World().NewIsolate(fmt.Sprintf("mesh-frontend-%d", i), l)
		if err != nil {
			return nil, err
		}
		f := &frontend{iso: iso, roots: vm.NewHostRoots(iso)}
		defer f.roots.Release()
		if cfg.PayloadLen > 0 {
			arr, err := vm.AllocArrayRooted(f.roots, objClass, cfg.PayloadLen, iso)
			if err != nil {
				return nil, err
			}
			for j := range arr.Elems {
				arr.Elems[j] = heap.IntVal(int64(j))
			}
			if cfg.ZeroCopy {
				if err := heap.Freeze(arr); err != nil {
					return nil, err
				}
			}
			f.payload = heap.RefVal(arr)
		}
		fronts[i] = f
	}
	opts := rpc.LinkOptions{QueueDepth: cfg.QueueDepth, ZeroCopy: cfg.ZeroCopy}

	var (
		completed, failed, rejected, checksum, doneReqs int64
		mismatch                                        atomic.Value // first wrong-result error
		latMu                                           sync.Mutex
		lats                                            []time.Duration
	)
	classify := func(err error) {
		if errors.Is(err, rpc.ErrSaturated) {
			atomic.AddInt64(&rejected, 1)
		} else {
			atomic.AddInt64(&failed, 1)
		}
	}

	// Churn is a function of the completed-request count, not of a host
	// timer: the frontend whose completion crosses a ChurnEvery multiple
	// performs the kill and reinstall itself. All administration — the
	// kill, the reinstall's guest constructor — runs inside one Sync
	// window so it lands between dispatch slices, never beside them; the
	// window also serializes churns (and their counter) across frontends.
	churns := 0
	churn := func() {
		hub.Sync(func() {
			slot := churns % cfg.Services
			churns++
			if err := fw.KillBundle(bundles[slot]); err != nil {
				return
			}
			gen++
			_ = install(slot) // a failed reinstall just shrinks the mesh
		})
	}

	start := time.Now()
	var wg sync.WaitGroup
	for _, f := range fronts {
		wg.Add(1)
		go func(f *frontend) {
			defer wg.Done()
			myLats := make([]time.Duration, 0, cfg.Requests)
			for r := 0; r < cfg.Requests; r++ {
				x := int64(r % 1000)
				var args []heap.Value
				if cfg.PayloadLen > 0 {
					args = []heap.Value{f.payload}
				} else {
					args = []heap.Value{heap.IntVal(x)}
				}
				t0 := time.Now()
				for _, leg := range reg.FanOut(hub, f.iso, prefix, method, desc, opts, args) {
					var v heap.Value
					err := leg.Err
					if err == nil {
						v, err = leg.Fut.Wait()
						leg.Fut.Release()
					}
					if err != nil {
						classify(err)
						continue
					}
					atomic.AddInt64(&completed, 1)
					atomic.AddInt64(&checksum, v.I)
					if cfg.PayloadLen == 0 && v.I != x+1 {
						mismatch.Store(fmt.Errorf("mesh: %s returned %d for fstatic(%d)", leg.Service, v.I, x))
					}
				}
				myLats = append(myLats, time.Since(t0))
				if n := atomic.AddInt64(&doneReqs, 1); cfg.ChurnEvery > 0 && n%int64(cfg.ChurnEvery) == 0 {
					churn()
				}
			}
			latMu.Lock()
			lats = append(lats, myLats...)
			latMu.Unlock()
		}(f)
	}
	wg.Wait()
	wall := time.Since(start)

	// Teardown: unregistering closes the cached fan-out links.
	for slot := 0; slot < cfg.Services; slot++ {
		reg.Unregister(serviceName(slot))
	}

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) time.Duration {
		if len(lats) == 0 {
			return 0
		}
		i := int(p * float64(len(lats)-1))
		return lats[i]
	}
	res := &Result{
		Requests:  cfg.Frontends * cfg.Requests,
		Completed: completed,
		Failed:    failed,
		Rejected:  rejected,
		Churns:    churns,
		Checksum:  checksum,
		Wall:      wall,
		P50:       pct(0.50),
		P99:       pct(0.99),
	}
	if wall > 0 {
		res.Throughput = float64(completed) / wall.Seconds()
	}
	if err, ok := mismatch.Load().(error); ok {
		return res, err
	}
	return res, nil
}
