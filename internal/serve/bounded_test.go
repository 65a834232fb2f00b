package serve_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
	"ijvm/internal/sched"
	"ijvm/internal/serve"
)

const (
	boundedCapacity = 8
	boundedClients  = 2
	boundedRequests = 4
)

// servePooledSessions serves the given number of pooled sessions of 4
// request threads each from 2 clients, behind 2 workers and a spinning
// keeper, and returns the stop counters as of the last session and the
// run's result.
func servePooledSessions(t *testing.T, sessions int64) (interp.StopStats, interp.RunResult) {
	t.Helper()
	vm, host, snap, serveM := poolVM(t, 0)
	defer snap.Release()
	host.SetWeight(1)
	keeper := classfile.NewClass("pl/Keeper").
		Method("attack", "()V", classfile.FlagStatic|classfile.FlagPublic, func(a *bytecode.Assembler) {
			a.Const(0).IStore(0)
			a.Label("loop").IInc(0, 1).Goto("loop")
		}).MustBuild()
	if err := host.Loader().Define(keeper); err != nil {
		t.Fatal(err)
	}
	km, _ := keeper.LookupMethod("attack", "()V")
	if _, err := vm.SpawnThread("keeper", host, km, nil); err != nil {
		t.Fatal(err)
	}
	pool, err := serve.NewPool(vm, snap, serve.Config{Capacity: boundedCapacity})
	if err != nil {
		t.Fatal(err)
	}
	resCh := make(chan interp.RunResult, 1)
	go func() { resCh <- sched.Run(vm, 2, 0) }()
	sched.AwaitStart(vm)

	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for c := 0; c < boundedClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s := next.Add(1)
				if s > sessions {
					return
				}
				var iso *core.Isolate
				for {
					got, err := pool.Acquire(nil)
					if err == nil {
						iso = got
						break
					}
					time.Sleep(20 * time.Microsecond)
				}
				want := int64(6)
				for r := 0; r < boundedRequests; r++ {
					th, err := vm.SpawnThread("req", iso, serveM, []heap.Value{heap.IntVal(s)})
					if err != nil {
						t.Errorf("session %d request %d: %v", s, r, err)
						break
					}
					for !th.Done() {
						time.Sleep(20 * time.Microsecond)
					}
					if want += s; th.Failure() != nil || th.Err() != nil || th.Result().I != want {
						t.Errorf("session %d request %d: result %d, want %d (%v / %s)", s, r, th.Result().I, want, th.Err(), th.FailureString())
					}
				}
				pool.Release(iso)
			}
		}()
	}
	wg.Wait()
	st := vm.StopStats()
	vm.Shutdown()
	res := <-resCh
	pool.Close()
	if !res.Shutdown {
		t.Fatalf("run ended without shutdown: %+v", res)
	}
	return st, res
}

// TestStopCostBoundedByLive serves 500 and then 3000 pooled sessions and
// checks, after each, that what a stop walks and what the scheduler holds
// follow what is live, not what has run: the thread table at the last stop
// is within the table rule's bound, and the shard table holds the isolates
// alive (the pool's warm set, the sessions in flight and those awaiting
// teardown), the rest having been retired as they were freed — the same
// bounds after six times the sessions. Before the rule and the retirement
// both grew with every session: 12 000 listed threads and 3 000 shards at
// the end of the longer run.
func TestStopCostBoundedByLive(t *testing.T) {
	// host + warmer, a full warm set, a session per client, and as many
	// again awaiting the refiller.
	const shardLimit = 2 + 2*boundedCapacity + boundedClients
	for _, sessions := range []int64{500, 3000} {
		st, res := servePooledSessions(t, sessions)
		t.Logf("%d sessions: %d stops (%d µs stopped, longest %d µs), %d threads listed / %d live, %d shards live / %d retired",
			sessions, st.Stops, st.TotalNs/1000, st.MaxNs/1000, st.ThreadsListed, st.ThreadsLive, res.Sched.ShardsLive, res.Sched.ShardsRetired)
		if st.Stops == 0 {
			t.Fatalf("%d sessions: the pool's teardown never stopped the world", sessions)
		}
		if st.ThreadsListed > 2*st.ThreadsLive+64 {
			t.Errorf("%d sessions: %d threads listed at the last stop for %d live, want <= 2*live+64", sessions, st.ThreadsListed, st.ThreadsLive)
		}
		if res.Sched.ShardsLive > shardLimit {
			t.Errorf("%d sessions: %d live shards, want <= %d", sessions, res.Sched.ShardsLive, shardLimit)
		}
		if res.Sched.ShardsRetired < sessions-shardLimit {
			t.Errorf("%d sessions: %d shards retired, want all but the isolates alive", sessions, res.Sched.ShardsRetired)
		}
		sum := res.FreedIsolates.Instructions
		for _, ir := range res.PerIsolate {
			sum += ir.Instructions
		}
		if sum != res.Instructions {
			t.Errorf("%d sessions: per-isolate rows (%d live, %d freed) sum to %d instructions, the run executed %d",
				sessions, len(res.PerIsolate), res.FreedIsolates.Count, sum, res.Instructions)
		}
		if len(res.PerIsolate) > shardLimit {
			t.Errorf("%d sessions: %d per-isolate rows at the end of the run, want the isolates alive", sessions, len(res.PerIsolate))
		}
	}
}
