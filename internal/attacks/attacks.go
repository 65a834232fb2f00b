// Package attacks implements the eight attacks of the paper's robustness
// evaluation (§4.3), each runnable on the baseline VM (Shared mode — the
// "Sun JVM" column) and on I-JVM (Isolated mode). The harness reproduces
// the paper's outcome table: on the baseline the attacks corrupt, freeze
// or abort the platform and the administrator has no handle to stop them;
// on I-JVM isolation neutralizes A1/A2 outright and resource accounting
// lets the administrator locate and kill the offender for A3-A8.
package attacks

import (
	"fmt"

	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
	"ijvm/internal/osgi"
	"ijvm/internal/sched"
	"ijvm/internal/syslib"
)

// ConcurrentWorkers, when set to a positive value, makes every attack
// environment drive its scheduler phases through the concurrent isolate
// scheduler (internal/sched) with that many workers instead of the
// sequential cooperative loop. The concurrency test suite uses it to
// re-run the §4.3 scenarios under sched.Run; it is not safe to
// change while attacks are running.
var ConcurrentWorkers = 0

// SeedDispatch, when true, builds every attack environment with code
// preparation disabled so the scenarios execute through the seed-style
// switch interpreter. The dispatch oracle test uses it to prove the
// quickened interpreter reproduces the attack outcomes and accounting
// exactly; it is not safe to change while attacks are running.
var SeedDispatch = false

// TestHookNewVM, when non-nil, observes every attack environment's VM at
// creation time. The dispatch oracle test uses it to read per-isolate
// accounting after a scenario finishes.
var TestHookNewVM func(*interp.VM)

// Result captures one attack execution.
type Result struct {
	// ID is the attack identifier (A1..A8, §4.3 numbering).
	ID string
	// Name is the attack's short description.
	Name string
	// Mode is the VM mode the attack ran under.
	Mode core.Mode

	// VictimOK reports whether the victim bundle kept operating
	// correctly (after administrative recovery, where applicable).
	VictimOK bool
	// PlatformCompromised reports that the attack achieved its effect
	// (corruption, freeze, denial) on this VM.
	PlatformCompromised bool
	// Detected reports that the administrator's detectors identified the
	// offending bundle.
	Detected bool
	// OffenderKilled reports that the offender was terminated.
	OffenderKilled bool
	// Notes carries a human-readable outcome summary.
	Notes string
}

func (r Result) String() string {
	return fmt.Sprintf("%-3s %-28s mode=%-8s victimOK=%-5v compromised=%-5v detected=%-5v killed=%-5v  %s",
		r.ID, r.Name, r.Mode, r.VictimOK, r.PlatformCompromised, r.Detected, r.OffenderKilled, r.Notes)
}

// Contained reports the paper's I-JVM outcome: either isolation
// neutralized the attack outright (A1/A2/A8 — no compromise at all), or
// the attack transiently achieved its effect but accounting located the
// offender, the administrator killed it, and the victim kept operating
// (the A3–A7 detect-and-recover loop). A shared-mode baseline run is
// expected NOT to be contained — that asymmetry is the point of the
// paper's table.
func (r Result) Contained() bool {
	if !r.VictimOK {
		return false
	}
	return !r.PlatformCompromised || (r.Detected && r.OffenderKilled)
}

// Attack is one runnable attack scenario.
type Attack struct {
	ID   string
	Name string
	Run  func(mode core.Mode) (Result, error)
}

// All returns the eight attacks in §4.3 order.
func All() []Attack {
	return []Attack{
		{ID: "A1", Name: "static variable corruption", Run: RunA1},
		{ID: "A2", Name: "lock on shared Class object", Run: RunA2},
		{ID: "A3", Name: "memory exhaustion", Run: RunA3},
		{ID: "A4", Name: "exponential object creation", Run: RunA4},
		{ID: "A5", Name: "recursive thread creation", Run: RunA5},
		{ID: "A6", Name: "standalone infinite loop", Run: RunA6},
		{ID: "A7", Name: "hanging thread", Run: RunA7},
		{ID: "A8", Name: "lack of termination support", Run: RunA8},
	}
}

// Extensions returns attacks beyond the paper's suite, exercising
// accounting dimensions §4.3 leaves untested.
func Extensions() []Attack {
	return []Attack{
		{ID: "X9", Name: "connection/IO flood (extension)", Run: RunX9},
	}
}

// ByID returns the attack (paper suite or extension) with the given ID,
// or nil.
func ByID(id string) *Attack {
	for _, set := range [][]Attack{All(), Extensions()} {
		for i := range set {
			if set[i].ID == id {
				return &set[i]
			}
		}
	}
	return nil
}

// env is one attack environment: a fresh VM and OSGi framework. workers
// > 0 selects the concurrent scheduler for every drive phase.
type env struct {
	vm      *interp.VM
	fw      *osgi.Framework
	workers int
}

// run drives the scheduler for at most budget instructions.
func (e *env) run(budget int64) {
	if e.workers > 0 {
		sched.Run(e.vm, e.workers, budget)
	} else {
		e.vm.Run(budget)
	}
}

// runUntil drives the scheduler until the target finishes or the budget
// is exhausted, using the per-thread target on both engines
// (sched.Config.Target is the concurrent counterpart of VM.RunUntil's).
func (e *env) runUntil(t *interp.Thread, budget int64) {
	if e.workers > 0 {
		sched.RunConfig(e.vm, sched.Config{Workers: e.workers, Budget: budget, Target: t})
	} else {
		e.vm.RunUntil(t, budget)
	}
}

// call invokes a method on a fresh thread and drives the scheduler until
// it finishes, mirroring interp.CallRoot under either engine.
func (e *env) call(iso *core.Isolate, m *classfile.Method, args []heap.Value, budget int64) (heap.Value, *interp.Thread, error) {
	if e.workers == 0 {
		return e.vm.CallRoot(iso, m, args, budget)
	}
	t, err := e.vm.SpawnThread("call:"+m.Name, iso, m, args)
	if err != nil {
		return heap.Value{}, nil, err
	}
	sched.RunConfig(e.vm, sched.Config{Workers: e.workers, Budget: budget, Target: t})
	if t.Err() != nil {
		return heap.Value{}, t, t.Err()
	}
	if !t.Done() {
		return heap.Value{}, t, fmt.Errorf("thread %s did not finish (budget %d)", t.Name(), budget)
	}
	return t.Result(), t, nil
}

// newEnv builds the attack environment. The heap is kept small so memory
// attacks bite quickly; thread limits are low for the same reason.
func newEnv(mode core.Mode) (*env, error) {
	vm := interp.NewVM(interp.Options{
		Mode:           mode,
		HeapLimit:      8 << 20,
		MaxThreads:     64,
		DisablePrepare: SeedDispatch,
	})
	if err := syslib.Install(vm); err != nil {
		return nil, err
	}
	if TestHookNewVM != nil {
		TestHookNewVM(vm)
	}
	fw, err := osgi.NewFramework(vm)
	if err != nil {
		return nil, err
	}
	return &env{vm: vm, fw: fw, workers: ConcurrentWorkers}, nil
}

// thresholds returns detector settings matched to the small attack
// environment.
func thresholds() core.Thresholds {
	return core.Thresholds{
		MaxLiveBytes:       2 << 20,
		MaxGCActivations:   5,
		MaxThreadsCreated:  16,
		MinCPUSharePercent: 70,
		MinCPUSamples:      100,
		MaxSleepingThreads: 0, // enabled per-attack
	}
}

// detectAndKill runs the admin loop once: snapshot, detect, kill the
// top offender. It returns (detected, killed bundle name).
func (e *env) detectAndKill(th core.Thresholds) (bool, string, error) {
	findings := e.fw.DetectOffenders(th)
	if len(findings) == 0 {
		return false, "", nil
	}
	offender := e.fw.BundleByIsolateID(findings[0].IsolateID)
	if offender == nil {
		return true, "", fmt.Errorf("finding names unknown isolate %d", findings[0].IsolateID)
	}
	if err := e.fw.KillBundle(offender); err != nil {
		return true, offender.Name(), err
	}
	return true, offender.Name(), nil
}
