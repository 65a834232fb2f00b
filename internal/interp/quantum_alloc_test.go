package interp_test

import (
	"testing"

	"ijvm/internal/core"
	"ijvm/internal/interp"
	"ijvm/internal/syslib"
)

// TestQuantumAllocatesNothing: a quantum's accountant (and the concurrent
// engine's call-path batch) lives in the engine state that runs the
// quantum, so driving a thread through one costs no host allocation on
// either engine — it used to cost one and two. The thread sits in a loop
// of chained closure blocks, so the closure tier charges through the
// installed accountant for the whole quantum.
func TestQuantumAllocatesNothing(t *testing.T) {
	const quantum = 1000
	vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated, Quantum: quantum})
	syslib.MustInstall(vm)
	if _, err := vm.NewIsolate("platform"); err != nil {
		t.Fatal(err)
	}
	iso, err := vm.NewIsolate("spinner")
	if err != nil {
		t.Fatal(err)
	}
	class := endlessLoopClass()
	if err := iso.Loader().Define(class); err != nil {
		t.Fatal(err)
	}
	spin, err := class.LookupMethod("spin", "()V")
	if err != nil {
		t.Fatal(err)
	}
	th, err := vm.SpawnThread("spin", iso, spin, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Sequential engine; the warm-up run spawns the frame.
	if res := vm.RunUntil(th, 10*quantum); !res.BudgetExhausted {
		t.Fatalf("warm-up run: %+v", res)
	}
	if _, links, ok := interp.ClosureShapeForTest(spin.Code.Prepared()); !ok || links == 0 {
		t.Fatalf("the loop is not running chained closure blocks (program=%v, links=%d)", ok, links)
	}
	before := vm.TotalInstructions()
	if n := testing.AllocsPerRun(200, func() { vm.RunUntil(th, quantum) }); n != 0 {
		t.Errorf("a sequential quantum allocates %.2f times, want 0", n)
	}
	if got := vm.TotalInstructions() - before; got != 201*quantum {
		t.Fatalf("201 sequential quanta ran %d instructions, want %d", got, 201*quantum)
	}

	// Concurrent engine, driven the way a scheduler worker drives it.
	var worker interp.SampleState
	defer vm.ReleaseWorkerState(&worker)
	vm.RunThreadQuantum(th, iso, quantum, nil, &worker, nil) // acquires the worker's allocation state
	before = vm.TotalInstructions()
	if n := testing.AllocsPerRun(200, func() {
		vm.RunThreadQuantum(th, iso, quantum, nil, &worker, nil)
	}); n != 0 {
		t.Errorf("a concurrent quantum allocates %.2f times, want 0", n)
	}
	if got := vm.TotalInstructions() - before; got != 201*quantum {
		t.Fatalf("201 concurrent quanta ran %d instructions, want %d", got, 201*quantum)
	}
	if got := iso.Account().Instructions.Load(); got != vm.TotalInstructions() {
		t.Fatalf("the spinner's account reads %d instructions, the VM ran %d", got, vm.TotalInstructions())
	}
}
