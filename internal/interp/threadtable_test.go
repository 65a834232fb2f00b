package interp_test

import (
	"testing"

	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/interp"
	"ijvm/internal/syslib"
)

// TestThreadTableRule pins what compactThreadsLocked keeps and what it
// moves: unfinished threads stay, in spawn order; a finished thread that
// RespawnThread is re-arming (listed, still Done while its frames are
// rebuilt — a stop on another goroutine can land there) stays too; the
// rest are dropped and flagged so a later respawn lists them again; and
// the sequential round-robin cursor still points at the thread it pointed
// at. Then a stop reports the bound through StopStats.
func TestThreadTableRule(t *testing.T) {
	vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated, MaxThreads: 1024})
	syslib.MustInstall(vm)
	iso, err := vm.NewIsolate("main")
	if err != nil {
		t.Fatal(err)
	}
	c := classfile.NewClass("tt/Main").
		Method("one", "()I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.Const(1).IReturn()
		}).
		Method("spin", "()V", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.Label("loop").Goto("loop")
		}).MustBuild()
	if err := iso.Loader().Define(c); err != nil {
		t.Fatal(err)
	}
	one, _ := c.LookupMethod("one", "()I")
	spin, _ := c.LookupMethod("spin", "()V")

	// 150 short threads with three spinners among them.
	var spinners, short []*interp.Thread
	for i := 0; i < 153; i++ {
		m, keep := one, &short
		if i%51 == 25 {
			m, keep = spin, &spinners
		}
		th, err := vm.SpawnThread("t", iso, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		*keep = append(*keep, th)
	}
	if res := vm.Run(100_000); !res.BudgetExhausted {
		t.Fatalf("run ended early: %+v", res)
	}
	for _, th := range short {
		if !th.Done() {
			t.Fatal("a short thread did not finish within the budget")
		}
	}
	if got := len(vm.Threads()); got != 153 {
		t.Fatalf("%d threads listed after one run, want all 153 (the rule runs at run start and at stops)", got)
	}

	rearming := short[100] // spawned between the second and third spinner
	table, cursor := vm.CompactThreadTableForTest(rearming, spinners[1])

	want := []*interp.Thread{spinners[0], spinners[1], rearming, spinners[2]}
	if len(table) != len(want) {
		t.Fatalf("%d threads kept, want %d", len(table), len(want))
	}
	for i := range want {
		if table[i] != want[i] {
			t.Fatalf("kept thread %d is %d, want %d: spawn order not preserved", i, table[i].ID(), want[i].ID())
		}
	}
	if cursor != spinners[1] {
		t.Fatalf("round-robin cursor moved to thread %d, want %d", cursor.ID(), spinners[1].ID())
	}
	keptPruned, _ := vm.TableFlagsForTest(rearming)
	droppedPruned, _ := vm.TableFlagsForTest(short[0])
	if keptPruned || !droppedPruned {
		t.Fatalf("pruned flags: re-arming thread %v, dropped thread %v", keptPruned, droppedPruned)
	}

	// A dropped thread is listed again by its respawn, and arming ends
	// with the respawn.
	if err := vm.RespawnThread(short[0], "again", iso, spin, nil); err != nil {
		t.Fatal(err)
	}
	if pruned, arming := vm.TableFlagsForTest(short[0]); pruned || arming {
		t.Fatalf("after respawn: pruned %v, arming %v", pruned, arming)
	}
	if ts := vm.Threads(); ts[len(ts)-1] != short[0] {
		t.Fatal("a respawned dropped thread is not listed at the end of the table")
	}

	before := vm.StopStats()
	vm.CollectGarbage(nil)
	st := vm.StopStats()
	if st.Stops != before.Stops+1 || st.TotalNs <= before.TotalNs || st.MaxNs <= 0 {
		t.Fatalf("a collection is one stop: before %+v, after %+v", before, st)
	}
	if st.ThreadsLive != 4 || st.ThreadsListed > 2*st.ThreadsLive+64 {
		t.Fatalf("stop saw %d listed / %d live", st.ThreadsListed, st.ThreadsLive)
	}
}
