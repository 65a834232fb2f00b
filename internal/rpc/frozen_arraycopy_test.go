package rpc_test

import (
	"strings"
	"testing"

	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
	"ijvm/internal/rpc"
	"ijvm/internal/syslib"
)

const (
	scribbleClass     = "frz/Scribble"
	arraycopyDesc     = "(Ljava/lang/Object;ILjava/lang/Object;II)V"
	scribbleTableSize = 4
)

// scribbleClasses builds the attacker: a static table filled by <clinit>
// (frozen before the snapshot capture, so clones share it), and two methods that overwrite the
// first two slots of an array with 9s through System.arraycopy — into
// the argument (the RPC payload) or into the static table.
func scribbleClasses() []*classfile.Class {
	nines := func(a *bytecode.Assembler, slot int) {
		a.Const(2).NewArray("").AStore(slot)
		a.ALoad(slot).Const(0).Const(9).ArrayStore()
		a.ALoad(slot).Const(1).Const(9).ArrayStore()
	}
	c := classfile.NewClass(scribbleClass).
		StaticField("table", classfile.KindRef).
		Method(classfile.ClinitName, "()V", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.Const(scribbleTableSize).NewArray("").AStore(0)
			a.Const(0).IStore(1)
			a.Label("loop").ILoad(1).Const(scribbleTableSize).IfICmpGe("done")
			a.ALoad(0).ILoad(1).ILoad(1).ArrayStore()
			a.IInc(1, 1).Goto("loop")
			a.Label("done").ALoad(0).PutStatic(scribbleClass, "table").Return()
		}).
		Method("touch", "()I", classfile.FlagPublic|classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.GetStatic(scribbleClass, "table").Const(3).ArrayLoad().IReturn()
		}).
		Method("intoArg", "(Ljava/lang/Object;)I", classfile.FlagPublic|classfile.FlagStatic, func(a *bytecode.Assembler) {
			nines(a, 1)
			a.ALoad(1).Const(0).ALoad(0).Const(0).Const(2).
				InvokeStatic("java/lang/System", "arraycopy", arraycopyDesc)
			a.Const(1).IReturn()
		}).
		Method("intoTable", "()I", classfile.FlagPublic|classfile.FlagStatic, func(a *bytecode.Assembler) {
			nines(a, 0)
			a.ALoad(0).Const(0).GetStatic(scribbleClass, "table").Const(0).Const(2).
				InvokeStatic("java/lang/System", "arraycopy", arraycopyDesc)
			a.Const(1).IReturn()
		}).MustBuild()
	return []*classfile.Class{c}
}

func requireUntouched(t *testing.T, arr *heap.Object) {
	t.Helper()
	for i, v := range arr.Elems {
		if v.I != int64(i) {
			t.Fatalf("frozen array mutated: slot %d = %d", i, v.I)
		}
	}
}

// TestArraycopyIntoFrozenArrayRejected is the regression for the
// System.arraycopy isolation hole: the native wrote into a frozen
// destination, so a callee handed a zero-copy payload, or a clone sharing
// a frozen snapshot array, could mutate memory another isolate
// reads. Both must throw before any slot is written, whichever way the
// calling code is dispatched: the seed switch, or the closure blocks every
// prepared method runs.
func TestArraycopyIntoFrozenArrayRejected(t *testing.T) {
	legs := []struct {
		name string
		opts interp.Options
	}{
		{"seed", interp.Options{DisablePrepare: true}},
		{"closure", interp.Options{}},
	}
	for _, leg := range legs {
		t.Run(leg.name+"/rpc-payload", func(t *testing.T) {
			opts := leg.opts
			opts.Mode = core.ModeIsolated
			vm := interp.NewVM(opts)
			syslib.MustInstall(vm)
			callee, err := vm.NewIsolate("callee")
			if err != nil {
				t.Fatal(err)
			}
			if err := callee.Loader().DefineAll(scribbleClasses()); err != nil {
				t.Fatal(err)
			}
			caller, err := vm.NewIsolate("caller")
			if err != nil {
				t.Fatal(err)
			}
			objClass, err := vm.Registry().Bootstrap().Lookup(interp.ClassObject)
			if err != nil {
				t.Fatal(err)
			}
			roots := vm.NewHostRoots(caller)
			defer roots.Release()
			arr, err := vm.AllocArrayRooted(roots, objClass, scribbleTableSize, caller)
			if err != nil {
				t.Fatal(err)
			}
			for i := range arr.Elems {
				arr.Elems[i] = heap.IntVal(int64(i))
			}
			if err := heap.Freeze(arr); err != nil {
				t.Fatal(err)
			}
			c, _ := callee.Loader().Lookup(scribbleClass)
			m, err := c.LookupMethod("intoArg", "(Ljava/lang/Object;)I")
			if err != nil {
				t.Fatal(err)
			}
			hub := rpc.NewHub(vm)
			defer hub.Close()
			link, err := hub.NewLink(caller, callee, m, heap.Value{}, rpc.LinkOptions{ZeroCopy: true})
			if err != nil {
				t.Fatal(err)
			}
			defer link.Close()
			_, err = link.Call([]heap.Value{heap.RefVal(arr)})
			if err == nil || !strings.Contains(err.Error(), "IllegalStateException") {
				t.Fatalf("arraycopy into frozen payload: %v, want IllegalStateException", err)
			}
			requireUntouched(t, arr)
		})
		t.Run(leg.name+"/clone-template", func(t *testing.T) {
			opts := leg.opts
			opts.Mode = core.ModeIsolated
			vm := interp.NewVM(opts)
			syslib.MustInstall(vm)
			if _, err := vm.NewIsolate("runtime"); err != nil {
				t.Fatal(err)
			}
			tl := vm.Registry().NewLoader("template")
			if err := tl.DefineAll(scribbleClasses()); err != nil {
				t.Fatal(err)
			}
			warmer, err := vm.NewIsolate("warmer")
			if err != nil {
				t.Fatal(err)
			}
			warmer.Loader().AddDelegate(tl)
			call := func(iso *core.Isolate, name string) (heap.Value, *interp.Thread) {
				c, err := iso.Loader().Lookup(scribbleClass)
				if err != nil {
					t.Fatal(err)
				}
				m, err := c.LookupMethod(name, "()I")
				if err != nil {
					t.Fatal(err)
				}
				v, th, err := vm.CallRoot(iso, m, nil, 1_000_000)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				return v, th
			}
			if v, th := call(warmer, "touch"); th.Failure() != nil || v.I != 3 {
				t.Fatalf("warm-up: %d / %s", v.I, th.FailureString())
			}
			tableOf := func(iso *core.Isolate) *heap.Object {
				for _, e := range vm.World().MirrorEntries(iso) {
					if e.Class.Name == scribbleClass {
						return e.Mirror.Statics[0].R
					}
				}
				return nil
			}
			if err := heap.Freeze(tableOf(warmer)); err != nil {
				t.Fatal(err)
			}
			snap, err := vm.CaptureSnapshot(warmer, interp.SnapshotOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer snap.Release()
			clone, err := vm.CloneIsolate(snap, "tenant")
			if err != nil {
				t.Fatal(err)
			}
			table := tableOf(clone)
			if table == nil || table != tableOf(warmer) || !table.Frozen() {
				t.Fatal("clone does not share a frozen template table")
			}
			_, th := call(clone, "intoTable")
			if !strings.Contains(th.FailureString(), "IllegalStateException") {
				t.Fatalf("arraycopy into frozen template array: %q, want IllegalStateException", th.FailureString())
			}
			requireUntouched(t, table)
			if v, th := call(warmer, "touch"); th.Failure() != nil || v.I != 3 {
				t.Fatalf("template reads %d after the clone's attempt / %s", v.I, th.FailureString())
			}
		})
	}
}
