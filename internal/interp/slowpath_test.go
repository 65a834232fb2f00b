package interp_test

import (
	"fmt"
	"testing"

	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
	"ijvm/internal/syslib"
)

// The closure blocks have one slow path: a guarded micro that misses bails,
// and the reference switch runs the instruction on the same frame and pc.
// The switch is also what fills the caches the micros read — the field
// slot of a getfield/putfield site, the pool entry's resolved field, class,
// method and Shared mirror, the isolate's initialized mirror — so a site
// that bails on its first execution must run compiled on its second.

const (
	spC   = "sp/C"
	spBox = "sp/Box"
)

// slowPathClasses builds Box{v} with the leaf get() and C, whose methods
// each hold one guarded site kind; head's invoke is the first instruction
// of its block.
func slowPathClasses() []*classfile.Class {
	box := classfile.NewClass(spBox).
		Field("v", classfile.KindInt).
		Method("get", "()I", 0, func(a *bytecode.Assembler) {
			a.ALoad(0).GetField(spBox, "v").IReturn()
		}).MustBuild()
	static := classfile.FlagStatic
	c := classfile.NewClass(spC).
		StaticField("x", classfile.KindInt).
		Method("getfield", "(Lsp/Box;)I", static, func(a *bytecode.Assembler) {
			a.ALoad(0).GetField(spBox, "v").IReturn()
		}).
		Method("putfield", "(Lsp/Box;I)V", static, func(a *bytecode.Assembler) {
			a.ALoad(0).ILoad(1).PutField(spBox, "v").Return()
		}).
		Method("getstatic", "()I", static, func(a *bytecode.Assembler) {
			a.GetStatic(spC, "x").IReturn()
		}).
		Method("putstatic", "(I)V", static, func(a *bytecode.Assembler) {
			a.ILoad(0).PutStatic(spC, "x").Return()
		}).
		Method("new", "()Ljava/lang/Object;", static, func(a *bytecode.Assembler) {
			a.New(spBox).AReturn()
		}).
		Method("newarray", "(I)Ljava/lang/Object;", static, func(a *bytecode.Assembler) {
			a.ILoad(0).NewArray(spBox).AReturn()
		}).
		Method("invokevirtual", "(Lsp/Box;)I", static, func(a *bytecode.Assembler) {
			a.ALoad(0).InvokeVirtual(spBox, "get", "()I").IReturn()
		}).
		Method("invokespecial", "(Lsp/Box;)I", static, func(a *bytecode.Assembler) {
			a.ALoad(0).InvokeSpecial(spBox, "get", "()I").IReturn()
		}).
		Method("inc", "(I)I", static, func(a *bytecode.Assembler) {
			a.ILoad(0).Const(1).IAdd().IReturn()
		}).
		Method("invokestatic", "(I)I", static, func(a *bytecode.Assembler) {
			a.ILoad(0).InvokeStatic(spC, "inc", "(I)I").IReturn()
		}).
		Method("seven", "()I", static, func(a *bytecode.Assembler) {
			a.Const(7).IReturn()
		}).
		Method("head", "()I", static, func(a *bytecode.Assembler) {
			a.InvokeStatic(spC, "seven", "()I").IReturn()
		}).MustBuild()
	return []*classfile.Class{box, c}
}

// TestSlowPathFillsMicroCaches runs each guarded site kind twice, in both
// modes, stepping it the way the quantum routine does: the first execution
// must hand the site to the switch (more than one engine step), and the
// second must retire the same instructions as one chained step — every
// cache its micro reads was filled by the first. An invoke's callee is a
// leaf, so the second call inlines it: its getfield must find the slot the
// switch published when the first call ran the callee's frame.
func TestSlowPathFillsMicroCaches(t *testing.T) {
	sites := []struct {
		method string
		args   func(box *heap.Object) []heap.Value
	}{
		{"getfield", func(b *heap.Object) []heap.Value { return []heap.Value{heap.RefVal(b)} }},
		{"putfield", func(b *heap.Object) []heap.Value { return []heap.Value{heap.RefVal(b), heap.IntVal(5)} }},
		{"getstatic", nil},
		{"putstatic", func(*heap.Object) []heap.Value { return []heap.Value{heap.IntVal(3)} }},
		{"new", nil},
		{"newarray", func(*heap.Object) []heap.Value { return []heap.Value{heap.IntVal(4)} }},
		{"invokevirtual", func(b *heap.Object) []heap.Value { return []heap.Value{heap.RefVal(b)} }},
		{"invokespecial", func(b *heap.Object) []heap.Value { return []heap.Value{heap.RefVal(b)} }},
		{"invokestatic", func(*heap.Object) []heap.Value { return []heap.Value{heap.IntVal(1)} }},
		{"head", nil},
	}
	for _, mode := range []core.Mode{core.ModeShared, core.ModeIsolated} {
		for _, site := range sites {
			t.Run(fmt.Sprintf("%s/%v", site.method, mode), func(t *testing.T) {
				// A VM per site, so no other site filled its caches.
				vm := interp.NewVM(interp.Options{Mode: mode})
				syslib.MustInstall(vm)
				iso, err := vm.NewIsolate("sp")
				if err != nil {
					t.Fatal(err)
				}
				if err := iso.Loader().DefineAll(slowPathClasses()); err != nil {
					t.Fatal(err)
				}
				c, _ := iso.Loader().Lookup(spC)
				boxClass, _ := iso.Loader().Lookup(spBox)
				box, err := vm.AllocObjectIn(nil, boxClass, iso)
				if err != nil {
					t.Fatal(err)
				}
				var args []heap.Value
				if site.args != nil {
					args = site.args(box)
				}
				m := findMethod(t, c, site.method)
				run := func() []int64 {
					t.Helper()
					th, err := vm.SpawnThread(site.method, iso, m, args)
					if err != nil {
						t.Fatal(err)
					}
					sizes, err := vm.StepSizesForTest(th, 1<<40, 100)
					if err != nil || !th.Done() || th.Failure() != nil {
						t.Fatalf("steps %v: err %v, done %v, failure %s", sizes, err, th.Done(), th.FailureString())
					}
					return sizes
				}
				first, second := run(), run()
				var total int64
				for _, s := range first {
					total += s
				}
				if len(first) < 2 {
					t.Fatalf("first execution ran as steps %v: the site did not reach the switch", first)
				}
				if len(second) != 1 || second[0] != total {
					t.Fatalf("second execution ran as steps %v, want one step of %d (first: %v)", second, total, first)
				}
			})
		}
	}
}
