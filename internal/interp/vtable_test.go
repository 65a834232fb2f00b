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

// vtInit is a constructor body delegating to super.
func vtInit(super string) func(a *bytecode.Assembler) {
	return func(a *bytecode.Assembler) {
		a.ALoad(0).InvokeSpecial(super, classfile.InitName, "()V").Return()
	}
}

// vtConst is a body of f(I)I returning its argument plus c.
func vtConst(c int64) func(a *bytecode.Assembler) {
	return func(a *bytecode.Assembler) { a.ILoad(1).Const(c).IAdd().IReturn() }
}

// vtGuardClasses builds the receivers of the guard test and one static
// entry point per site shape. Base.f sits at the same table index in Base
// as Rogue.decoy does in Rogue, so a handler that trusted the index
// without the guard would run decoy.
func vtGuardClasses() []*classfile.Class {
	obj := classfile.ObjectClassName
	mk := func(name string) *classfile.ClassBuilder {
		return classfile.NewClass(name).Method(classfile.InitName, "()V", 0, vtInit(obj))
	}
	sub := func(name, super string) *classfile.ClassBuilder {
		return classfile.NewClass(name).Super(super).Method(classfile.InitName, "()V", 0, vtInit(super))
	}
	newRecv := func(a *bytecode.Assembler, class string) {
		a.New(class).Dup().InvokeSpecial(class, classfile.InitName, "()V")
	}
	site := func(recvClass, typed string) func(a *bytecode.Assembler) {
		return func(a *bytecode.Assembler) {
			if recvClass == "" {
				a.Null()
			} else {
				newRecv(a, recvClass)
			}
			a.ILoad(0).InvokeVirtual(typed, "f", "(I)I").IReturn()
		}
	}
	driver := classfile.NewClass("vt/Driver")
	for name, rt := range map[string][2]string{
		"base":      {"vt/Base", "vt/Base"},
		"override":  {"vt/Sub", "vt/Base"},
		"inherited": {"vt/Plain", "vt/Base"},
		"deep":      {"vt/Leaf", "vt/Base"},
		"iface":     {"vt/Sub", "vt/IFace"},
		"rogue":     {"vt/Rogue", "vt/Base"},
		"mute":      {"vt/Mute", "vt/Base"},
		"hidden":    {"vt/Hider", "vt/Base"},
		"null":      {"", "vt/Base"},
	} {
		driver.Method(name, "(I)I", classfile.FlagStatic, site(rt[0], rt[1]))
	}
	return []*classfile.Class{
		mk("vt/Base").Method("f", "(I)I", 0, vtConst(1)).MustBuild(),
		sub("vt/Sub", "vt/Base").Implements("vt/IFace").Method("f", "(I)I", 0, vtConst(2)).MustBuild(),
		sub("vt/Plain", "vt/Base").MustBuild(),
		// Leaf is three levels down and overrides only at the bottom.
		sub("vt/Mid", "vt/Plain").Method("g", "(I)I", 0, vtConst(30)).MustBuild(),
		sub("vt/Leaf", "vt/Mid").Method("f", "(I)I", 0, vtConst(4)).MustBuild(),
		classfile.NewClass("vt/IFace").SetFlags(classfile.FlagInterface|classfile.FlagAbstract).
			RawMethod("f", "(I)I", classfile.FlagAbstract, nil).MustBuild(),
		mk("vt/Rogue").Method("decoy", "(I)I", 0, vtConst(-1000)).Method("f", "(I)I", 0, vtConst(5)).MustBuild(),
		mk("vt/Mute").Method("decoy", "(I)I", 0, vtConst(-2000)).MustBuild(),
		// Hider redeclares f as static: dispatch is by name and descriptor
		// alone, so the seed runs it with the receiver as its first local.
		sub("vt/Hider", "vt/Base").Method("f", "(I)I", classfile.FlagStatic, func(a *bytecode.Assembler) {
			a.Const(6).IReturn()
		}).MustBuild(),
		driver.MustBuild(),
	}
}

// TestVTableGuard drives one invokevirtual site per receiver shape and
// checks the guarded slot load against the outcome the language demands —
// and against the seed switch, whose dispatch by name is the reference
// for the shapes (ill-typed receivers, a static redeclaration) the
// language does not define.
func TestVTableGuard(t *testing.T) {
	want := map[string]string{
		"base":      "11",
		"override":  "12",
		"inherited": "11",
		"deep":      "14",
		"iface":     "12",
		"rogue":     "15",
		"mute":      "java/lang/NullPointerException: no such method vt/Mute.f(I)I",
		"hidden":    "6",
		"null":      "java/lang/NullPointerException: invoke on null: vt/Base.f(I)I",
	}
	run := func(opts interp.Options) map[string]string {
		vm := interp.NewVM(opts)
		syslib.MustInstall(vm)
		iso, err := vm.NewIsolate("main")
		if err != nil {
			t.Fatal(err)
		}
		if err := iso.Loader().DefineAll(vtGuardClasses()); err != nil {
			t.Fatal(err)
		}
		c, err := iso.Loader().Lookup("vt/Driver")
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[string]string)
		for name := range want {
			m, err := c.LookupMethod(name, "(I)I")
			if err != nil {
				t.Fatal(err)
			}
			// Twice: the first execution resolves the site, the second
			// takes the resolved path.
			for pass := 0; pass < 2; pass++ {
				v, th, err := vm.CallRoot(iso, m, []heap.Value{heap.IntVal(10)}, 100_000)
				if err != nil {
					t.Fatalf("%s: host error: %v", name, err)
				}
				out := fmt.Sprint(v.I)
				if th.Failure() != nil {
					out = th.FailureString()
				}
				if prev, ok := got[name]; ok && prev != out {
					t.Fatalf("%s: second execution gave %q, first %q", name, out, prev)
				}
				got[name] = out
			}
		}
		return got
	}
	seed := run(interp.Options{Mode: core.ModeIsolated, DisablePrepare: true})
	for _, opts := range []interp.Options{
		{Mode: core.ModeIsolated},
		{Mode: core.ModeShared},
	} {
		got := run(opts)
		for name, w := range want {
			if got[name] != w {
				t.Errorf("%+v: site %s gave %q, want %q", opts, name, got[name], w)
			}
			if got[name] != seed[name] {
				t.Errorf("%+v: site %s gave %q, the seed switch %q", opts, name, got[name], seed[name])
			}
		}
	}
}

// TestVTableSlotsMatchDispatchByName checks the link-time invariant the
// guard relies on, over every class the system library and the guard
// fixtures define: wherever a table entry shares its VRoot with a method
// m, it is what dispatch by name finds for m on that class.
func TestVTableSlotsMatchDispatchByName(t *testing.T) {
	vm := interp.NewVM(interp.Options{Mode: core.ModeIsolated})
	syslib.MustInstall(vm)
	iso, err := vm.NewIsolate("main")
	if err != nil {
		t.Fatal(err)
	}
	if err := iso.Loader().DefineAll(vtGuardClasses()); err != nil {
		t.Fatal(err)
	}
	classes := append(vm.Registry().Bootstrap().Classes(), iso.Loader().Classes()...)
	slotted := 0
	for _, c := range classes {
		for _, m := range c.Methods {
			ctor := m.Name == classfile.InitName || m.Name == classfile.ClinitName
			if ctor != (m.VSlot < 0) {
				t.Fatalf("%s: VSlot %d", m.QualifiedName(), m.VSlot)
			}
			if ctor {
				continue
			}
			for _, recv := range classes {
				if m.VSlot >= len(recv.VTable) || recv.VTable[m.VSlot].VRoot != m.VRoot {
					continue
				}
				slotted++
				byName, err := recv.Dispatch(m)
				if err != nil || byName != recv.VTable[m.VSlot] {
					t.Fatalf("%s on %s: table has %s, dispatch by name %v (%v)",
						m.QualifiedName(), recv.Name, recv.VTable[m.VSlot].QualifiedName(), byName, err)
				}
				if recv.VTable[m.VSlot].Sig() != m.Sig() {
					t.Fatalf("%s shares a slot with %s", m.QualifiedName(), recv.VTable[m.VSlot].QualifiedName())
				}
			}
		}
	}
	if slotted == 0 {
		t.Fatal("no (method, receiver class) pair passed the guard")
	}
}
