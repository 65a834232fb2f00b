package loader_test

import (
	"errors"
	"strings"
	"testing"

	"ijvm/internal/bytecode"
	"ijvm/internal/classfile"
	"ijvm/internal/loader"
)

func simpleClass(name, super string) *classfile.Class {
	b := classfile.NewClass(name)
	if super != "" {
		b.Super(super)
	}
	b.Field("x", classfile.KindInt)
	b.StaticField("s", classfile.KindInt)
	b.Method("m", "()V", classfile.FlagStatic, func(a *bytecode.Assembler) { a.Return() })
	return b.MustBuild()
}

func newRegistryWithObject(t *testing.T) *loader.Registry {
	t.Helper()
	r := loader.NewRegistry()
	obj := classfile.NewClass(classfile.ObjectClassName).MustBuild()
	if err := r.Bootstrap().Define(obj); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestLinkAssignsSlotsAcrossHierarchy(t *testing.T) {
	r := newRegistryWithObject(t)
	l := r.NewLoader("app")
	base := simpleClass("a/Base", "")
	if err := l.Define(base); err != nil {
		t.Fatal(err)
	}
	derived := simpleClass("a/Derived", "a/Base")
	if err := l.Define(derived); err != nil {
		t.Fatal(err)
	}
	if base.NumFieldSlots != 1 || derived.NumFieldSlots != 2 {
		t.Fatalf("field slots: base=%d derived=%d", base.NumFieldSlots, derived.NumFieldSlots)
	}
	if derived.Fields[0].Slot != 1 {
		t.Fatalf("derived field slot = %d, want 1", derived.Fields[0].Slot)
	}
	if base.StaticsID == derived.StaticsID {
		t.Fatal("statics IDs must be unique")
	}
	if derived.Super != base {
		t.Fatal("superclass not resolved")
	}
	if base.LoaderID != l.ID() {
		t.Fatal("loader ID not recorded")
	}
}

// TestLinkAssignsMethodSlots pins the slot rule: an overriding method
// takes its parent's slot and root, a new one is appended, constructors
// take none, a subclass in another loader extends the same table, and
// defining subclasses leaves the parent's table as it was.
func TestLinkAssignsMethodSlots(t *testing.T) {
	r := newRegistryWithObject(t)
	ret := func(a *bytecode.Assembler) { a.Return() }
	class := func(name, super string, methods ...string) *classfile.Class {
		b := classfile.NewClass(name).Method(classfile.InitName, "()V", 0, ret)
		if super != "" {
			b.Super(super)
		}
		for _, m := range methods {
			b.Method(m, "()V", 0, ret)
		}
		return b.MustBuild()
	}
	l := r.NewLoader("app")
	a := l.MustDefine(class("v/A", "", "f", "g"))
	tableOfA := append([]*classfile.Method(nil), a.VTable...)
	b := l.MustDefine(class("v/B", "v/A", "h", "f"))
	other := r.NewLoader("other")
	other.AddDelegate(l)
	c := other.MustDefine(class("v/C", "v/B", "g"))

	method := func(c *classfile.Class, name string) *classfile.Method {
		m := c.DeclaredMethod(name, "()V")
		if m == nil {
			t.Fatalf("%s declares no %s", c.Name, name)
		}
		return m
	}
	af, ag, bf, bh, cg := method(a, "f"), method(a, "g"), method(b, "f"), method(b, "h"), method(c, "g")
	if af.VSlot != 0 || ag.VSlot != 1 || af.VRoot != af || ag.VRoot != ag {
		t.Fatalf("A: f slot %d, g slot %d", af.VSlot, ag.VSlot)
	}
	if bf.VSlot != af.VSlot || bf.VRoot != af {
		t.Fatalf("B.f overrides A.f but has slot %d", bf.VSlot)
	}
	if bh.VSlot != 2 || bh.VRoot != bh {
		t.Fatalf("B.h is new but has slot %d", bh.VSlot)
	}
	if cg.VSlot != ag.VSlot || cg.VRoot != ag {
		t.Fatalf("C.g overrides A.g across loaders but has slot %d", cg.VSlot)
	}
	if m := method(a, classfile.InitName); m.VSlot != -1 || m.VRoot != nil {
		t.Fatalf("constructor has slot %d", m.VSlot)
	}
	for _, tc := range []struct {
		class *classfile.Class
		want  []*classfile.Method
	}{
		{a, []*classfile.Method{af, ag}},
		{b, []*classfile.Method{bf, ag, bh}},
		{c, []*classfile.Method{bf, cg, bh}},
	} {
		if len(tc.class.VTable) != len(tc.want) {
			t.Fatalf("%s: table of %d entries, want %d", tc.class.Name, len(tc.class.VTable), len(tc.want))
		}
		for i, m := range tc.want {
			if tc.class.VTable[i] != m {
				t.Fatalf("%s slot %d: %s, want %s", tc.class.Name, i, tc.class.VTable[i].QualifiedName(), m.QualifiedName())
			}
		}
	}
	for i, m := range tableOfA {
		if a.VTable[i] != m {
			t.Fatalf("defining subclasses rewrote A's slot %d", i)
		}
	}
}

func TestBootstrapClassesAreSystem(t *testing.T) {
	r := newRegistryWithObject(t)
	obj, err := r.Bootstrap().Lookup(classfile.ObjectClassName)
	if err != nil {
		t.Fatal(err)
	}
	if !obj.IsSystem() {
		t.Fatal("bootstrap class must carry FlagSystem")
	}
	l := r.NewLoader("app")
	c := simpleClass("a/C", "")
	if err := l.Define(c); err != nil {
		t.Fatal(err)
	}
	if c.IsSystem() {
		t.Fatal("application class must not carry FlagSystem")
	}
}

func TestLookupDelegation(t *testing.T) {
	r := newRegistryWithObject(t)
	exporter := r.NewLoader("exporter")
	if err := exporter.Define(simpleClass("exp/C", "")); err != nil {
		t.Fatal(err)
	}
	importer := r.NewLoader("importer")

	// Without wiring: not visible.
	if _, err := importer.Lookup("exp/C"); err == nil {
		t.Fatal("class visible without delegation")
	}
	var cnf *loader.ClassNotFoundError
	if _, err := importer.Lookup("exp/C"); !errors.As(err, &cnf) {
		t.Fatalf("error type: %v", err)
	}

	importer.AddDelegate(exporter)
	if _, err := importer.Lookup("exp/C"); err != nil {
		t.Fatalf("delegation failed: %v", err)
	}
	// Bootstrap always wins.
	if c, err := importer.Lookup(classfile.ObjectClassName); err != nil || !c.IsSystem() {
		t.Fatalf("bootstrap lookup: %v", err)
	}
	// Self/nil delegation is ignored.
	importer.AddDelegate(importer)
	importer.AddDelegate(nil)
	importer.AddDelegate(exporter) // duplicate
}

func TestDefineRejectsDuplicatesAndRelinks(t *testing.T) {
	r := newRegistryWithObject(t)
	l := r.NewLoader("app")
	c := simpleClass("a/C", "")
	if err := l.Define(c); err != nil {
		t.Fatal(err)
	}
	if err := l.Define(c); err == nil || !strings.Contains(err.Error(), "already defined") {
		t.Fatalf("relink err = %v", err)
	}
	dup := simpleClass("a/C", "")
	if err := l.Define(dup); err == nil || !strings.Contains(err.Error(), "duplicate class") {
		t.Fatalf("duplicate err = %v", err)
	}
	if err := l.Define(simpleClass("a/D", "missing/Super")); err == nil {
		t.Fatal("missing superclass accepted")
	}
}

func TestDefineAllOrdersBySuperclass(t *testing.T) {
	r := newRegistryWithObject(t)
	l := r.NewLoader("app")
	// Deliberately reversed order.
	classes := []*classfile.Class{
		simpleClass("o/C", "o/B"),
		simpleClass("o/B", "o/A"),
		simpleClass("o/A", ""),
	}
	if err := l.DefineAll(classes); err != nil {
		t.Fatal(err)
	}
	if l.NumClasses() != 3 {
		t.Fatalf("defined %d classes", l.NumClasses())
	}
	names := []string{}
	for _, c := range l.Classes() {
		names = append(names, c.Name)
	}
	if names[0] != "o/A" || names[2] != "o/C" {
		t.Fatalf("Classes() = %v", names)
	}
}

func TestDefineAllDetectsCycles(t *testing.T) {
	r := newRegistryWithObject(t)
	l := r.NewLoader("app")
	err := l.DefineAll([]*classfile.Class{
		simpleClass("c/A", "c/B"),
		simpleClass("c/B", "c/A"),
	})
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("err = %v", err)
	}
}

func TestRegistryAccessors(t *testing.T) {
	r := newRegistryWithObject(t)
	l1 := r.NewLoader("one")
	if r.NumLoaders() != 2 {
		t.Fatalf("loaders = %d", r.NumLoaders())
	}
	if r.Loader(l1.ID()) != l1 || r.Loader(99) != nil || r.Loader(-1) != nil {
		t.Fatal("Loader accessor broken")
	}
	c := simpleClass("x/C", "")
	if err := l1.Define(c); err != nil {
		t.Fatal(err)
	}
	if r.ClassByStaticsID(c.StaticsID) != c {
		t.Fatal("ClassByStaticsID broken")
	}
	if r.ClassByStaticsID(1000) != nil {
		t.Fatal("out-of-range StaticsID accepted")
	}
	if r.NumClasses() != 2 { // Object + x/C
		t.Fatalf("NumClasses = %d", r.NumClasses())
	}
}
