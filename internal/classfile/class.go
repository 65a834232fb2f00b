package classfile

import (
	"fmt"
	"unsafe"

	"ijvm/internal/bytecode"
)

// Flags carries access and property flags for classes, methods and fields.
type Flags uint16

// Flag bits.
const (
	FlagPublic Flags = 1 << iota
	FlagPrivate
	FlagStatic
	FlagFinal
	FlagNative
	FlagSynchronized
	FlagAbstract
	FlagInterface
	FlagSystem // defined by the bootstrap loader (Java System Library)
)

// Has reports whether all bits in mask are set.
func (f Flags) Has(mask Flags) bool { return f&mask == mask }

// Field describes one declared field. Instance fields receive a slot index
// in the object's field array at link time (superclass fields first);
// static fields receive a slot in the class's static area.
type Field struct {
	Class  *Class
	Name   string
	Kind   Kind
	Flags  Flags
	Slot   int
	Static bool
}

// QualifiedName returns "class.field" for diagnostics.
func (f *Field) QualifiedName() string { return f.Class.Name + "." + f.Name }

// Method describes one declared method. Exactly one of Code and Native is
// set: Code for bytecode methods, Native for methods implemented by the
// host (the Java System Library). Native holds an interp.NativeFunc; it is
// typed as any here to keep this package free of interpreter dependencies.
type Method struct {
	Class  *Class
	Name   string
	Desc   Descriptor
	Flags  Flags
	Code   *bytecode.Code
	Native any

	// ID is a process-unique method identifier assigned at link time, used
	// by execution traces and the termination engine.
	ID int

	// VSlot is the method's index in its class's VTable — and in every
	// subclass's — assigned at link time; constructors, class initializers
	// and methods of unlinked classes have none (-1). VRoot is the
	// declaration that introduced the slot (the method itself unless it
	// overrides): two methods share a VRoot exactly when one table entry
	// can dispatch to either, which is what invokevirtual's guard checks.
	VSlot int
	VRoot *Method

	// sig caches Sig() so dispatch by name never concatenates.
	sig string
}

// QualifiedName returns "class.name(desc)" for diagnostics.
func (m *Method) QualifiedName() string {
	return m.Class.Name + "." + m.Name + m.Desc.Raw()
}

// IsStatic reports whether the method has no receiver.
func (m *Method) IsStatic() bool { return m.Flags.Has(FlagStatic) }

// IsNative reports whether the method is host-implemented.
func (m *Method) IsNative() bool { return m.Flags.Has(FlagNative) }

// IsSynchronized reports whether the method acquires a monitor on entry:
// the receiver for instance methods, the class object for static methods.
func (m *Method) IsSynchronized() bool { return m.Flags.Has(FlagSynchronized) }

// Sig returns the "name+descriptor" key used for method lookup.
func (m *Method) Sig() string {
	if m.sig != "" {
		return m.sig
	}
	return m.Name + m.Desc.Raw()
}

// Class is the runtime representation of one loaded class. Per the paper,
// the class structure itself is shared between isolates; everything
// isolate-private (static variable values, the java.lang.Class object, the
// initialization state) lives in the task class mirror; the class carries
// its own mirror row (MirrorRow), which the isolate world indexes with the
// thread's current isolate (§3.1).
type Class struct {
	Name      string
	SuperName string
	Super     *Class
	// MirrorRow is the class's task-class-mirror row, indexed by isolate
	// ID. It is opaque here, like PoolEntry.ResolvedMirror: internal/core
	// owns the pointee type (*[]*core.TaskClassMirror) and is the only
	// reader and writer, always through sync/atomic. It sits beside Super
	// because every static access reads both (the initialization check
	// walks the superclass chain, one mirror per class).
	MirrorRow  unsafe.Pointer
	Interfaces []string
	Flags      Flags
	Pool       *ConstantPool

	// Declared members (not including superclass members).
	Fields       []*Field
	StaticFields []*Field
	Methods      []*Method

	// Link-time state, populated by the loader.
	Linked         bool
	NumFieldSlots  int // instance slots including superclasses
	NumStaticSlots int // static slots declared by this class only
	StaticsID      int // link order: position in the registry's class index
	LoaderID       int // defining class loader (isolate association)
	Clinit         *Method
	// VTable is the virtual dispatch table: the superclass's table with
	// this class's overrides written into their inherited slots and its
	// new methods appended (AssignMethodSlots). Immutable once linked, so
	// defining a subclass never touches it.
	VTable []*Method
	// HasFinalizer is set when the class (or a superclass) declares
	// finalize()V; instances are finalized before reclamation.
	HasFinalizer bool

	// methodsBySig, fieldsByName and staticsByName are built once at link
	// time and read-only afterwards, so lookups take no lock.
	methodsBySig  map[string]*Method
	fieldsByName  map[string]*Field
	staticsByName map[string]*Field
}

// IsSystem reports whether the class belongs to the Java System Library
// (bootstrap loader). System code executes in the caller's isolate and its
// frames are skipped during GC accounting.
func (c *Class) IsSystem() bool { return c.Flags.Has(FlagSystem) }

// DeclaredMethod returns the method declared directly on c with the given
// name and descriptor, or nil.
func (c *Class) DeclaredMethod(name, desc string) *Method {
	return c.methodsBySig[name+desc]
}

// LookupMethod resolves name+descriptor against c and its superclasses.
// The descriptor may be in any spelling accepted by ParseDescriptor; it is
// canonicalized before matching (declared signatures are stored
// canonically). It serves symbolic resolution and host lookups — once per
// pool entry or per set-up step — and is not on the call path.
func (c *Class) LookupMethod(name, desc string) (*Method, error) {
	key := name + desc
	if parsed, err := ParseDescriptor(desc); err == nil {
		key = name + parsed.Raw()
	}
	if m := c.findBySig(key); m != nil {
		return m, nil
	}
	return nil, &NoSuchMethodError{Class: c.Name, Name: name, Desc: desc}
}

// findBySig returns the most-derived declaration of a canonical
// name+descriptor key along c's superclass chain, or nil. The per-class
// maps are read-only after link, so the walk takes no lock.
func (c *Class) findBySig(sig string) *Method {
	for k := c; k != nil; k = k.Super {
		if m, ok := k.methodsBySig[sig]; ok {
			return m
		}
	}
	return nil
}

// Dispatch selects the method an invokevirtual of m runs on a receiver of
// class c, by name and descriptor alone: the most-derived declaration
// along c's superclass chain, whatever its flags and whether or not c is
// related to m's class (bytecode is not type-checked). It is the
// reference semantics — the seed interpreter uses nothing else — and the
// path prepared code takes when the VTable guard fails. It does not
// allocate.
func (c *Class) Dispatch(m *Method) (*Method, error) {
	if target := c.findBySig(m.Sig()); target != nil {
		return target, nil
	}
	return nil, &NoSuchMethodError{Class: c.Name, Name: m.Name, Desc: m.Desc.Raw()}
}

// AssignMethodSlots builds c.VTable from the already-linked superclass's
// table, the way field slots extend the superclass's layout: a method
// whose name and descriptor match an inherited entry takes that entry's
// slot (and VRoot), any other gets a fresh slot at the end. Flags do not
// participate, as in Dispatch, so for every class K below the one that
// introduced a slot, K.VTable[slot] is what K.Dispatch returns for that
// signature. Constructors and class initializers take no slot. Called by
// the loader at link time.
func (c *Class) AssignMethodSlots() {
	var inherited []*Method
	if c.Super != nil {
		inherited = c.Super.VTable
	}
	vt := make([]*Method, len(inherited), len(inherited)+len(c.Methods))
	copy(vt, inherited)
	for _, m := range c.Methods {
		if m.Name == InitName || m.Name == ClinitName {
			continue
		}
		if p := c.Super.findBySig(m.sig); p != nil {
			m.VSlot, m.VRoot = p.VSlot, p.VRoot
			vt[m.VSlot] = m
		} else {
			m.VSlot, m.VRoot = len(vt), m
			vt = append(vt, m)
		}
	}
	c.VTable = vt
}

// LookupField resolves an instance field by name against c and its
// superclasses.
func (c *Class) LookupField(name string) (*Field, error) {
	for k := c; k != nil; k = k.Super {
		if f, ok := k.fieldsByName[name]; ok {
			return f, nil
		}
	}
	return nil, &NoSuchFieldError{Class: c.Name, Name: name}
}

// LookupStaticField resolves a static field by name against c and its
// superclasses.
func (c *Class) LookupStaticField(name string) (*Field, error) {
	for k := c; k != nil; k = k.Super {
		if f, ok := k.staticsByName[name]; ok {
			return f, nil
		}
	}
	return nil, &NoSuchFieldError{Class: c.Name, Name: name, Static: true}
}

// IsSubclassOf reports whether c is other or a subclass of other, or
// whether c declares other as an interface anywhere along its superclass
// chain.
func (c *Class) IsSubclassOf(other *Class) bool {
	if other == nil {
		return false
	}
	for k := c; k != nil; k = k.Super {
		if k == other {
			return true
		}
		for _, ifname := range k.Interfaces {
			if ifname == other.Name {
				return true
			}
		}
	}
	return false
}

// buildIndexes populates the lookup maps; called by the loader at link
// time and by the builder.
func (c *Class) buildIndexes() {
	c.methodsBySig = make(map[string]*Method, len(c.Methods))
	for _, m := range c.Methods {
		m.sig = m.Name + m.Desc.Raw()
		m.VSlot = -1
		c.methodsBySig[m.sig] = m
		if m.Name == ClinitName {
			c.Clinit = m
		}
	}
	c.fieldsByName = make(map[string]*Field, len(c.Fields))
	for _, f := range c.Fields {
		c.fieldsByName[f.Name] = f
	}
	c.staticsByName = make(map[string]*Field, len(c.StaticFields))
	for _, f := range c.StaticFields {
		c.staticsByName[f.Name] = f
	}
}

// Well-known member names.
const (
	// ClinitName is the class initializer run once per isolate (per task
	// class mirror) before the first static access.
	ClinitName = "<clinit>"
	// InitName is the instance constructor name.
	InitName = "<init>"
)

// NoSuchMethodError reports a failed method resolution.
type NoSuchMethodError struct {
	Class string
	Name  string
	Desc  string
}

func (e *NoSuchMethodError) Error() string {
	return fmt.Sprintf("no such method %s.%s%s", e.Class, e.Name, e.Desc)
}

// NoSuchFieldError reports a failed field resolution.
type NoSuchFieldError struct {
	Class  string
	Name   string
	Static bool
}

func (e *NoSuchFieldError) Error() string {
	kind := "field"
	if e.Static {
		kind = "static field"
	}
	return fmt.Sprintf("no such %s %s.%s", kind, e.Class, e.Name)
}
