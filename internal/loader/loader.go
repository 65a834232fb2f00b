// Package loader implements class loaders and the class registry. A class
// loader delimits an isolate's scope, exactly as in the paper (§3.1): "an
// isolate is built from a class loader, so its scope is the classes loaded
// by the class loader". The bootstrap loader holds the Java System Library
// and belongs to no isolate; its code executes in the caller's isolate.
package loader

import (
	"errors"
	"fmt"
	"sort"

	"ijvm/internal/classfile"
)

// BootstrapID is the loader ID of the bootstrap (system library) loader.
const BootstrapID = 0

// FinalizeName is the finalizer method name; instances of classes
// declaring finalize()V are finalized before the collector reclaims them.
const FinalizeName = "finalize"

// ClassNotFoundError reports a failed class lookup.
type ClassNotFoundError struct {
	Loader string
	Name   string
}

func (e *ClassNotFoundError) Error() string {
	return fmt.Sprintf("class %s not found by loader %s", e.Name, e.Loader)
}

// Loader defines and resolves classes. Lookup order is: bootstrap loader,
// the loader's own classes, then delegate loaders (OSGi package wiring).
type Loader struct {
	id        int
	name      string
	registry  *Registry
	classes   map[string]*classfile.Class
	delegates []*Loader
}

// ID returns the loader's registry ID (BootstrapID for the bootstrap
// loader).
func (l *Loader) ID() int { return l.id }

// Name returns the loader's diagnostic name.
func (l *Loader) Name() string { return l.name }

// IsBootstrap reports whether this is the system-library loader.
func (l *Loader) IsBootstrap() bool { return l.id == BootstrapID }

// AddDelegate wires another loader into this loader's resolution path
// (OSGi import-package wiring). Delegation is searched after the loader's
// own classes, in wiring order.
func (l *Loader) AddDelegate(d *Loader) {
	if d == nil || d == l {
		return
	}
	for _, existing := range l.delegates {
		if existing == d {
			return
		}
	}
	l.delegates = append(l.delegates, d)
}

// Delegates returns the loader's delegate wiring in resolution order (a
// copy). The snapshot engine replays it onto clone loaders so a clone
// resolves exactly the class set its template did.
func (l *Loader) Delegates() []*Loader {
	return append([]*Loader(nil), l.delegates...)
}

// Define links and registers a built class with this loader. The
// superclass (and interfaces, if defined as classes) must already be
// resolvable through this loader.
func (l *Loader) Define(c *classfile.Class) error {
	if c == nil {
		return errors.New("loader: define nil class")
	}
	if c.Linked {
		return fmt.Errorf("loader: class %s already defined", c.Name)
	}
	if _, exists := l.classes[c.Name]; exists {
		return fmt.Errorf("loader %s: duplicate class %s", l.name, c.Name)
	}
	if err := l.link(c); err != nil {
		return err
	}
	l.classes[c.Name] = c
	return nil
}

// MustDefine is Define for statically-correct class sets; it panics on
// error.
func (l *Loader) MustDefine(c *classfile.Class) *classfile.Class {
	if err := l.Define(c); err != nil {
		panic("loader: " + err.Error())
	}
	return c
}

// DefineAll defines classes in an order that satisfies superclass
// dependencies within the given set (classes whose superclasses are
// outside the set must already be resolvable).
func (l *Loader) DefineAll(classes []*classfile.Class) error {
	pending := make(map[string]*classfile.Class, len(classes))
	for _, c := range classes {
		pending[c.Name] = c
	}
	remaining := append([]*classfile.Class(nil), classes...)
	for len(remaining) > 0 {
		progressed := false
		var next []*classfile.Class
		for _, c := range remaining {
			if _, inSet := pending[c.SuperName]; inSet {
				next = append(next, c)
				continue
			}
			if err := l.Define(c); err != nil {
				return err
			}
			delete(pending, c.Name)
			progressed = true
		}
		if !progressed {
			names := make([]string, 0, len(next))
			for _, c := range next {
				names = append(names, c.Name)
			}
			sort.Strings(names)
			return fmt.Errorf("loader %s: superclass cycle or missing superclass among %v", l.name, names)
		}
		remaining = next
	}
	return nil
}

// Lookup resolves a class name: bootstrap first, then this loader's own
// classes, then delegates.
func (l *Loader) Lookup(name string) (*classfile.Class, error) {
	if !l.IsBootstrap() {
		if c, ok := l.registry.bootstrap.classes[name]; ok {
			return c, nil
		}
	}
	if c, ok := l.classes[name]; ok {
		return c, nil
	}
	for _, d := range l.delegates {
		if c, ok := d.classes[name]; ok {
			return c, nil
		}
	}
	return nil, &ClassNotFoundError{Loader: l.name, Name: name}
}

// Classes returns the classes defined directly by this loader, sorted by
// name (a copy; callers may not mutate loader state through it).
func (l *Loader) Classes() []*classfile.Class {
	out := make([]*classfile.Class, 0, len(l.classes))
	for _, c := range l.classes {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// NumClasses returns the number of classes defined by this loader.
func (l *Loader) NumClasses() int { return len(l.classes) }

// link resolves the superclass, assigns field and method slots and
// statics/method IDs, and marks the class linked.
func (l *Loader) link(c *classfile.Class) error {
	if c.Name != classfile.ObjectClassName {
		super, err := l.Lookup(c.SuperName)
		if err != nil {
			return fmt.Errorf("link %s: superclass: %w", c.Name, err)
		}
		c.Super = super
	}
	base := 0
	if c.Super != nil {
		base = c.Super.NumFieldSlots
	}
	for i, f := range c.Fields {
		f.Slot = base + i
	}
	c.NumFieldSlots = base + len(c.Fields)
	for i, f := range c.StaticFields {
		f.Slot = i
	}
	c.NumStaticSlots = len(c.StaticFields)
	c.AssignMethodSlots()
	c.LoaderID = l.id
	if l.IsBootstrap() {
		c.Flags |= classfile.FlagSystem
	}
	c.HasFinalizer = c.DeclaredMethod(FinalizeName, "()V") != nil ||
		(c.Super != nil && c.Super.HasFinalizer)
	// ID assignment and index publication go last, under the registry
	// lock: once the class appears in the statics-ID table it is fully
	// linked, so lock-free readers (invoke path, GC mirror-root walk)
	// never observe a half-linked class.
	l.registry.registerLinked(c)
	c.Linked = true
	return nil
}

// Registry owns all loaders of one VM and hands out link-time IDs; see
// registry.go.
