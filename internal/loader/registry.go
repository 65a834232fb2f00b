package loader

import (
	"sync"
	"sync/atomic"

	"ijvm/internal/classfile"
)

// published is an append-only table read without locks: the writer (under
// Registry.regMu) appends into spare capacity — or into a grown copy when
// there is none — and publishes the longer slice header. Elements below a
// published length are never written again, so a reader holding any header
// sees only finished entries, and an append costs the entry plus the
// header, not the table.
type published[T any] struct {
	p atomic.Pointer[[]T]
}

func (t *published[T]) load() []T {
	if s := t.p.Load(); s != nil {
		return *s
	}
	return nil
}

func (t *published[T]) add(v T) {
	s := append(t.load(), v)
	t.p.Store(&s)
}

// Registry owns all loaders of one VM and hands out link-time IDs.
//
// Concurrency: the loader table and the statics-ID class index are
// append-only tables (published) so the interpreter's invoke path (Loader
// by ID on every cross-loader call) and host queries (ClassByStaticsID,
// NumClasses) stay lock-free while the snapshot-clone path creates tenant
// loaders — and concurrent cold provisioning defines whole class sets —
// behind a running scheduler; regMu serializes creation, release, and ID
// assignment (registerLinked). Classes are immutable once linked; only
// the registry-wide counters and the two tables need the lock. Nothing is
// ever removed: the classes of a tenant that has come and gone stay linked
// (there is no class unloading), so the tables' memory grows with them even
// though no operation's time does.
type Registry struct {
	regMu       sync.Mutex
	loaders     published[*Loader]
	freeLoaders []*Loader

	bootstrap          *Loader
	nextStaticsID      int
	nextMethodID       int
	classesByStaticsID published[*classfile.Class]
}

// registerLinked assigns the class (and its methods) their registry-wide
// IDs and appends the class to the statics-ID index, all under regMu.
// link calls it exactly once per class, as its final step: everything
// else about the class is already immutable by then, so a reader that
// loads the longer index sees a fully linked class. Keeping the counters
// and the append under the lock is what lets clone-pool refill and cold
// tenant provisioning define classes concurrently without torn IDs or a
// lost index entry.
func (r *Registry) registerLinked(c *classfile.Class) {
	r.regMu.Lock()
	defer r.regMu.Unlock()
	c.StaticsID = r.nextStaticsID
	r.nextStaticsID++
	for _, m := range c.Methods {
		m.ID = r.nextMethodID
		r.nextMethodID++
	}
	r.classesByStaticsID.add(c)
}

// NewRegistry creates a registry with a fresh bootstrap loader.
func NewRegistry() *Registry {
	r := &Registry{}
	r.bootstrap = &Loader{
		id:       BootstrapID,
		name:     "bootstrap",
		registry: r,
		classes:  make(map[string]*classfile.Class),
	}
	r.loaders.add(r.bootstrap)
	return r
}

// Bootstrap returns the system-library loader.
func (r *Registry) Bootstrap() *Loader { return r.bootstrap }

// NewLoader creates an application class loader. Per the paper, the first
// application loader becomes Isolate0's loader; subsequent loaders belong
// to standard (bundle) isolates. The isolate association itself is
// maintained by the core package. A previously released classless loader
// is reused (same ID, fresh name, no delegates) before a new slot is
// grown — the recycling pool's loader-side counterpart.
func (r *Registry) NewLoader(name string) *Loader {
	r.regMu.Lock()
	defer r.regMu.Unlock()
	if n := len(r.freeLoaders); n > 0 {
		l := r.freeLoaders[n-1]
		r.freeLoaders = r.freeLoaders[:n-1]
		l.name = name
		return l
	}
	l := &Loader{
		id:       len(r.loaders.load()),
		name:     name,
		registry: r,
		classes:  make(map[string]*classfile.Class),
	}
	r.loaders.add(l)
	return l
}

// ReleaseLoader returns a classless application loader to the registry's
// free-list so the next NewLoader reuses its ID instead of growing the
// table — snapshot clones resolve everything through delegation and
// define no classes of their own, so a recycled tenant's loader is always
// eligible. Loaders that defined classes are never released (their
// classes' LoaderID bindings must stay unambiguous forever). The caller
// must have detached the loader from any isolate first (core.FreeIsolate
// does). Returns false if the loader is not eligible.
func (r *Registry) ReleaseLoader(l *Loader) bool {
	if l == nil || l.IsBootstrap() || l.registry != r || len(l.classes) > 0 {
		return false
	}
	r.regMu.Lock()
	defer r.regMu.Unlock()
	for _, f := range r.freeLoaders {
		if f == l {
			return false
		}
	}
	l.delegates = nil
	r.freeLoaders = append(r.freeLoaders, l)
	return true
}

// Loader returns the loader with the given ID, or nil. Lock-free (one
// atomic load plus an index) — the interpreter consults it on every
// cross-loader invoke.
func (r *Registry) Loader(id int) *Loader {
	cur := r.loaders.load()
	if id < 0 || id >= len(cur) {
		return nil
	}
	return cur[id]
}

// NumLoaders returns the number of loaders including bootstrap.
func (r *Registry) NumLoaders() int { return len(r.loaders.load()) }

// NumClasses returns the total number of linked classes. Lock-free (one
// atomic load).
func (r *Registry) NumClasses() int { return len(r.classesByStaticsID.load()) }

// ClassByStaticsID returns the class whose StaticsID is id, or nil.
// Lock-free.
func (r *Registry) ClassByStaticsID(id int) *classfile.Class {
	cur := r.classesByStaticsID.load()
	if id < 0 || id >= len(cur) {
		return nil
	}
	return cur[id]
}
