package osgi

import (
	"fmt"
	"sort"
	"sync"

	"ijvm/internal/heap"
	"ijvm/internal/interp"
	"ijvm/internal/rpc"
)

// ServiceRegistry is the OSGi name service (§3.4): bundles "register
// object references in a name service and find foreign references" through
// it. Handing a reference out through the registry is the explicit sharing
// mechanism of I-JVM — after that, calls on the service are direct method
// calls with thread migration.
type ServiceRegistry struct {
	vm *interp.VM
	// mu guards services and links: fan-out callers snapshot concurrently
	// with churn (kill + reinstall) mutating the registry. It is never
	// held across guest execution or link teardown.
	mu       sync.Mutex
	services map[string]*serviceEntry
	// links caches the inter-isolate messaging links created by FanOut,
	// torn down when their service is unregistered.
	links map[fanKey]*rpc.Link
	// onChange queues a service event for deferred dispatch (set by the
	// framework).
	onChange func(name string, eventType int64, origin *Bundle)
}

type serviceEntry struct {
	name  string
	obj   *heap.Object
	owner *Bundle
	// roots roots obj as a GC root charged to the owner while the entry
	// is registered.
	roots  *interp.HostRoots
	usedBy map[int]bool // bundle IDs that looked the service up
}

func newServiceRegistry(vm *interp.VM) *ServiceRegistry {
	return &ServiceRegistry{vm: vm, services: make(map[string]*serviceEntry)}
}

// Register publishes a service object under a name, owned by a bundle.
// The registry entry roots the object as a GC root charged to the owner.
func (r *ServiceRegistry) Register(name string, obj *heap.Object, owner *Bundle) error {
	if obj == nil {
		return fmt.Errorf("osgi: registering nil service %q", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.services[name]; dup {
		return fmt.Errorf("osgi: service %q already registered", name)
	}
	roots := r.vm.NewHostRoots(owner.iso)
	roots.Add(obj)
	r.services[name] = &serviceEntry{
		name:   name,
		obj:    obj,
		owner:  owner,
		roots:  roots,
		usedBy: make(map[int]bool),
	}
	if r.onChange != nil {
		r.onChange(name, 1 /* ServiceRegistered */, owner)
	}
	return nil
}

// Get returns the service object, or nil when unknown. user records the
// looking-up bundle for diagnostics.
func (r *ServiceRegistry) Get(name string, user *Bundle) *heap.Object {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.services[name]
	if !ok {
		return nil
	}
	if user != nil {
		e.usedBy[user.id] = true
	}
	return e.obj
}

// Unregister removes a service by name.
func (r *ServiceRegistry) Unregister(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.services[name]
	if !ok {
		return
	}
	e.roots.Release()
	delete(r.services, name)
	r.dropLinksFor(name)
	if r.onChange != nil {
		r.onChange(name, 2 /* ServiceUnregistered */, e.owner)
	}
}

// unregisterOwnedBy drops every service owned by a bundle (bundle kill /
// uninstall path).
func (r *ServiceRegistry) unregisterOwnedBy(b *Bundle) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, e := range r.services {
		if e.owner == b {
			e.roots.Release()
			delete(r.services, name)
			r.dropLinksFor(name)
			if r.onChange != nil {
				r.onChange(name, 2 /* ServiceUnregistered */, b)
			}
		}
	}
}

// Names returns the registered service names, sorted.
func (r *ServiceRegistry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.services))
	for name := range r.services {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// OwnerOf returns the owning bundle of a service, or nil.
func (r *ServiceRegistry) OwnerOf(name string) *Bundle {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.services[name]; ok {
		return e.owner
	}
	return nil
}
