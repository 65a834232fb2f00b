package osgi

import (
	"errors"
	"fmt"

	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
	"ijvm/internal/loader"
)

// DefaultLifecycleBudget bounds the instructions an activator start/stop
// call may consume synchronously before the framework moves on (rule 1 of
// §3.4: lifecycle methods run in fresh threads precisely so a malicious
// bundle cannot freeze the runtime).
const DefaultLifecycleBudget = 20_000_000

// ErrNotIsolated is returned by isolation-dependent operations on a
// baseline (shared-mode) framework.
var ErrNotIsolated = errors.New("osgi: operation requires an isolated-mode VM")

// Framework is the OSGi runtime. It occupies Isolate0 with full rights
// (§3.1); bundles are standard isolates.
type Framework struct {
	vm       *interp.VM
	loader0  *loader.Loader
	isolate0 *core.Isolate

	bundles  []*Bundle
	registry *ServiceRegistry
	ctxClass *classfile.Class
	// ctxRoots roots the bundles' context objects for the framework's
	// lifetime, charged to Isolate0.
	ctxRoots *interp.HostRoots

	// pendingEvents queues service events raised from guest natives;
	// they are dispatched at the next framework safe point (event
	// callbacks spawn threads, which must not happen while the scheduler
	// is mid-instruction inside a native).
	pendingEvents []serviceEvent

	// LifecycleBudget overrides DefaultLifecycleBudget when > 0.
	LifecycleBudget int64
}

// NewFramework creates the OSGi runtime on a VM whose system library is
// already installed. The framework's class loader becomes Isolate0.
func NewFramework(vm *interp.VM) (*Framework, error) {
	l := vm.Registry().NewLoader("osgi-framework")
	iso0, err := vm.World().NewIsolate("osgi-framework", l)
	if err != nil {
		return nil, fmt.Errorf("osgi: creating Isolate0: %w", err)
	}
	f := &Framework{
		vm:       vm,
		loader0:  l,
		isolate0: iso0,
		registry: newServiceRegistry(vm),
		ctxRoots: vm.NewCollectingRoots(iso0, func() { vm.CollectGarbage(iso0) }),
	}
	f.registry.onChange = f.queueServiceEvent
	ctxClass, err := f.buildContextClass()
	if err != nil {
		return nil, err
	}
	f.ctxClass = ctxClass
	return f, nil
}

// VM returns the underlying interpreter VM.
func (f *Framework) VM() *interp.VM { return f.vm }

// Isolate0 returns the framework's isolate.
func (f *Framework) Isolate0() *core.Isolate { return f.isolate0 }

// Registry returns the service registry.
func (f *Framework) Registry() *ServiceRegistry { return f.registry }

// Bundles returns all installed bundles in installation order.
func (f *Framework) Bundles() []*Bundle { return append([]*Bundle(nil), f.bundles...) }

// BundleByName returns the bundle with the given symbolic name, or nil.
func (f *Framework) BundleByName(name string) *Bundle {
	for _, b := range f.bundles {
		if b.manifest.Name == name {
			return b
		}
	}
	return nil
}

func (f *Framework) lifecycleBudget() int64 {
	if f.LifecycleBudget > 0 {
		return f.LifecycleBudget
	}
	return DefaultLifecycleBudget
}

// Install registers a bundle: a fresh class loader is created and, in
// I-JVM mode, attached to a fresh standard isolate ("when OSGi loads a
// new bundle, it allocates a new class loader; I-JVM associates therefore
// a standard isolate to this class loader", §3.4).
func (f *Framework) Install(m Manifest, classes []*classfile.Class) (*Bundle, error) {
	if m.Name == "" {
		return nil, errors.New("osgi: bundle manifest requires a name")
	}
	if f.BundleByName(m.Name) != nil {
		return nil, fmt.Errorf("osgi: bundle %s already installed", m.Name)
	}
	l := f.vm.Registry().NewLoader("bundle:" + m.Name)
	var iso *core.Isolate
	if f.vm.World().Isolated() {
		var err error
		iso, err = f.vm.World().NewIsolate(m.Name, l)
		if err != nil {
			return nil, fmt.Errorf("osgi: isolate for %s: %w", m.Name, err)
		}
	} else {
		iso = f.isolate0
	}
	if err := l.DefineAll(classes); err != nil {
		return nil, fmt.Errorf("osgi: defining classes of %s: %w", m.Name, err)
	}
	b := &Bundle{
		id:       len(f.bundles) + 1,
		manifest: m,
		state:    StateInstalled,
		classes:  classes,
		loader:   l,
		iso:      iso,
	}
	f.bundles = append(f.bundles, b)
	return b, nil
}

// InstallClone registers a bundle provisioned from a warmed snapshot
// instead of a class set: the bundle's isolate is materialized by
// interp.CloneIsolate (statics initialized, string pool adopted, no
// <clinit> replay), and its loader resolves the template's classes
// through delegation. The gateway's high-density serving path (§1) uses
// it to spawn tenants in microseconds. Isolated mode only — the Shared
// baseline has no per-bundle isolate to clone into.
func (f *Framework) InstallClone(m Manifest, snap *interp.Snapshot) (*Bundle, error) {
	if m.Name == "" {
		return nil, errors.New("osgi: bundle manifest requires a name")
	}
	if f.BundleByName(m.Name) != nil {
		return nil, fmt.Errorf("osgi: bundle %s already installed", m.Name)
	}
	if !f.vm.World().Isolated() {
		return nil, errors.New("osgi: InstallClone requires isolated mode")
	}
	iso, err := f.vm.CloneIsolate(snap, m.Name)
	if err != nil {
		return nil, fmt.Errorf("osgi: cloning %s: %w", m.Name, err)
	}
	b := &Bundle{
		id:       len(f.bundles) + 1,
		manifest: m,
		state:    StateInstalled,
		loader:   iso.Loader(),
		iso:      iso,
	}
	f.bundles = append(f.bundles, b)
	return b, nil
}

// MustInstall panics on installation failure.
func (f *Framework) MustInstall(m Manifest, classes []*classfile.Class) *Bundle {
	b, err := f.Install(m, classes)
	if err != nil {
		panic(err)
	}
	return b
}

// Resolve wires the bundle's package imports to exporting bundles.
func (f *Framework) Resolve(b *Bundle) error {
	if b.state == StateUninstalled {
		return fmt.Errorf("osgi: %s is uninstalled", b.manifest.Name)
	}
	if b.state != StateInstalled {
		return nil
	}
	for _, imp := range b.manifest.Imports {
		exporter := f.exporterOf(imp)
		if exporter == nil {
			return fmt.Errorf("osgi: %s imports %s but no bundle exports it", b.manifest.Name, imp)
		}
		b.loader.AddDelegate(exporter.loader)
	}
	b.state = StateResolved
	return nil
}

func (f *Framework) exporterOf(pkg string) *Bundle {
	for _, b := range f.bundles {
		if b.state == StateUninstalled || b.iso.Killed() {
			continue
		}
		if b.exportsPackage(pkg) {
			return b
		}
	}
	return nil
}

// Start resolves the bundle and invokes its activator's start method in a
// new thread (rule 1, §3.4), running the scheduler up to the lifecycle
// budget. The bundle transitions to ACTIVE once the start call is
// dispatched; a hanging start cannot freeze the framework. The start
// thread is returned for callers that need to inspect it.
func (f *Framework) Start(b *Bundle) (*interp.Thread, error) {
	if err := f.Resolve(b); err != nil {
		return nil, err
	}
	if b.state == StateActive {
		return nil, nil
	}
	b.state = StateStarting
	ctx, err := f.contextObjectFor(b)
	if err != nil {
		return nil, err
	}
	t, err := f.callActivator(b, "start", []heap.Value{heap.RefVal(ctx)})
	if err != nil {
		return nil, err
	}
	b.state = StateActive
	f.FlushServiceEvents()
	if t != nil {
		b.startThreadID = t.ID()
		if t.Failure() != nil {
			return t, fmt.Errorf("osgi: %s start failed: %s", b.manifest.Name, t.FailureString())
		}
	}
	return t, nil
}

// Stop invokes the activator's stop method in a new thread and marks the
// bundle stopped.
func (f *Framework) Stop(b *Bundle) (*interp.Thread, error) {
	if b.state != StateActive {
		return nil, nil
	}
	b.state = StateStopping
	ctx, err := f.contextObjectFor(b)
	if err != nil {
		return nil, err
	}
	t, err := f.callActivator(b, "stop", []heap.Value{heap.RefVal(ctx)})
	b.state = StateStopped
	f.registry.unregisterOwnedBy(b)
	f.FlushServiceEvents()
	return t, err
}

// callActivator spawns a thread on the bundle activator's method; a
// missing method is not an error (activators are optional).
func (f *Framework) callActivator(b *Bundle, name string, args []heap.Value) (*interp.Thread, error) {
	if b.manifest.Activator == "" {
		return nil, nil
	}
	class, err := b.loader.Lookup(b.manifest.Activator)
	if err != nil {
		return nil, fmt.Errorf("osgi: activator of %s: %w", b.manifest.Name, err)
	}
	m := class.DeclaredMethod(name, "(Lijvm/osgi/BundleContext;)V")
	if m == nil {
		return nil, nil
	}
	// Lifecycle methods run on fresh threads created by the framework;
	// the thread is charged to the bundle it executes (its first frame
	// migrates immediately into the bundle's isolate).
	t, err := f.vm.SpawnThread("osgi:"+b.manifest.Name+":"+name, f.isolate0, m, args)
	if err != nil {
		return nil, err
	}
	f.vm.RunUntil(t, f.lifecycleBudget())
	if t.Err() != nil {
		return t, fmt.Errorf("osgi: %s %s: %w", b.manifest.Name, name, t.Err())
	}
	return t, nil
}

// contextObjectFor lazily allocates the bundle's BundleContext object —
// "the first shared object between bundles" (§3.4).
func (f *Framework) contextObjectFor(b *Bundle) (*heap.Object, error) {
	if b.ctxObj != nil {
		return b.ctxObj, nil
	}
	obj, err := f.vm.AllocNativeRooted(f.ctxRoots, f.ctxClass, b, 64, false, f.isolate0)
	if err != nil {
		return nil, err
	}
	b.ctxObj = obj
	return obj, nil
}

// KillBundle administratively terminates a bundle (the §4.3 admin
// response): a StoppedBundleEvent is sent to all other active bundles
// (rule 3, §3.4), the bundle's services are unregistered, and its isolate
// is killed so its code can never run again. Requires isolated mode.
func (f *Framework) KillBundle(b *Bundle) error {
	if !f.vm.World().Isolated() {
		return ErrNotIsolated
	}
	if b.iso.Killed() {
		return nil
	}
	f.fireStoppedBundleEvent(b)
	f.registry.unregisterOwnedBy(b)
	if err := f.vm.KillIsolate(f.isolate0, b.iso); err != nil {
		return err
	}
	b.state = StateStopped
	f.FlushServiceEvents()
	return nil
}

// Uninstall removes a stopped bundle from the framework.
func (f *Framework) Uninstall(b *Bundle) error {
	switch b.state {
	case StateActive, StateStarting:
		return fmt.Errorf("osgi: stop %s before uninstalling", b.manifest.Name)
	}
	f.registry.unregisterOwnedBy(b)
	b.state = StateUninstalled
	return nil
}

// Service event types delivered to serviceChanged listeners.
const (
	// ServiceRegistered is fired after a service is registered.
	ServiceRegistered = 1
	// ServiceUnregistered is fired after a service is unregistered.
	ServiceUnregistered = 2
)

// serviceEvent is one queued registry change.
type serviceEvent struct {
	name      string
	eventType int64
	origin    *Bundle
}

// queueServiceEvent records a registry change for later dispatch.
func (f *Framework) queueServiceEvent(name string, eventType int64, origin *Bundle) {
	f.pendingEvents = append(f.pendingEvents, serviceEvent{name, eventType, origin})
}

// FlushServiceEvents dispatches queued service events to listeners. The
// framework calls it after every lifecycle operation; hosts driving the
// scheduler directly may call it at their own safe points.
func (f *Framework) FlushServiceEvents() {
	for len(f.pendingEvents) > 0 {
		ev := f.pendingEvents[0]
		f.pendingEvents = f.pendingEvents[1:]
		f.fireServiceEvent(ev.name, ev.eventType, ev.origin)
	}
}

// fireServiceEvent notifies every active bundle whose activator declares
// serviceChanged(Ljava/lang/String;I)V of a registry change, each on a
// fresh thread (rule 1 applies to event callbacks too: a hanging listener
// cannot freeze the framework). The registering bundle itself is not
// notified.
func (f *Framework) fireServiceEvent(name string, eventType int64, origin *Bundle) {
	for _, b := range f.bundles {
		if b == origin || b.state != StateActive || b.iso.Killed() {
			continue
		}
		if b.manifest.Activator == "" {
			continue
		}
		class, err := b.loader.Lookup(b.manifest.Activator)
		if err != nil {
			continue
		}
		m := class.DeclaredMethod("serviceChanged", "(Ljava/lang/String;I)V")
		if m == nil {
			continue
		}
		nameObj, err := f.vm.InternString(nil, f.isolate0, name)
		if err != nil {
			continue
		}
		t, err := f.vm.SpawnThread("osgi:svc-event:"+b.manifest.Name, f.isolate0, m,
			[]heap.Value{heap.RefVal(nameObj), heap.IntVal(eventType)})
		if err != nil {
			continue
		}
		f.vm.RunUntil(t, f.lifecycleBudget())
	}
}

// fireStoppedBundleEvent notifies every other active bundle whose
// activator declares bundleStopped(Ljava/lang/String;)V. Bundles may use
// the callback to drop references to the dying bundle's objects; if they
// do not, those objects stay live and I-JVM charges them to the holders
// (§3.4: "resources from the terminating bundle will not be released
// until all bundles release their references to them").
func (f *Framework) fireStoppedBundleEvent(stopped *Bundle) {
	for _, b := range f.bundles {
		if b == stopped || b.state != StateActive || b.iso.Killed() {
			continue
		}
		if b.manifest.Activator == "" {
			continue
		}
		class, err := b.loader.Lookup(b.manifest.Activator)
		if err != nil {
			continue
		}
		m := class.DeclaredMethod("bundleStopped", "(Ljava/lang/String;)V")
		if m == nil {
			continue
		}
		nameObj, err := f.vm.InternString(nil, f.isolate0, stopped.manifest.Name)
		if err != nil {
			continue
		}
		t, err := f.vm.SpawnThread("osgi:event:"+b.manifest.Name, f.isolate0, m,
			[]heap.Value{heap.RefVal(nameObj)})
		if err != nil {
			continue
		}
		f.vm.RunUntil(t, f.lifecycleBudget())
	}
}

// AdminSnapshot runs an accounting GC and returns per-isolate snapshots —
// the administrator's dashboard from §4.3.
func (f *Framework) AdminSnapshot() []core.Snapshot {
	f.vm.CollectGarbage(nil)
	return f.vm.Snapshots()
}

// DetectOffenders applies thresholds to a fresh AdminSnapshot.
func (f *Framework) DetectOffenders(th core.Thresholds) []core.Finding {
	return core.Detect(f.AdminSnapshot(), th)
}

// BundleByIsolateID maps a detector finding back to the bundle.
func (f *Framework) BundleByIsolateID(id int32) *Bundle {
	for _, b := range f.bundles {
		if int32(b.iso.ID()) == id {
			return b
		}
	}
	return nil
}

// Shutdown stops the platform.
func (f *Framework) Shutdown() { f.vm.Shutdown() }
