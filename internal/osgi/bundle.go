// Package osgi implements the OSGi-like component framework the paper
// runs on top of I-JVM (§3.4): bundles as deployment units with their own
// class loaders, package export/import wiring, a service registry (the
// name service through which the first shared objects flow), bundle
// lifecycle driven in fresh threads, StoppedBundleEvents, and
// administrative termination backed by isolate kill.
//
// The framework body is host (Go) code registered as Isolate0, with all
// bundle code, activators and services living in the VM — every
// inter-bundle service call is a guest-level direct method call with
// thread migration, which is where all of the paper's measured effects
// live (see DESIGN.md, substitution table).
package osgi

import (
	"fmt"

	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/loader"
)

// BundleState is the OSGi bundle lifecycle state.
type BundleState uint8

// Bundle lifecycle states.
const (
	StateInstalled BundleState = iota + 1
	StateResolved
	StateStarting
	StateActive
	StateStopping
	StateStopped
	StateUninstalled
)

// String returns the state name.
func (s BundleState) String() string {
	switch s {
	case StateInstalled:
		return "INSTALLED"
	case StateResolved:
		return "RESOLVED"
	case StateStarting:
		return "STARTING"
	case StateActive:
		return "ACTIVE"
	case StateStopping:
		return "STOPPING"
	case StateStopped:
		return "STOPPED"
	case StateUninstalled:
		return "UNINSTALLED"
	default:
		return "INVALID"
	}
}

// Manifest describes a bundle: its identity, the packages it exports and
// imports (slash-separated prefixes, e.g. "shapes/circle"), and its
// activator class, which may declare:
//
//	start(Lijvm/osgi/BundleContext;)V
//	stop(Lijvm/osgi/BundleContext;)V
//	bundleStopped(Ljava/lang/String;)V   (StoppedBundleEvent callback)
type Manifest struct {
	Name      string
	Version   string
	Exports   []string
	Imports   []string
	Activator string
}

// Bundle is one installed bundle.
type Bundle struct {
	id       int
	manifest Manifest
	state    BundleState
	classes  []*classfile.Class
	loader   *loader.Loader
	iso      *core.Isolate
	ctxObj   *heap.Object

	startThreadID int64
}

// ID returns the framework-assigned bundle ID (>= 1; 0 is the framework).
func (b *Bundle) ID() int { return b.id }

// Name returns the bundle's symbolic name.
func (b *Bundle) Name() string { return b.manifest.Name }

// State returns the lifecycle state.
func (b *Bundle) State() BundleState { return b.state }

// Manifest returns a copy of the bundle's manifest.
func (b *Bundle) Manifest() Manifest {
	m := b.manifest
	m.Exports = append([]string(nil), b.manifest.Exports...)
	m.Imports = append([]string(nil), b.manifest.Imports...)
	return m
}

// Isolate returns the bundle's isolate (the shared world isolate in
// baseline mode).
func (b *Bundle) Isolate() *core.Isolate { return b.iso }

// Loader returns the bundle's class loader.
func (b *Bundle) Loader() *loader.Loader { return b.loader }

// exportsPackage reports whether the bundle exports the package of a
// class name.
func (b *Bundle) exportsPackage(pkg string) bool {
	for _, e := range b.manifest.Exports {
		if e == pkg {
			return true
		}
	}
	return false
}

func (b *Bundle) String() string {
	return fmt.Sprintf("bundle %d %s@%s [%s]", b.id, b.manifest.Name, b.manifest.Version, b.state)
}
