package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"ijvm/internal/classfile"
	"ijvm/internal/heap"
	"ijvm/internal/loader"
)

// Mode selects the isolation behaviour of the VM.
type Mode uint8

// VM modes.
const (
	// ModeShared is the baseline JVM: one global set of static variables,
	// one interned-string pool, shared java.lang.Class objects, no
	// resource accounting and no isolate termination. It reproduces the
	// LadyVM/Sun-JVM behaviour the paper compares against.
	ModeShared Mode = iota + 1
	// ModeIsolated is I-JVM: one isolate per application class loader,
	// task class mirrors, thread migration, accounting and termination.
	ModeIsolated
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeShared:
		return "shared"
	case ModeIsolated:
		return "isolated"
	default:
		return "invalid"
	}
}

// ErrNoRight is returned when an isolate attempts a privileged operation
// (spawn/kill/shutdown) without holding the corresponding right.
var ErrNoRight = errors.New("core: isolate lacks the required right")

// ErrKilled is returned when an operation targets a killed isolate.
var ErrKilled = errors.New("core: isolate is killed")

// mirrorTable is an immutable snapshot of the task-class-mirror storage:
// mirrors[staticsID][isolateID] (Shared mode: the inner index is always
// 0). Readers load it atomically and index without locks; writers build a
// fresh outer slice and fresh rows under World.mirrorMu and publish the
// new table with an atomic store. Published rows are never mutated in
// place, so a reader can never observe a half-written entry.
type mirrorTable struct {
	rows [][]*TaskClassMirror
}

// World owns the isolates of one VM and the task-class-mirror storage. The
// interpreter calls Mirror on every static access; everything else is
// management-plane.
//
// Locking: mu guards the isolate registries (creation order, loader
// indexes); mirrorMu serializes mirror-table growth; the mirror table and
// the loader-ID index are read lock-free through atomic pointers. Mirror
// *contents* are shard-local (see the package comment) and unguarded.
type World struct {
	// mode is fixed at construction: a VM is a baseline JVM or an I-JVM for
	// its whole life, so every goroutine reads it without synchronization.
	mode     Mode
	registry *loader.Registry

	mu       sync.RWMutex
	isolates []*Isolate
	// byLoader is the copy-on-write loader-ID -> isolate index the invoke
	// path reads on every call into a non-system class: writers
	// (NewIsolate, FreeIsolate) publish a fresh slice under mu, readers
	// load and index it without locks, like the mirror table. The binding
	// cannot be cached on the class instead: classes are shared between
	// snapshot clones, and a loader's binding is freed and recycled.
	byLoader atomic.Pointer[[]*Isolate]
	// freeIDs is the isolate-recycling free-list: accounting IDs of
	// disposed isolates returned by FreeIsolate, reused LIFO by NewIsolate
	// so long-running gateways with tenant churn keep the isolate table,
	// mirror columns and heap counter arrays dense instead of growing
	// without bound.
	freeIDs []heap.IsolateID

	mirrorMu sync.Mutex
	mirrors  atomic.Pointer[mirrorTable]
}

// NewWorld creates the isolate world for one VM.
func NewWorld(mode Mode, registry *loader.Registry) *World {
	w := &World{mode: mode, registry: registry}
	w.mirrors.Store(&mirrorTable{})
	return w
}

// Mode returns the isolation mode.
func (w *World) Mode() Mode { return w.mode }

// Isolated reports whether I-JVM mechanisms are active.
func (w *World) Isolated() bool { return w.mode == ModeIsolated }

// NewIsolate creates an isolate for a class loader. The first isolate
// created becomes Isolate0 with all rights (paper §3.1); in Shared mode
// only Isolate0 may exist.
func (w *World) NewIsolate(name string, l *loader.Loader) (*Isolate, error) {
	if l == nil {
		return nil, errors.New("core: isolate requires a class loader")
	}
	if l.IsBootstrap() {
		return nil, errors.New("core: the bootstrap loader cannot form an isolate")
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.IsolateForLoaderID(l.ID()) != nil {
		return nil, fmt.Errorf("core: loader %s already has an isolate", l.Name())
	}
	if w.Mode() == ModeShared && len(w.isolates) > 0 {
		return nil, errors.New("core: shared mode supports a single isolate")
	}
	id := heap.IsolateID(len(w.isolates))
	reused := false
	if n := len(w.freeIDs); n > 0 {
		id = w.freeIDs[n-1]
		w.freeIDs = w.freeIDs[:n-1]
		reused = true
	}
	iso := &Isolate{
		id:     id,
		name:   name,
		loader: l,
	}
	empty := make(map[string]*heap.Object)
	iso.strings.Store(&empty)
	iso.setState(StateLive)
	if iso.id == 0 {
		iso.rights = AllRights
	}
	if reused {
		w.isolates[id] = iso
	} else {
		w.isolates = append(w.isolates, iso)
	}
	w.publishLoaderBinding(l.ID(), iso)
	return iso, nil
}

// publishLoaderBinding publishes a copy of the loader-ID index with
// loaderID bound to iso (nil unbinds). mu held.
func (w *World) publishLoaderBinding(loaderID int, iso *Isolate) {
	var cur []*Isolate
	if p := w.byLoader.Load(); p != nil {
		cur = *p
	}
	next := make([]*Isolate, max(len(cur), loaderID+1))
	copy(next, cur)
	next[loaderID] = iso
	w.byLoader.Store(&next)
}

// IsolateForLoaderID is the hot-path variant of IsolateForLoader used by
// the interpreter's invoke sequence; it returns nil for the bootstrap
// loader and for loaders without isolates.
func (w *World) IsolateForLoaderID(id int) *Isolate {
	p := w.byLoader.Load()
	if p == nil || id <= 0 || id >= len(*p) {
		return nil
	}
	return (*p)[id]
}

// Isolate0 returns the OSGi runtime's isolate, or nil before it exists.
func (w *World) Isolate0() *Isolate {
	w.mu.RLock()
	defer w.mu.RUnlock()
	if len(w.isolates) == 0 {
		return nil
	}
	return w.isolates[0]
}

// IsolateByID returns the isolate with the given accounting ID, or nil.
func (w *World) IsolateByID(id heap.IsolateID) *Isolate {
	w.mu.RLock()
	defer w.mu.RUnlock()
	if id < 0 || int(id) >= len(w.isolates) {
		return nil
	}
	return w.isolates[id]
}

// IsolateForLoader returns the isolate built from loader l, or nil for
// the bootstrap loader (system code executes in the caller's isolate).
func (w *World) IsolateForLoader(l *loader.Loader) *Isolate {
	if l == nil {
		return nil
	}
	return w.IsolateForLoaderID(l.ID())
}

// IsolateForClass returns the isolate owning a class, or nil for system
// classes.
func (w *World) IsolateForClass(c *classfile.Class) *Isolate {
	if c.IsSystem() {
		return nil
	}
	return w.IsolateForLoaderID(c.LoaderID)
}

// Isolates returns all isolates in creation order (a copy).
func (w *World) Isolates() []*Isolate {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return append([]*Isolate(nil), w.isolates...)
}

// NumIsolates returns the number of isolates created so far.
func (w *World) NumIsolates() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return len(w.isolates)
}

// Mirror returns the task class mirror of class c for isolate iso,
// creating it lazily. This is the getstatic/putstatic hot path: in
// Isolated mode it performs the paper's two extra loads (current isolate,
// then the mirror array entry); in Shared mode isolates collapse to a
// single mirror. The fast path is lock-free: it indexes an immutable
// table snapshot; only a miss (first access of a (class, isolate) pair)
// takes the growth lock.
func (w *World) Mirror(c *classfile.Class, iso *Isolate) *TaskClassMirror {
	sid := c.StaticsID
	idx := 0
	if w.Mode() == ModeIsolated {
		idx = int(iso.id)
	}
	tab := w.mirrors.Load()
	if sid < len(tab.rows) {
		if row := tab.rows[sid]; idx < len(row) {
			if m := row[idx]; m != nil {
				return m
			}
		}
	}
	return w.growMirror(sid, idx, c)
}

// growMirror publishes a new table snapshot containing a mirror at
// (sid, idx), creating it if a concurrent caller has not already.
func (w *World) growMirror(sid, idx int, c *classfile.Class) *TaskClassMirror {
	w.mirrorMu.Lock()
	defer w.mirrorMu.Unlock()
	tab := w.mirrors.Load()
	// Re-check under the lock: another goroutine may have published it.
	if sid < len(tab.rows) {
		if row := tab.rows[sid]; idx < len(row) && row[idx] != nil {
			return row[idx]
		}
	}
	rows := tab.rows
	if sid >= len(rows) {
		grown := make([][]*TaskClassMirror, sid+16)
		copy(grown, rows)
		rows = grown
	} else {
		rows = append([][]*TaskClassMirror(nil), rows...)
	}
	row := rows[sid]
	grownRow := make([]*TaskClassMirror, max(idx+4, len(row)))
	copy(grownRow, row)
	m := newMirror(c)
	grownRow[idx] = m
	rows[sid] = grownRow
	w.mirrors.Store(&mirrorTable{rows: rows})
	return m
}

// MirrorIfPresent returns the mirror without creating it.
func (w *World) MirrorIfPresent(c *classfile.Class, iso *Isolate) *TaskClassMirror {
	sid := c.StaticsID
	idx := 0
	if w.Mode() == ModeIsolated {
		idx = int(iso.id)
	}
	tab := w.mirrors.Load()
	if sid >= len(tab.rows) {
		return nil
	}
	row := tab.rows[sid]
	if idx >= len(row) {
		return nil
	}
	return row[idx]
}

// MirrorEntry pairs a class with one isolate's mirror for it, as returned
// by MirrorEntries.
type MirrorEntry struct {
	Class  *classfile.Class
	Mirror *TaskClassMirror
}

// MirrorEntries returns every existing (class, mirror) pair of iso, in
// StaticsID order. The snapshot engine walks it to capture the isolate's
// initialized statics; callers that need a stable cut run with the world
// stopped.
func (w *World) MirrorEntries(iso *Isolate) []MirrorEntry {
	idx := 0
	if w.Mode() == ModeIsolated {
		idx = int(iso.id)
	}
	tab := w.mirrors.Load()
	var out []MirrorEntry
	for sid, row := range tab.rows {
		if idx >= len(row) || row[idx] == nil {
			continue
		}
		class := w.registry.ClassByStaticsID(sid)
		if class == nil {
			continue
		}
		out = append(out, MirrorEntry{Class: class, Mirror: row[idx]})
	}
	return out
}

// InstallMirrors publishes pre-built mirrors for iso in one table update,
// keyed by StaticsID. The snapshot-clone path uses it to install a whole
// warmed mirror column at once instead of paying a growMirror publication
// per class. A slot that already holds a mirror refuses the install (the
// clone would silently lose state the isolate already accumulated), so
// callers install before the isolate runs any guest code.
func (w *World) InstallMirrors(iso *Isolate, mirrors map[int]*TaskClassMirror) error {
	if len(mirrors) == 0 {
		return nil
	}
	idx := 0
	if w.Mode() == ModeIsolated {
		idx = int(iso.id)
	}
	w.mirrorMu.Lock()
	defer w.mirrorMu.Unlock()
	tab := w.mirrors.Load()
	maxSid := 0
	for sid := range mirrors {
		if sid < 0 {
			return fmt.Errorf("core: invalid statics id %d", sid)
		}
		if sid > maxSid {
			maxSid = sid
		}
		if sid < len(tab.rows) {
			if row := tab.rows[sid]; idx < len(row) && row[idx] != nil {
				return fmt.Errorf("core: isolate %d already has a mirror for statics id %d", iso.id, sid)
			}
		}
	}
	rows := tab.rows
	if maxSid >= len(rows) {
		grown := make([][]*TaskClassMirror, maxSid+16)
		copy(grown, rows)
		rows = grown
	} else {
		rows = append([][]*TaskClassMirror(nil), rows...)
	}
	for sid, m := range mirrors {
		row := rows[sid]
		grownRow := make([]*TaskClassMirror, max(idx+4, len(row)))
		copy(grownRow, row)
		grownRow[idx] = m
		rows[sid] = grownRow
	}
	w.mirrors.Store(&mirrorTable{rows: rows})
	return nil
}

// ErrNotDisposed is returned by FreeIsolate for an isolate that still has
// live charged objects (or was never killed).
var ErrNotDisposed = errors.New("core: isolate is not disposed")

// FreeIsolate returns a disposed isolate's identity to service: its
// accounting ID joins the free-list for the next NewIsolate, its mirror
// column and heap counters are cleared, and its loader indexes are
// detached. Only fully disposed isolates (killed, swept, no live charged
// objects) qualify, and never Isolate0. The ordering matters: the ID is
// published for reuse only after the mirror column and counters are
// cleared, so a concurrent NewIsolate can never adopt an ID that still
// shows the dead tenant's statics or charges. The isolate struct itself
// stays in the creation-order slice until the ID is reused (iterators
// rely on non-nil entries and simply see a disposed corpse).
func (w *World) FreeIsolate(iso *Isolate, h *heap.Heap) error {
	if iso == nil {
		return errors.New("core: free nil isolate")
	}
	if iso.IsIsolate0() {
		return errors.New("core: cannot recycle Isolate0")
	}
	if iso.State() != StateDisposed {
		return fmt.Errorf("%w: %s", ErrNotDisposed, iso.name)
	}
	if !iso.recycled.CompareAndSwap(false, true) {
		return fmt.Errorf("core: %s already recycled", iso.name)
	}

	w.mu.Lock()
	if w.IsolateForLoaderID(iso.loader.ID()) == iso {
		w.publishLoaderBinding(iso.loader.ID(), nil)
	}
	w.mu.Unlock()

	w.clearMirrorColumn(int(iso.id))
	if h != nil {
		h.ResetIsolateStats(iso.id)
	}

	w.mu.Lock()
	w.freeIDs = append(w.freeIDs, iso.id)
	w.mu.Unlock()
	return nil
}

// clearMirrorColumn publishes a table snapshot with every mirror of the
// given isolate index removed.
func (w *World) clearMirrorColumn(idx int) {
	w.mirrorMu.Lock()
	defer w.mirrorMu.Unlock()
	tab := w.mirrors.Load()
	changed := false
	rows := append([][]*TaskClassMirror(nil), tab.rows...)
	for sid, row := range rows {
		if idx < len(row) && row[idx] != nil {
			fresh := append([]*TaskClassMirror(nil), row...)
			fresh[idx] = nil
			rows[sid] = fresh
			changed = true
		}
	}
	if changed {
		w.mirrors.Store(&mirrorTable{rows: rows})
	}
}

// MirrorRootSets builds the GC accounting root contribution of every
// isolate's mirrors and string pools (paper §3.2, step 2). The returned
// map is keyed by isolate ID. Callers run with the world stopped (the
// collection is stop-the-world), so the table snapshot is complete.
func (w *World) MirrorRootSets() map[heap.IsolateID][]*heap.Object {
	isolates := w.Isolates()
	out := make(map[heap.IsolateID][]*heap.Object, len(isolates))
	for _, iso := range isolates {
		// Killed isolates contribute no roots: "all the objects
		// referenced by the terminating isolate are reclaimed by the
		// garbage collector, with the exception of objects shared with
		// other bundles" (§3.3) — shared objects survive through the
		// other isolates' roots.
		if iso.Killed() {
			continue
		}
		out[iso.id] = iso.StringPoolRoots(nil)
	}
	tab := w.mirrors.Load()
	for sid, row := range tab.rows {
		class := w.registry.ClassByStaticsID(sid)
		if class == nil {
			continue
		}
		for idx, m := range row {
			if m == nil {
				continue
			}
			isoID := heap.IsolateID(idx)
			if w.Mode() == ModeShared {
				isoID = 0
			}
			if iso := w.IsolateByID(isoID); iso == nil || iso.Killed() {
				continue
			}
			out[isoID] = m.Roots(out[isoID])
		}
	}
	return out
}

// Modelled sizes of the VM-internal structures that Figure 3 accounts
// for: "(i) the array of task class mirrors for each class and (ii) a
// per-isolate set of strings and statistics information" (§4.2).
const (
	mirrorRowBytes   = 24 // slice header per class
	mirrorSlotBytes  = 8  // one row entry (pointer)
	mirrorBytes      = 56 // TaskClassMirror struct
	staticSlotBytes  = 16 // one static variable slot (tagged value)
	isolateBytes     = 96 // Isolate struct
	accountBytes     = 14 * 8
	stringEntryBytes = 48 // string pool map entry (key header + pointer)
)

// StructFootprint returns the modelled byte size of the isolation
// metadata: task-class-mirror arrays, per-isolate string pools and
// statistics. Together with the heap's Used() this is the memory measure
// of Figure 3 — in Shared mode every class has exactly one mirror, while
// I-JVM pays one mirror per (class, accessing isolate) plus per-isolate
// pools and accounts.
func (w *World) StructFootprint() int64 {
	var total int64
	tab := w.mirrors.Load()
	for _, row := range tab.rows {
		if row == nil {
			continue
		}
		total += mirrorRowBytes + mirrorSlotBytes*int64(len(row))
		for _, m := range row {
			if m == nil {
				continue
			}
			total += mirrorBytes + staticSlotBytes*int64(len(m.Statics))
		}
	}
	for _, iso := range w.Isolates() {
		total += isolateBytes + accountBytes
		total += stringEntryBytes * int64(iso.NumInternedStrings())
	}
	return total
}

// Kill marks an isolate as killed. The caller (the interpreter's
// termination engine) is responsible for patching thread stacks and
// poisoning methods; killer must hold RightKillIsolate unless it is nil
// (host-initiated administrative kill).
func (w *World) Kill(killer, target *Isolate) error {
	if target == nil {
		return errors.New("core: kill nil isolate")
	}
	if killer != nil && !killer.rights.Has(RightKillIsolate) {
		return fmt.Errorf("%w: %s cannot kill %s", ErrNoRight, killer.name, target.name)
	}
	if !target.state.CompareAndSwap(uint32(StateLive), uint32(StateKilled)) {
		return fmt.Errorf("%w: %s", ErrKilled, target.name)
	}
	return nil
}

// UpdateDisposal promotes killed isolates with no remaining live charged
// objects to StateDisposed ("an isolate is only removed from memory when
// there is no remaining object whose class is defined by the isolate",
// §3.3). Call after an accounting collection; it returns the isolates it
// promoted.
func (w *World) UpdateDisposal(h *heap.Heap) []*Isolate {
	var disposed []*Isolate
	for _, iso := range w.Isolates() {
		if iso.State() != StateKilled {
			continue
		}
		if h.LiveStatsFor(iso.id).Objects == 0 {
			iso.setState(StateDisposed)
			disposed = append(disposed, iso)
		}
	}
	return disposed
}

// Snapshot builds a point-in-time resource snapshot of one isolate,
// merging the interpreter-maintained account with the heap's memory
// views.
func (w *World) Snapshot(iso *Isolate, h *heap.Heap) Snapshot {
	alloc := h.AllocStatsFor(iso.id)
	live := h.LiveStatsFor(iso.id)
	return Snapshot{
		IsolateID:        int32(iso.id),
		IsolateName:      iso.name,
		State:            iso.State(),
		Account:          iso.account.Numbers(),
		AllocatedObjects: alloc.Objects,
		AllocatedBytes:   alloc.Bytes,
		LiveObjects:      live.Objects,
		LiveBytes:        live.Bytes,
		LiveConnections:  live.Connections,
	}
}

// Snapshots returns snapshots of all isolates in creation order.
func (w *World) Snapshots(h *heap.Heap) []Snapshot {
	isolates := w.Isolates()
	out := make([]Snapshot, 0, len(isolates))
	for _, iso := range isolates {
		out = append(out, w.Snapshot(iso, h))
	}
	return out
}
