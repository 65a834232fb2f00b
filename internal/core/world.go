package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

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

// ParseMode is the inverse of Mode.String for the two valid modes (the
// CLIs' -mode flag).
func ParseMode(s string) (Mode, error) {
	switch s {
	case "shared":
		return ModeShared, nil
	case "isolated":
		return ModeIsolated, nil
	default:
		return 0, fmt.Errorf("unknown mode %q (want shared or isolated)", s)
	}
}

// ErrNoRight is returned when an isolate attempts a privileged operation
// (spawn/kill/shutdown) without holding the corresponding right.
var ErrNoRight = errors.New("core: isolate lacks the required right")

// ErrKilled is returned when an operation targets a killed isolate.
var ErrKilled = errors.New("core: isolate is killed")

// World owns the isolates of one VM and the task-class-mirror storage. The
// interpreter calls Mirror on every static access; everything else is
// management-plane.
//
// The mirror row of a class hangs off the class (classfile.Class.MirrorRow,
// the paper's "mirror array of a class"): a *[]*TaskClassMirror indexed by
// isolate ID (Shared mode: always 0), loaded lock-free by readers and
// replaced copy-on-write, one row at a time, by writers holding mirrorMu.
// A published row is never written again, so a reader never sees a
// half-written entry; a row is at most the live isolate IDs plus four
// long. Each isolate lists the classes it holds a mirror for
// (Isolate.mirrored, also under mirrorMu), so installing, enumerating,
// rooting and clearing an isolate's mirrors touch that isolate's rows and
// nothing else — however many classes the VM has ever linked.
//
// Locking: mu guards the isolate registries (creation order, free IDs) and
// growth of the loader directory; mirrorMu serializes row replacement and
// the per-isolate class lists; rows and loader slots are read lock-free.
// Mirror *contents* are shard-local (see the package comment) and
// unguarded. The two locks are never held together.
type World struct {
	// mode is fixed at construction: a VM is a baseline JVM or an I-JVM for
	// its whole life, so every goroutine reads it without synchronization.
	mode     Mode
	registry *loader.Registry

	mu       sync.RWMutex
	isolates []*Isolate
	// byLoader is the loader-ID -> isolate directory the invoke path reads
	// on every call into a non-system class: one atomic slot per loader ID.
	// NewIsolate and FreeIsolate bind and unbind with one store into the
	// slot; only a loader ID past the end replaces the directory (doubled,
	// slots copied, under mu). The binding cannot be cached on the class
	// instead: classes are shared between snapshot clones, and a loader's
	// binding is freed and recycled.
	byLoader atomic.Pointer[[]atomic.Pointer[Isolate]]
	// freeIDs is the isolate-recycling free-list: accounting IDs of
	// disposed isolates returned by FreeIsolate, reused LIFO by NewIsolate
	// so long-running gateways with tenant churn keep the isolate table
	// and mirror rows dense instead of growing without bound.
	freeIDs []heap.IsolateID

	// created, when set (OnIsolateCreated), is told of every isolate
	// NewIsolate makes, after mu is released.
	created func(*Isolate)

	mirrorMu sync.Mutex
	// rootRows counts the rows MirrorRootSets has visited (tests assert it
	// follows live mirrors, not linked classes).
	rootRows atomic.Int64
}

// NewWorld creates the isolate world for one VM.
func NewWorld(mode Mode, registry *loader.Registry) *World {
	return &World{mode: mode, registry: registry}
}

// Mode returns the isolation mode.
func (w *World) Mode() Mode { return w.mode }

// Isolated reports whether I-JVM mechanisms are active.
func (w *World) Isolated() bool { return w.mode == ModeIsolated }

// OnIsolateCreated installs fn to be told of every isolate NewIsolate
// makes. It must be called before the world is shared between goroutines.
func (w *World) OnIsolateCreated(fn func(*Isolate)) { w.created = fn }

// NewIsolate creates an isolate for a class loader. The first isolate
// created becomes Isolate0 with all rights (paper §3.1); in Shared mode
// only Isolate0 may exist.
func (w *World) NewIsolate(name string, l *loader.Loader) (*Isolate, error) {
	iso, err := w.newIsolate(name, l)
	if err == nil && w.created != nil {
		w.created(iso)
	}
	return iso, err
}

func (w *World) newIsolate(name string, l *loader.Loader) (*Isolate, error) {
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
	w.bindLoader(l.ID(), iso)
	return iso, nil
}

// bindLoader stores iso (nil unbinds) in loaderID's directory slot,
// doubling the directory first if the ID lies past its end. mu held. A
// reader still holding the replaced directory sees the slots as they were
// when it was replaced, which is a state its call overlapped.
func (w *World) bindLoader(loaderID int, iso *Isolate) {
	var dir []atomic.Pointer[Isolate]
	if p := w.byLoader.Load(); p != nil {
		dir = *p
	}
	if loaderID >= len(dir) {
		n := max(16, len(dir))
		for n <= loaderID {
			n *= 2
		}
		grown := make([]atomic.Pointer[Isolate], n)
		for i := range dir {
			grown[i].Store(dir[i].Load())
		}
		dir = grown
		w.byLoader.Store(&grown)
	}
	dir[loaderID].Store(iso)
}

// IsolateForLoaderID is the hot-path variant of IsolateForLoader used by
// the interpreter's invoke sequence; it returns nil for the bootstrap
// loader and for loaders without isolates.
func (w *World) IsolateForLoaderID(id int) *Isolate {
	dir := w.byLoader.Load()
	if dir == nil || id <= 0 || id >= len(*dir) {
		return nil
	}
	return (*dir)[id].Load()
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

// mirrorRow loads c's published mirror row (nil before the first mirror).
func mirrorRow(c *classfile.Class) []*TaskClassMirror {
	if p := (*[]*TaskClassMirror)(atomic.LoadPointer(&c.MirrorRow)); p != nil {
		return *p
	}
	return nil
}

// setMirrorSlot publishes a copy of c's row with slot idx set to m (nil
// clears), grown to idx+4 entries if idx lies past its end. mirrorMu held.
func setMirrorSlot(c *classfile.Class, idx int, m *TaskClassMirror) {
	row := mirrorRow(c)
	next := make([]*TaskClassMirror, max(idx+4, len(row)))
	copy(next, row)
	next[idx] = m
	atomic.StorePointer(&c.MirrorRow, unsafe.Pointer(&next))
}

// mirrorIndex is iso's index into every mirror row.
func (w *World) mirrorIndex(iso *Isolate) int {
	if w.mode == ModeIsolated {
		return int(iso.id)
	}
	return 0
}

// Mirror returns the task class mirror of class c for isolate iso,
// creating it lazily. This is the getstatic/putstatic hot path: in
// Isolated mode it performs the paper's two extra loads (current isolate,
// then the class's mirror array entry); in Shared mode isolates collapse
// to a single mirror. The fast path is lock-free — class, row, slot —
// and only a miss (first access of a (class, isolate) pair) takes
// mirrorMu.
func (w *World) Mirror(c *classfile.Class, iso *Isolate) *TaskClassMirror {
	idx := w.mirrorIndex(iso)
	if row := mirrorRow(c); idx < len(row) {
		if m := row[idx]; m != nil {
			return m
		}
	}
	return w.growMirror(c, iso, idx)
}

// growMirror creates iso's mirror of c, unless a concurrent caller already
// has, and enters c in iso's class list.
func (w *World) growMirror(c *classfile.Class, iso *Isolate, idx int) *TaskClassMirror {
	w.mirrorMu.Lock()
	defer w.mirrorMu.Unlock()
	if row := mirrorRow(c); idx < len(row) && row[idx] != nil {
		return row[idx]
	}
	m := newMirror(c)
	setMirrorSlot(c, idx, m)
	iso.noteMirrored(c)
	return m
}

// MirrorIfPresent returns the mirror without creating it.
func (w *World) MirrorIfPresent(c *classfile.Class, iso *Isolate) *TaskClassMirror {
	if row, idx := mirrorRow(c), w.mirrorIndex(iso); idx < len(row) {
		return row[idx]
	}
	return nil
}

// MirrorEntry pairs a class with one isolate's mirror for it.
type MirrorEntry struct {
	Class  *classfile.Class
	Mirror *TaskClassMirror
}

// MirrorEntries returns every existing (class, mirror) pair of iso, in
// StaticsID order. The snapshot engine walks it to capture the isolate's
// initialized statics; callers that need a stable cut run with the world
// stopped.
func (w *World) MirrorEntries(iso *Isolate) []MirrorEntry {
	idx := w.mirrorIndex(iso)
	w.mirrorMu.Lock()
	defer w.mirrorMu.Unlock()
	out := make([]MirrorEntry, len(iso.mirrored))
	for i, c := range iso.mirrored {
		out[i] = MirrorEntry{Class: c, Mirror: mirrorRow(c)[idx]}
	}
	return out
}

// InstallMirrors publishes pre-built mirrors for iso, in ascending
// StaticsID order (the order MirrorEntries captured them in). The
// snapshot-clone path uses it to install a whole warmed set at once. A
// slot that already holds a mirror refuses the install with nothing
// installed (the clone would silently lose state the isolate already
// accumulated), so callers install before the isolate runs any guest code.
func (w *World) InstallMirrors(iso *Isolate, entries []MirrorEntry) error {
	idx := w.mirrorIndex(iso)
	w.mirrorMu.Lock()
	defer w.mirrorMu.Unlock()
	for i, e := range entries {
		if e.Class == nil || e.Mirror == nil {
			return errors.New("core: install of a nil class or mirror")
		}
		if i > 0 && e.Class.StaticsID <= entries[i-1].Class.StaticsID {
			return fmt.Errorf("core: mirrors of isolate %d not in statics-id order at %s", iso.id, e.Class.Name)
		}
		if row := mirrorRow(e.Class); idx < len(row) && row[idx] != nil {
			return fmt.Errorf("core: isolate %d already has a mirror for %s", iso.id, e.Class.Name)
		}
	}
	for _, e := range entries {
		setMirrorSlot(e.Class, idx, e.Mirror)
		iso.noteMirrored(e.Class)
	}
	return nil
}

// ErrNotDisposed is returned by FreeIsolate for an isolate that still has
// live charged objects (or was never killed).
var ErrNotDisposed = errors.New("core: isolate is not disposed")

// FreeIsolate returns a disposed isolate's identity to service: its
// accounting ID joins the free-list for the next NewIsolate, its mirrors
// are cleared, and its loader is unbound. Only fully disposed isolates
// (killed, swept, no live charged objects) qualify, and never Isolate0.
// The order is load-bearing: unbind the loader (one store into its
// directory slot, under mu) so no invoke migrates into the corpse; clear
// the mirror slot of every class the isolate lists, and the list
// (mirrorMu); and only then publish the ID on the free-list (mu), so a
// concurrent NewIsolate can never adopt an ID that still shows the dead
// tenant's statics or class list. Each step costs what this isolate
// touched. The account needs no step: it lives on the isolate, and a
// reused ID gets a fresh Isolate. The isolate struct itself stays in the
// creation-order slice until the ID is reused (iterators rely on non-nil
// entries and simply see a disposed corpse, with its final account).
func (w *World) FreeIsolate(iso *Isolate) error {
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
		w.bindLoader(iso.loader.ID(), nil)
	}
	w.mu.Unlock()

	w.clearMirrors(iso)

	w.mu.Lock()
	w.freeIDs = append(w.freeIDs, iso.id)
	w.mu.Unlock()
	return nil
}

// clearMirrors removes iso's mirror from the row of every class it lists
// and empties the list.
func (w *World) clearMirrors(iso *Isolate) {
	idx := w.mirrorIndex(iso)
	w.mirrorMu.Lock()
	defer w.mirrorMu.Unlock()
	for _, c := range iso.mirrored {
		setMirrorSlot(c, idx, nil)
	}
	iso.mirrored = nil
}

// MirrorRootSets builds the GC accounting root contribution of every
// isolate's mirrors and string pools (paper §3.2, step 2). The returned
// map is keyed by isolate ID; an isolate's mirror roots come in StaticsID
// order. Callers run with the world stopped (the collection is
// stop-the-world), so the cut is complete.
func (w *World) MirrorRootSets() map[heap.IsolateID][]*heap.Object {
	isolates := w.Isolates()
	out := make(map[heap.IsolateID][]*heap.Object, len(isolates))
	w.mirrorMu.Lock()
	defer w.mirrorMu.Unlock()
	rows := 0
	for _, iso := range isolates {
		// Killed isolates contribute no roots: "all the objects
		// referenced by the terminating isolate are reclaimed by the
		// garbage collector, with the exception of objects shared with
		// other bundles" (§3.3) — shared objects survive through the
		// other isolates' roots.
		if iso.Killed() {
			continue
		}
		roots := iso.StringPoolRoots(nil)
		idx := w.mirrorIndex(iso)
		for _, c := range iso.mirrored {
			roots = mirrorRow(c)[idx].Roots(roots)
		}
		rows += len(iso.mirrored)
		out[iso.id] = roots
	}
	w.rootRows.Add(int64(rows))
	return out
}

// RootRowsVisitedForTest returns how many mirror rows MirrorRootSets has
// visited so far.
func (w *World) RootRowsVisitedForTest() int64 { return w.rootRows.Load() }

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
	for sid, n := 0, w.registry.NumClasses(); sid < n; sid++ {
		row := mirrorRow(w.registry.ClassByStaticsID(sid))
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

// UpdateDisposal hands a collection's per-isolate live usage (its
// CollectResult.Live) to the isolates — an isolate absent from live holds
// nothing live and reads zero — and promotes killed isolates with no
// remaining live charged objects to StateDisposed ("an isolate is only
// removed from memory when there is no remaining object whose class is
// defined by the isolate", §3.3). Call it after every terminal trace,
// inside the collection's stop; it returns the isolates it promoted.
func (w *World) UpdateDisposal(live map[heap.IsolateID]*heap.LiveStats) []*Isolate {
	var disposed []*Isolate
	for _, iso := range w.Isolates() {
		s := live[iso.id]
		iso.live.Store(s)
		if iso.State() == StateKilled && (s == nil || s.Objects == 0) {
			iso.setState(StateDisposed)
			disposed = append(disposed, iso)
		}
	}
	return disposed
}

// Snapshot builds a point-in-time resource snapshot of one isolate.
func (w *World) Snapshot(iso *Isolate) Snapshot {
	live := iso.Live()
	return Snapshot{
		IsolateID:       int32(iso.id),
		IsolateName:     iso.name,
		State:           iso.State(),
		Account:         iso.account.Numbers(),
		LiveObjects:     live.Objects,
		LiveBytes:       live.Bytes,
		LiveConnections: live.Connections,
	}
}

// Snapshots returns snapshots of all isolates in creation order.
func (w *World) Snapshots() []Snapshot {
	isolates := w.Isolates()
	out := make([]Snapshot, 0, len(isolates))
	for _, iso := range isolates {
		out = append(out, w.Snapshot(iso))
	}
	return out
}
