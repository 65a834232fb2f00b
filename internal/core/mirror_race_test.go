package core_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
)

// TestMirrorRowsConcurrent drives the per-class mirror rows, the
// per-isolate class lists and the loader directory from every side at once
// (run it under -race): eight isolates first-touch the mirrors of 64 shared
// classes; two churners create an isolate on a recycled ID behind a fresh
// loader, install a mirror set, read it back, are refused a second install,
// and free the isolate; a reader walks MirrorRootSets and MirrorEntries
// throughout. Every mirror is registered to the isolate incarnation that
// made it, so any mirror seen through another incarnation — a neighbour's,
// or a recycled ID's predecessor's — is caught.
func TestMirrorRowsConcurrent(t *testing.T) {
	const (
		owners   = 8
		churners = 2
		nClasses = 64
		rounds   = 150
	)
	w, r := newWorld(t, core.ModeIsolated)
	if _, err := w.NewIsolate("runtime", r.NewLoader("runtime")); err != nil {
		t.Fatal(err)
	}
	shared := r.NewLoader("shared")
	classes := make([]*classfile.Class, nClasses)
	for i := range classes {
		classes[i] = classWithStatics(t, r, shared, fmt.Sprintf("row/C%d", i))
	}
	h := heap.New(1 << 20)

	// owner maps a mirror to the token of the incarnation it belongs to.
	var owner sync.Map
	claim := func(key any, token int64) error {
		if got, _ := owner.LoadOrStore(key, token); got != token {
			return fmt.Errorf("incarnation %d was handed something of incarnation %d", token, got)
		}
		return nil
	}
	var (
		tokens atomic.Int64
		stop   atomic.Bool
		wg     sync.WaitGroup
		errs   = make(chan error, owners+churners+1)
	)
	fail := func(err error) {
		stop.Store(true)
		errs <- err
	}

	ownerIsos := make([]*core.Isolate, owners)
	for i := range ownerIsos {
		iso, err := w.NewIsolate("owner", r.NewLoader("owner"))
		if err != nil {
			t.Fatal(err)
		}
		ownerIsos[i] = iso
	}
	for i, iso := range ownerIsos {
		wg.Add(1)
		go func(i int, iso *core.Isolate) {
			defer wg.Done()
			token := tokens.Add(1)
			first := make([]*core.TaskClassMirror, nClasses)
			for !stop.Load() {
				for k := range classes {
					c := classes[(k+i*7)%nClasses] // each owner touches in its own order
					m := w.Mirror(c, iso)
					if err := claim(m, token); err != nil {
						fail(fmt.Errorf("owner %d, %s: %w", i, c.Name, err))
						return
					}
					if j := (k + i*7) % nClasses; first[j] == nil {
						first[j] = m
					} else if first[j] != m || w.MirrorIfPresent(c, iso) != m {
						fail(fmt.Errorf("owner %d: mirror of %s changed identity", i, c.Name))
						return
					}
				}
				if w.IsolateForLoaderID(iso.Loader().ID()) != iso {
					fail(fmt.Errorf("owner %d lost its loader binding", i))
					return
				}
			}
		}(i, iso)
	}

	for ch := 0; ch < churners; ch++ {
		marker, err := h.AllocObject(classes[0], 0)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(ch int) {
			defer wg.Done()
			defer stop.Store(true)
			for round := 0; round < rounds && !stop.Load(); round++ {
				token := tokens.Add(1)
				l := r.NewLoader("churn")
				iso, err := w.NewIsolate("churn", l)
				if err != nil {
					fail(err)
					return
				}
				if n := len(w.MirrorEntries(iso)); n != 0 {
					fail(fmt.Errorf("churner %d: isolate on recycled ID %d starts with %d listed classes", ch, iso.ID(), n))
					return
				}
				// Everything but class `skip`, which must stay absent when
				// the second install is refused.
				skip := round % (nClasses - 1)
				var entries, all []core.MirrorEntry
				for k, c := range classes {
					if w.MirrorIfPresent(c, iso) != nil {
						fail(fmt.Errorf("churner %d: recycled ID %d shows its predecessor's mirror of %s", ch, iso.ID(), c.Name))
						return
					}
					m := &core.TaskClassMirror{State: core.InitDone, Statics: []heap.Value{heap.IntVal(token), heap.RefVal(marker)}}
					owner.Store(m, token)
					all = append(all, core.MirrorEntry{Class: c, Mirror: m})
					if k != skip {
						entries = append(entries, all[k])
					}
				}
				if err := w.InstallMirrors(iso, entries); err != nil {
					fail(err)
					return
				}
				if err := w.InstallMirrors(iso, all); err == nil {
					fail(fmt.Errorf("churner %d: install into occupied slots accepted", ch))
					return
				}
				if w.MirrorIfPresent(classes[skip], iso) != nil {
					fail(fmt.Errorf("churner %d: a refused install left a mirror behind", ch))
					return
				}
				got := w.MirrorEntries(iso)
				if len(got) != len(entries) {
					fail(fmt.Errorf("churner %d: %d entries listed, %d installed", ch, len(got), len(entries)))
					return
				}
				for k, e := range got {
					if e != entries[k] || w.Mirror(e.Class, iso) != e.Mirror {
						fail(fmt.Errorf("churner %d: entry %d reads back as another mirror", ch, k))
						return
					}
				}
				if w.IsolateForLoaderID(l.ID()) != iso {
					fail(fmt.Errorf("churner %d: binding not published", ch))
					return
				}
				if err := w.Kill(nil, iso); err != nil {
					fail(err)
					return
				}
				w.UpdateDisposal(nil)
				if err := w.FreeIsolate(iso); err != nil {
					fail(err)
					return
				}
				if w.IsolateForLoaderID(l.ID()) != nil {
					fail(fmt.Errorf("churner %d: freed isolate still bound to loader %d", ch, l.ID()))
					return
				}
			}
		}(ch)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			for id, roots := range w.MirrorRootSets() {
				// Owners' mirrors hold no references; a churner's hold its
				// marker object, so one ID's roots are one churner's.
				for _, o := range roots {
					if o != roots[0] {
						fail(fmt.Errorf("roots of isolate %d mix two churners' mirrors", id))
						return
					}
				}
				for _, iso := range ownerIsos {
					if iso.ID() == id && len(roots) != 0 {
						fail(fmt.Errorf("owner isolate %d roots %d objects it never stored", id, len(roots)))
						return
					}
				}
			}
			for i, iso := range ownerIsos {
				last := -1
				var token any
				for _, e := range w.MirrorEntries(iso) {
					if e.Class.StaticsID <= last {
						fail(fmt.Errorf("owner %d: entries out of statics-id order", i))
						return
					}
					last = e.Class.StaticsID
					// A mirror can be listed a moment before its owner has
					// registered it.
					got, registered := owner.Load(e.Mirror)
					if token == nil {
						token = got
					}
					if e.Mirror == nil || (registered && got != token) {
						fail(fmt.Errorf("owner %d: listed mirror of %s belongs to incarnation %v, not %v", i, e.Class.Name, got, token))
						return
					}
				}
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for i, iso := range ownerIsos {
		if n := len(w.MirrorEntries(iso)); n != nClasses {
			t.Errorf("owner %d lists %d classes, want %d", i, n, nClasses)
		}
	}
}
