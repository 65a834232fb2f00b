package syslib

import (
	"errors"
	"fmt"
	"sync"

	"ijvm/internal/classfile"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
)

// connPayload is the native state of a guest connection.
type connPayload struct {
	name     string
	endpoint interp.ConnectionEndpoint
	closed   bool
}

// connectionClass builds ijvm/io/Connection: the guest's only door to
// I/O. All reads and writes are instrumented and charged to the current
// isolate — the JRes-style accounting of §3.2: "there are few classes that
// perform read and writes on connections, and instrumenting them is
// straightforward".
func connectionClass() *classfile.Class {
	b := classfile.NewClass("ijvm/io/Connection")
	pub := classfile.FlagPublic

	b.NativeMethod("open", "(Ljava/lang/String;)Lijvm/io/Connection;", pub|classfile.FlagStatic, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			name, ok := stringOf(args[0])
			if !ok {
				return interp.NativeThrowName(vm, t, interp.ClassNullPointerException, "connection name")
			}
			host := vm.ConnectionHostRef()
			if host == nil {
				return interp.NativeResult{}, errors.New("no connection host installed")
			}
			ep, err := host.Open(name)
			if err != nil {
				return interp.NativeThrowName(vm, t, "java/lang/IllegalStateException", err.Error())
			}
			iso := t.CurrentIsolateOrZero()
			connClass, cerr := vm.Registry().Bootstrap().Lookup("ijvm/io/Connection")
			if cerr != nil {
				return interp.NativeResult{}, cerr
			}
			// Connections are charged to the creator (§3.2).
			obj, aerr := vm.AllocNativeIn(t, connClass, &connPayload{name: name, endpoint: ep}, 64, true, iso)
			if aerr != nil {
				return interp.NativeThrowName(vm, t, interp.ClassOutOfMemoryError, aerr.Error())
			}
			return interp.NativeReturn(heap.RefVal(obj))
		}))

	connOf := func(vm *interp.VM, t *interp.Thread, recv heap.Value) (*connPayload, *interp.NativeResult) {
		p, ok := recv.R.Native().(*connPayload)
		if !ok {
			res, _ := interp.NativeThrowName(vm, t, interp.ClassNullPointerException, "not a connection")
			return nil, &res
		}
		if p.closed {
			res, _ := interp.NativeThrowName(vm, t, "java/lang/IllegalStateException", "connection closed")
			return nil, &res
		}
		return p, nil
	}

	// read(n) consumes up to n bytes and returns the count read.
	b.NativeMethod("read", "(I)I", pub, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			p, fail := connOf(vm, t, recv)
			if fail != nil {
				return *fail, nil
			}
			data, err := p.endpoint.Read(int(args[0].I))
			if err != nil {
				return interp.NativeThrowName(vm, t, "java/lang/IllegalStateException", err.Error())
			}
			t.CurrentIsolateOrZero().Account().IOBytesRead.Add(int64(len(data)))
			return interp.NativeReturn(heap.IntVal(int64(len(data))))
		}))

	// write(s) writes a string payload, returning the byte count.
	b.NativeMethod("write", "(Ljava/lang/String;)I", pub, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			p, fail := connOf(vm, t, recv)
			if fail != nil {
				return *fail, nil
			}
			s, _ := stringOf(args[0])
			n, err := p.endpoint.Write([]byte(s))
			if err != nil {
				return interp.NativeThrowName(vm, t, "java/lang/IllegalStateException", err.Error())
			}
			t.CurrentIsolateOrZero().Account().IOBytesWritten.Add(int64(n))
			return interp.NativeReturn(heap.IntVal(int64(n)))
		}))

	// writeBytes(n) writes n synthetic bytes (bulk-transfer workloads).
	b.NativeMethod("writeBytes", "(I)I", pub, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			p, fail := connOf(vm, t, recv)
			if fail != nil {
				return *fail, nil
			}
			n := int(args[0].I)
			if n < 0 {
				return interp.NativeThrowName(vm, t, "java/lang/IllegalArgumentException", "negative count")
			}
			written, err := p.endpoint.Write(make([]byte, n))
			if err != nil {
				return interp.NativeThrowName(vm, t, "java/lang/IllegalStateException", err.Error())
			}
			t.CurrentIsolateOrZero().Account().IOBytesWritten.Add(int64(written))
			return interp.NativeReturn(heap.IntVal(int64(written)))
		}))

	b.NativeMethod("close", "()V", pub, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			p, ok := recv.R.Native().(*connPayload)
			if !ok {
				return interp.NativeThrowName(vm, t, interp.ClassNullPointerException, "not a connection")
			}
			if !p.closed {
				p.closed = true
				if err := p.endpoint.Close(); err != nil {
					return interp.NativeThrowName(vm, t, "java/lang/IllegalStateException", err.Error())
				}
			}
			return interp.NativeVoid()
		}))
	return b.MustBuild()
}

// MemHost is the default in-memory connection substrate: reads produce
// deterministic bytes, writes are discarded (the guest's I/O account counts
// them). It stands in for the sockets and file descriptors of the paper's
// gateway scenario. The mutex guards the connection count and the read
// cursors: under the concurrent scheduler several isolates pump bytes
// through the substrate in parallel.
type MemHost struct {
	mu     sync.Mutex
	opened int
	limit  int
}

// NewMemHost creates a substrate allowing up to 1<<20 open connections.
func NewMemHost() *MemHost { return &MemHost{limit: 1 << 20} }

// Open implements interp.ConnectionHost.
func (h *MemHost) Open(name string) (interp.ConnectionEndpoint, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.opened >= h.limit {
		return nil, fmt.Errorf("connection limit reached (%d)", h.limit)
	}
	h.opened++
	return &memEndpoint{host: h}, nil
}

type memEndpoint struct {
	host   *MemHost
	cursor byte
}

func (e *memEndpoint) Read(n int) ([]byte, error) {
	if n < 0 {
		return nil, errors.New("negative read")
	}
	e.host.mu.Lock()
	defer e.host.mu.Unlock()
	out := make([]byte, n)
	for i := range out {
		out[i] = e.cursor
		e.cursor++
	}
	return out, nil
}

func (e *memEndpoint) Write(b []byte) (int, error) { return len(b), nil }

func (e *memEndpoint) Close() error { return nil }

var _ interp.ConnectionHost = (*MemHost)(nil)
