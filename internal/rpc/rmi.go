package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
	"ijvm/internal/loader"
)

// RMIServer exposes one callee method over loopback TCP with full
// argument/result serialization — the "RMI local call" baseline of
// Table 1, the standard inter-application communication in Java.
type RMIServer struct {
	vm       *interp.VM
	callee   *core.Isolate
	method   *classfile.Method
	recv     heap.Value
	resolver *loader.Loader

	ln   net.Listener
	mu   sync.Mutex
	done chan struct{}
}

// NewRMIServer starts serving on an ephemeral loopback port.
func NewRMIServer(vm *interp.VM, callee *core.Isolate, m *classfile.Method, recv heap.Value) (*RMIServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("rpc: rmi listen: %w", err)
	}
	s := &RMIServer{
		vm:       vm,
		callee:   callee,
		method:   m,
		recv:     recv,
		resolver: callee.Loader(),
		ln:       ln,
		done:     make(chan struct{}),
	}
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's dial address.
func (s *RMIServer) Addr() string { return s.ln.Addr().String() }

// Close stops the listener.
func (s *RMIServer) Close() {
	_ = s.ln.Close()
	<-s.done
}

func (s *RMIServer) acceptLoop() {
	defer close(s.done)
	var handlers sync.WaitGroup
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			handlers.Wait()
			return
		}
		handlers.Add(1)
		go func() {
			defer handlers.Done()
			s.handle(conn)
		}()
	}
}

func (s *RMIServer) handle(conn net.Conn) {
	defer func() { _ = conn.Close() }()
	for {
		payload, err := readFrame(conn)
		if err != nil {
			return
		}
		resp := s.dispatch(payload)
		if err := writeFrame(conn, resp); err != nil {
			return
		}
	}
}

// dispatch deserializes arguments, runs the callee method, and serializes
// the result. The VM is single-threaded; the mutex serializes competing
// connections.
func (s *RMIServer) dispatch(payload []byte) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	// The arguments stay rooted until CallRoot has handed them to the
	// callee thread.
	roots := s.vm.NewHostRoots(s.callee)
	defer roots.Release()
	args, err := unmarshal(s.vm, payload, s.callee, s.resolver, roots)
	if err != nil {
		return errorFrame(err)
	}
	callArgs := args
	if !s.method.IsStatic() {
		callArgs = append([]heap.Value{s.recv}, args...)
	}
	v, th, err := s.vm.CallRoot(s.callee, s.method, callArgs, CallBudget)
	if err != nil {
		return errorFrame(err)
	}
	if th.Failure() != nil {
		return errorFrame(errors.New(th.FailureString()))
	}
	out, err := Marshal([]heap.Value{v})
	if err != nil {
		return errorFrame(err)
	}
	return append([]byte{0}, out...)
}

func errorFrame(err error) []byte {
	return append([]byte{1}, []byte(err.Error())...)
}

// RMIClient calls the server with per-call serialization over the
// network.
type RMIClient struct {
	vm     *interp.VM
	caller *core.Isolate
	conn   net.Conn
	mu     sync.Mutex
}

// NewRMIClient dials the server.
func NewRMIClient(vm *interp.VM, caller *core.Isolate, addr string) (*RMIClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rpc: rmi dial: %w", err)
	}
	return &RMIClient{vm: vm, caller: caller, conn: conn}, nil
}

// Call performs one remote invocation: serialize args, TCP round trip,
// deserialize result into the caller's space.
func (c *RMIClient) Call(args []heap.Value) (heap.Value, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	payload, err := Marshal(args)
	if err != nil {
		return heap.Value{}, err
	}
	if err := writeFrame(c.conn, payload); err != nil {
		return heap.Value{}, err
	}
	resp, err := readFrame(c.conn)
	if err != nil {
		return heap.Value{}, err
	}
	if len(resp) == 0 {
		return heap.Value{}, errors.New("rpc: empty response")
	}
	if resp[0] == 1 {
		return heap.Value{}, fmt.Errorf("rpc: remote error: %s", resp[1:])
	}
	vals, err := Unmarshal(c.vm, resp[1:], c.caller, c.caller.Loader())
	if err != nil {
		return heap.Value{}, err
	}
	if len(vals) != 1 {
		return heap.Value{}, fmt.Errorf("rpc: expected 1 result, got %d", len(vals))
	}
	return vals[0], nil
}

// Close closes the connection.
func (c *RMIClient) Close() { _ = c.conn.Close() }

func writeFrame(conn net.Conn, payload []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := conn.Write(hdr[:]); err != nil {
		return err
	}
	_, err := conn.Write(payload)
	return err
}

func readFrame(conn net.Conn) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > 64<<20 {
		return nil, fmt.Errorf("rpc: oversized frame (%d bytes)", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(conn, payload); err != nil {
		return nil, err
	}
	return payload, nil
}
