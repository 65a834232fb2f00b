package rpc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"ijvm/internal/classfile"
	"ijvm/internal/core"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
	"ijvm/internal/loader"
)

// Wire tags for serialized values.
const (
	tagNull   = 0
	tagInt    = 1
	tagFloat  = 2
	tagString = 3
	tagObject = 4
	tagArray  = 5
	tagRef    = 6 // back-reference to an already-encoded object
	tagVoid   = 7
)

// Marshal serializes a value list (the RMI-like baseline's argument or
// result payload). Object graphs with cycles are supported through
// back-references.
func Marshal(vals []heap.Value) ([]byte, error) {
	var buf bytes.Buffer
	seen := make(map[*heap.Object]uint32)
	if err := binary.Write(&buf, binary.LittleEndian, uint32(len(vals))); err != nil {
		return nil, err
	}
	for _, v := range vals {
		if err := marshalValue(&buf, v, seen); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

func marshalValue(buf *bytes.Buffer, v heap.Value, seen map[*heap.Object]uint32) error {
	switch v.Kind {
	case classfile.KindInt:
		buf.WriteByte(tagInt)
		return binary.Write(buf, binary.LittleEndian, v.I)
	case classfile.KindFloat:
		buf.WriteByte(tagFloat)
		return binary.Write(buf, binary.LittleEndian, math.Float64bits(v.F))
	case classfile.KindRef:
		if v.R == nil {
			buf.WriteByte(tagNull)
			return nil
		}
	default:
		buf.WriteByte(tagVoid)
		return nil
	}
	obj := v.R
	if id, ok := seen[obj]; ok {
		buf.WriteByte(tagRef)
		return binary.Write(buf, binary.LittleEndian, id)
	}
	if s, isStr := obj.StringValue(); isStr {
		buf.WriteByte(tagString)
		seen[obj] = uint32(len(seen))
		writeString(buf, s)
		return nil
	}
	if obj.Native() != nil {
		return fmt.Errorf("rpc: cannot serialize native-payload object of class %s", obj.Class.Name)
	}
	seen[obj] = uint32(len(seen))
	if obj.IsArray() {
		buf.WriteByte(tagArray)
	} else {
		buf.WriteByte(tagObject)
	}
	writeString(buf, obj.Class.Name)
	if err := binary.Write(buf, binary.LittleEndian, uint32(len(obj.Elems))); err != nil {
		return err
	}
	for i := range obj.Elems {
		if err := marshalValue(buf, obj.Elems[i], seen); err != nil {
			return err
		}
	}
	return nil
}

func writeString(buf *bytes.Buffer, s string) {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(s)))
	buf.Write(n[:])
	buf.WriteString(s)
}

// Unmarshal decodes a payload, materializing objects in the target
// isolate via the given loader for class resolution. The decoded objects
// are released from their transient GC roots before returning: the caller
// must root them (or hand them to a thread) before the next collection,
// as with DeepCopyValue.
func Unmarshal(vm *interp.VM, data []byte, target *core.Isolate, resolver *loader.Loader) ([]heap.Value, error) {
	roots := vm.NewCollectingRoots(target, func() { vm.CollectGarbage(target) })
	defer roots.Release()
	return unmarshal(vm, data, target, resolver, roots)
}

// unmarshal is Unmarshal with every decoded object rooted in roots, which
// must be empty: a later allocation in the same payload may collect (the
// batch's collector, charged to the target), and until the payload is
// complete nothing but the batch references what was decoded before it.
// The batch's roots double as the back-reference table, in wire order.
func unmarshal(vm *interp.VM, data []byte, target *core.Isolate, resolver *loader.Loader, roots *interp.HostRoots) ([]heap.Value, error) {
	r := bytes.NewReader(data)
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	dec := &decoder{vm: vm, r: r, target: target, resolver: resolver, roots: roots}
	out := make([]heap.Value, 0, n)
	for i := uint32(0); i < n; i++ {
		v, err := dec.value()
		if err != nil {
			return nil, fmt.Errorf("rpc: decode value %d: %w", i, err)
		}
		out = append(out, v)
	}
	return out, nil
}

type decoder struct {
	vm       *interp.VM
	r        *bytes.Reader
	target   *core.Isolate
	resolver *loader.Loader
	roots    *interp.HostRoots
}

func (d *decoder) value() (heap.Value, error) {
	tag, err := d.r.ReadByte()
	if err != nil {
		return heap.Value{}, err
	}
	switch tag {
	case tagVoid:
		return heap.Void(), nil
	case tagNull:
		return heap.Null(), nil
	case tagInt:
		var v int64
		if err := binary.Read(d.r, binary.LittleEndian, &v); err != nil {
			return heap.Value{}, err
		}
		return heap.IntVal(v), nil
	case tagFloat:
		var bits uint64
		if err := binary.Read(d.r, binary.LittleEndian, &bits); err != nil {
			return heap.Value{}, err
		}
		return heap.FloatVal(math.Float64frombits(bits)), nil
	case tagString:
		s, err := d.readString()
		if err != nil {
			return heap.Value{}, err
		}
		obj, err := d.vm.NewStringRooted(d.roots, s, d.target)
		if err != nil {
			return heap.Value{}, err
		}
		return heap.RefVal(obj), nil
	case tagRef:
		var id uint32
		if err := binary.Read(d.r, binary.LittleEndian, &id); err != nil {
			return heap.Value{}, err
		}
		decoded := d.roots.Refs()
		if int(id) >= len(decoded) {
			return heap.Value{}, fmt.Errorf("dangling back-reference %d", id)
		}
		return heap.RefVal(decoded[id]), nil
	case tagArray:
		className, err := d.readString()
		if err != nil {
			return heap.Value{}, err
		}
		class, err := d.resolver.Lookup(className)
		if err != nil {
			return heap.Value{}, err
		}
		var n uint32
		if err := binary.Read(d.r, binary.LittleEndian, &n); err != nil {
			return heap.Value{}, err
		}
		arr, err := d.vm.AllocArrayRooted(d.roots, class, int(n), d.target)
		if err != nil {
			return heap.Value{}, err
		}
		for i := uint32(0); i < n; i++ {
			ev, err := d.value()
			if err != nil {
				return heap.Value{}, err
			}
			arr.Elems[i] = ev
		}
		return heap.RefVal(arr), nil
	case tagObject:
		className, err := d.readString()
		if err != nil {
			return heap.Value{}, err
		}
		class, err := d.resolver.Lookup(className)
		if err != nil {
			return heap.Value{}, err
		}
		var n uint32
		if err := binary.Read(d.r, binary.LittleEndian, &n); err != nil {
			return heap.Value{}, err
		}
		obj, err := d.vm.AllocObjectRooted(d.roots, class, d.target)
		if err != nil {
			return heap.Value{}, err
		}
		if int(n) != len(obj.Elems) {
			return heap.Value{}, fmt.Errorf("field count mismatch for %s: wire %d, class %d",
				className, n, len(obj.Elems))
		}
		for i := uint32(0); i < n; i++ {
			fv, err := d.value()
			if err != nil {
				return heap.Value{}, err
			}
			obj.Elems[i] = fv
		}
		return heap.RefVal(obj), nil
	default:
		return heap.Value{}, fmt.Errorf("unknown wire tag %d", tag)
	}
}

func (d *decoder) readString() (string, error) {
	var n uint32
	if err := binary.Read(d.r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(d.r, b); err != nil {
		return "", err
	}
	return string(b), nil
}
