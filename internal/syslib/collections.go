package syslib

import (
	"ijvm/internal/classfile"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
)

// listPayload is the native state of java/util/ArrayList.
type listPayload struct {
	vals []heap.Value
}

// Refs exposes contained references to the collector.
func (p *listPayload) Refs() []*heap.Object {
	out := make([]*heap.Object, 0, len(p.vals))
	for _, v := range p.vals {
		if v.R != nil {
			out = append(out, v.R)
		}
	}
	return out
}

var _ heap.RefHolder = (*listPayload)(nil)

// mapPayload is the native state of java/util/HashMap (string keys,
// insertion-ordered for determinism).
type mapPayload struct {
	keys []string
	vals map[string]heap.Value
}

// Refs exposes contained references to the collector.
func (p *mapPayload) Refs() []*heap.Object {
	out := make([]*heap.Object, 0, len(p.vals))
	for _, v := range p.vals {
		if v.R != nil {
			out = append(out, v.R)
		}
	}
	return out
}

var _ heap.RefHolder = (*mapPayload)(nil)

const (
	listSlotBytes = 16
	mapSlotBytes  = 48
)

// collectionClasses builds java/util/ArrayList and java/util/HashMap with
// native storage. Their modelled heap size grows with the element count so
// retention-based attacks (A3) are visible to memory accounting.
func collectionClasses() []*classfile.Class {
	return []*classfile.Class{arrayListClass(), hashMapClass()}
}

func listOf(vm *interp.VM, t *interp.Thread, recv heap.Value) (*listPayload, *interp.NativeResult) {
	p, ok := recv.R.Native().(*listPayload)
	if !ok {
		res, _ := interp.NativeThrowName(vm, t, interp.ClassNullPointerException, "uninitialized ArrayList")
		return nil, &res
	}
	return p, nil
}

func arrayListClass() *classfile.Class {
	b := classfile.NewClass("java/util/ArrayList")
	pub := classfile.FlagPublic
	b.NativeMethod(classfile.InitName, "()V", pub, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			recv.R.SetNative(&listPayload{})
			return interp.NativeVoid()
		}))
	b.NativeMethod("add", "(Ljava/lang/Object;)Z", pub, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			p, fail := listOf(vm, t, recv)
			if fail != nil {
				return *fail, nil
			}
			p.vals = append(p.vals, args[0])
			vm.Heap().ResizeNative(recv.R, int64(len(p.vals))*listSlotBytes)
			return interp.NativeReturn(heap.BoolVal(true))
		}))
	b.NativeMethod("addInt", "(I)Z", pub, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			p, fail := listOf(vm, t, recv)
			if fail != nil {
				return *fail, nil
			}
			p.vals = append(p.vals, args[0])
			vm.Heap().ResizeNative(recv.R, int64(len(p.vals))*listSlotBytes)
			return interp.NativeReturn(heap.BoolVal(true))
		}))
	b.NativeMethod("get", "(I)Ljava/lang/Object;", pub, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			p, fail := listOf(vm, t, recv)
			if fail != nil {
				return *fail, nil
			}
			i := args[0].I
			if i < 0 || i >= int64(len(p.vals)) {
				return interp.NativeThrowName(vm, t, interp.ClassArrayIndexException, "list index")
			}
			return interp.NativeReturn(p.vals[i])
		}))
	b.NativeMethod("getInt", "(I)I", pub, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			p, fail := listOf(vm, t, recv)
			if fail != nil {
				return *fail, nil
			}
			i := args[0].I
			if i < 0 || i >= int64(len(p.vals)) {
				return interp.NativeThrowName(vm, t, interp.ClassArrayIndexException, "list index")
			}
			return interp.NativeReturn(heap.IntVal(p.vals[i].I))
		}))
	b.NativeMethod("set", "(ILjava/lang/Object;)V", pub, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			p, fail := listOf(vm, t, recv)
			if fail != nil {
				return *fail, nil
			}
			i := args[0].I
			if i < 0 || i >= int64(len(p.vals)) {
				return interp.NativeThrowName(vm, t, interp.ClassArrayIndexException, "list index")
			}
			// Native payloads are scanned only in stop-the-world GC
			// phases, so an overwrite during incremental marking must
			// record the removed reference (SATB deletion barrier).
			vm.WriteBarrier(t, p.vals[i])
			p.vals[i] = args[1]
			return interp.NativeVoid()
		}))
	b.NativeMethod("size", "()I", pub, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			p, fail := listOf(vm, t, recv)
			if fail != nil {
				return *fail, nil
			}
			return interp.NativeReturn(heap.IntVal(int64(len(p.vals))))
		}))
	b.NativeMethod("clear", "()V", pub, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			p, fail := listOf(vm, t, recv)
			if fail != nil {
				return *fail, nil
			}
			// clear drops every contained reference (SATB barrier).
			for _, v := range p.vals {
				vm.WriteBarrier(t, v)
			}
			p.vals = nil
			vm.Heap().ResizeNative(recv.R, 0)
			return interp.NativeVoid()
		}))
	return b.MustBuild()
}

func mapOf(vm *interp.VM, t *interp.Thread, recv heap.Value) (*mapPayload, *interp.NativeResult) {
	p, ok := recv.R.Native().(*mapPayload)
	if !ok {
		res, _ := interp.NativeThrowName(vm, t, interp.ClassNullPointerException, "uninitialized HashMap")
		return nil, &res
	}
	return p, nil
}

func hashMapClass() *classfile.Class {
	b := classfile.NewClass("java/util/HashMap")
	pub := classfile.FlagPublic
	b.NativeMethod(classfile.InitName, "()V", pub, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			recv.R.SetNative(&mapPayload{vals: make(map[string]heap.Value)})
			return interp.NativeVoid()
		}))
	b.NativeMethod("put", "(Ljava/lang/String;Ljava/lang/Object;)V", pub, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			p, fail := mapOf(vm, t, recv)
			if fail != nil {
				return *fail, nil
			}
			key, ok := stringOf(args[0])
			if !ok {
				return interp.NativeThrowName(vm, t, interp.ClassNullPointerException, "map key")
			}
			if old, exists := p.vals[key]; !exists {
				p.keys = append(p.keys, key)
			} else {
				// Overwriting a mapping removes the old value's
				// reference from the payload (SATB barrier).
				vm.WriteBarrier(t, old)
			}
			p.vals[key] = args[1]
			vm.Heap().ResizeNative(recv.R, int64(len(p.keys))*mapSlotBytes)
			return interp.NativeVoid()
		}))
	b.NativeMethod("get", "(Ljava/lang/String;)Ljava/lang/Object;", pub, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			p, fail := mapOf(vm, t, recv)
			if fail != nil {
				return *fail, nil
			}
			key, _ := stringOf(args[0])
			if v, ok := p.vals[key]; ok {
				return interp.NativeReturn(v)
			}
			return interp.NativeReturn(heap.Null())
		}))
	b.NativeMethod("containsKey", "(Ljava/lang/String;)Z", pub, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			p, fail := mapOf(vm, t, recv)
			if fail != nil {
				return *fail, nil
			}
			key, _ := stringOf(args[0])
			_, ok := p.vals[key]
			return interp.NativeReturn(heap.BoolVal(ok))
		}))
	b.NativeMethod("remove", "(Ljava/lang/String;)V", pub, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			p, fail := mapOf(vm, t, recv)
			if fail != nil {
				return *fail, nil
			}
			key, _ := stringOf(args[0])
			if old, ok := p.vals[key]; ok {
				vm.WriteBarrier(t, old)
				delete(p.vals, key)
				for i, k := range p.keys {
					if k == key {
						p.keys = append(p.keys[:i], p.keys[i+1:]...)
						break
					}
				}
				vm.Heap().ResizeNative(recv.R, int64(len(p.keys))*mapSlotBytes)
			}
			return interp.NativeVoid()
		}))
	b.NativeMethod("size", "()I", pub, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			p, fail := mapOf(vm, t, recv)
			if fail != nil {
				return *fail, nil
			}
			return interp.NativeReturn(heap.IntVal(int64(len(p.vals))))
		}))
	return b.MustBuild()
}
