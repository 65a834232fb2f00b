package osgi

import (
	"fmt"

	"ijvm/internal/classfile"
	"ijvm/internal/heap"
	"ijvm/internal/interp"
)

// buildContextClass defines ijvm/osgi/BundleContext in the bootstrap
// loader. The context is the object handed to activators (§3.4, "the
// start method of a bundle receives an object that represents OSGi. This
// object is the first shared object between bundles"); its natives bridge
// into the framework:
//
//	registerService(Ljava/lang/String;Ljava/lang/Object;)V
//	getService(Ljava/lang/String;)Ljava/lang/Object;
//	bundleName()Ljava/lang/String;
//
// The natives are system-library code: they execute in the calling
// bundle's isolate and charge it for any allocation.
func (f *Framework) buildContextClass() (*classfile.Class, error) {
	b := classfile.NewClass("ijvm/osgi/BundleContext")
	pub := classfile.FlagPublic

	bundleOf := func(recv heap.Value) (*Bundle, error) {
		if recv.R == nil {
			return nil, fmt.Errorf("nil BundleContext")
		}
		bundle, ok := recv.R.Native().(*Bundle)
		if !ok {
			return nil, fmt.Errorf("BundleContext without bundle payload")
		}
		return bundle, nil
	}

	b.NativeMethod("registerService", "(Ljava/lang/String;Ljava/lang/Object;)V", pub, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			bundle, err := bundleOf(recv)
			if err != nil {
				return interp.NativeResult{}, err
			}
			name := ""
			if args[0].R != nil {
				name, _ = args[0].R.StringValue()
			}
			if name == "" {
				return interp.NativeThrowName(vm, t, "java/lang/IllegalArgumentException", "empty service name")
			}
			if args[1].R == nil {
				return interp.NativeThrowName(vm, t, interp.ClassNullPointerException, "null service object")
			}
			if regErr := f.registry.Register(name, args[1].R, bundle); regErr != nil {
				return interp.NativeThrowName(vm, t, "java/lang/IllegalStateException", regErr.Error())
			}
			return interp.NativeVoid()
		}))

	b.NativeMethod("getService", "(Ljava/lang/String;)Ljava/lang/Object;", pub, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			bundle, err := bundleOf(recv)
			if err != nil {
				return interp.NativeResult{}, err
			}
			name := ""
			if args[0].R != nil {
				name, _ = args[0].R.StringValue()
			}
			obj := f.registry.Get(name, bundle)
			if obj == nil {
				return interp.NativeReturn(heap.Null())
			}
			return interp.NativeReturn(heap.RefVal(obj))
		}))

	b.NativeMethod("bundleName", "()Ljava/lang/String;", pub, interp.NativeFunc(
		func(vm *interp.VM, t *interp.Thread, recv heap.Value, args []heap.Value) (interp.NativeResult, error) {
			bundle, err := bundleOf(recv)
			if err != nil {
				return interp.NativeResult{}, err
			}
			obj, serr := vm.InternString(t, t.CurrentIsolateOrZero(), bundle.manifest.Name)
			if serr != nil {
				return interp.NativeResult{}, serr
			}
			return interp.NativeReturn(heap.RefVal(obj))
		}))

	class, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("osgi: building BundleContext: %w", err)
	}
	if err := f.vm.Registry().Bootstrap().Define(class); err != nil {
		return nil, fmt.Errorf("osgi: defining BundleContext: %w", err)
	}
	return class, nil
}
