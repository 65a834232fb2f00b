// Package classfile defines the class model of the virtual machine:
// classes, methods, fields, type descriptors and the per-class constant
// pool, together with a fluent ClassBuilder used by workloads, attacks and
// examples to define bundle code.
package classfile

import (
	"fmt"
	"strings"
)

// Kind classifies a VM value or descriptor component.
type Kind uint8

// Value kinds. The VM models Java's int/long as a single 64-bit integer
// kind and float/double as a single 64-bit float kind.
const (
	KindVoid Kind = iota + 1
	KindInt
	KindFloat
	KindRef
)

// String returns the descriptor character for the kind.
func (k Kind) String() string {
	switch k {
	case KindVoid:
		return "V"
	case KindInt:
		return "I"
	case KindFloat:
		return "F"
	case KindRef:
		return "L"
	default:
		return "?"
	}
}

// Descriptor is a parsed method descriptor: parameter kinds and the return
// kind. Reference parameters may carry a class name for documentation and
// diagnostics; the VM relies on runtime checks (checkcast/instanceof), not
// static types.
type Descriptor struct {
	Params []Param
	Return Kind
	// ReturnClass is the class name when Return is KindRef; informational.
	ReturnClass string
	raw         string
}

// Param is one parameter of a method descriptor.
type Param struct {
	Kind  Kind
	Class string // set when Kind is KindRef; informational
}

// Raw returns the canonical string form of the descriptor.
func (d Descriptor) Raw() string { return d.raw }

// NumParams returns the number of declared parameters (the receiver of an
// instance method is not part of the descriptor, as in the JVM).
func (d Descriptor) NumParams() int { return len(d.Params) }

// ParseDescriptor parses a Java-style method descriptor such as
// "(ILjava/lang/String;[I)V". Supported component types:
//
//	I       int (64-bit in this VM)
//	F       float (64-bit)
//	V       void (return position only)
//	Lname;  reference to class "name"
//	[T      array of T (modelled as an untyped reference)
//
// The returned descriptor's Raw form is canonical: arrays collapse to
// plain reference components, so equal-meaning descriptors have equal Raw
// strings.
func ParseDescriptor(s string) (Descriptor, error) {
	var d Descriptor
	if len(s) < 3 || s[0] != '(' {
		return d, fmt.Errorf("descriptor %q: must start with '('", s)
	}
	i := 1
	for i < len(s) && s[i] != ')' {
		p, next, err := parseComponent(s, i)
		if err != nil {
			return d, fmt.Errorf("descriptor %q: %w", s, err)
		}
		d.Params = append(d.Params, p)
		i = next
	}
	if i >= len(s) || s[i] != ')' {
		return d, fmt.Errorf("descriptor %q: missing ')'", s)
	}
	i++
	switch {
	case i >= len(s):
		return d, fmt.Errorf("descriptor %q: missing return type", s)
	case s[i] == 'V':
		if i+1 != len(s) {
			return d, fmt.Errorf("descriptor %q: trailing characters after return type", s)
		}
		d.Return = KindVoid
	default:
		p, next, err := parseComponent(s, i)
		if err != nil {
			return d, fmt.Errorf("descriptor %q: %w", s, err)
		}
		if next != len(s) {
			return d, fmt.Errorf("descriptor %q: trailing characters after return type", s)
		}
		d.Return = p.Kind
		d.ReturnClass = p.Class
	}
	d.raw = FormatDescriptor(d)
	return d, nil
}

func parseComponent(s string, i int) (Param, int, error) {
	switch s[i] {
	case 'I', 'Z', 'B', 'C', 'S', 'J':
		// All integral Java primitives map to the VM's 64-bit int kind.
		return Param{Kind: KindInt}, i + 1, nil
	case 'F', 'D':
		return Param{Kind: KindFloat}, i + 1, nil
	case 'L':
		rel := strings.IndexByte(s[i:], ';')
		if rel < 0 {
			return Param{}, 0, fmt.Errorf("unterminated class reference at offset %d", i)
		}
		name := s[i+1 : i+rel]
		if name == "" {
			return Param{}, 0, fmt.Errorf("empty class reference at offset %d", i)
		}
		return Param{Kind: KindRef, Class: name}, i + rel + 1, nil
	case '[':
		// Consume the element type; arrays are untyped references.
		if i+1 >= len(s) {
			return Param{}, 0, fmt.Errorf("unterminated array type at offset %d", i)
		}
		_, next, err := parseComponent(s, i+1)
		if err != nil {
			return Param{}, 0, err
		}
		return Param{Kind: KindRef}, next, nil
	default:
		return Param{}, 0, fmt.Errorf("unknown type character %q at offset %d", s[i], i)
	}
}

// FormatDescriptor renders a Descriptor into its canonical string form.
func FormatDescriptor(d Descriptor) string {
	var b strings.Builder
	b.WriteByte('(')
	for _, p := range d.Params {
		writeComponent(&b, p.Kind, p.Class)
	}
	b.WriteByte(')')
	if d.Return == KindVoid {
		b.WriteByte('V')
	} else {
		writeComponent(&b, d.Return, d.ReturnClass)
	}
	return b.String()
}

func writeComponent(b *strings.Builder, k Kind, class string) {
	switch k {
	case KindInt:
		b.WriteByte('I')
	case KindFloat:
		b.WriteByte('F')
	case KindRef:
		if class == "" {
			b.WriteString("Ljava/lang/Object;")
		} else {
			b.WriteByte('L')
			b.WriteString(class)
			b.WriteByte(';')
		}
	default:
		b.WriteByte('?')
	}
}
