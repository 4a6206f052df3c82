// Package uml implements the subset of the Unified Modeling Language that
// the UPSIM methodology relies on (Dittrich et al., "A Model for Evaluation
// of User-Perceived Service Properties", IPDPS Workshops 2013, Section V-A):
//
//   - class diagrams: classes with static attributes and associations,
//   - profiles: stereotypes with attributes that extend the Class or
//     Association metaclasses,
//   - object diagrams: instance specifications and links that instantiate
//     classes and associations,
//   - activity diagrams: initial/final nodes, actions, fork/join nodes and
//     control flows, used to describe composite services.
//
// The package is self-contained and has no dependency on any external UML
// tooling; it replaces the Papyrus/Eclipse UML2 stack the paper used. Models
// can be serialised to and from an XMI-like XML dialect (see xmi.go) so that
// they can be stored, exchanged and re-imported like the paper's .uml files.
package uml

import (
	"fmt"
	"strconv"
)

// ValueKind enumerates the primitive UML types supported for attribute and
// slot values. The paper's profiles only need Real, Integer, String and
// Boolean (Figures 6 and 7).
type ValueKind uint8

const (
	// KindNone is the zero ValueKind; it marks an absent or undefined value.
	KindNone ValueKind = iota
	// KindString is a UML String.
	KindString
	// KindReal is a UML Real (IEEE-754 double).
	KindReal
	// KindInteger is a UML Integer (64-bit signed).
	KindInteger
	// KindBoolean is a UML Boolean.
	KindBoolean
)

// String returns the UML name of the primitive type.
func (k ValueKind) String() string {
	switch k {
	case KindNone:
		return "None"
	case KindString:
		return "String"
	case KindReal:
		return "Real"
	case KindInteger:
		return "Integer"
	case KindBoolean:
		return "Boolean"
	}
	return fmt.Sprintf("ValueKind(%d)", uint8(k))
}

// ParseValueKind converts a UML primitive type name to a ValueKind.
func ParseValueKind(s string) (ValueKind, error) {
	switch s {
	case "String":
		return KindString, nil
	case "Real":
		return KindReal, nil
	case "Integer":
		return KindInteger, nil
	case "Boolean":
		return KindBoolean, nil
	case "None", "":
		return KindNone, nil
	}
	return KindNone, fmt.Errorf("uml: unknown primitive type %q", s)
}

// Value is a tagged union holding one UML primitive value. The zero Value is
// the absent value (KindNone).
type Value struct {
	kind ValueKind
	s    string
	r    float64
	i    int64
	b    bool
}

// String constructs a UML String value.
func StringValue(s string) Value { return Value{kind: KindString, s: s} }

// RealValue constructs a UML Real value.
func RealValue(r float64) Value { return Value{kind: KindReal, r: r} }

// IntegerValue constructs a UML Integer value.
func IntegerValue(i int64) Value { return Value{kind: KindInteger, i: i} }

// BooleanValue constructs a UML Boolean value.
func BooleanValue(b bool) Value { return Value{kind: KindBoolean, b: b} }

// Kind reports which primitive type the value holds.
func (v Value) Kind() ValueKind { return v.kind }

// IsZero reports whether the value is absent.
func (v Value) IsZero() bool { return v.kind == KindNone }

// AsString returns the string payload. It is only meaningful for KindString.
func (v Value) AsString() string { return v.s }

// AsReal returns the numeric payload as a float64. Integer values are
// widened; other kinds return 0.
func (v Value) AsReal() float64 {
	switch v.kind {
	case KindReal:
		return v.r
	case KindInteger:
		return float64(v.i)
	}
	return 0
}

// Equal reports whether two values have the same kind and payload.
func (v Value) Equal(o Value) bool { return v == o }

// String renders the value as it would appear in a diagram compartment,
// e.g. "60000" or "C6500".
func (v Value) String() string {
	switch v.kind {
	case KindNone:
		return ""
	case KindString:
		return v.s
	case KindReal:
		return strconv.FormatFloat(v.r, 'g', -1, 64)
	case KindInteger:
		return strconv.FormatInt(v.i, 10)
	case KindBoolean:
		return strconv.FormatBool(v.b)
	}
	return "?"
}

// ParseValue parses the diagram representation of a value of the given kind.
func ParseValue(kind ValueKind, s string) (Value, error) {
	switch kind {
	case KindNone:
		if s != "" {
			return Value{}, fmt.Errorf("uml: value %q for kind None", s)
		}
		return Value{}, nil
	case KindString:
		return StringValue(s), nil
	case KindReal:
		r, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Value{}, fmt.Errorf("uml: bad Real %q: %v", s, err)
		}
		return RealValue(r), nil
	case KindInteger:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("uml: bad Integer %q: %v", s, err)
		}
		return IntegerValue(i), nil
	case KindBoolean:
		b, err := strconv.ParseBool(s)
		if err != nil {
			return Value{}, fmt.Errorf("uml: bad Boolean %q: %v", s, err)
		}
		return BooleanValue(b), nil
	}
	return Value{}, fmt.Errorf("uml: unknown value kind %d", kind)
}
