package uml

// Hooks for xmiscan_test.go, which builds case-study and campus models and
// therefore lives in package uml_test.

// RandomModel builds a seeded random model (xmi_property_test.go).
var RandomModel = randomModel

// DecodeErrorDocs returns the documents of TestDecodeErrors.
func DecodeErrorDocs() []string {
	docs := make([]string, len(decodeErrorCases))
	for i, c := range decodeErrorCases {
		docs[i] = c.xml
	}
	return docs
}

// ScanXMI runs the scanner alone, returning the parsed form of s and whether
// the scanner accepted it.
func ScanXMI(s string) (any, bool) {
	var x xmiModel
	ok := scanModel(s, &x)
	return x, ok
}

// StdlibXMI parses s with encoding/xml alone.
func StdlibXMI(s string) (any, error) {
	var x xmiModel
	err := decodeStdlib(s, &x)
	return x, err
}

// DecodeStdlib is the oracle for DecodeString: it parses s with
// encoding/xml alone and builds the model through the public construction
// API alone (buildOracle), with no slab sizing.
func DecodeStdlib(s string) (*Model, error) {
	var x xmiModel
	if err := decodeStdlib(s, &x); err != nil {
		return nil, err
	}
	return x.buildOracle()
}

// Profile looks up a registered profile by name.
func (m *Model) Profile(name string) (*Profile, bool) {
	p, ok := m.profiles[name]
	return p, ok
}

// AllAttributes returns the attributes of the stereotype including every
// inherited attribute, parents first, in declaration order.
func (s *Stereotype) AllAttributes() []AttributeDef {
	var out []AttributeDef
	s.EachAttribute(func(def AttributeDef) { out = append(out, def) })
	return out
}

// AsInteger returns the integer payload. Real values are truncated; other
// kinds return 0.
func (v Value) AsInteger() int64 {
	switch v.kind {
	case KindInteger:
		return v.i
	case KindReal:
		return int64(v.r)
	}
	return 0
}

// AsBoolean returns the boolean payload; other kinds return false.
func (v Value) AsBoolean() bool { return v.kind == KindBoolean && v.b }

// HasStereotype reports whether the class is stereotyped by name (directly
// or via a specialisation).
func (c *Class) HasStereotype(name string) bool {
	_, ok := c.Application(name)
	return ok
}

// Application returns the application of the named stereotype, if present.
// The name matches the applied stereotype or any of its ancestors, so
// Application("Component") finds a class stereotyped <<Device>> when Device
// specialises Component.
func (c *Class) Application(name string) (*StereotypeApplication, bool) {
	for _, app := range c.applications {
		if app.stereotype.IsKindOf(name) {
			return app, true
		}
	}
	return nil, false
}

// Application returns the application of the named stereotype (or a
// specialisation of it), if present.
func (a *Association) Application(name string) (*StereotypeApplication, bool) {
	for _, app := range a.applications {
		if app.stereotype.IsKindOf(name) {
			return app, true
		}
	}
	return nil, false
}
