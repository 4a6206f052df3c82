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
