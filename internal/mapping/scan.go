package mapping

import (
	"strings"

	"upsim/internal/xmlscan"
)

// scanPairs decodes doc on the lexer internal/xmlscan shares with the XMI
// decoder, when doc lies in the lexer's subset and has the Figure 3 shape:
// a <servicemapping> root without attributes holding only <atomicservice
// id> elements, each holding exactly one <requester id> and then one
// <provider id>, with no attribute but the one id. Every document it
// accepts decodes exactly as encoding/xml decodes it; on false, ParseString
// hands doc to encoding/xml. FuzzParseAgreesWithXML holds the two to that.
// The ids are substrings of doc unless they hold references.
func scanPairs(doc string) ([]Pair, bool) {
	var sc xmlscan.Scanner
	if sc.Root(doc) != "servicemapping" {
		return nil, false
	}
	pairs := make([]Pair, 0, strings.Count(doc, "<atomicservice"))
	ok := sc.Element("servicemapping", nil, func(k string) bool {
		var p Pair
		seen := 0 // requester, then provider
		ok := k == "atomicservice" && sc.Element(k, func(k, v string) bool {
			p.AtomicService = v
			return k == "id"
		}, func(k string) bool {
			seen++
			var id *string
			switch {
			case seen == 1 && k == "requester":
				id = &p.Requester
			case seen == 2 && k == "provider":
				id = &p.Provider
			default:
				return false
			}
			return sc.Element(k, func(k, v string) bool {
				*id = v
				return k == "id"
			}, nil, nil)
		}, nil)
		pairs = append(pairs, p)
		return ok && seen == 2
	}, nil)
	return pairs, ok
}
