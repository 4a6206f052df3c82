package uml

import (
	"encoding/xml"
	"strings"

	"upsim/internal/xmlscan"
)

// This file holds the scanning XMI decoder: one pass over the text of the
// dialect Encode writes, filling the xmiModel structs from substrings of the
// input on the lexer internal/xmlscan shares with the mapping decoder. It
// accepts the lexer's strict subset of XML, restricted to the dialect's
// elements and attributes and to numbers and booleans in the forms Encode
// writes, so that every document it accepts decodes exactly as
// encoding/xml decodes it; for anything else it reports failure and
// DecodeString hands the whole input to encoding/xml, which then also owns
// every error message. FuzzDecodeAgreesWithOracle holds the two to that.

// scanner is the lexer's read position in one document, with one slab per
// kind of child element. A parent notes the length of each slab its children go
// to at its start tag and, at its end tag, takes its children as the
// slab's tail (children), so a document's lists share a few arrays instead
// of growing one element at a time. No element of the dialect nests inside
// an element of its own kind, so while the scanner fills an element through
// a pointer into a slab, only other slabs grow: the pointer stays valid
// whether or not the pre-count (reserve) sized the slabs right. Between a
// parent's start and end tags, only its own children append to the slabs
// its lists come from, so each list is one contiguous tail.
type scanner struct {
	xmlscan.Scanner

	stereotypes []xmiStereotype
	attributes  []xmiAttribute
	applies     []xmiApply
	values      []xmiValue
	properties  []xmiProperty
	instances   []xmiInstance
	links       []xmiLink
	nodes       []xmiNode
	flows       []xmiFlow
}

// scanModel fills x from s and reports whether s lies in the subset the
// scanner decodes. On false, x holds a partial result and must be reset.
func scanModel(s string, x *xmiModel) bool {
	var sc scanner
	if sc.Root(s) != "uml.Model" {
		return false
	}
	sc.reserve(x)
	x.XMLName = xml.Name{Local: "uml.Model"}
	// encoding/xml stops reading at the root's end tag, so whatever follows
	// it is ignored here too.
	return sc.Element("uml.Model", func(k, v string) bool {
		return k == "name" && set(&x.Name, v)
	}, func(k string) bool {
		switch k {
		case "profile":
			return sc.profile(grow(&x.Profiles))
		case "class":
			return sc.class(grow(&x.Classes))
		case "association":
			return sc.association(grow(&x.Assocs))
		case "objectDiagram":
			return sc.diagram(grow(&x.Diagrams))
		case "activity":
			return sc.activity(grow(&x.Activities))
		}
		return false
	}, nil)
}

// reserve sizes x's top-level lists and the scanner's slabs from one pass
// that counts the start tags of the rest of the document by name. The
// counts set capacity only: a list or slab that turns out too small grows,
// and one too large keeps spare room. Per byte of document the slabs take
// at most about nine bytes (a "<class>" tag sizes a 64-byte xmiClass), the
// same order as the lists of an accepted document of empty elements.
func (sc *scanner) reserve(x *xmiModel) {
	var profiles, classes, assocs, diagrams, activities int
	var stereotypes, attributes, applies, values, properties, instances, links, nodes, flows int
	sc.StartTags(func(name string) {
		switch name {
		case "profile":
			profiles++
		case "class":
			classes++
		case "association":
			assocs++
		case "objectDiagram":
			diagrams++
		case "activity":
			activities++
		case "stereotype":
			stereotypes++
		case "attribute":
			attributes++
		case "apply":
			applies++
		case "value":
			values++
		case "property":
			properties++
		case "instance":
			instances++
		case "link":
			links++
		case "node":
			nodes++
		case "flow":
			flows++
		}
	})
	x.Profiles = room[xmiProfile](profiles)
	x.Classes = room[xmiClass](classes)
	x.Assocs = room[xmiAssoc](assocs)
	x.Diagrams = room[xmiDiagram](diagrams)
	x.Activities = room[xmiActivity](activities)
	sc.stereotypes = room[xmiStereotype](stereotypes)
	sc.attributes = room[xmiAttribute](attributes)
	sc.applies = room[xmiApply](applies)
	sc.values = room[xmiValue](values)
	sc.properties = room[xmiProperty](properties)
	sc.instances = room[xmiInstance](instances)
	sc.links = room[xmiLink](links)
	sc.nodes = room[xmiNode](nodes)
	sc.flows = room[xmiFlow](flows)
}

// room returns an empty slice with capacity n, or nil for n == 0: an
// element list encoding/xml finds empty stays nil.
func room[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, 0, n)
}

// children returns the elements a parent appended to slab since its start
// tag, when slab's length was start: nil if there are none, else a slice
// whose full slice expression leaves it no spare capacity, so that an
// append to one parent's list can never write into the next parent's.
func children[T any](slab []T, start int) []T {
	if len(slab) == start {
		return nil
	}
	return slab[start:len(slab):len(slab)]
}

func (sc *scanner) profile(p *xmiProfile) bool {
	start := len(sc.stereotypes)
	ok := sc.Element("profile", func(k, v string) bool {
		return k == "name" && set(&p.Name, v)
	}, func(k string) bool {
		return k == "stereotype" && sc.stereotype(grow(&sc.stereotypes))
	}, nil)
	p.Stereotypes = children(sc.stereotypes, start)
	return ok
}

func (sc *scanner) stereotype(st *xmiStereotype) bool {
	start := len(sc.attributes)
	ok := sc.Element("stereotype", func(k, v string) bool {
		switch k {
		case "name":
			return set(&st.Name, v)
		case "extends":
			return set(&st.Extends, v)
		case "abstract":
			return scanBool(v, &st.Abstract)
		case "parent":
			return set(&st.Parent, v)
		}
		return false
	}, func(k string) bool {
		return k == "attribute" && sc.attribute(grow(&sc.attributes))
	}, nil)
	st.Attributes = children(sc.attributes, start)
	return ok
}

func (sc *scanner) attribute(a *xmiAttribute) bool {
	return sc.Element("attribute", func(k, v string) bool {
		switch k {
		case "name":
			return set(&a.Name, v)
		case "type":
			return set(&a.Type, v)
		case "default":
			return set(&a.Default, v)
		case "hasDefault":
			return scanBool(v, &a.HasDef)
		}
		return false
	}, nil, nil)
}

func (sc *scanner) apply(a *xmiApply) bool {
	start := len(sc.values)
	ok := sc.Element("apply", func(k, v string) bool {
		return k == "stereotype" && set(&a.Stereotype, v)
	}, func(k string) bool {
		if k != "value" {
			return false
		}
		xv := grow(&sc.values)
		return sc.Element("value", func(k, v string) bool {
			return k == "attribute" && set(&xv.Attribute, v)
		}, nil, &xv.Value)
	}, nil)
	a.Values = children(sc.values, start)
	return ok
}

func (sc *scanner) class(c *xmiClass) bool {
	applies, props := len(sc.applies), len(sc.properties)
	ok := sc.Element("class", func(k, v string) bool {
		return k == "name" && set(&c.Name, v)
	}, func(k string) bool {
		switch k {
		case "apply":
			return sc.apply(grow(&sc.applies))
		case "property":
			p := grow(&sc.properties)
			return sc.Element("property", func(k, v string) bool {
				switch k {
				case "name":
					return set(&p.Name, v)
				case "type":
					return set(&p.Type, v)
				}
				return false
			}, nil, &p.Value)
		}
		return false
	}, nil)
	c.Applies = children(sc.applies, applies)
	c.Properties = children(sc.properties, props)
	return ok
}

func (sc *scanner) association(a *xmiAssoc) bool {
	start := len(sc.applies)
	ok := sc.Element("association", func(k, v string) bool {
		switch k {
		case "name":
			return set(&a.Name, v)
		case "endA":
			return set(&a.EndA, v)
		case "endB":
			return set(&a.EndB, v)
		}
		return false
	}, func(k string) bool {
		return k == "apply" && sc.apply(grow(&sc.applies))
	}, nil)
	a.Applies = children(sc.applies, start)
	return ok
}

func (sc *scanner) diagram(d *xmiDiagram) bool {
	insts, links := len(sc.instances), len(sc.links)
	ok := sc.Element("objectDiagram", func(k, v string) bool {
		return k == "name" && set(&d.Name, v)
	}, func(k string) bool {
		switch k {
		case "instance":
			i := grow(&sc.instances)
			return sc.Element("instance", func(k, v string) bool {
				switch k {
				case "name":
					return set(&i.Name, v)
				case "class":
					return set(&i.Class, v)
				}
				return false
			}, nil, nil)
		case "link":
			l := grow(&sc.links)
			return sc.Element("link", func(k, v string) bool {
				switch k {
				case "a":
					return set(&l.A, v)
				case "b":
					return set(&l.B, v)
				case "association":
					return set(&l.Assoc, v)
				}
				return false
			}, nil, nil)
		}
		return false
	}, nil)
	d.Instances = children(sc.instances, insts)
	d.Links = children(sc.links, links)
	return ok
}

func (sc *scanner) activity(a *xmiActivity) bool {
	nodes, flows := len(sc.nodes), len(sc.flows)
	ok := sc.Element("activity", func(k, v string) bool {
		return k == "name" && set(&a.Name, v)
	}, func(k string) bool {
		switch k {
		case "node":
			n := grow(&sc.nodes)
			return sc.Element("node", func(k, v string) bool {
				switch k {
				case "id":
					return scanInt(v, &n.ID)
				case "kind":
					return set(&n.Kind, v)
				case "name":
					return set(&n.Name, v)
				}
				return false
			}, nil, nil)
		case "flow":
			f := grow(&sc.flows)
			return sc.Element("flow", func(k, v string) bool {
				switch k {
				case "src":
					return scanInt(v, &f.Src)
				case "dst":
					return scanInt(v, &f.Dst)
				}
				return false
			}, nil, nil)
		}
		return false
	}, nil)
	a.Nodes = children(sc.nodes, nodes)
	a.Flows = children(sc.flows, flows)
	return ok
}

// scanInt parses an integer attribute in the form Encode writes: an
// optional minus sign and up to 18 decimal digits, so it cannot overflow.
func scanInt(v string, dst *int) bool {
	digits := strings.TrimPrefix(v, "-")
	if digits == "" || len(digits) > 18 {
		return false
	}
	n := 0
	for i := 0; i < len(digits); i++ {
		c := digits[i]
		if c < '0' || c > '9' {
			return false
		}
		n = n*10 + int(c-'0')
	}
	if len(digits) < len(v) {
		n = -n
	}
	*dst = n
	return true
}

// scanBool parses a boolean attribute in the form Encode writes.
func scanBool(v string, dst *bool) bool {
	switch v {
	case "true":
		*dst = true
	case "false":
		*dst = false
	default:
		return false
	}
	return true
}

func set(dst *string, v string) bool {
	*dst = v
	return true
}

// grow appends a zero element to *s and returns a pointer to it.
func grow[T any](s *[]T) *T {
	var zero T
	*s = append(*s, zero)
	return &(*s)[len(*s)-1]
}

// detach copies the strings the built model keeps into one new backing
// string, so that the model holds its names and values but not the
// document they were scanned from (a pooled model would otherwise pin a
// whole request body, padding included).
func (x *xmiModel) detach() {
	n := 0
	x.retainedStrings(func(p *string) { n += len(*p) })
	var b strings.Builder
	b.Grow(n)
	x.retainedStrings(func(p *string) { b.WriteString(*p) })
	backing := b.String()
	x.retainedStrings(func(p *string) {
		*p, backing = backing[:len(*p)], backing[len(*p):]
	})
}

// retainedStrings calls fn, in a fixed order, on every string field of x
// that build stores in the model: names, attribute defaults and values.
// The other fields — types, metaclasses, node kinds and references to
// elements by name — are only parsed or looked up while building, so they
// may keep pointing into the document. TestDecodeDetachesStrings walks
// the built model to hold this split to the build code.
func (x *xmiModel) retainedStrings(fn func(*string)) {
	fn(&x.Name)
	for i := range x.Profiles {
		p := &x.Profiles[i]
		fn(&p.Name)
		for j := range p.Stereotypes {
			st := &p.Stereotypes[j]
			fn(&st.Name)
			for k := range st.Attributes {
				fn(&st.Attributes[k].Name)
				fn(&st.Attributes[k].Default)
			}
		}
	}
	applies := func(as []xmiApply) {
		for i := range as {
			for j := range as[i].Values {
				fn(&as[i].Values[j].Attribute)
				fn(&as[i].Values[j].Value)
			}
		}
	}
	for i := range x.Classes {
		c := &x.Classes[i]
		fn(&c.Name)
		applies(c.Applies)
		for j := range c.Properties {
			fn(&c.Properties[j].Name)
			fn(&c.Properties[j].Value)
		}
	}
	for i := range x.Assocs {
		fn(&x.Assocs[i].Name)
		applies(x.Assocs[i].Applies)
	}
	for i := range x.Diagrams {
		d := &x.Diagrams[i]
		fn(&d.Name)
		for j := range d.Instances {
			fn(&d.Instances[j].Name)
		}
	}
	for i := range x.Activities {
		a := &x.Activities[i]
		fn(&a.Name)
		for j := range a.Nodes {
			fn(&a.Nodes[j].Name)
		}
	}
}
