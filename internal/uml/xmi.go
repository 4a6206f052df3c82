package uml

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"

	"upsim/internal/obs"
	"upsim/internal/xmlscan"
)

// Decode metrics: which parser served each model (DecodeString).
var (
	mDecode = obs.NewCounter("upsim_uml_decode_total",
		"XMI models decoded, by parser: the scanner or the encoding/xml fallback.", "path")
	mDecodeScan   = mDecode.With("scan")
	mDecodeStdlib = mDecode.With("stdlib")
)

// This file implements an XMI-like XML serialisation of UML models so that
// infrastructure, profiles and service descriptions can be stored in files
// and re-imported, mirroring the .uml resources exchanged between Papyrus
// and VIATRA2 in the paper's tool chain. The dialect is self-describing and
// round-trip safe: Decode(Encode(m)) reconstructs an equivalent model.

type xmiModel struct {
	XMLName    xml.Name      `xml:"uml.Model"`
	Name       string        `xml:"name,attr"`
	Profiles   []xmiProfile  `xml:"profile"`
	Classes    []xmiClass    `xml:"class"`
	Assocs     []xmiAssoc    `xml:"association"`
	Diagrams   []xmiDiagram  `xml:"objectDiagram"`
	Activities []xmiActivity `xml:"activity"`
}

type xmiProfile struct {
	Name        string          `xml:"name,attr"`
	Stereotypes []xmiStereotype `xml:"stereotype"`
}

type xmiStereotype struct {
	Name       string         `xml:"name,attr"`
	Extends    string         `xml:"extends,attr,omitempty"`
	Abstract   bool           `xml:"abstract,attr,omitempty"`
	Parent     string         `xml:"parent,attr,omitempty"`
	Attributes []xmiAttribute `xml:"attribute"`
}

type xmiAttribute struct {
	Name    string `xml:"name,attr"`
	Type    string `xml:"type,attr"`
	Default string `xml:"default,attr,omitempty"`
	HasDef  bool   `xml:"hasDefault,attr,omitempty"`
}

type xmiApply struct {
	Stereotype string     `xml:"stereotype,attr"`
	Values     []xmiValue `xml:"value"`
}

type xmiValue struct {
	Attribute string `xml:"attribute,attr"`
	Value     string `xml:",chardata"`
}

type xmiProperty struct {
	Name  string `xml:"name,attr"`
	Type  string `xml:"type,attr"`
	Value string `xml:",chardata"`
}

type xmiClass struct {
	Name       string        `xml:"name,attr"`
	Applies    []xmiApply    `xml:"apply"`
	Properties []xmiProperty `xml:"property"`
}

type xmiAssoc struct {
	Name    string     `xml:"name,attr"`
	EndA    string     `xml:"endA,attr"`
	EndB    string     `xml:"endB,attr"`
	Applies []xmiApply `xml:"apply"`
}

type xmiDiagram struct {
	Name      string        `xml:"name,attr"`
	Instances []xmiInstance `xml:"instance"`
	Links     []xmiLink     `xml:"link"`
}

type xmiInstance struct {
	Name  string `xml:"name,attr"`
	Class string `xml:"class,attr"`
}

type xmiLink struct {
	A     string `xml:"a,attr"`
	B     string `xml:"b,attr"`
	Assoc string `xml:"association,attr"`
}

type xmiActivity struct {
	Name  string    `xml:"name,attr"`
	Nodes []xmiNode `xml:"node"`
	Flows []xmiFlow `xml:"flow"`
}

type xmiNode struct {
	ID   int    `xml:"id,attr"`
	Kind string `xml:"kind,attr"`
	Name string `xml:"name,attr,omitempty"`
}

type xmiFlow struct {
	Src int `xml:"src,attr"`
	Dst int `xml:"dst,attr"`
}

// Encode writes the model to w as indented XML.
func Encode(w io.Writer, m *Model) error {
	x := xmiModel{Name: m.Name()}
	for _, p := range m.Profiles() {
		xp := xmiProfile{Name: p.Name()}
		for _, st := range p.Stereotypes() {
			xs := xmiStereotype{
				Name:     st.Name(),
				Abstract: st.IsAbstract(),
			}
			if st.extends != MetaclassNone {
				xs.Extends = st.extends.String()
			}
			if st.Parent() != nil {
				xs.Parent = st.Parent().Name()
			}
			for _, def := range st.OwnAttributes() {
				xa := xmiAttribute{Name: def.Name, Type: def.Kind.String()}
				if !def.Default.IsZero() {
					xa.Default = def.Default.String()
					xa.HasDef = true
				}
				xs.Attributes = append(xs.Attributes, xa)
			}
			xp.Stereotypes = append(xp.Stereotypes, xs)
		}
		x.Profiles = append(x.Profiles, xp)
	}
	for _, c := range m.Classes() {
		xc := xmiClass{Name: c.Name()}
		for _, app := range c.Applications() {
			xc.Applies = append(xc.Applies, encodeApply(app))
		}
		for _, pn := range c.propOrder {
			v := c.properties[pn]
			xc.Properties = append(xc.Properties, xmiProperty{
				Name: pn, Type: v.Kind().String(), Value: v.String(),
			})
		}
		x.Classes = append(x.Classes, xc)
	}
	for _, a := range m.Associations() {
		ea, eb := a.Ends()
		xa := xmiAssoc{Name: a.Name(), EndA: ea.Name(), EndB: eb.Name()}
		for _, app := range a.Applications() {
			xa.Applies = append(xa.Applies, encodeApply(app))
		}
		x.Assocs = append(x.Assocs, xa)
	}
	for _, d := range m.Diagrams() {
		xd := xmiDiagram{Name: d.Name()}
		for _, i := range d.Instances() {
			xd.Instances = append(xd.Instances, xmiInstance{Name: i.Name(), Class: i.Classifier().Name()})
		}
		for _, l := range d.Links() {
			ia, ib := l.Ends()
			xd.Links = append(xd.Links, xmiLink{A: ia.Name(), B: ib.Name(), Assoc: l.Association().Name()})
		}
		x.Diagrams = append(x.Diagrams, xd)
	}
	for _, act := range m.Activities() {
		xact := xmiActivity{Name: act.Name()}
		ids := make(map[*ActivityNode]int, len(act.nodes))
		for i, n := range act.Nodes() {
			ids[n] = i
			xact.Nodes = append(xact.Nodes, xmiNode{ID: i, Kind: n.Kind().String(), Name: n.Name()})
		}
		for _, n := range act.Nodes() {
			for _, t := range n.Outgoing() {
				xact.Flows = append(xact.Flows, xmiFlow{Src: ids[n], Dst: ids[t]})
			}
		}
		x.Activities = append(x.Activities, xact)
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(x); err != nil {
		return fmt.Errorf("uml: encode: %w", err)
	}
	return enc.Flush()
}

func encodeApply(app *StereotypeApplication) xmiApply {
	xa := xmiApply{Stereotype: app.Stereotype().Name()}
	for _, name := range app.SetValues() {
		v, _ := app.Get(name)
		xa.Values = append(xa.Values, xmiValue{Attribute: name, Value: v.String()})
	}
	return xa
}

// Decode reads a model from r: it reads r to the end into one string and
// decodes the text with DecodeString.
func Decode(r io.Reader) (*Model, error) {
	s, err := xmlscan.ReadString(r)
	if err != nil {
		return nil, fmt.Errorf("uml: decode: %w", err)
	}
	return DecodeString(s)
}

// DecodeString decodes a model from its XMI text. The dialect Encode
// writes is read by a single-pass scanner (xmiscan.go) that accepts an
// optional leading XML declaration of version 1.0 in UTF-8, the dialect's
// elements and attributes without namespace prefixes (each attribute at
// most once), quoted attribute values, character data with the five
// predefined entities and numeric character references, and whitespace
// between elements; like encoding/xml it ignores anything after the root
// element. Any other input — comments, CDATA, directives such as DOCTYPE,
// other processing instructions, namespace prefixes, unknown or repeated
// attributes, unknown elements, carriage returns, invalid characters and
// every syntax error — is parsed by encoding/xml instead. Both paths yield
// the same model and the same errors, and XML syntax errors always carry
// encoding/xml's text. The decoded model keeps copies of its strings,
// never substrings of s.
func DecodeString(s string) (*Model, error) {
	var x xmiModel
	if scanModel(s, &x) {
		mDecodeScan.Inc()
		x.detach()
	} else {
		mDecodeStdlib.Inc()
		if err := decodeStdlib(s, &x); err != nil {
			return nil, err
		}
	}
	return x.build()
}

// decodeStdlib parses s into x with encoding/xml: the fallback for input
// the scanner does not accept, and the oracle its tests compare against.
func decodeStdlib(s string, x *xmiModel) error {
	*x = xmiModel{}
	if err := xml.NewDecoder(strings.NewReader(s)).Decode(x); err != nil {
		return fmt.Errorf("uml: decode: %w", err)
	}
	return nil
}

// build constructs the model from its parsed form: profiles, classes,
// associations, diagrams, then activities, so that every reference resolves
// to an element declared before it. It builds through the public
// construction API, but first sizes the model's tables and slabs from the
// parsed counts, so that classes, associations, applications, their lists
// and values, instances and links come in one allocation per kind instead
// of one per element.
func (x *xmiModel) build() (*Model, error) {
	m := newModel(x.Name, len(x.Classes), len(x.Assocs))
	for _, xp := range x.Profiles {
		p := NewProfile(xp.Name)
		for _, xs := range xp.Stereotypes {
			ext, err := ParseMetaclass(xs.Extends)
			if err != nil {
				return nil, err
			}
			var st *Stereotype
			if xs.Parent != "" {
				parent, ok := p.Stereotype(xs.Parent)
				if !ok {
					return nil, fmt.Errorf("uml: decode: profile %s: stereotype %s: unknown parent %s (parents must be declared first)",
						xp.Name, xs.Name, xs.Parent)
				}
				if xs.Abstract {
					st, err = p.DefineAbstractSubStereotype(xs.Name, ext, parent)
				} else {
					st, err = p.DefineSubStereotype(xs.Name, ext, parent)
				}
			} else if xs.Abstract {
				st, err = p.DefineAbstractStereotype(xs.Name, ext)
			} else {
				st, err = p.DefineStereotype(xs.Name, ext)
			}
			if err != nil {
				return nil, err
			}
			for _, xa := range xs.Attributes {
				kind, err := ParseValueKind(xa.Type)
				if err != nil {
					return nil, err
				}
				var def Value
				if xa.HasDef {
					def, err = ParseValue(kind, xa.Default)
					if err != nil {
						return nil, err
					}
				}
				if err := st.AddAttributeDefault(xa.Name, kind, def); err != nil {
					return nil, err
				}
			}
		}
		if err := m.AddProfile(p); err != nil {
			return nil, err
		}
	}
	x.reserveApplications(m)
	for _, xc := range x.Classes {
		c, err := m.AddClass(xc.Name)
		if err != nil {
			return nil, err
		}
		c.applications = carve(&m.appListSlab, len(xc.Applies))
		for _, xa := range xc.Applies {
			if err := decodeApply(m, xa, func(st *Stereotype) (*StereotypeApplication, error) {
				return c.Apply(st)
			}); err != nil {
				return nil, err
			}
		}
		for _, xp := range xc.Properties {
			kind, err := ParseValueKind(xp.Type)
			if err != nil {
				return nil, err
			}
			v, err := ParseValue(kind, xp.Value)
			if err != nil {
				return nil, err
			}
			if err := c.SetProperty(xp.Name, v); err != nil {
				return nil, err
			}
		}
	}
	for _, xa := range x.Assocs {
		ea, ok := m.Class(xa.EndA)
		if !ok {
			return nil, fmt.Errorf("uml: decode: association %s: unknown class %s", xa.Name, xa.EndA)
		}
		eb, ok := m.Class(xa.EndB)
		if !ok {
			return nil, fmt.Errorf("uml: decode: association %s: unknown class %s", xa.Name, xa.EndB)
		}
		a, err := m.AddAssociation(xa.Name, ea, eb)
		if err != nil {
			return nil, err
		}
		a.applications = carve(&m.appListSlab, len(xa.Applies))
		for _, xap := range xa.Applies {
			if err := decodeApply(m, xap, func(st *Stereotype) (*StereotypeApplication, error) {
				return a.Apply(st)
			}); err != nil {
				return nil, err
			}
		}
	}
	for _, xd := range x.Diagrams {
		d := m.NewObjectDiagram(xd.Name)
		d.reserve(len(xd.Instances), len(xd.Links))
		for _, xi := range xd.Instances {
			c, ok := m.Class(xi.Class)
			if !ok {
				return nil, fmt.Errorf("uml: decode: diagram %s: instance %s: unknown class %s",
					xd.Name, xi.Name, xi.Class)
			}
			if _, err := d.AddInstance(xi.Name, c); err != nil {
				return nil, err
			}
		}
		for _, xl := range xd.Links {
			a, ok := m.Association(xl.Assoc)
			if !ok {
				return nil, fmt.Errorf("uml: decode: diagram %s: link %s--%s: unknown association %s",
					xd.Name, xl.A, xl.B, xl.Assoc)
			}
			if _, err := d.ConnectByName(xl.A, xl.B, a); err != nil {
				return nil, err
			}
		}
	}
	for _, xact := range x.Activities {
		act, err := m.NewActivity(xact.Name)
		if err != nil {
			return nil, err
		}
		nodes := make(map[int]*ActivityNode, len(xact.Nodes))
		for _, xn := range xact.Nodes {
			var n *ActivityNode
			switch xn.Kind {
			case "Initial":
				n = act.Initial()
			case "Final":
				n = act.AddFinal()
			case "Fork":
				n = act.AddFork()
			case "Join":
				n = act.AddJoin()
			case "Action":
				n, err = act.AddAction(xn.Name)
				if err != nil {
					return nil, err
				}
			default:
				return nil, fmt.Errorf("uml: decode: activity %s: unknown node kind %q", xact.Name, xn.Kind)
			}
			if _, dup := nodes[xn.ID]; dup {
				return nil, fmt.Errorf("uml: decode: activity %s: duplicate node id %d", xact.Name, xn.ID)
			}
			nodes[xn.ID] = n
		}
		for _, xf := range xact.Flows {
			src, ok := nodes[xf.Src]
			if !ok {
				return nil, fmt.Errorf("uml: decode: activity %s: flow from unknown node %d", xact.Name, xf.Src)
			}
			dst, ok := nodes[xf.Dst]
			if !ok {
				return nil, fmt.Errorf("uml: decode: activity %s: flow to unknown node %d", xact.Name, xf.Dst)
			}
			if err := act.Flow(src, dst); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}

// reserveApplications sizes m's application, application-list and value
// slabs for the stereotype applications of x's classes and associations:
// one value slot per attribute of each applied stereotype, which bounds
// what Set can assign. An unknown stereotype counts no slot; decodeApply
// rejects it.
func (x *xmiModel) reserveApplications(m *Model) {
	apps, vals := 0, 0
	count := func(applies []xmiApply) {
		for _, xa := range applies {
			apps++
			if st, ok := m.FindStereotype(xa.Stereotype); ok {
				vals += st.numAttributes()
			}
		}
	}
	for _, xc := range x.Classes {
		count(xc.Applies)
	}
	for _, xa := range x.Assocs {
		count(xa.Applies)
	}
	m.appSlab = make([]StereotypeApplication, 0, apps)
	m.appListSlab = make([]*StereotypeApplication, 0, apps)
	m.valSlab = make([]attrValue, 0, vals)
}

func decodeApply(m *Model, xa xmiApply, apply func(*Stereotype) (*StereotypeApplication, error)) error {
	st, ok := m.FindStereotype(xa.Stereotype)
	if !ok {
		return fmt.Errorf("uml: decode: unknown stereotype %s", xa.Stereotype)
	}
	app, err := apply(st)
	if err != nil {
		return err
	}
	for _, xv := range xa.Values {
		def, ok := st.Attribute(xv.Attribute)
		if !ok {
			return fmt.Errorf("uml: decode: stereotype %s has no attribute %s", st.Name(), xv.Attribute)
		}
		v, err := ParseValue(def.Kind, xv.Value)
		if err != nil {
			return err
		}
		if err := app.Set(xv.Attribute, v); err != nil {
			return err
		}
	}
	return nil
}
