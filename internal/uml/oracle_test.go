package uml

import "fmt"

// buildOracle is the model build through the public construction API
// alone — AddProfile, AddClass, Apply, Set, AddInstance, ConnectByName —
// with no slab sizing: the reference that build must match, model bytes
// and error texts alike.
func (x *xmiModel) buildOracle() (*Model, error) {
	m := NewModel(x.Name)
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
	for _, xc := range x.Classes {
		c, err := m.AddClass(xc.Name)
		if err != nil {
			return nil, err
		}
		for _, xa := range xc.Applies {
			if err := oracleApply(m, xa, func(st *Stereotype) (*StereotypeApplication, error) {
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
		for _, xap := range xa.Applies {
			if err := oracleApply(m, xap, func(st *Stereotype) (*StereotypeApplication, error) {
				return a.Apply(st)
			}); err != nil {
				return nil, err
			}
		}
	}
	for _, xd := range x.Diagrams {
		d := m.NewObjectDiagram(xd.Name)
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

func oracleApply(m *Model, xa xmiApply, apply func(*Stereotype) (*StereotypeApplication, error)) error {
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
