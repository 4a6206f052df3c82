package vtcl

import (
	"fmt"

	"upsim/internal/vpm"
)

// Parse parses a pattern file and returns the declared patterns in
// declaration order. Every pattern is validated (declared variables,
// constraint arities) before being returned.
func Parse(src string) ([]*vpm.Pattern, error) {
	toks, err := tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var out []*vpm.Pattern
	seen := map[string]bool{}
	for p.peek().kind != tokEOF {
		pat, err := p.pattern()
		if err != nil {
			return nil, err
		}
		if seen[pat.Name] {
			return nil, fmt.Errorf("vtcl: duplicate pattern %q", pat.Name)
		}
		seen[pat.Name] = true
		if err := pat.Validate(); err != nil {
			return nil, err
		}
		out = append(out, pat)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("vtcl: no patterns declared")
	}
	return out, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) expect(kind tokenKind) (token, error) {
	t := p.next()
	if t.kind != kind {
		return t, errAt(t.line, t.col, "expected %s, found %s %q", kind, t.kind, t.text)
	}
	return t, nil
}

func (p *parser) expectKeyword(word string) error {
	t := p.next()
	if t.kind != tokIdent || t.text != word {
		return errAt(t.line, t.col, "expected %q, found %q", word, t.text)
	}
	return nil
}

// pattern := "pattern" IDENT "(" IDENT ("," IDENT)* ")" "=" "{" stmt* "}"
func (p *parser) pattern() (*vpm.Pattern, error) {
	if err := p.expectKeyword("pattern"); err != nil {
		return nil, err
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	pat := &vpm.Pattern{Name: name.text}
	for {
		v, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		pat.Vars = append(pat.Vars, v.text)
		t := p.next()
		if t.kind == tokRParen {
			break
		}
		if t.kind != tokComma {
			return nil, errAt(t.line, t.col, "expected ',' or ')' in parameter list, found %q", t.text)
		}
	}
	if _, err := p.expect(tokEquals); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokRBrace {
			p.next()
			return pat, nil
		}
		if t.kind == tokEOF {
			return nil, errAt(t.line, t.col, "unterminated pattern body for %q", pat.Name)
		}
		if err := p.statement(pat); err != nil {
			return nil, err
		}
	}
}

// statement := "injective" ";" | IDENT "(" args ")" ";"
func (p *parser) statement(pat *vpm.Pattern) error {
	head, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	if head.text == "injective" {
		if _, err := p.expect(tokSemi); err != nil {
			return err
		}
		pat.Injective = true
		return nil
	}
	if _, err := p.expect(tokLParen); err != nil {
		return err
	}
	var args []token
	if p.peek().kind != tokRParen {
		for {
			a := p.next()
			if a.kind != tokIdent && a.kind != tokString {
				return errAt(a.line, a.col, "expected variable or string argument, found %q", a.text)
			}
			args = append(args, a)
			t := p.next()
			if t.kind == tokRParen {
				break
			}
			if t.kind != tokComma {
				return errAt(t.line, t.col, "expected ',' or ')' in argument list, found %q", t.text)
			}
		}
	} else {
		p.next()
	}
	if _, err := p.expect(tokSemi); err != nil {
		return err
	}
	c, err := buildConstraint(head, args)
	if err != nil {
		return err
	}
	pat.Constraints = append(pat.Constraints, c)
	return nil
}

func wantVar(t token) (string, error) {
	if t.kind != tokIdent {
		return "", errAt(t.line, t.col, "expected a pattern variable, found string %q", t.text)
	}
	return t.text, nil
}

func wantString(t token) (string, error) {
	if t.kind != tokString {
		return "", errAt(t.line, t.col, "expected a string literal, found %q", t.text)
	}
	return t.text, nil
}

// buildConstraint maps one statement onto a vpm constraint.
func buildConstraint(head token, args []token) (vpm.Constraint, error) {
	arity := func(n int) error {
		if len(args) != n {
			return errAt(head.line, head.col, "%s expects %d arguments, got %d", head.text, n, len(args))
		}
		return nil
	}
	switch head.text {
	case "instanceOf":
		if err := arity(2); err != nil {
			return nil, err
		}
		v, err := wantVar(args[0])
		if err != nil {
			return nil, err
		}
		fqn, err := wantString(args[1])
		if err != nil {
			return nil, err
		}
		return vpm.TypeOf{Var: v, TypeFQN: fqn}, nil
	case "below":
		if err := arity(2); err != nil {
			return nil, err
		}
		v, err := wantVar(args[0])
		if err != nil {
			return nil, err
		}
		fqn, err := wantString(args[1])
		if err != nil {
			return nil, err
		}
		return vpm.Below{Var: v, AncestorFQN: fqn}, nil
	case "name":
		if err := arity(2); err != nil {
			return nil, err
		}
		v, err := wantVar(args[0])
		if err != nil {
			return nil, err
		}
		s, err := wantString(args[1])
		if err != nil {
			return nil, err
		}
		return vpm.NameIs{Var: v, Name: s}, nil
	case "value":
		if err := arity(2); err != nil {
			return nil, err
		}
		v, err := wantVar(args[0])
		if err != nil {
			return nil, err
		}
		s, err := wantString(args[1])
		if err != nil {
			return nil, err
		}
		return vpm.ValueIs{Var: v, Value: s}, nil
	case "connected", "directed":
		// connected(A, B) — any relation name; connected(A, "rel", B).
		var from, to, rel string
		switch len(args) {
		case 2:
			f, err := wantVar(args[0])
			if err != nil {
				return nil, err
			}
			t, err := wantVar(args[1])
			if err != nil {
				return nil, err
			}
			from, to = f, t
		case 3:
			f, err := wantVar(args[0])
			if err != nil {
				return nil, err
			}
			r, err := wantString(args[1])
			if err != nil {
				return nil, err
			}
			t, err := wantVar(args[2])
			if err != nil {
				return nil, err
			}
			from, rel, to = f, r, t
		default:
			return nil, errAt(head.line, head.col, "%s expects 2 or 3 arguments, got %d", head.text, len(args))
		}
		return vpm.Connected{From: from, Rel: rel, To: to, Directed: head.text == "directed"}, nil
	}
	return nil, errAt(head.line, head.col, "unknown constraint %q (want instanceOf, below, name, value, connected, directed, injective)", head.text)
}
