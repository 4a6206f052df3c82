package vtcl

import (
	"fmt"
	"strings"
	"testing"

	"upsim/internal/vpm"
)

const goodSrc = `
// Devices linked to switches.
pattern devSwitch(D, S) = {
    instanceOf(D, "meta.Device");
    instanceOf(S, "meta.Switch");
    connected(D, "link", S);
    injective;
}

/* A named requester below the diagram subtree. */
pattern requester(R) = {
    below(R, "net");
    name(R, "t1");
    value(R, "requester");
}
`

func TestParseGood(t *testing.T) {
	pats, err := Parse(goodSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(pats) != 2 {
		t.Fatalf("patterns = %d", len(pats))
	}
	p0 := pats[0]
	if p0.Name != "devSwitch" || len(p0.Vars) != 2 || !p0.Injective {
		t.Errorf("devSwitch parsed wrong: %+v", p0)
	}
	if len(p0.Constraints) != 3 {
		t.Fatalf("devSwitch constraints = %d", len(p0.Constraints))
	}
	if c, ok := p0.Constraints[0].(vpm.TypeOf); !ok || c.Var != "D" || c.TypeFQN != "meta.Device" {
		t.Errorf("constraint 0 = %#v", p0.Constraints[0])
	}
	if c, ok := p0.Constraints[2].(vpm.Connected); !ok || c.Rel != "link" || c.Directed {
		t.Errorf("constraint 2 = %#v", p0.Constraints[2])
	}
	p1 := pats[1]
	if p1.Injective {
		t.Error("requester must not be injective")
	}
	if _, ok := p1.Constraints[0].(vpm.Below); !ok {
		t.Errorf("below constraint = %#v", p1.Constraints[0])
	}
	if _, ok := p1.Constraints[1].(vpm.NameIs); !ok {
		t.Errorf("name constraint = %#v", p1.Constraints[1])
	}
	if _, ok := p1.Constraints[2].(vpm.ValueIs); !ok {
		t.Errorf("value constraint = %#v", p1.Constraints[2])
	}
}

func TestParsePattern(t *testing.T) {
	p, err := ParsePattern(`pattern p(A, B) = { directed(A, "flow", B); }`)
	if err != nil {
		t.Fatal(err)
	}
	c, ok := p.Constraints[0].(vpm.Connected)
	if !ok || !c.Directed || c.Rel != "flow" {
		t.Errorf("directed constraint = %#v", p.Constraints[0])
	}
	if _, err := ParsePattern(goodSrc); err == nil {
		t.Error("two patterns should fail ParsePattern")
	}
}

func TestParseConnectedTwoArgs(t *testing.T) {
	p, err := ParsePattern(`pattern p(A, B) = { connected(A, B); }`)
	if err != nil {
		t.Fatal(err)
	}
	c := p.Constraints[0].(vpm.Connected)
	if c.Rel != "" {
		t.Errorf("two-arg connected should match any relation, got %q", c.Rel)
	}
}

func TestParsedPatternRuns(t *testing.T) {
	// Execute a parsed pattern against a real model space.
	s := vpm.NewSpace()
	dev, _ := s.EnsureEntity("meta.Device")
	sw, _ := s.EnsureEntity("meta.Switch")
	t1, _ := s.EnsureEntity("net.t1")
	c1, _ := s.EnsureEntity("net.c1")
	_ = s.SetInstanceOf(t1, dev)
	_ = s.SetInstanceOf(c1, sw)
	if _, err := s.NewRelation("link", t1, c1); err != nil {
		t.Fatal(err)
	}
	pats, err := Parse(goodSrc)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := pats[0].Match(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0]["D"] != t1 || ms[0]["S"] != c1 {
		t.Errorf("matches = %v", ms)
	}
	t1.SetValue("requester")
	ms2, err := pats[1].Match(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms2) != 1 || ms2[0]["R"] != t1 {
		t.Errorf("requester matches = %v", ms2)
	}
}

func TestStringEscapes(t *testing.T) {
	p, err := ParsePattern(`pattern p(A) = { value(A, "with \"quotes\" and \\ and \n and \t"); }`)
	if err != nil {
		t.Fatal(err)
	}
	v := p.Constraints[0].(vpm.ValueIs).Value
	if v != "with \"quotes\" and \\ and \n and \t" {
		t.Errorf("escaped string = %q", v)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string // substring of the error
	}{
		{"empty", ``, "no patterns"},
		{"not a pattern", `banana p(A) = {}`, `expected "pattern"`},
		{"missing parens", `pattern p A = {}`, "expected '('"},
		{"empty params", `pattern p() = {}`, "identifier"},
		{"missing equals", `pattern p(A) {}`, "'='"},
		{"unterminated body", `pattern p(A) = { name(A, "x");`, "unterminated pattern body"},
		{"unknown constraint", `pattern p(A) = { frobnicate(A); }`, "unknown constraint"},
		{"bad arity", `pattern p(A) = { instanceOf(A); }`, "expects 2 arguments"},
		{"bad connected arity", `pattern p(A) = { connected(A); }`, "2 or 3 arguments"},
		{"var where string", `pattern p(A) = { instanceOf(A, B); }`, "string literal"},
		{"string where var", `pattern p(A) = { name("A", "x"); }`, "pattern variable"},
		{"undeclared variable", `pattern p(A) = { name(B, "x"); }`, "undeclared variable"},
		{"duplicate pattern", `pattern p(A) = { name(A, "x"); } pattern p(A) = { name(A, "y"); }`, "duplicate pattern"},
		{"duplicate variable", `pattern p(A, A) = { name(A, "x"); }`, "duplicate variable"},
		{"unterminated string", `pattern p(A) = { name(A, "x); }`, "unterminated string"},
		{"newline in string", "pattern p(A) = { name(A, \"x\ny\"); }", "newline in string"},
		{"bad escape", `pattern p(A) = { name(A, "\q"); }`, "unknown escape"},
		{"unterminated comment", `/* hmm`, "unterminated block comment"},
		{"stray character", `pattern p(A) = { name(A, "x"); } @`, "unexpected character"},
		{"missing semicolon", `pattern p(A) = { name(A, "x") }`, "';'"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil {
				t.Fatalf("Parse should fail")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error = %q, want substring %q", err.Error(), c.want)
			}
		})
	}
}

func TestSyntaxErrorPosition(t *testing.T) {
	_, err := Parse("pattern p(A) = {\n    frobnicate(A);\n}")
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type = %T", err)
	}
	if se.Line != 2 || se.Col != 5 {
		t.Errorf("position = %d:%d, want 2:5", se.Line, se.Col)
	}
	if !strings.Contains(se.Error(), "2:5") {
		t.Errorf("Error() = %q", se.Error())
	}
}

func TestLexerTokenKinds(t *testing.T) {
	toks, err := tokenize(`pattern p(A) = { } ; , "s"`)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []tokenKind{tokIdent, tokIdent, tokLParen, tokIdent, tokRParen, tokEquals,
		tokLBrace, tokRBrace, tokSemi, tokComma, tokString, tokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("tokens = %d, want %d", len(toks), len(kinds))
	}
	for i, k := range kinds {
		if toks[i].kind != k {
			t.Errorf("token %d = %v, want %v", i, toks[i].kind, k)
		}
	}
	for k := tokEOF; k <= tokEquals; k++ {
		if k.String() == "" || strings.HasPrefix(k.String(), "token(") {
			t.Errorf("kind %d has no name", k)
		}
	}
	if !strings.HasPrefix(tokenKind(99).String(), "token(") {
		t.Error("unknown kind fallback")
	}
}

// ParsePattern parses a source containing exactly one pattern.
func ParsePattern(src string) (*vpm.Pattern, error) {
	pats, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(pats) != 1 {
		return nil, fmt.Errorf("vtcl: expected exactly one pattern, got %d", len(pats))
	}
	return pats[0], nil
}
