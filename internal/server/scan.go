package server

import (
	"bytes"
	"math"
	"unicode/utf8"
)

// This file holds the request-body scanner: one pass over a buffered JSON
// body that fills the request structs of the paths, generate,
// availability, qos, explain and batch routes through a per-type field
// switch, without encoding/json's decode state machine or reflection. It
// accepts a strict subset of JSON, chosen so that every body it accepts
// decodes exactly as the strict encoding/json decoder (decodeBody) decodes
// it; for anything else it reports failure and serve resets the struct and
// runs decodeBody over the same bytes, which then also owns every error
// message. FuzzRequestDecode holds the two to that.
//
// The scanner accepts exactly one object with the type's own keys, each at
// most once and spelled exactly as its json tag; integer values without a
// fraction or an exponent, in the int64 range; true and false; strings of
// valid UTF-8 with the escapes \" \\ \/ \b \f \n \r \t and \uXXXX outside
// the surrogate range; the items array of a batch; whitespace; nothing
// after the object but whitespace. It does not accept: null, keys in
// another case or containing escapes, unknown or repeated keys, values of
// the wrong type, surrogate escapes, control characters and invalid UTF-8
// in strings, and every kind of syntax error including a truncated body.
//
// Decoded strings never point into the body: the body buffer is pooled,
// and batch values outlive the request inside warm entries. Each distinct
// string costs one allocation, and a modelXml literal byte-equal to an
// earlier one in the same body reuses its string — a batch usually repeats
// a few models across many items.

// scanFielder is a request type the scanner fills. scanField decodes the
// value of key into the receiver and returns the key's bit in the type's
// field set, or 0 when the key is not the type's or its value lies off the
// fast path.
type scanFielder interface {
	scanField(s *scanner, key []byte) uint64
}

// scanner is the read position in one body plus the storage it reuses
// across strings and, pooled in a warmReq, across requests.
type scanner struct {
	data    []byte
	pos     int
	scratch []byte          // unescaped string bytes before their copy
	models  []internedModel // the modelXml literals of this body
}

// internedModel pairs a modelXml literal, as it stands in the body, with
// its decoded string.
type internedModel struct {
	raw []byte
	s   string
}

// scan fills v from data and reports whether data lies in the subset the
// scanner decodes. On false, v holds a partial result and must be reset.
func (s *scanner) scan(data []byte, v scanFielder) bool {
	s.data, s.pos = data, 0
	s.ws()
	ok := s.object(v)
	if ok {
		s.ws()
		ok = s.pos == len(data)
	}
	// Keep neither the body nor its strings reachable from the pool.
	clear(s.models)
	s.data, s.models = nil, s.models[:0]
	return ok
}

func (s *scanner) ws() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// eat consumes c if it is the next byte.
func (s *scanner) eat(c byte) bool {
	if s.pos < len(s.data) && s.data[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// object scans one object into v, rejecting repeated keys.
func (s *scanner) object(v scanFielder) bool {
	if !s.eat('{') {
		return false
	}
	s.ws()
	if s.eat('}') {
		return true
	}
	var seen uint64
	for {
		key, escaped, ok := s.literal()
		if !ok || escaped {
			return false
		}
		s.ws()
		if !s.eat(':') {
			return false
		}
		s.ws()
		bit := v.scanField(s, key)
		if bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
		s.ws()
		if s.eat('}') {
			return true
		}
		if !s.eat(',') {
			return false
		}
		s.ws()
	}
}

// literal scans a string literal and returns its bytes between the quotes
// and whether they hold escapes. Escapes are checked by text.
func (s *scanner) literal() (raw []byte, escaped, ok bool) {
	if !s.eat('"') {
		return nil, false, false
	}
	d, start := s.data, s.pos
	for i := start; i < len(d); {
		switch c := d[i]; {
		case c == '"':
			s.pos = i + 1
			return d[start:i], escaped, true
		case c == '\\':
			escaped = true
			i += 2
		case c < 0x20:
			return nil, false, false
		case c < utf8.RuneSelf:
			i++
		default:
			r, n := utf8.DecodeRune(d[i:])
			if r == utf8.RuneError && n == 1 {
				return nil, false, false
			}
			i += n
		}
	}
	return nil, false, false
}

// text returns the string a literal denotes, copied out of the body.
func (s *scanner) text(raw []byte, escaped bool) (string, bool) {
	if !escaped {
		return string(raw), true
	}
	out := s.scratch[:0]
	for len(raw) > 0 {
		i := bytes.IndexByte(raw, '\\')
		if i < 0 {
			out = append(out, raw...)
			break
		}
		out = append(out, raw[:i]...)
		raw = raw[i:]
		if len(raw) < 2 {
			return "", false
		}
		n := 2
		switch c := raw[1]; c {
		case '"', '\\', '/':
			out = append(out, c)
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'n':
			out = append(out, '\n')
		case 'r':
			out = append(out, '\r')
		case 't':
			out = append(out, '\t')
		case 'u':
			r, ok := hex4(raw[2:])
			if !ok || 0xD800 <= r && r < 0xE000 {
				return "", false
			}
			out = utf8.AppendRune(out, r)
			n = 6
		default:
			return "", false
		}
		raw = raw[n:]
	}
	s.scratch = out
	return string(out), true
}

// hex4 decodes the four hex digits of a \u escape.
func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// str scans a string value into dst; it returns bit, or 0 off the fast
// path.
func (s *scanner) str(dst *string, bit uint64) uint64 {
	raw, escaped, ok := s.literal()
	if !ok {
		return 0
	}
	if *dst, ok = s.text(raw, escaped); !ok {
		return 0
	}
	return bit
}

// model is str for modelXml values: a literal byte-equal to an earlier one
// in the body takes that literal's string.
func (s *scanner) model(dst *string, bit uint64) uint64 {
	raw, escaped, ok := s.literal()
	if !ok {
		return 0
	}
	for _, m := range s.models {
		if bytes.Equal(m.raw, raw) {
			*dst = m.s
			return bit
		}
	}
	if *dst, ok = s.text(raw, escaped); !ok {
		return 0
	}
	if len(s.models) < maxInternedModels {
		s.models = append(s.models, internedModel{raw: raw, s: *dst})
	}
	return bit
}

// maxInternedModels bounds the literals each modelXml value is compared
// with, so a batch of many distinct models costs linear, not quadratic,
// comparison work.
const maxInternedModels = 16

// number scans an integer in the int64 range; fractions, exponents and
// out-of-range values are off the fast path.
func (s *scanner) number() (int64, bool) {
	d, i := s.data, s.pos
	neg := i < len(d) && d[i] == '-'
	if neg {
		i++
	}
	start := i
	if i < len(d) && d[i] == '0' {
		i++
	} else {
		for i < len(d) && '0' <= d[i] && d[i] <= '9' {
			i++
		}
	}
	// 19 digits hold every int64; the magnitude check below catches the
	// 19-digit values beyond it.
	if i == start || i-start > 19 || i < len(d) && (d[i] == '.' || d[i] == 'e' || d[i] == 'E') {
		return 0, false
	}
	var u, limit uint64 = 0, math.MaxInt64
	for _, c := range d[start:i] {
		u = u*10 + uint64(c-'0')
	}
	if neg {
		limit++
	}
	if u > limit {
		return 0, false
	}
	s.pos = i
	if neg {
		return -int64(u), true
	}
	return int64(u), true
}

func (s *scanner) int(dst *int, bit uint64) uint64 {
	n, ok := s.number()
	if !ok || int64(int(n)) != n {
		return 0
	}
	*dst = int(n)
	return bit
}

func (s *scanner) int64(dst *int64, bit uint64) uint64 {
	n, ok := s.number()
	if !ok {
		return 0
	}
	*dst = n
	return bit
}

func (s *scanner) bool(dst *bool, bit uint64) uint64 {
	switch rest := s.data[s.pos:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		*dst = true
		s.pos += 4
	case bytes.HasPrefix(rest, []byte("false")):
		*dst = false
		s.pos += 5
	default:
		return 0
	}
	return bit
}

// items scans the items array of a batch. An empty array decodes to an
// empty, non-nil slice, as encoding/json decodes it.
func (s *scanner) items(dst *[]BatchItem, bit uint64) uint64 {
	if !s.eat('[') {
		return 0
	}
	items := []BatchItem{}
	s.ws()
	if !s.eat(']') {
		for {
			items = append(items, BatchItem{})
			if !s.object(&items[len(items)-1]) {
				return 0
			}
			s.ws()
			if s.eat(']') {
				break
			}
			if !s.eat(',') {
				return 0
			}
			s.ws()
		}
	}
	*dst = items
	return bit
}

// The field switches. Bits are unique within a type's field set, embedded
// fields included: modelInput takes bits 0-1, generateRequest 2-5, and the
// types embedding them number on from there.

func (in *modelInput) scanModelField(s *scanner, key []byte) uint64 {
	switch string(key) {
	case "modelXml":
		return s.model(&in.ModelXML, 1<<0)
	case "diagram":
		return s.str(&in.Diagram, 1<<1)
	}
	return 0
}

func (req *pathsRequest) scanField(s *scanner, key []byte) uint64 {
	switch string(key) {
	case "from":
		return s.str(&req.From, 1<<2)
	case "to":
		return s.str(&req.To, 1<<3)
	case "maxDepth":
		return s.int(&req.MaxDepth, 1<<4)
	case "maxPaths":
		return s.int(&req.MaxPaths, 1<<5)
	case "k":
		return s.int(&req.K, 1<<6)
	case "cost":
		return s.str(&req.Cost, 1<<7)
	}
	return req.scanModelField(s, key)
}

func (req *generateRequest) scanField(s *scanner, key []byte) uint64 {
	switch string(key) {
	case "service":
		return s.str(&req.Service, 1<<2)
	case "mappingXml":
		return s.str(&req.MappingXML, 1<<3)
	case "name":
		return s.str(&req.Name, 1<<4)
	case "allowDisconnected":
		return s.bool(&req.AllowDisconnected, 1<<5)
	}
	return req.scanModelField(s, key)
}

func (req *availabilityRequest) scanField(s *scanner, key []byte) uint64 {
	switch string(key) {
	case "formula1":
		return s.bool(&req.Formula1, 1<<6)
	case "mcSamples":
		return s.int(&req.MCSamples, 1<<7)
	case "seed":
		return s.int64(&req.Seed, 1<<8)
	case "legacyKernel":
		return s.bool(&req.LegacyKernel, 1<<9)
	}
	return req.generateRequest.scanField(s, key)
}

func (req *qosRequest) scanField(s *scanner, key []byte) uint64 {
	if string(key) == "maxHops" {
		return s.int(&req.MaxHops, 1<<6)
	}
	return req.generateRequest.scanField(s, key)
}

func (req *explainRequest) scanField(s *scanner, key []byte) uint64 {
	switch string(key) {
	case "mode":
		return s.str(&req.Mode, 1<<6)
	case "top":
		return s.int(&req.Top, 1<<7)
	case "cutLimit":
		return s.int(&req.CutLimit, 1<<8)
	case "formula1":
		return s.bool(&req.Formula1, 1<<9)
	case "legacyKernel":
		return s.bool(&req.LegacyKernel, 1<<10)
	case "skipAttribution":
		return s.bool(&req.SkipAttribution, 1<<11)
	case "currentModelXml":
		return s.model(&req.CurrentModelXML, 1<<12)
	case "currentDiagram":
		return s.str(&req.CurrentDiagram, 1<<13)
	}
	return req.generateRequest.scanField(s, key)
}

func (req *BatchRequest) scanField(s *scanner, key []byte) uint64 {
	switch string(key) {
	case "items":
		return s.items(&req.Items, 1<<0)
	case "workers":
		return s.int(&req.Workers, 1<<1)
	}
	return 0
}

func (it *BatchItem) scanField(s *scanner, key []byte) uint64 {
	switch string(key) {
	case "op":
		return s.str(&it.Op, 1<<0)
	case "modelXml":
		return s.model(&it.ModelXML, 1<<1)
	case "diagram":
		return s.str(&it.Diagram, 1<<2)
	case "service":
		return s.str(&it.Service, 1<<3)
	case "mappingXml":
		return s.str(&it.MappingXML, 1<<4)
	case "name":
		return s.str(&it.Name, 1<<5)
	case "allowDisconnected":
		return s.bool(&it.AllowDisconnected, 1<<6)
	case "formula1":
		return s.bool(&it.Formula1, 1<<7)
	case "mcSamples":
		return s.int(&it.MCSamples, 1<<8)
	case "seed":
		return s.int64(&it.Seed, 1<<9)
	case "legacyKernel":
		return s.bool(&it.LegacyKernel, 1<<10)
	case "maxHops":
		return s.int(&it.MaxHops, 1<<11)
	case "from":
		return s.str(&it.From, 1<<12)
	case "to":
		return s.str(&it.To, 1<<13)
	case "maxDepth":
		return s.int(&it.MaxDepth, 1<<14)
	case "maxPaths":
		return s.int(&it.MaxPaths, 1<<15)
	case "k":
		return s.int(&it.K, 1<<16)
	case "cost":
		return s.str(&it.Cost, 1<<17)
	}
	return 0
}
