// Package jsonenc appends JSON text without reflection for the few value
// shapes whose encoding/json cost shows on the request path: strings and
// string-keyed maps. Every function writes exactly the bytes json.Marshal
// writes for the same Go value, so a MarshalJSON method built from them
// leaves response bytes unchanged; TestMatchesEncodingJSON holds the two
// equal.
package jsonenc

import (
	"slices"
	"strconv"
	"unicode/utf8"
)

const hex = "0123456789abcdef"

// AppendString appends s as a JSON string the way encoding/json writes it
// with HTML escaping on (its default): '"' and '\\' escaped, control
// characters as \b \f \n \r \t or \u00XX, '<' '>' '&' as \u003c \u003e
// \u0026, U+2028 and U+2029 as \u2028 \u2029, and each byte of
// invalid UTF-8 as \ufffd.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendMap appends m as encoding/json writes a map[string]V: null for a
// nil map, otherwise an object with the keys in byte order and each value
// appended by value.
func AppendMap[V any](dst []byte, m map[string]V, value func([]byte, V) []byte) []byte {
	if m == nil {
		return append(dst, "null"...)
	}
	var stack [16]string
	keys := stack[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendString(dst, k)
		dst = append(dst, ':')
		dst = value(dst, m[k])
	}
	return append(dst, '}')
}

// AppendInt appends n as encoding/json writes an int.
func AppendInt(dst []byte, n int) []byte {
	return strconv.AppendInt(dst, int64(n), 10)
}

// AppendStrings appends ss as encoding/json writes a []string: null for a
// nil slice, otherwise an array of strings.
func AppendStrings(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendString(dst, s)
	}
	return append(dst, ']')
}
