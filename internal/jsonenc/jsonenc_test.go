package jsonenc

import (
	"encoding/json"
	"strings"
	"testing"
)

// marshal is the oracle: encoding/json's bytes for v.
func marshal(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// strs covers every escape class AppendString handles.
var strs = []string{
	"", "plain", `q"b\s`, "\b\f\n\r\t\x00\x1f\x7f", "<a href='x'>&amp;</a>",
	"\u2028\u2029", "\u00fc\u5ba2\U0001F600", "\xff", "a\xc3", "\xed\xa0\x80", "\uFFFD\uFFFE",
}

// TestMatchesEncodingJSON holds each appender to json.Marshal of the
// equivalent Go value, nil map and nil slice included.
func TestMatchesEncodingJSON(t *testing.T) {
	for _, s := range strs {
		if got, want := string(AppendString(nil, s)), marshal(t, s); got != want {
			t.Errorf("AppendString(%q) = %s, json.Marshal %s", s, got, want)
		}
	}
	counts := map[string]int{}
	lists := map[string][]string{}
	for i, s := range strs {
		counts[s] = i - 3
		lists[s] = strs[:i]
	}
	lists["nil"] = nil
	for _, m := range []map[string]int{nil, {}, counts} {
		if got, want := string(AppendMap(nil, m, AppendInt)), marshal(t, m); got != want {
			t.Errorf("AppendMap(%v) = %s, json.Marshal %s", m, got, want)
		}
	}
	for _, m := range []map[string][]string{nil, {}, lists} {
		if got, want := string(AppendMap(nil, m, AppendStrings)), marshal(t, m); got != want {
			t.Errorf("AppendMap(%v) = %s, json.Marshal %s", m, got, want)
		}
	}
}

// FuzzMapAgreesWithJSON: a map built from fuzzed keys and values encodes
// to json.Marshal's bytes, more keys than the sort's stack buffer holds
// included.
func FuzzMapAgreesWithJSON(f *testing.F) {
	for _, s := range strs {
		f.Add(s, 3)
	}
	f.Add(strings.Repeat("k<", 40), 40)
	f.Fuzz(func(t *testing.T, s string, n int) {
		counts := map[string]int{}
		lists := map[string][]string{}
		for i := 0; i < n%40; i++ {
			k := s[:i%(len(s)+1)] + string(rune('a'+i%26))
			counts[k] = n - i
			lists[k] = []string{s, k}
		}
		if got, want := string(AppendMap(nil, counts, AppendInt)), marshal(t, counts); got != want {
			t.Fatalf("AppendMap = %s, json.Marshal %s", got, want)
		}
		if got, want := string(AppendMap(nil, lists, AppendStrings)), marshal(t, lists); got != want {
			t.Fatalf("AppendMap = %s, json.Marshal %s", got, want)
		}
	})
}
