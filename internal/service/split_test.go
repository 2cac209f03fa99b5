package service

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// This file holds the envelope reader as it was when it checked a body
// with json.Valid before one scan over it, and holds SplitItems' one
// validating scan to it and to json.Valid.

// refSplitItems is SplitItems as a json.Valid pass followed by a scan
// that trusts the bytes.
func refSplitItems(body []byte, strict bool) (items []json.RawMessage, ok bool) {
	if !json.Valid(body) {
		return nil, false
	}
	i := refSkipSpace(body, 0)
	if body[i] != '{' {
		return nil, false
	}
	for i = refSkipSpace(body, i+1); body[i] != '}'; {
		end := refSkipString(body, i)
		key := body[i+1 : end-1]
		i = refSkipSpace(body, refSkipSpace(body, end)+1)
		switch {
		case bytes.IndexByte(key, '\\') >= 0:
			return nil, false
		case bytes.EqualFold(key, []byte("items")):
			if ok || body[i] != '[' {
				return nil, false
			}
			ok = true
			for i = refSkipSpace(body, i+1); body[i] != ']'; {
				end := refSkipValue(body, i)
				items = append(items, body[i:end:end])
				if i = refSkipSpace(body, end); body[i] == ',' {
					i = refSkipSpace(body, i+1)
				}
			}
			i++
		case strict:
			return nil, false
		default:
			i = refSkipValue(body, i)
		}
		if i = refSkipSpace(body, i); body[i] == ',' {
			i = refSkipSpace(body, i+1)
		}
	}
	return items, ok
}

func refSkipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

func refSkipString(b []byte, i int) int {
	for i++; b[i] != '"'; i++ {
		if b[i] == '\\' {
			i++
		}
	}
	return i + 1
}

func refSkipValue(b []byte, i int) int {
	switch b[i] {
	case '"':
		return refSkipString(b, i)
	case '{', '[':
		for depth := 0; ; {
			switch b[i] {
			case '"':
				i = refSkipString(b, i)
				continue
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return i + 1
				}
			}
			i++
		}
	}
	for ; i < len(b); i++ {
		switch b[i] {
		case ',', ']', '}', ' ', '\t', '\n', '\r':
			return i
		}
	}
	return i
}

// validJSON is the split's validator on a whole text: one value and
// nothing after it but whitespace.
func validJSON(b []byte) bool {
	i := scanValue(b, skipSpace(b, 0), 0)
	return i >= 0 && skipSpace(b, i) == len(b)
}

// checkSplitMatchesReference fails unless the validator agrees with
// json.Valid on body and SplitItems with the reference, in both modes.
func checkSplitMatchesReference(t *testing.T, body []byte) {
	t.Helper()
	if got, want := validJSON(body), json.Valid(body); got != want {
		t.Fatalf("validator says %v on %q, json.Valid %v", got, body, want)
	}
	for _, strict := range []bool{false, true} {
		items, ok := SplitItems(body, strict)
		wantItems, wantOK := refSplitItems(body, strict)
		if ok != wantOK {
			t.Fatalf("SplitItems(%q, %v) ok=%v, the json.Valid split %v", body, strict, ok, wantOK)
		}
		equalItems(t, body, items, wantItems)
	}
}

func nested(depth int) string {
	return strings.Repeat("[", depth) + strings.Repeat("]", depth)
}

// TestSplitValidatorMatchesValid pins the grammar edges of the split's
// validator: each row's verdict, which must be json.Valid's, and the
// split of the row as the one item of an envelope, which must be the
// json.Valid split's (the envelope adds two levels of nesting).
func TestSplitValidatorMatchesValid(t *testing.T) {
	cases := []struct {
		text  string
		valid bool
	}{
		{nested(10000), true},
		{nested(10001), false},
		{`[{"a":` + nested(9998) + `}]`, true},
		{`[{"a":` + nested(9999) + `}]`, false},
		{`"\u00e9\u00C9\uD83D\uDE00"`, true},
		{`"\u00g9"`, false},
		{`"\u12"`, false},
		{`"\u"`, false},
		{`"\x"`, false},
		{`"\/\b\f\n\r\t\\\""`, true},
		{`0`, true},
		{`-0`, true},
		{`01`, false},
		{`-01`, false},
		{`00`, false},
		{`1.`, false},
		{`1.5`, true},
		{`.5`, false},
		{`1e+`, false},
		{`1e`, false},
		{`1E+5`, true},
		{`1e-05`, true},
		{`-`, false},
		{`+1`, false},
		{"\"a\x01b\"", false},
		{"\"a\x1fb\"", false},
		{"\"a\tb\"", false},
		{"\"a\x7fb\"", true},
		{"\"\xff\xfe\xc0\"", true}, // invalid UTF-8 inside a string: json.Valid accepts it
		{"\xff", false},
		{`"open`, false},
		{`tru`, false},
		{`truex`, false},
		{`nul`, false},
		{`[1 2]`, false},
		{`{"a" 1}`, false},
		{`{"a":1,}`, false},
		{`{1:2}`, false},
		{` [ true , false , null ] `, true},
		{``, false},
	}
	for _, tc := range cases {
		body := []byte(tc.text)
		if got := validJSON(body); got != tc.valid || json.Valid(body) != tc.valid {
			t.Fatalf("%.40q: validator %v, json.Valid %v, want %v", body, got, json.Valid(body), tc.valid)
		}
		checkSplitMatchesReference(t, body)
		checkSplitMatchesReference(t, []byte(`{"items":[`+tc.text+`]}`))
		checkSplitMatchesReference(t, []byte(`{"meta":`+tc.text+`,"items":[1]}`))
	}
}

// FuzzSplitValidator holds the split's one validating scan to what it
// replaced on arbitrary bytes: the validator accepts exactly what
// json.Valid accepts, and SplitItems, strict or not, accepts exactly
// the bodies the json.Valid split accepts, with the same items.
func FuzzSplitValidator(f *testing.F) {
	f.Add([]byte(goldenBatchBody))
	f.Add([]byte(batchKind.example))
	for _, body := range splitSeeds {
		f.Add([]byte(body))
	}
	for _, body := range []string{`-01.5e+3`, "\"\\u00e9\x7f\xff\"", `[[[{"a":[]}]]]`, `{"items":[1.]}`} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkSplitMatchesReference(t, body)
	})
}
