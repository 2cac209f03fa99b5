package main

import (
	"reflect"
	"testing"
)

func TestParseSizes(t *testing.T) {
	tests := []struct {
		in   string
		want []int
		bad  bool
	}{
		{in: "4, 8,12", want: []int{4, 8, 12}},
		{in: ""}, // nil: the experiment's defaults
		{in: "31", want: []int{31}},
		{in: "0", bad: true},
		{in: "32", bad: true},
		{in: "4,x", bad: true},
	}
	for _, tc := range tests {
		got, err := parseSizes(tc.in)
		if (err != nil) != tc.bad || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseSizes(%q) = %v, %v; want %v, bad=%v", tc.in, got, err, tc.want, tc.bad)
		}
	}
}
