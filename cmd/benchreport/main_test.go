package main

import (
	"strings"
	"testing"
)

func TestParseOnly(t *testing.T) {
	valid := []string{"table1", "figure5", "table7", "figure8"}
	for _, tc := range []struct {
		only string
		want string // selected names joined in table order; "" = an error
	}{
		{"", "table1 figure5 table7 figure8"},
		{"figure5", "figure5"},
		{"table7, figure5", "figure5 table7"},
		{"anova", ""}, // printed by figure8, not a step of its own
		{"figure5,nope", ""},
	} {
		selected, err := parseOnly(tc.only, valid)
		if tc.want == "" {
			if err == nil || !strings.Contains(err.Error(), "table1, figure5, table7, figure8") {
				t.Errorf("-only %q: err = %v, want one naming the valid steps", tc.only, err)
			}
			continue
		}
		var got []string
		for _, name := range valid {
			if selected[name] {
				got = append(got, name)
			}
		}
		if err != nil || strings.Join(got, " ") != tc.want {
			t.Errorf("-only %q selected %v (err %v), want %s", tc.only, got, err, tc.want)
		}
	}
}
