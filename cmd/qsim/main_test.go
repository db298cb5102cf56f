package main

import (
	"testing"

	"qserve/internal/locking"
	"qserve/internal/simserver"
)

// TestEnumFlagParsers: the parsers behind qserved's and qsim's -locking
// and qsim's -assign accept exactly their valid names; any other value is
// an error that names the valid set (the commands exit on it), where it
// once fell back to the default without a word.
func TestEnumFlagParsers(t *testing.T) {
	strategy := func(s string) (string, error) {
		st, err := locking.ParseStrategy(s)
		if err != nil {
			return "", err
		}
		return st.Name(), nil
	}
	assign := func(s string) (string, error) {
		a, err := simserver.ParseAssign(s)
		return a.String(), err
	}
	const (
		strategies = " (valid: conservative, optimized)"
		policies   = " (valid: block, roundrobin, region)"
	)
	for _, tc := range []struct {
		parse    func(string) (string, error)
		in, want string // want: the parsed value's name, or the error
	}{
		{strategy, "conservative", "conservative"},
		{strategy, "optimized", "optimized"},
		{strategy, "bogus", `unknown locking strategy "bogus"` + strategies},
		{strategy, "Optimized", `unknown locking strategy "Optimized"` + strategies},
		{strategy, "", `unknown locking strategy ""` + strategies},
		{assign, "block", "block"},
		{assign, "roundrobin", "roundrobin"},
		{assign, "region", "region-dynamic"},
		{assign, "bogus", `unknown assignment policy "bogus"` + policies},
		{assign, "region-dynamic", `unknown assignment policy "region-dynamic"` + policies},
		{assign, "", `unknown assignment policy ""` + policies},
	} {
		got, err := tc.parse(tc.in)
		if err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("parse %q = %q, want %q", tc.in, got, tc.want)
		}
	}
}
