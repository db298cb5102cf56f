package main

import "testing"

// TestCheckMatchFlags: instancing refuses every explicitly set flag it
// would otherwise drop without a word.
func TestCheckMatchFlags(t *testing.T) {
	cases := []struct {
		name string
		set  map[string]string
		ok   bool
	}{
		{"matches alone", map[string]string{"matches": "8"}, true},
		{"instancing flags", map[string]string{
			"matches": "8", "addr": "127.0.0.1:0", "map": "m.json", "mapseed": "3",
			"maxclients": "32", "stats": "0", "match-workers": "2",
			"match-active": "10ms", "match-idle": "1s",
		}, true},
		{"threads 0", map[string]string{"matches": "8", "threads": "0"}, true},
		{"threads 1", map[string]string{"matches": "8", "threads": "1"}, false},
		{"threads 2", map[string]string{"matches": "8", "threads": "2"}, false},
		{"steal", map[string]string{"matches": "8", "steal": "true"}, false},
		{"balance", map[string]string{"matches": "8", "balance": "true"}, false},
		{"locking", map[string]string{"matches": "8", "locking": "optimized"}, false},
		{"watchdog", map[string]string{"matches": "8", "watchdog": "1s"}, false},
		{"budget", map[string]string{"matches": "8", "budget": "20ms"}, false},
		{"checkpoint-interval", map[string]string{"matches": "8", "checkpoint-interval": "10"}, false},
		{"checkpoint-delta", map[string]string{"matches": "8", "checkpoint-delta": "2"}, false},
		{"restore-log", map[string]string{"matches": "8", "restore-log": "x.qrl"}, false},
		{"record", map[string]string{"matches": "8", "record": "x.qrl"}, false},
		{"checkpoint", map[string]string{"matches": "8", "checkpoint": "dir"}, false},
		{"restore", map[string]string{"matches": "8", "restore": "true"}, false},
	}
	for _, tc := range cases {
		err := checkMatchFlags(tc.set)
		if (err == nil) != tc.ok {
			t.Errorf("%s: checkMatchFlags = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	err := checkMatchFlags(map[string]string{"matches": "8", "steal": "true", "balance": "true"})
	if err == nil || err.Error() != "-matches hosts sequential servers behind one lobby socket and ignores -balance -steal" {
		t.Errorf("error names the ignored flags in order: %v", err)
	}
}
