package simserver

import (
	"reflect"
	"slices"
	"testing"

	"qserve/internal/server"
)

// TestConfigSurface pins the production surface: the exported fields of
// the live engine's server.Config and of the DES's Config. Each field is
// set by an experiment, a workload, a gate or a command, or it goes, and
// test seams live in server.Hooks. A new field fails here until this
// list is edited in review.
func TestConfigSurface(t *testing.T) {
	for _, tc := range []struct {
		cfg  any
		want []string
	}{
		{server.Config{}, []string{
			"World", "Conns", "Threads", "Strategy", "MaxClients", "ClientTimeout",
			"Balance", "Stealing", "WatchdogDeadline", "FrameBudget", "Record",
			"Checkpoint", "Restore", "Clock", "Shared", "Hooks",
		}},
		{Config{}, []string{
			"World", "Map", "MapConfig", "Players", "Threads", "Machine", "Strategy",
			"DurationS", "AreanodeDepth", "Seed", "Assign",
			"BatchDelayNs", "TraceFrames", "Balance", "Cluster", "Script", "MaxMoves",
			"IndexedSnapshots", "Playback", "Record", "Checkpoint", "Stealing",
		}},
	} {
		typ := reflect.TypeOf(tc.cfg)
		var got []string
		for _, f := range reflect.VisibleFields(typ) {
			if f.IsExported() {
				got = append(got, f.Name)
			}
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%v fields changed:\n got %q\nwant %q", typ, got, tc.want)
		}
	}
}
