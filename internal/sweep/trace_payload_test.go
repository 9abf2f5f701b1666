package sweep_test

// The trace-payload pin: the cache stores one RunTrace per executed
// cell, and a cache written by one build must replay in the next. The
// committed testdata files hold the marshalled payloads of three
// 30-round engine runs — fleet sync, async, and sync with a solar
// battery — so any change to the per-round record, its JSON layout, or
// the values the engine records fails here. Regenerate deliberately
// with:
//
//	go test ./internal/sweep/ -run TestRunTracePayloadPin -update-golden

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"autofl/internal/battery"
	"autofl/internal/policy"
	"autofl/internal/sim"
	"autofl/internal/sweep"
)

func TestRunTracePayloadPin(t *testing.T) {
	cases := []struct {
		name string
		cfg  sim.Config
		pol  sim.Policy
	}{
		{"fleet-sync", sim.Config{Seed: 11, MaxRounds: 30}, policy.NewRandom(1)},
		{"async", sim.Config{Seed: 12, MaxRounds: 30, Mode: sim.ModeAsync}, policy.NewRandom(2)},
		{"solar-battery", sim.Config{Seed: 13, MaxRounds: 30,
			Battery: &battery.Spec{CapacityJ: 2000, Harvest: battery.ProfileSolar}}, policy.NewBatteryWeighted(3)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := sim.New(tc.cfg).Run(tc.pol)
			got, err := json.Marshal(sweep.NewRunTrace(res))
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "runtrace_"+tc.name+".json")
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("payload differs from %s:\n got %s\nwant %s", path, got, want)
			}
		})
	}
}
