package autofl

import (
	"reflect"
	"runtime"
	"testing"

	"autofl/internal/device"
)

// TestPopulationExhaustiveEquivalence pins the meaning of the
// exhaustive fleet at the public API: across every environment and
// every policy, a FleetSpec of the paper's tier mix with Sample 0 and
// with Sample equal to its 200 devices reproduces the default
// scenario's Report field for field, per-round trace included. All
// three run one engine path: every device a candidate, in index order.
func TestPopulationExhaustiveEquivalence(t *testing.T) {
	for _, env := range Environments() {
		for _, p := range Policies() {
			t.Run(string(env)+"/"+string(p), func(t *testing.T) {
				s := Scenario{
					Workload:  CNNMNIST,
					Setting:   S3,
					Data:      NonIID50,
					Env:       env,
					Seed:      7,
					MaxRounds: 25,
				}
				want, err := s.Run(p)
				if err != nil {
					t.Fatal(err)
				}
				for _, sample := range []int{0, 200} {
					spec := s
					spec.Fleet = &FleetSpec{
						High:   device.DefaultHighCount,
						Mid:    device.DefaultMidCount,
						Low:    device.DefaultLowCount,
						Sample: sample,
					}
					got, err := spec.Run(p)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("FleetSpec with Sample %d diverges from the default fleet", sample)
					}
				}
			})
		}
	}
}

// withProcs runs f under runtime.GOMAXPROCS(n), which sets the
// engine's shard and partition-worker counts, and then restores the
// previous setting. No test in the module calls t.Parallel, so no
// other test sees the change.
func withProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// TestScaledFleetScenario drives the root-level population plumbing:
// a Scenario with a FleetSpec runs end to end in sampled mode, and its
// result is reproducible and shard-invariant through the public API.
func TestScaledFleetScenario(t *testing.T) {
	base := Scenario{
		Workload:  CNNMNIST,
		Setting:   S3,
		Data:      NonIID50,
		Env:       EnvField,
		Seed:      3,
		MaxRounds: 20,
		Fleet:     ScaledFleet(50_000, 1500),
	}
	r1, err := base.Run(PolicyAutoFL)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := base.Run(PolicyAutoFL)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Error("sampled scenario runs are not reproducible")
	}

	var r3 *Report
	withProcs(2, func() { r3, err = base.Run(PolicyAutoFL) })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r3) {
		t.Error("GOMAXPROCS=2 changed the scenario result")
	}
	if r1.Rounds != 20 {
		t.Errorf("executed %d rounds, want 20", r1.Rounds)
	}
}

// TestFleetSpecValidation: degenerate FleetSpecs surface as errors at
// Open/Run, not as engine panics.
func TestFleetSpecValidation(t *testing.T) {
	s := Scenario{Seed: 1, MaxRounds: 5, Fleet: &FleetSpec{High: 0, Mid: 0, Low: 0}}
	if _, err := s.Run(PolicyRandom); err == nil {
		t.Error("all-zero FleetSpec ran without error")
	}
	neg := Scenario{Seed: 1, MaxRounds: 5, Fleet: &FleetSpec{High: -3, Mid: 1, Low: 1}}
	if _, err := neg.Run(PolicyRandom); err == nil {
		t.Error("negative tier count ran without error")
	}
	tiny := Scenario{Seed: 1, MaxRounds: 5, Fleet: &FleetSpec{High: 1, Mid: 1, Low: 1, Sample: 3}}
	if _, err := tiny.Run(PolicyRandom); err == nil {
		t.Error("Sample below K ran without error")
	}
}
