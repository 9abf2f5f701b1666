package autofl

import (
	"math"
	"testing"
)

func quick(seed uint64) Scenario {
	return Scenario{
		Workload:  CNNMNIST,
		Setting:   S3,
		Data:      IdealIID,
		Env:       EnvIdeal,
		Seed:      seed,
		MaxRounds: 500,
	}
}

func TestScenarioDefaults(t *testing.T) {
	r, err := (Scenario{Seed: 1, MaxRounds: 400}).Run(PolicyRandom)
	if err != nil {
		t.Fatal(err)
	}
	if r.Policy != string(PolicyRandom) {
		t.Errorf("policy = %q", r.Policy)
	}
	if r.Rounds == 0 || r.EnergyToTargetJ <= 0 {
		t.Error("report missing basic measurements")
	}
}

func TestScenarioValidation(t *testing.T) {
	cases := []Scenario{
		{Workload: "nope"},
		{Setting: "S9"},
		{Data: "weird"},
		{Env: "lunar"},
	}
	for _, s := range cases {
		if _, err := s.Run(PolicyRandom); err == nil {
			t.Errorf("scenario %+v should fail validation", s)
		}
	}
	if _, err := quick(1).Run("NotAPolicy"); err == nil {
		t.Error("unknown policy should fail")
	}
}

func TestRunReproducible(t *testing.T) {
	a, err := quick(7).Run(PolicyAutoFL)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := quick(7).Run(PolicyAutoFL)
	if a.EnergyToTargetJ != b.EnergyToTargetJ || a.Rounds != b.Rounds {
		t.Error("identical scenarios+seeds must produce identical reports")
	}
}

func TestAutoFLReportHasRewardTrace(t *testing.T) {
	r, err := quick(3).Run(PolicyAutoFL)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.RewardTrace) == 0 {
		t.Error("AutoFL reports should include the reward trace")
	}
	random, _ := quick(3).Run(PolicyRandom)
	if random.RewardTrace != nil {
		t.Error("non-learning policies should not carry a reward trace")
	}
}

func TestRunAllAndCompare(t *testing.T) {
	field := quick(5)
	field.Env = EnvField
	// Under the strongest heterogeneity no policy converges within 150
	// rounds, so every non-unit ratio compares partial progress.
	stalled := Scenario{
		Workload:  CNNMNIST,
		Data:      NonIID100,
		Seed:      7,
		MaxRounds: 150,
	}
	for _, tc := range []struct {
		name        string
		s           Scenario
		wantStalled bool
	}{
		{"field-iid", field, false},
		{"noniid100-150", stalled, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reports, err := tc.s.RunAll(PolicyRandom, PolicyAutoFL, PolicyOFL)
			if err != nil {
				t.Fatal(err)
			}
			if len(reports) != 3 {
				t.Fatalf("RunAll returned %d reports", len(reports))
			}
			cmp, err := Compare(PolicyRandom, reports)
			if err != nil {
				t.Fatal(err)
			}
			if len(cmp.Rows) != len(reports) {
				t.Fatalf("%d rows for %d reports", len(cmp.Rows), len(reports))
			}
			base := reports[0]
			stalledRows := 0
			for i, row := range cmp.Rows {
				r := reports[i]
				if row.Policy != r.Policy {
					t.Fatalf("row %d is %q, report is %q", i, row.Policy, r.Policy)
				}
				if row.FinalAccuracy != r.FinalAccuracy {
					t.Errorf("%s: accuracy cell %v, report %v", row.Policy, row.FinalAccuracy, r.FinalAccuracy)
				}
				if want := r.GlobalPPW() / base.GlobalPPW(); row.GlobalPPWx != want {
					t.Errorf("%s: global PPW %vx, want %vx", row.Policy, row.GlobalPPWx, want)
				}
				if want := r.LocalPPW() / base.LocalPPW(); row.LocalPPWx != want {
					t.Errorf("%s: local PPW %vx, want %vx", row.Policy, row.LocalPPWx, want)
				}
				if !row.Converged {
					stalledRows++
				}
				if row.Policy == string(PolicyAutoFL) && row.GlobalPPWx <= 1 {
					t.Errorf("AutoFL PPW improvement = %v, want > 1 in the field env", row.GlobalPPWx)
				}
			}
			if math.Abs(cmp.Rows[0].GlobalPPWx-1) > 1e-9 {
				t.Errorf("baseline normalizes to %v, want 1.0", cmp.Rows[0].GlobalPPWx)
			}
			if tc.wantStalled && stalledRows == 0 {
				t.Error("want at least one unconverged row")
			}
		})
	}
}

func TestCompareMissingBaseline(t *testing.T) {
	reports, _ := quick(6).RunAll(PolicyRandom)
	if _, err := Compare(PolicyOFL, reports); err == nil {
		t.Error("missing baseline should error")
	}
}

func TestEnumerations(t *testing.T) {
	if len(Workloads()) != 3 || len(Settings()) != 4 || len(DataScenarios()) != 4 {
		t.Error("enumeration lengths wrong")
	}
	if len(Policies()) != 8 {
		t.Errorf("policies = %d, want 8", len(Policies()))
	}
	if len(Environments()) != 4 {
		t.Error("environments wrong")
	}
}

func TestAutoFLOptionsApplied(t *testing.T) {
	s := quick(8)
	s.AutoFL = &AutoFLOptions{Epsilon: 0.3, SharedTables: true}
	r, err := s.Run(PolicyAutoFL)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rounds == 0 {
		t.Error("run with custom options produced no rounds")
	}
	// Different hyperparameters should change the trajectory.
	base, _ := quick(8).Run(PolicyAutoFL)
	if base.EnergyToTargetJ == r.EnergyToTargetJ {
		t.Error("custom epsilon should alter the run")
	}
}

func TestHeterogeneityScenario(t *testing.T) {
	s := quick(9)
	s.Data = NonIID75
	s.MaxRounds = 800
	random, err := s.Run(PolicyRandom)
	if err != nil {
		t.Fatal(err)
	}
	if random.Converged {
		t.Error("random selection should stall at Non-IID(75%)")
	}
	auto, err := s.Run(PolicyAutoFL)
	if err != nil {
		t.Fatal(err)
	}
	if !auto.Converged {
		t.Error("AutoFL should converge at Non-IID(75%)")
	}
}
