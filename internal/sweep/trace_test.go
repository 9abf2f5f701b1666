package sweep

import (
	"encoding/json"
	"testing"

	"autofl/internal/sim"
)

// syntheticTrace builds a deterministic n-round trace whose accuracy
// climbs linearly from floor toward ceiling, crossing target at round
// crossAt (1-based; 0 = never).
func syntheticTrace(n, crossAt int) *RunTrace {
	t := &RunTrace{
		V:              TraceVersion,
		TargetAccuracy: 0.9,
		AccuracyFloor:  0.1,
	}
	for i := 0; i < n; i++ {
		acc := 0.1 + 0.7*float64(i+1)/float64(n+1) // stays below 0.9
		if crossAt > 0 && i+1 >= crossAt {
			acc = 0.95
		}
		t.Sec = append(t.Sec, float64(10+i))
		t.EnergyJ = append(t.EnergyJ, float64(100+i))
		t.ParticipantEnergyJ = append(t.ParticipantEnergyJ, float64(40+i))
		t.Accuracy = append(t.Accuracy, acc)
	}
	return t
}

func TestOutcomeAtTruncates(t *testing.T) {
	tr := syntheticTrace(100, 0)
	out, ok := tr.OutcomeAt(30)
	if !ok {
		t.Fatal("OutcomeAt(30) failed on a 100-round trace")
	}
	if out.Converged || out.Rounds != 30 {
		t.Errorf("truncated outcome = %+v, want 30 unconverged rounds", out)
	}
	var sec, energy float64
	for i := 0; i < 30; i++ {
		sec += tr.Sec[i]
		energy += tr.EnergyJ[i]
	}
	if out.TimeToTargetSec != sec || out.EnergyToTargetJ != energy {
		t.Error("truncated sums differ from prefix sums")
	}
	if out.FinalAccuracy != tr.Accuracy[29] {
		t.Errorf("final accuracy %v, want round-30 accuracy %v", out.FinalAccuracy, tr.Accuracy[29])
	}
	if out.GlobalPPW <= 0 || out.LocalPPW <= 0 {
		t.Error("truncated outcome lost its efficiency metrics")
	}
	if out.Trace != nil {
		t.Error("replayed outcome must not carry a trace payload")
	}
}

func TestOutcomeAtConvergence(t *testing.T) {
	tr := syntheticTrace(60, 45) // run converged at round 45 and stopped
	tr.Sec = tr.Sec[:45]
	tr.EnergyJ = tr.EnergyJ[:45]
	tr.ParticipantEnergyJ = tr.ParticipantEnergyJ[:45]
	tr.Accuracy = tr.Accuracy[:45]

	// Any horizon >= the convergence round replays the same converged
	// run.
	for _, h := range []int{45, 100, 1000} {
		out, ok := tr.OutcomeAt(h)
		if !ok || !out.Converged || out.Rounds != 45 {
			t.Errorf("OutcomeAt(%d) = %+v, %v; want convergence at 45", h, out, ok)
		}
	}
	// A shorter horizon replays an unconverged prefix.
	out, ok := tr.OutcomeAt(20)
	if !ok || out.Converged || out.Rounds != 20 {
		t.Errorf("OutcomeAt(20) = %+v, %v; want 20 unconverged rounds", out, ok)
	}
}

func TestOutcomeAtCannotWitness(t *testing.T) {
	tr := syntheticTrace(50, 0) // ran 50 rounds, never converged
	if _, ok := tr.OutcomeAt(51); ok {
		t.Error("trace served a horizon beyond its unconverged recording")
	}
	if _, ok := tr.OutcomeAt(0); ok {
		t.Error("trace served a zero-round horizon")
	}
	if out, ok := tr.OutcomeAt(50); !ok || out.Rounds != 50 {
		t.Errorf("exact-length replay = %+v, %v", out, ok)
	}
}

func TestTraceValidity(t *testing.T) {
	var nilTrace *RunTrace
	if nilTrace.Valid() {
		t.Error("nil trace reported valid")
	}
	if _, ok := nilTrace.OutcomeAt(5); ok {
		t.Error("nil trace served an outcome")
	}
	wrongVersion := syntheticTrace(10, 0)
	wrongVersion.V = TraceVersion + 1
	if wrongVersion.Valid() {
		t.Error("unknown version reported valid")
	}
	ragged := syntheticTrace(10, 0)
	ragged.EnergyJ = ragged.EnergyJ[:5]
	if ragged.Valid() {
		t.Error("ragged arrays reported valid")
	}
	// Staleness is optional (absent for synchronous runs) but must be
	// full-length when present.
	withStale := syntheticTrace(10, 0)
	withStale.Staleness = make([]float64, 10)
	if !withStale.Valid() {
		t.Error("full-length staleness reported invalid")
	}
	raggedStale := syntheticTrace(10, 0)
	raggedStale.Staleness = make([]float64, 4)
	if raggedStale.Valid() {
		t.Error("ragged staleness reported valid")
	}
	// The battery arrays come as a pair: a payload carrying Jain
	// without BatteryFrac (or the reverse) must be rejected, not
	// replayed into an out-of-range read.
	jainOnly := syntheticTrace(10, 0)
	jainOnly.Jain = make([]float64, 10)
	fracOnly := syntheticTrace(10, 0)
	fracOnly.BatteryFrac = make([]float64, 10)
	for name, tr := range map[string]*RunTrace{"jain only": jainOnly, "battery_frac only": fracOnly} {
		if tr.Valid() {
			t.Errorf("%s reported valid", name)
		}
		if _, ok := tr.OutcomeAt(5); ok {
			t.Errorf("%s served an outcome", name)
		}
	}
	both := syntheticTrace(10, 0)
	both.Jain, both.BatteryFrac = make([]float64, 10), make([]float64, 10)
	if !both.Valid() {
		t.Error("full-length battery arrays reported invalid")
	}
}

// TestTraceStalenessReplay pins the async extension of the prefix
// contract: a trace carrying per-round staleness replays the exact
// run-level mean at any horizon, and synchronous traces (no staleness
// array) replay a zero mean.
func TestTraceStalenessReplay(t *testing.T) {
	tr := syntheticTrace(50, 0)
	tr.Staleness = make([]float64, 50)
	for i := range tr.Staleness {
		tr.Staleness[i] = float64(i % 7)
	}
	for _, h := range []int{1, 20, 50} {
		out, ok := tr.OutcomeAt(h)
		if !ok {
			t.Fatalf("OutcomeAt(%d) failed", h)
		}
		sum := 0.0
		for i := 0; i < h; i++ {
			sum += tr.Staleness[i]
		}
		if want := sum / float64(h); out.MeanStaleness != want {
			t.Errorf("OutcomeAt(%d).MeanStaleness = %g, want %g", h, out.MeanStaleness, want)
		}
	}
	sync := syntheticTrace(50, 0)
	if out, ok := sync.OutcomeAt(20); !ok || out.MeanStaleness != 0 {
		t.Errorf("staleness-free replay mean = %g, want 0", out.MeanStaleness)
	}
}

// TestNewRunTraceStalenessGating: the staleness array is recorded only
// when some round actually saw a stale update, so synchronous cache
// payloads keep their pre-async bytes.
func TestNewRunTraceStalenessGating(t *testing.T) {
	round2 := func(stale []float64) *sim.Result {
		return &sim.Result{
			TargetAccuracy: 0.9, AccuracyFloor: 0.1,
			Trace: sim.Trace{
				Sec: []float64{1, 2}, EnergyJ: make([]float64, 2), ParticipantEnergyJ: make([]float64, 2),
				Accuracy: []float64{0.3, 0.5}, Staleness: stale,
			},
		}
	}
	for _, stale := range [][]float64{nil, {0, 0}} {
		if tr := NewRunTrace(round2(stale)); tr.Staleness != nil {
			t.Errorf("staleness %v: trace recorded a staleness array", stale)
		}
	}
	asyncRes := round2([]float64{0, 1.5})
	tr := NewRunTrace(asyncRes)
	if len(tr.Staleness) != 2 || tr.Staleness[1] != 1.5 {
		t.Errorf("async trace staleness = %v, want [0 1.5]", tr.Staleness)
	}
	if !tr.Valid() {
		t.Error("async trace reported invalid")
	}
}

// TestNewRunTraceRoundTrips checks the sim.Result conversion
// preserves every per-round value and the replay of the full length
// reproduces the run's own aggregates.
func TestNewRunTraceRoundTrips(t *testing.T) {
	res := &sim.Result{
		TargetAccuracy: 0.9,
		AccuracyFloor:  0.1,
		Trace: sim.Trace{
			Sec:                []float64{1.5, 2.5},
			EnergyJ:            []float64{10, 11},
			ParticipantEnergyJ: []float64{4, 5},
			Accuracy:           []float64{0.3, 0.5},
		},
	}
	tr := NewRunTrace(res)
	if !tr.Valid() || tr.Rounds() != 2 {
		t.Fatalf("converted trace invalid: %+v", tr)
	}
	out, ok := tr.OutcomeAt(2)
	if !ok {
		t.Fatal("full-length replay failed")
	}
	if out.TimeToTargetSec != 4.0 || out.EnergyToTargetJ != 21 || out.FinalAccuracy != 0.5 {
		t.Errorf("replayed outcome = %+v", out)
	}
}

// FuzzRunTrace feeds arbitrary JSON to the cache-payload replay: a
// trace that reaches the cache from a remote worker is untrusted, so
// OutcomeAt must never panic, and whatever it serves must be a
// consistent outcome for the requested horizon: never more rounds than
// asked, and a converged run stops at its convergence round.
func FuzzRunTrace(f *testing.F) {
	f.Add([]byte(`{"v":1,"target_accuracy":0.9,"accuracy_floor":0.1,"sec":[1,2],"energy_j":[3,4],"participant_energy_j":[1,1],"accuracy":[0.5,0.6],"jain":[0.5,0.6]}`))
	f.Add([]byte(`{"v":1,"target_accuracy":0.9,"accuracy_floor":0.1,"sec":[1,2,3],"energy_j":[3,4,5],"participant_energy_j":[1,1,1],"accuracy":[0.5,0.95,0.2],"staleness":[0,1,2],"jain":[0.5,0.6,0.7],"battery_frac":[0.9,0.8,0.7]}`))
	f.Add([]byte(`{"v":1,"sec":[],"energy_j":[],"participant_energy_j":[],"accuracy":[],"staleness":[],"jain":[],"battery_frac":[]}`))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var tr RunTrace
		if json.Unmarshal(payload, &tr) != nil {
			return
		}
		for h := 0; h <= tr.Rounds()+2; h++ {
			out, ok := tr.OutcomeAt(h)
			if !ok {
				continue
			}
			if out.Rounds > h {
				t.Fatalf("OutcomeAt(%d) replayed %d rounds", h, out.Rounds)
			}
			if res := tr.Fold(h, tr.TargetAccuracy, tr.AccuracyFloor); res.Converged && res.ConvergedRound != res.Rounds {
				t.Fatalf("Fold(%d) converged at round %d but ran %d", h, res.ConvergedRound, res.Rounds)
			}
			if !out.Converged && out.Rounds != h {
				t.Fatalf("OutcomeAt(%d) served an unconverged %d-round prefix", h, out.Rounds)
			}
			if out.Trace != nil {
				t.Fatalf("OutcomeAt(%d) carried a trace payload", h)
			}
		}
	})
}
