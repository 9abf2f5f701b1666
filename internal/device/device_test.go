package device

import (
	"testing"
	"testing/quick"

	"autofl/internal/workload"
)

func TestLadderShape(t *testing.T) {
	for _, spec := range []*Spec{HighEndSpec(), MidEndSpec(), LowEndSpec()} {
		for _, target := range []Target{CPU, GPU} {
			p := spec.Proc(target)
			if len(p.Steps) < 2 {
				t.Fatalf("%s %s has %d steps", spec.Model, target, len(p.Steps))
			}
			for i := 1; i < len(p.Steps); i++ {
				if p.Steps[i].FreqGHz <= p.Steps[i-1].FreqGHz {
					t.Errorf("%s %s ladder not ascending in frequency at %d", spec.Model, target, i)
				}
				if p.Steps[i].BusyWatts <= p.Steps[i-1].BusyWatts {
					t.Errorf("%s %s ladder not ascending in power at %d", spec.Model, target, i)
				}
			}
		}
	}
}

func TestTable3StepCounts(t *testing.T) {
	// V-F step counts from Table 3 of the paper.
	h, m, l := HighEndSpec(), MidEndSpec(), LowEndSpec()
	cases := []struct {
		name  string
		got   int
		want  int
		watts float64
		peakW float64
	}{
		{"H CPU", len(h.CPU.Steps), 23, h.CPU.PowerAt(h.CPU.TopStep()), 5.5},
		{"H GPU", len(h.GPU.Steps), 7, h.GPU.PowerAt(h.GPU.TopStep()), 2.8},
		{"M CPU", len(m.CPU.Steps), 21, 0, 0},
		{"M GPU", len(m.GPU.Steps), 9, 0, 0},
		{"L CPU", len(l.CPU.Steps), 15, 0, 0},
		{"L GPU", len(l.GPU.Steps), 6, l.GPU.PowerAt(l.GPU.TopStep()), 2.0},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s steps = %d, want %d", c.name, c.got, c.want)
		}
		if c.peakW > 0 && !approx(c.watts, c.peakW, 0.01) {
			t.Errorf("%s peak watts = %v, want %v", c.name, c.watts, c.peakW)
		}
	}
}

func TestTable2GFLOPS(t *testing.T) {
	if g := HighEndSpec().CPU.PeakGFLOPS; g != 153.6 {
		t.Errorf("H peak = %v, want 153.6", g)
	}
	if g := MidEndSpec().CPU.PeakGFLOPS; g != 80 {
		t.Errorf("M peak = %v, want 80", g)
	}
	if g := LowEndSpec().CPU.PeakGFLOPS; g != 52.8 {
		t.Errorf("L peak = %v, want 52.8", g)
	}
}

func TestComputeBoundTierGap(t *testing.T) {
	// §3.1: for compute-intensive CNN training, high-end devices are
	// ~1.7x faster than mid-end and ~2.5x faster than low-end.
	intensity := workload.CNNMNIST().Intensity(32)
	h := HighEndSpec().EffectiveGFLOPS(CPU, HighEndSpec().CPU.TopStep(), intensity, 0, 0)
	m := MidEndSpec().EffectiveGFLOPS(CPU, MidEndSpec().CPU.TopStep(), intensity, 0, 0)
	l := LowEndSpec().EffectiveGFLOPS(CPU, LowEndSpec().CPU.TopStep(), intensity, 0, 0)
	if hm := h / m; hm < 1.4 || hm > 2.2 {
		t.Errorf("H/M compute-bound gap = %.2f, want ~1.7-1.9", hm)
	}
	if hl := h / l; hl < 2.0 || hl > 3.3 {
		t.Errorf("H/L compute-bound gap = %.2f, want ~2.5-2.9", hl)
	}
}

func TestMemoryBoundGapShrinks(t *testing.T) {
	// §3.1: for memory-bound LSTM training the average tier gap
	// shrinks (2.1x -> 1.5x in the paper). The roofline model should
	// reproduce a smaller H/L ratio for LSTM than for CNN.
	cnn := workload.CNNMNIST().Intensity(32)
	lstm := workload.LSTMShakespeare().Intensity(32)
	ratio := func(intensity float64) float64 {
		h := HighEndSpec().EffectiveGFLOPS(CPU, HighEndSpec().CPU.TopStep(), intensity, 0, 0)
		l := LowEndSpec().EffectiveGFLOPS(CPU, LowEndSpec().CPU.TopStep(), intensity, 0, 0)
		return h / l
	}
	if ratio(lstm) >= ratio(cnn) {
		t.Errorf("LSTM tier gap (%.2f) should be below CNN tier gap (%.2f)", ratio(lstm), ratio(cnn))
	}
}

func TestGPUImmuneToCPUContention(t *testing.T) {
	spec := HighEndSpec()
	intensity := workload.CNNMNIST().Intensity(32)
	cpuClean := spec.EffectiveGFLOPS(CPU, spec.CPU.TopStep(), intensity, 0, 0)
	cpuLoaded := spec.EffectiveGFLOPS(CPU, spec.CPU.TopStep(), intensity, 0.6, 0)
	gpuClean := spec.EffectiveGFLOPS(GPU, spec.GPU.TopStep(), intensity, 0, 0)
	gpuLoaded := spec.EffectiveGFLOPS(GPU, spec.GPU.TopStep(), intensity, 0.6, 0)
	if cpuLoaded >= cpuClean {
		t.Error("CPU throughput should degrade under compute contention")
	}
	if gpuLoaded != gpuClean {
		t.Error("GPU throughput should be unaffected by CPU-side contention")
	}
}

func TestMemContentionHurtsBothTargets(t *testing.T) {
	spec := LowEndSpec()
	intensity := workload.LSTMShakespeare().Intensity(32) // memory-bound
	for _, target := range []Target{CPU, GPU} {
		clean := spec.EffectiveGFLOPS(target, spec.Proc(target).TopStep(), intensity, 0, 0)
		loaded := spec.EffectiveGFLOPS(target, spec.Proc(target).TopStep(), intensity, 0, 0.5)
		if loaded >= clean {
			t.Errorf("%s throughput should degrade under memory contention", target)
		}
	}
}

func TestEffectiveGFLOPSNeverZero(t *testing.T) {
	spec := LowEndSpec()
	got := spec.EffectiveGFLOPS(CPU, 0, 100, 1.0, 1.0)
	if got <= 0 {
		t.Errorf("throughput must stay positive under full contention, got %v", got)
	}
}

func TestGFLOPSScalesWithFrequency(t *testing.T) {
	spec := MidEndSpec()
	lo := spec.CPU.GFLOPSAt(0)
	hi := spec.CPU.GFLOPSAt(spec.CPU.TopStep())
	if lo >= hi {
		t.Error("throughput should grow with frequency")
	}
	if !approx(hi, spec.CPU.PeakGFLOPS, 1e-9) {
		t.Errorf("top-step throughput %v != peak %v", hi, spec.CPU.PeakGFLOPS)
	}
}

func TestStepClamping(t *testing.T) {
	p := &HighEndSpec().CPU
	if p.GFLOPSAt(-5) != p.GFLOPSAt(0) {
		t.Error("negative step should clamp to 0")
	}
	if p.PowerAt(999) != p.PowerAt(p.TopStep()) {
		t.Error("oversized step should clamp to top")
	}
}

func TestEnergyOptimalStepIsInterior(t *testing.T) {
	// With leakage + cubic dynamic power, energy per unit of
	// compute-bound work P(f)/f is minimized at an interior DVFS step,
	// not at the bottom of the ladder. This slack-driven sweet spot is
	// what AutoFL's DVFS action exploits (§4.1).
	p := &HighEndSpec().CPU
	best, bestVal := -1, 0.0
	for i := range p.Steps {
		v := p.PowerAt(i) / p.GFLOPSAt(i)
		if best == -1 || v < bestVal {
			best, bestVal = i, v
		}
	}
	if best == 0 || best == p.TopStep() {
		t.Errorf("energy-optimal step = %d (of %d); want interior", best, len(p.Steps))
	}
}

func TestIdleWattsComposition(t *testing.T) {
	s := HighEndSpec()
	want := s.CPU.IdleWatts + s.GPU.IdleWatts + s.RadioIdleWatts
	if got := s.IdleWatts(); !approx(got, want, 1e-12) {
		t.Errorf("IdleWatts = %v, want %v", got, want)
	}
}

func TestStrings(t *testing.T) {
	if High.String() != "H" || Mid.String() != "M" || Low.String() != "L" {
		t.Error("Category strings wrong")
	}
	if CPU.String() != "CPU" || GPU.String() != "GPU" {
		t.Error("Target strings wrong")
	}
	if Category(7).String() != "Category(7)" || Target(7).String() != "Target(7)" {
		t.Error("out-of-range strings wrong")
	}
}

// Property: effective throughput is monotone non-decreasing in DVFS
// step and non-increasing in contention, for all tiers and targets.
func TestEffectiveGFLOPSMonotoneProperty(t *testing.T) {
	specs := []*Spec{HighEndSpec(), MidEndSpec(), LowEndSpec()}
	f := func(specIdx, targetIdx, stepRaw uint8, contRaw uint8) bool {
		spec := specs[int(specIdx)%len(specs)]
		target := Target(int(targetIdx) % NumTargets)
		proc := spec.Proc(target)
		step := int(stepRaw) % len(proc.Steps)
		cont := float64(contRaw%90) / 100
		const intensity = 10
		if step > 0 {
			lo := spec.EffectiveGFLOPS(target, step-1, intensity, cont, cont)
			hi := spec.EffectiveGFLOPS(target, step, intensity, cont, cont)
			if hi < lo-1e-9 {
				return false
			}
		}
		clean := spec.EffectiveGFLOPS(target, step, intensity, 0, 0)
		dirty := spec.EffectiveGFLOPS(target, step, intensity, cont, cont)
		return dirty <= clean+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func approx(got, want, tol float64) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d <= tol
}
