package core

import (
	"math"
	"testing"

	"autofl/internal/data"
	"autofl/internal/device"
	"autofl/internal/rng"
	"autofl/internal/sim"
	"autofl/internal/workload"
)

func cfg(seed uint64) sim.Config {
	return sim.Config{
		Workload:  workload.CNNMNIST(),
		Params:    workload.S3,
		Data:      data.IdealIID,
		Env:       sim.EnvIdeal(),
		Seed:      seed,
		MaxRounds: 600,
	}
}

func TestGlobalStateKeyBuckets(t *testing.T) {
	cnn := GlobalStateKey(workload.CNNMNIST(), workload.S3)
	lstm := GlobalStateKey(workload.LSTMShakespeare(), workload.S3)
	if cnn == lstm {
		t.Error("different layer mixes must map to different global states")
	}
	s3 := GlobalStateKey(workload.CNNMNIST(), workload.S3)
	s4 := GlobalStateKey(workload.CNNMNIST(), workload.S4)
	if s3 != s4 {
		t.Error("Table 1 puts K=20 and K=10 in the same medium bucket")
	}
	bigK := workload.GlobalParams{B: 16, E: 5, K: 60}
	if GlobalStateKey(workload.CNNMNIST(), bigK) == s3 {
		t.Error("K=60 must land in the large bucket, away from K=20")
	}
	// S2 (B=32) and S3 (B=16) differ only in batch bucket: 32 falls in
	// the large bucket (>=32), 16 in medium.
	if GlobalStateKey(workload.CNNMNIST(), workload.S2) == s3 {
		t.Error("S2 and S3 batch sizes land in different Table 1 buckets")
	}
}

func TestLocalStateKeyBuckets(t *testing.T) {
	b := DefaultBuckets()
	base := sim.DeviceState{
		Device:        &device.Device{Spec: device.HighEndSpec()},
		BandwidthMbps: 100,
		Data:          &data.DeviceData{ClassFraction: 1},
	}
	quiet := b.LocalStateKey(&base)

	loaded := base
	loaded.Load.CPUUtil = 0.9
	if b.LocalStateKey(&loaded) == quiet {
		t.Error("heavy co-runner CPU must change the local state")
	}
	light := base
	light.Load.CPUUtil = 0.1
	if b.LocalStateKey(&light) == b.LocalStateKey(&loaded) {
		t.Error("small and large co-runner buckets must differ")
	}

	badNet := base
	badNet.BandwidthMbps = 20
	if b.LocalStateKey(&badNet) == quiet {
		t.Error("bad network must change the local state")
	}

	nonIID := base
	nonIID.Data = &data.DeviceData{ClassFraction: 0.2}
	if b.LocalStateKey(&nonIID) == quiet {
		t.Error("small data-class fraction must change the local state")
	}
}

func TestNoneBucketIsExactZero(t *testing.T) {
	if got := bucketWithNone(0, []float64{0.25, 0.75}); got != 0 {
		t.Errorf("zero utilization bucket = %d, want 0 (none)", got)
	}
	if got := bucketWithNone(0.01, []float64{0.25, 0.75}); got != 1 {
		t.Errorf("tiny utilization bucket = %d, want 1 (small)", got)
	}
	if got := bucketWithNone(0.99, []float64{0.25, 0.75}); got != 3 {
		t.Errorf("heavy utilization bucket = %d, want 3 (large)", got)
	}
}

// TestDecodeAction pins the action index space on every tier: the six
// indices decode to distinct (target, step) pairs inside the ladder,
// CPU first, so index 2 is the CPU top step and index 3 a GPU interior
// step.
func TestDecodeAction(t *testing.T) {
	if numActions != 6 {
		t.Fatalf("action space = %d, want 2 targets × 3 levels", numActions)
	}
	for _, spec := range []*device.Spec{device.HighEndSpec(), device.MidEndSpec(), device.LowEndSpec()} {
		type action struct {
			target device.Target
			step   int
		}
		seen := map[action]bool{}
		for a := 0; a < numActions; a++ {
			target, step := decodeAction(a, spec)
			if top := spec.Proc(target).TopStep(); step < 0 || step > top {
				t.Errorf("%v: action %d step %d outside [0, %d]", spec.Category, a, step, top)
			}
			if seen[action{target, step}] {
				t.Errorf("%v: action %d duplicates (%v, %d)", spec.Category, a, target, step)
			}
			seen[action{target, step}] = true
		}
		if target, step := decodeAction(2, spec); target != device.CPU || step != spec.CPU.TopStep() {
			t.Errorf("%v: action 2 = (%v, %d), want (CPU, top)", spec.Category, target, step)
		}
		if target, step := decodeAction(3, spec); target != device.GPU || step <= 0 || step >= spec.GPU.TopStep() {
			t.Errorf("%v: action 3 = (%v, %d), want a GPU interior step", spec.Category, target, step)
		}
	}
}

func TestControllerSelectsKDevices(t *testing.T) {
	eng := sim.New(cfg(1))
	c := New(DefaultOptions(2))
	_, res := eng.RunRound(c, 0, 0.1)
	selected := 0
	for _, dr := range res.Devices {
		if dr.Selected {
			selected++
		}
	}
	if selected != workload.S3.K {
		t.Errorf("AutoFL selected %d devices, want K=%d", selected, workload.S3.K)
	}
}

func TestControllerConvergesIID(t *testing.T) {
	res := sim.New(cfg(3)).Run(New(DefaultOptions(4)))
	if !res.Converged {
		t.Fatalf("AutoFL should converge under ideal IID: %v", res)
	}
	if len(res.RewardTrace) == 0 {
		t.Error("AutoFL run should produce a reward trace")
	}
}

func TestControllerBeatsRandomInField(t *testing.T) {
	// The headline claim (Fig 8): AutoFL improves energy efficiency
	// over FedAvg-Random under realistic field conditions.
	c := cfg(5)
	c.Env = sim.EnvField()
	autofl := sim.New(c).Run(New(DefaultOptions(6)))
	random := sim.New(c).Run(&randomPolicy{seed: 6})
	if !autofl.Converged {
		t.Fatalf("AutoFL failed to converge in the field env: %v", autofl)
	}
	if autofl.GlobalPPW() <= random.GlobalPPW() {
		t.Errorf("AutoFL PPW %.3g should beat random %.3g",
			autofl.GlobalPPW(), random.GlobalPPW())
	}
}

func TestControllerConvergesUnderHeterogeneity(t *testing.T) {
	// Fig 11(c): random selection stalls at Non-IID(75%); AutoFL's
	// learned, stable selection of IID devices converges.
	c := cfg(7)
	c.Data = data.NonIID75
	c.MaxRounds = 1000
	res := sim.New(c).Run(New(DefaultOptions(8)))
	if !res.Converged {
		t.Errorf("AutoFL should converge at Non-IID(75%%): %v", res)
	}
}

func TestRewardStalledBranch(t *testing.T) {
	c := New(DefaultOptions(9))
	eng := sim.New(cfg(10))

	// The reward trace records the raw (uncentered) round-mean reward.
	// A single non-improving round does NOT trigger the hard branch
	// (hysteresis protects the cohort from reward noise)...
	ctx, res := eng.RunRound(c, 0, 0.5)
	res.Accuracy = res.PrevAccuracy - 0.01
	c.Feedback(ctx, res)
	trace := c.RewardTrace()
	hard := res.Accuracy*100 - 100
	if got := trace[len(trace)-1]; math.Abs(got-hard) < 1 {
		t.Errorf("single stalled round produced hard-branch reward %v", got)
	}

	// ...but a sustained plateau does: after three consecutive stalls
	// the mean raw reward equals acc-100 (all participants hold the
	// full class set under IID data, so the coverage skew is 1).
	var lastRes *sim.RoundResult
	for round := 1; round <= 3; round++ {
		ctx, res = eng.RunRound(c, round, 0.5)
		res.Accuracy = res.PrevAccuracy - 0.01
		c.Feedback(ctx, res)
		lastRes = res
		_ = ctx
	}
	trace = c.RewardTrace()
	hard = lastRes.Accuracy*100 - 100
	if got := trace[len(trace)-1]; math.Abs(got-hard) > 1 {
		t.Errorf("plateau mean reward = %v, want ~%v (acc-100)", got, hard)
	}
}

func TestDroppedDeviceAlwaysPunished(t *testing.T) {
	// A straggler that contributed nothing takes the hard branch even
	// on an improving round.
	c := New(DefaultOptions(31))
	eng := sim.New(cfg(32))
	ctx, res := eng.RunRound(c, 0, 0.5)
	res.Accuracy = res.PrevAccuracy + 0.02
	// Force one on-time participant to look dropped.
	forced := -1
	for i := range res.Devices {
		if res.Devices[i].Selected && res.Devices[i].UpdateFraction > 0 {
			res.Devices[i].UpdateFraction = 0
			forced = i
			break
		}
	}
	if forced < 0 {
		t.Fatal("no on-time participant")
	}
	c.Feedback(ctx, res)
	// Rewards are round-mean-centered, so assert the ordering: the
	// dropped device must sit strictly below every on-time peer.
	rewards := pendingRewards(c)
	dropped := rewards[forced]
	for idx, r := range rewards {
		if idx == forced || res.Devices[idx].UpdateFraction == 0 {
			continue
		}
		if dropped >= r {
			t.Fatalf("dropped device reward %v not below peer reward %v", dropped, r)
		}
	}
}

// pendingRewards exposes the staged per-device rewards for assertions.
func pendingRewards(c *Controller) map[int]float64 {
	out := make(map[int]float64, len(c.pendIdx))
	for j, idx := range c.pendIdx {
		out[idx] = c.pendReward[j]
	}
	return out
}

func TestRewardProgressBranchSign(t *testing.T) {
	c := New(DefaultOptions(11))
	eng := sim.New(cfg(12))
	ctx, res := eng.RunRound(c, 0, 0.5)
	res.Accuracy = res.PrevAccuracy + 0.02 // clear improvement
	c.Feedback(ctx, res)
	for idx, r := range pendingRewards(c) {
		if res.Devices[idx].UpdateFraction == 0 {
			continue
		}
		// -1 (global) - local + alpha*acc + beta*delta: with the
		// first-round anchor, global term is exactly 1.
		if r < -10 || r > 20 {
			t.Errorf("progress-round reward %v out of plausible range", r)
		}
	}
}

func TestRewardTraceStabilizes(t *testing.T) {
	// Fig 15: the reward converges within roughly 50-80 rounds. Verify
	// that late-run reward variance is well below early-run variance.
	c := cfg(13)
	c.MaxRounds = 300
	c.TargetAccuracy = 1.1 // run the full horizon
	ctrl := New(DefaultOptions(14))
	sim.New(c).Run(ctrl)
	trace := ctrl.RewardTrace()
	if len(trace) < 200 {
		t.Fatalf("reward trace too short: %d", len(trace))
	}
	early := variance(trace[5:80])
	late := variance(trace[len(trace)-80:])
	if late > early {
		t.Errorf("late reward variance %.3f should be below early %.3f", late, early)
	}
}

func TestSharedTablesUseFewerAgents(t *testing.T) {
	c := cfg(15)
	c.MaxRounds = 60
	c.TargetAccuracy = 1.1
	perDevice := New(DefaultOptions(16))
	shared := New(func() Options {
		o := DefaultOptions(16)
		o.SharedTables = true
		return o
	}())
	sim.New(c).Run(perDevice)
	sim.New(c).Run(shared)
	if n := numAgents(shared); n > device.NumCategories {
		t.Errorf("shared-table mode created %d agents, want <= %d",
			n, device.NumCategories)
	}
	if n := numAgents(perDevice); n <= device.NumCategories {
		t.Errorf("per-device mode created only %d agents", n)
	}
	if shared.MemoryBytes() >= perDevice.MemoryBytes() {
		t.Errorf("shared tables (%dB) should use less memory than per-device (%dB)",
			shared.MemoryBytes(), perDevice.MemoryBytes())
	}
}

// numAgents counts the controller's materialized agents.
func numAgents(c *Controller) int {
	n := 0
	for _, s := range c.slots {
		if s.table != nil {
			n++
		}
	}
	return n
}

func TestSharedTablesStillConverge(t *testing.T) {
	c := cfg(17)
	opts := DefaultOptions(18)
	opts.SharedTables = true
	res := sim.New(c).Run(New(opts))
	if !res.Converged {
		t.Errorf("shared-table AutoFL should still converge: %v", res)
	}
}

func TestControllerDeterminism(t *testing.T) {
	run := func() *sim.Result {
		return sim.New(cfg(19)).Run(New(DefaultOptions(20)))
	}
	a, b := run(), run()
	if a.Rounds != b.Rounds || a.EnergyToTargetJ != b.EnergyToTargetJ {
		t.Error("AutoFL runs with identical seeds must match")
	}
}

func TestExplorationRate(t *testing.T) {
	c := cfg(21)
	c.MaxRounds = 400
	c.TargetAccuracy = 1.1
	ctrl := New(DefaultOptions(22))
	eng := sim.New(c)
	explored := 0
	for round := 0; round < 400; round++ {
		ctx, res := eng.RunRound(ctrl, round, 0.5)
		ctrl.Feedback(ctx, res)
		if ctrl.Explored() {
			explored++
		}
	}
	rate := float64(explored) / 400
	if rate < 0.05 || rate > 0.17 {
		t.Errorf("exploration rate = %.3f, want ~0.10", rate)
	}
}

func TestFeedbackWithNilPendingIsSafe(t *testing.T) {
	c := New(DefaultOptions(23))
	c.Feedback(nil, &sim.RoundResult{}) // must not panic
}

func TestCalibrateCoUtilizationFallsBack(t *testing.T) {
	got := CalibrateCoUtilization(nil)
	want := DefaultBuckets().CoCPU
	if len(got) != len(want) {
		t.Errorf("empty calibration should fall back to Table 1 defaults")
	}
}

func TestStateKeyComposition(t *testing.T) {
	k := StateKey("g", "l")
	if k != "g|l" {
		t.Errorf("StateKey = %q", k)
	}
}

// randomPolicy mirrors the FedAvg-Random baseline without importing
// internal/policy (keeping this package's tests self-contained).
type randomPolicy struct {
	seed uint64
	s    *rng.Stream
}

func (p *randomPolicy) Name() string { return "random" }
func (p *randomPolicy) Select(ctx *sim.RoundContext) []sim.Selection {
	if p.s == nil {
		p.s = rng.New(p.seed)
	}
	var out []sim.Selection
	for _, i := range p.s.Sample(len(ctx.Devices), ctx.Params.K) {
		out = append(out, sim.Selection{Index: i, Target: device.CPU, Step: -1})
	}
	return out
}

func variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	v := 0.0
	for _, x := range xs {
		v += (x - mean) * (x - mean)
	}
	return v / float64(len(xs))
}
