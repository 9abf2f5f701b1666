package sim_test

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"autofl/internal/policy"
	"autofl/internal/sim"
	"autofl/internal/workload"
)

// asyncPopConfig is popConfig with an asynchronous aggregation mode.
func asyncPopConfig(tb testing.TB, mode sim.AggregationMode, n, sample int, seed uint64) sim.Config {
	tb.Helper()
	cfg := popConfig(tb, n, sample, seed)
	cfg.Mode = mode
	return cfg
}

// TestSyncModeExplicitMatchesDefault pins that Mode "sync" is the
// zero-value regime, not a third code path: an explicit ModeSync run is
// field-for-field identical to a default-config run.
func TestSyncModeExplicitMatchesDefault(t *testing.T) {
	base := stepperConfig(31, 80)
	explicit := base
	explicit.Mode = sim.ModeSync
	a := sim.New(base).Run(policy.NewRandom(5))
	b := sim.New(explicit).Run(policy.NewRandom(5))
	if !reflect.DeepEqual(a, b) {
		t.Error("explicit ModeSync run differs from default-mode run")
	}
}

// TestAsyncDeterminism pins that asynchronous runs are pure functions
// of the config: same config, same bytes, for both async regimes and
// both engine paths (legacy fleet and sampled population).
func TestAsyncDeterminism(t *testing.T) {
	for _, mode := range []sim.AggregationMode{sim.ModeAsync, sim.ModeSemiAsync} {
		t.Run(string(mode), func(t *testing.T) {
			legacy := stepperConfig(13, 60)
			legacy.Mode = mode
			a := sim.New(legacy).Run(policy.NewRandom(3))
			b := sim.New(legacy).Run(policy.NewRandom(3))
			if !reflect.DeepEqual(a, b) {
				t.Error("same-seed legacy async runs differ")
			}

			pop := asyncPopConfig(t, mode, 3000, 600, 17)
			c := mustEngine(t, pop).Run(policy.NewRandom(3))
			d := mustEngine(t, pop).Run(policy.NewRandom(3))
			if !reflect.DeepEqual(c, d) {
				t.Error("same-seed population async runs differ")
			}
		})
	}
}

// TestAsyncShardInvariance is the async arm of the keyed-stream
// contract: the event-queue ordering is total over (time, push order),
// and every stochastic draw is identity-keyed, so the shard count can
// never change an async trace — serial, 4-way, and an uneven 13-way
// partition (GOMAXPROCS 1, 4 and 13) all produce identical results.
func TestAsyncShardInvariance(t *testing.T) {
	for _, mode := range []sim.AggregationMode{sim.ModeAsync, sim.ModeSemiAsync} {
		t.Run(string(mode), func(t *testing.T) {
			cfg := asyncPopConfig(t, mode, 5000, 2048, 29)
			ref := runAtProcs(t, 1, cfg)
			for _, procs := range []int{4, 13} {
				if got := runAtProcs(t, procs, cfg); !reflect.DeepEqual(ref, got) {
					t.Errorf("GOMAXPROCS=%d async run differs from serial", procs)
				}
			}
		})
	}
}

// TestAsyncStalenessObserved pins that the async regime actually
// produces stale arrivals and reports them: the run-level mean is
// positive, and per-round traces carry the staleness signal the sweep
// layer exports.
func TestAsyncStalenessObserved(t *testing.T) {
	cfg := stepperConfig(7, 60)
	cfg.Mode = sim.ModeAsync
	res := sim.New(cfg).Run(policy.NewRandom(3))
	if res.MeanStaleness <= 0 {
		t.Errorf("async run mean staleness = %g, want > 0", res.MeanStaleness)
	}
	stale := 0
	for _, s := range res.Trace.Staleness {
		if s > 0 {
			stale++
		}
	}
	if stale == 0 {
		t.Error("no round trace recorded a positive mean staleness")
	}
}

// TestSyncStalenessZero: synchronous runs never report staleness, so
// their results (and exported bytes) are unchanged by the async fields.
func TestSyncStalenessZero(t *testing.T) {
	res := sim.New(stepperConfig(7, 60)).Run(policy.NewRandom(3))
	if res.MeanStaleness != 0 {
		t.Errorf("sync run mean staleness = %g, want 0", res.MeanStaleness)
	}
	for i, s := range res.Trace.Staleness {
		if s != 0 {
			t.Fatalf("sync round %d traced staleness %g", i+1, s)
		}
	}
}

// TestSemiAsyncQuorumBounds pins the semi-async contract per step:
// arrivals never exceed the quorum, virtual time strictly advances
// (no livelock), and nothing is ever dropped.
func TestSemiAsyncQuorumBounds(t *testing.T) {
	cfg := stepperConfig(11, 80)
	cfg.Mode = sim.ModeSemiAsync
	cfg.AggregateK = 5
	cfg.AggregateDeadlineSec = 20

	run := sim.New(cfg).Start(policy.NewRandom(3))
	prevVirtual := 0.0
	for run.Step() {
		info := run.Last()
		if info.VirtualSec <= prevVirtual {
			t.Fatalf("round %d: virtual clock did not advance (%g -> %g)",
				info.Round, prevVirtual, info.VirtualSec)
		}
		if info.Dropped != 0 {
			t.Fatalf("round %d dropped %d stragglers, want 0 (late updates roll forward)",
				info.Round, info.Dropped)
		}
		if info.Kept > cfg.AggregateK {
			t.Fatalf("round %d applied %d arrivals, quorum is %d", info.Round, info.Kept, cfg.AggregateK)
		}
		prevVirtual = info.VirtualSec
	}
}

// TestAsyncConfigErrors pins the typed-error surface of the aggregation
// knobs: each degenerate combination fails with a ConfigError naming
// the offending field.
func TestAsyncConfigErrors(t *testing.T) {
	base := func() sim.Config {
		return sim.Config{
			Workload: workload.CNNMNIST(),
			Params:   workload.S3,
		}
	}
	cases := []struct {
		name  string
		mut   func(*sim.Config)
		field string
	}{
		{"unknown mode", func(c *sim.Config) { c.Mode = "turbo" }, "Mode"},
		{"negative alpha", func(c *sim.Config) { c.Mode = sim.ModeAsync; c.StalenessAlpha = -0.5 }, "StalenessAlpha"},
		{"alpha with sync", func(c *sim.Config) { c.StalenessAlpha = 0.5 }, "StalenessAlpha"},
		{"quorum with sync", func(c *sim.Config) { c.AggregateK = 3 }, "AggregateK"},
		{"quorum with async", func(c *sim.Config) { c.Mode = sim.ModeAsync; c.AggregateK = 3 }, "AggregateK"},
		{"negative quorum", func(c *sim.Config) { c.Mode = sim.ModeSemiAsync; c.AggregateK = -1 }, "AggregateK"},
		{"quorum beyond cohort", func(c *sim.Config) { c.Mode = sim.ModeSemiAsync; c.AggregateK = c.Params.K + 1 }, "AggregateK"},
		{"deadline with sync", func(c *sim.Config) { c.AggregateDeadlineSec = 10 }, "AggregateDeadlineSec"},
		{"negative deadline", func(c *sim.Config) { c.Mode = sim.ModeSemiAsync; c.AggregateDeadlineSec = -1 }, "AggregateDeadlineSec"},
		{"NaN alpha", func(c *sim.Config) { c.Mode = sim.ModeAsync; c.StalenessAlpha = math.NaN() }, "StalenessAlpha"},
		{"infinite alpha", func(c *sim.Config) { c.Mode = sim.ModeAsync; c.StalenessAlpha = math.Inf(1) }, "StalenessAlpha"},
		{"NaN deadline", func(c *sim.Config) { c.Mode = sim.ModeSemiAsync; c.AggregateDeadlineSec = math.NaN() }, "AggregateDeadlineSec"},
		{"infinite deadline", func(c *sim.Config) { c.Mode = sim.ModeSemiAsync; c.AggregateDeadlineSec = math.Inf(1) }, "AggregateDeadlineSec"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mut(&cfg)
			_, err := sim.NewEngine(cfg)
			var ce *sim.ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("NewEngine error = %v, want ConfigError", err)
			}
			if ce.Field != tc.field {
				t.Errorf("ConfigError.Field = %q, want %q", ce.Field, tc.field)
			}
		})
	}
}

// TestAsyncRoundAllocs pins the zero-alloc steady state of the async
// population round on one shard, as in TestPopulationRoundAllocs. The
// long warmup lets the flight table and arrival buffer grow to their
// steady-state capacity.
func TestAsyncRoundAllocs(t *testing.T) {
	cfg := asyncPopConfig(t, sim.ModeAsync, 2000, 512, 3)
	if avg := steadyRoundAllocs(t, 1, cfg, policy.NewRandom(9), 20); avg != 0 {
		t.Errorf("steady-state async round allocates %v objects, want 0", avg)
	}
}
