package sim

// This file is the per-device half of the engine's state: what the
// round bodies (runRound in sim.go, runRoundAsync in async.go) read
// about the device population. The population is an archetype table
// plus packed struct-of-arrays per-device state (~38 bytes/device
// resident). Each round draws a Sample-candidate pool already in
// ascending device order, with Floyd's subset sampler over a
// one-bit-per-device set — or, when Sample covers the whole
// population, takes every device in index order with no draw — and
// presents policies a candidate-sized RoundContext view, so the whole
// round is O(Sample + participants) plus the sampler's scan of
// population/64 words, never a pass over per-device state.
//
// Determinism is by construction: every per-device draw comes from a
// stream keyed by rng.Mix(seedBase, round, deviceIndex), so results
// are a pure function of the config — independent of shard count,
// goroutine scheduling, and the Shards setting. The parallel observe
// pass just partitions the candidate range.

import (
	"math"
	"runtime"
	"sync"

	"autofl/internal/data"
	"autofl/internal/device"
	"autofl/internal/network"
	"autofl/internal/rng"
)

// popShardMin is the candidate-pool size below which the observe pass
// stays serial: spawning shard goroutines costs more than the loop.
const popShardMin = 1024

// popState is the engine's population state: the cohort fleet, the
// packed partition, the per-device dynamic arrays, and the keyed
// RNG machinery. All per-device arrays are struct-of-arrays, indexed
// by the population's dense device index.
type popState struct {
	pop    *device.Population
	part   *data.Packed
	n      int
	sample int
	shards int
	// fleetIdle is the population-wide idle draw, O(archetypes) once.
	fleetIdle float64

	// sampler draws the per-round candidate pool in ascending order;
	// sampleRng feeds it.
	sampler   *rng.Sampler
	sampleRng *rng.Stream
	// envSeed/actSeed key the per-(round, device) observation and
	// post-selection ("actual" co-runner) streams.
	envSeed, actSeed uint64
	shardRng         []*rng.Reseedable // one per shard, reseeded per device
	actRng           *rng.Reseedable

	// Packed per-device dynamic state.
	// emaW/emaRound are the lazily-decayed participation memory of the
	// convergence model's stability term: the stored weight as of the
	// round it was last updated, decayed on read, so a round costs
	// O(participants) rather than a sweep over every device.
	emaW     []float32
	emaRound []int32
	// lastStep/lastTarget record each device's most recent executed
	// DVFS action (-1 step = never selected).
	lastStep   []int8
	lastTarget []int8
	// extraJ accumulates each device's energy above the always-idle
	// baseline; idleSec integrates round time so DeviceSnapshot can
	// reconstruct exact cumulative energy in O(1) per device.
	extraJ  []float64
	idleSec float64
}

func newPopState(c *Config, partRng, envRng, root *rng.Stream) *popState {
	n := c.Population.Len()
	shards := c.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
		if shards > 16 {
			shards = 16
		}
	}
	p := &popState{
		pop:        c.Population,
		n:          n,
		sample:     c.Sample,
		shards:     shards,
		fleetIdle:  c.Population.IdleWatts(),
		sampler:    rng.NewSampler(n),
		sampleRng:  root.Fork(),
		envSeed:    envRng.Uint64(),
		actSeed:    envRng.Uint64(),
		actRng:     rng.NewReseedable(),
		emaW:       make([]float32, n),
		emaRound:   make([]int32, n),
		lastStep:   make([]int8, n),
		lastTarget: make([]int8, n),
		extraJ:     make([]float64, n),
	}
	for i := range p.lastStep {
		p.lastStep[i] = -1
	}
	for i := 0; i < shards; i++ {
		p.shardRng = append(p.shardRng, rng.NewReseedable())
	}
	partition := data.PackedPartition
	if p.sample == n {
		// The exhaustive population is the testbed itself (the paper's
		// 200 devices by default): it holds exactly the scenario's
		// non-IID fraction.
		partition = data.ExactPackedPartition
	}
	p.part = partition(partRng.Uint64(), c.Data, n,
		c.Workload.Dataset.Classes, c.Workload.Dataset.SamplesPerDevice, shards)
	return p
}

// emaAt returns the device's participation weight at round t: the
// stored weight decayed once per elapsed round since its last update,
// and zero once it falls below 1e-6 (no recent participation).
func (p *popState) emaAt(g, t int) float64 {
	v := float64(p.emaW[g])
	if v == 0 {
		return 0
	}
	d := t - 1 - int(p.emaRound[g])
	if d > 0 {
		v *= math.Pow(emaDecay, float64(d))
	}
	if v < 1e-6 {
		return 0
	}
	return v
}

// emaBump folds round t's participation into the device's stored
// weight (decay-to-t plus the participation increment).
func (p *popState) emaBump(g, t int) {
	v := p.emaAt(g, t)*emaDecay + (1 - emaDecay)
	p.emaW[g] = float32(v)
	p.emaRound[g] = int32(t)
}

// observe draws this round's candidate pool and fills the scratch
// context with a candidate-sized view: ctx.Devices[v] describes global
// device sc.cand[v]. Policies run unchanged against the view — their
// selection indices are view positions; DeviceRound.Index carries the
// global index.
func (e *Engine) observe(sc *roundScratch, round int, accuracy float64) *RoundContext {
	p := e.pop
	k := p.sample

	cand := sc.cand
	if cap(cand) < k {
		cand = make([]int32, k)
	}
	cand = cand[:k]
	if k < p.n {
		// Ascending global order: deterministic, cache-friendly, and
		// stable for positional policy state (tie priorities, pools).
		p.sampler.SampleInto(p.sampleRng, cand)
	} else {
		// Every device is a candidate: the identity, which is exactly
		// what a full draw yields, without the draw.
		for v := range cand {
			cand[v] = int32(v)
		}
	}
	sc.cand = cand

	devices := sc.ctx.Devices
	if cap(devices) < k {
		devices = make([]DeviceState, k)
	}
	devices = devices[:k]
	if cap(sc.devs) < k {
		sc.devs = make([]device.Device, k)
		sc.dd = make([]data.DeviceData, k)
	}
	devs, dd := sc.devs[:k], sc.dd[:k]
	sc.ctx = RoundContext{
		Round:     round,
		Accuracy:  accuracy,
		Workload:  e.cfg.Workload,
		Params:    e.cfg.Params,
		Devices:   devices,
		cfg:       &e.cfg,
		fleetIdle: p.fleetIdle,
	}
	// Serial below the threshold — and through a named method, not a
	// closure, so the steady-state round stays allocation-free.
	if p.shards <= 1 || k < popShardMin {
		e.fillView(0, 0, k, round, cand, devs, dd, devices)
	} else {
		var wg sync.WaitGroup
		for i := 0; i < p.shards; i++ {
			lo, hi := k*i/p.shards, k*(i+1)/p.shards
			if lo == hi {
				continue
			}
			wg.Add(1)
			// Everything but wg and e rides in as arguments: a captured
			// local would heap-escape on the serial path too.
			go func(shard, lo, hi, round int, cand []int32, devs []device.Device, dd []data.DeviceData, devices []DeviceState) {
				defer wg.Done()
				e.fillView(shard, lo, hi, round, cand, devs, dd, devices)
			}(i, lo, hi, round, cand, devs, dd, devices)
		}
		wg.Wait()
	}
	return &sc.ctx
}

// fillView fills candidate-view rows [lo, hi) of the round's context,
// drawing each device's observation from its (round, device)-keyed
// stream via the shard's reseedable generator. Rows are index-disjoint
// across shards, so parallel fills never race.
func (e *Engine) fillView(shard, lo, hi, round int, cand []int32, devs []device.Device, dd []data.DeviceData, devices []DeviceState) {
	p := e.pop
	rs := p.shardRng[shard]
	for v := lo; v < hi; v++ {
		g := int(cand[v])
		st := rs.Seed(rng.Mix(p.envSeed, uint64(round), uint64(g)))
		bw := e.cfg.Env.Network.Sample(st)
		load := e.cfg.Env.Interference.Sample(st)
		devs[v] = device.Device{ID: g, Spec: p.pop.Spec(g)}
		dd[v] = data.DeviceData{
			ClassFraction: float64(p.part.ClassFrac[g]),
			Samples:       int(p.part.Samples[g]),
			Quality:       float64(p.part.Quality[g]),
		}
		devices[v] = DeviceState{
			Device:        &devs[v],
			Load:          load,
			BandwidthMbps: bw,
			Signal:        network.SignalFor(bw),
			Data:          &dd[v],
		}
		if e.async != nil {
			// Reads only: async bookkeeping mutates lastStale during
			// aggregation, never during the parallel observe pass.
			devices[v].Staleness = int(e.async.lastStale[g])
		}
		if e.batt != nil {
			// Candidate indices are distinct and shard-partitioned, so
			// the per-device settle mutation never races.
			e.observeBattery(&devices[v], g, devs[v].Spec.IdleWatts())
		}
	}
}

// PackedData exposes the static device data partition.
func (e *Engine) PackedData() *data.Packed { return e.pop.part }

// PopulationMemoryBytes is the resident per-device state of the
// engine: the packed partition, the participation memory, the
// last-action record, the cumulative-energy accumulator, and the
// sampler's membership set (one bit per device).
func (e *Engine) PopulationMemoryBytes() int {
	p := e.pop
	perDevice := len(p.emaW)*4 + len(p.emaRound)*4 + len(p.lastStep) +
		len(p.lastTarget) + len(p.extraJ)*8 + p.sampler.MemoryBytes()
	if e.async != nil {
		// Asynchronous regimes add two packed bytes per device: the
		// busy flag and the last-staleness record.
		perDevice += len(e.async.busy) + len(e.async.lastStale)
	}
	if e.batt != nil {
		// The battery subsystem adds 12 bytes per device: the packed
		// charge/settle-time pair plus the participation count.
		perDevice += e.batt.model.MemoryBytes() + len(e.batt.partCount)*4
	}
	return p.part.MemoryBytes() + perDevice
}

// DeviceSnapshot reports per-device dynamic state: the last executed
// action (step -1 if the device was never selected) and the device's
// exact cumulative energy over all executed rounds, reconstructed in
// O(1) from the packed accumulators. ok is false only for out-of-range
// indices.
func (e *Engine) DeviceSnapshot(i int) (step int, target device.Target, energyJ float64, ok bool) {
	p := e.pop
	if i < 0 || i >= p.n {
		return 0, 0, 0, false
	}
	idle := p.pop.Spec(i).IdleWatts() * p.idleSec
	return int(p.lastStep[i]), device.Target(p.lastTarget[i]), p.extraJ[i] + idle, true
}
