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
// population/4096 summary words, never a pass over per-device state.
//
// Determinism is by construction: every per-device draw comes from a
// stream keyed by rng.Mix(seedBase, round, deviceIndex), so results
// are a pure function of the config — independent of shard count,
// GOMAXPROCS, and goroutine scheduling. The parallel observe pass just
// partitions the candidate range across min(GOMAXPROCS, 16) shards.
// It runs on the engine's persistent observe workers, one per shard,
// started at the first fanned-out observe (observePool). Once the
// shards join, worker 0 draws the next round's candidate pool while
// the caller finishes the round, and the next observe takes that pool.
// The sampler's stream feeds nothing else, so its draws come in the
// same order as when each observe draws its own pool, and no output
// byte depends on which goroutine made them.
//
// At a million devices the observe pass is memory-bound, and two rules
// keep it memory-parallel. Each shard fills its rows in two passes
// (fillView): a gather pass that only loads per-device state, so the
// cache misses of many candidates overlap, then a draw pass that does
// the keyed RNG work on the gathered rows. And per-shard state written
// on every draw never shares a cache line with another shard's: the
// generators are rng.Reseedable, padded to a 128-aligned 128 B each.
// The view rows a shard writes are one contiguous range, so only the
// line at each range boundary is shared.

import (
	"math"
	"runtime"

	"autofl/internal/data"
	"autofl/internal/device"
	"autofl/internal/network"
	"autofl/internal/rng"
)

// popShardMin is the candidate-pool size below which the observe pass
// stays serial on the calling goroutine: handing the rows to the
// observe workers and waiting for them costs more than the loop.
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

	// pool is the persistent observe workers, nil until the first
	// fanned-out observe. next is the spare candidate buffer worker 0
	// draws the next round's pool into while pool.drawing.
	pool *observePool
	next []int32

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
	shards := min(runtime.GOMAXPROCS(0), 16)
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
		c.Workload.Dataset.Classes, c.Workload.Dataset.SamplesPerDevice)
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
	switch {
	case p.pool != nil && p.pool.drawing:
		// Worker 0 drew this round's pool during the last round's
		// tail; the spare takes the buffer this round no longer needs.
		p.pool.joinDraw()
		cand, p.next = p.next, cand
	case k < p.n:
		// Ascending global order: deterministic, cache-friendly, and
		// stable for positional policy state (tie priorities, pools).
		p.sampler.SampleInto(p.sampleRng, cand)
	default:
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
	if p.shards <= 1 || k < popShardMin {
		e.fillView(0, 0, k, round, cand, devs, dd, devices)
		return &sc.ctx
	}
	if p.pool == nil {
		p.pool = newObservePool(e, p.shards)
	}
	p.pool.fill(e, round, cand, devs, dd, devices)
	if k < p.n {
		// Only now, with the shards joined, so the draw does not
		// compete with them for the cores.
		if p.next == nil {
			p.next = make([]int32, k)
		}
		p.pool.startDraw(e)
	}
	return &sc.ctx
}

// observePool is an engine's persistent observe workers, one per
// shard. Worker i fills shard i's view rows in every fanned-out
// observe; after the join, worker 0 draws the next round's candidate
// pool into popState.next while the caller runs the rest of the round.
//
// Only the observing goroutine dispatches: it writes worker i's task,
// sends on req[i], and receives one done per task, so each task is
// ordered before and after its run. A worker clears its task when it
// finishes, so an idle worker holds no engine: the cleanup
// newObservePool registers on the Engine closes req once the engine is
// collected, and the workers exit.
type observePool struct {
	tasks []observeTask
	req   []chan struct{}
	// done has room for one signal per worker, the most that can be
	// outstanding, so a worker never blocks on it.
	done chan struct{}
	// drawing reports that worker 0 has a candidate-pool draw in
	// flight, not yet joined.
	drawing bool
}

// observeTask is one dispatch to a worker: the fill of view rows
// [lo, hi) with shard's generator, or, when draw is set, the draw of
// the next round's candidate pool.
type observeTask struct {
	e                    *Engine
	draw                 bool
	shard, lo, hi, round int
	cand                 []int32
	devs                 []device.Device
	dd                   []data.DeviceData
	devices              []DeviceState
}

func newObservePool(e *Engine, workers int) *observePool {
	pl := &observePool{
		tasks: make([]observeTask, workers),
		req:   make([]chan struct{}, workers),
		done:  make(chan struct{}, workers),
	}
	for i := range pl.req {
		pl.req[i] = make(chan struct{}, 1)
		go observeWorker(&pl.tasks[i], pl.req[i], pl.done)
	}
	runtime.AddCleanup(e, func(req []chan struct{}) {
		for _, c := range req {
			close(c)
		}
	}, pl.req)
	return pl
}

// observeWorker runs its task once per request until req is closed.
func observeWorker(t *observeTask, req <-chan struct{}, done chan<- struct{}) {
	for range req {
		if t.draw {
			p := t.e.pop
			p.sampler.SampleInto(p.sampleRng, p.next)
		} else {
			t.e.fillView(t.shard, t.lo, t.hi, t.round, t.cand, t.devs, t.dd, t.devices)
		}
		*t = observeTask{}
		done <- struct{}{}
	}
}

// fill partitions the view rows across the workers and waits for them.
// Every shard is non-empty: the pool runs only for k >= popShardMin,
// which exceeds the at most 16 shards.
func (pl *observePool) fill(e *Engine, round int, cand []int32, devs []device.Device, dd []data.DeviceData, devices []DeviceState) {
	n, k := len(pl.tasks), len(cand)
	for i := range pl.tasks {
		pl.tasks[i] = observeTask{
			e: e, shard: i, lo: k * i / n, hi: k * (i + 1) / n, round: round,
			cand: cand, devs: devs, dd: dd, devices: devices,
		}
		pl.req[i] <- struct{}{}
	}
	for range pl.tasks {
		<-pl.done
	}
}

// startDraw hands worker 0 the next round's candidate-pool draw and
// returns without waiting; joinDraw waits for it.
func (pl *observePool) startDraw(e *Engine) {
	pl.tasks[0] = observeTask{e: e, draw: true}
	pl.req[0] <- struct{}{}
	pl.drawing = true
}

func (pl *observePool) joinDraw() {
	<-pl.done
	pl.drawing = false
}

// fillView fills candidate-view rows [lo, hi) of the round's context,
// drawing each device's observation from its (round, device)-keyed
// stream via the shard's reseedable generator. Rows are index-disjoint
// across shards, so parallel fills never race.
//
// It runs in two passes over the rows. The gather pass only loads:
// each candidate's partition record, hardware spec and, when async,
// staleness. Those loads are scattered over multi-megabyte arrays and
// independent of one another, so in a tight loop their cache misses
// overlap. Interleaved with the draws, about 100 ns of RNG work would
// sit between one candidate's misses and the next's, more than the
// out-of-order window spans, and the misses would run one after
// another. The draw pass then does the keyed draws (network first,
// then interference, as each device's stream fixes) and the battery
// observe.
func (e *Engine) fillView(shard, lo, hi, round int, cand []int32, devs []device.Device, dd []data.DeviceData, devices []DeviceState) {
	p := e.pop
	for v := lo; v < hi; v++ {
		g := int(cand[v])
		devs[v] = device.Device{ID: g, Spec: p.pop.Spec(g)}
		dd[v] = data.DeviceData{
			ClassFraction: float64(p.part.ClassFrac[g]),
			Samples:       int(p.part.Samples[g]),
			Quality:       float64(p.part.Quality[g]),
		}
		devices[v] = DeviceState{Device: &devs[v], Data: &dd[v]}
		if e.async != nil {
			// Reads only: async bookkeeping mutates lastStale during
			// aggregation, never during the parallel observe pass.
			devices[v].Staleness = int(e.async.lastStale[g])
		}
	}
	rs := p.shardRng[shard]
	for v := lo; v < hi; v++ {
		g := int(cand[v])
		st := rs.Seed(rng.Mix(p.envSeed, uint64(round), uint64(g)))
		ds := &devices[v]
		ds.BandwidthMbps = e.cfg.Env.Network.Sample(st)
		ds.Load = e.cfg.Env.Interference.Sample(st)
		ds.Signal = network.SignalFor(ds.BandwidthMbps)
		if e.batt != nil {
			// Candidate indices are distinct and shard-partitioned, so
			// the per-device settle mutation never races.
			e.observeBattery(ds, g, devs[v].Spec.IdleWatts())
		}
	}
}

// PackedData exposes the static device data partition.
func (e *Engine) PackedData() *data.Packed { return e.pop.part }

// PopulationMemoryBytes is the resident per-device state of the
// engine: the packed partition, the participation memory, the
// last-action record, the cumulative-energy accumulator, and the
// sampler's membership set (one bit per device, plus its summary).
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
