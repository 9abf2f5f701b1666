package core

import (
	"autofl/internal/device"
	"autofl/internal/qlearn"
	"autofl/internal/rng"
	"autofl/internal/sim"
)

// DVFS levels exposed as second-level actions. The paper augments the
// execution-target action with the device's V/F steps; three coarse
// levels per target keep the Q-tables compact while spanning the
// energy-relevant range of the ladder (the energy-optimal operating
// point sits in the interior — see internal/device tests).
var dvfsLevels = [...]float64{0.45, 0.70, 1.00}

// numActions is the size of the controller's action index space: the 2
// targets × 3 DVFS levels. Index a is target a/len(dvfsLevels) (CPU,
// then GPU) at level a%len(dvfsLevels). BestAt breaks ties to the lowest
// index and exploration draws IntN(numActions), so this order is part
// of every simulated result.
const numActions = device.NumTargets * len(dvfsLevels)

// decodeAction maps an action index to a concrete (target, step) for a
// given device spec.
func decodeAction(a int, spec *device.Spec) (device.Target, int) {
	target := device.Target(a / len(dvfsLevels))
	step := int(dvfsLevels[a%len(dvfsLevels)]*float64(spec.Proc(target).TopStep()) + 0.5)
	return target, step
}

// Options configures the AutoFL controller.
type Options struct {
	// Epsilon is the exploration probability (paper default 0.1).
	Epsilon float64
	// LearningRate is γ of Algorithm 1 (paper default 0.9).
	LearningRate float64
	// Discount is µ of Algorithm 1 (paper default 0.1).
	Discount float64
	// Alpha and Beta weight the accuracy and accuracy-improvement
	// reward terms of Eq (7).
	Alpha, Beta float64
	// FairnessWeight scales an energy-fairness extension to the Eq (7)
	// reward: each participant is additionally credited with its state
	// of charge (sim.DeviceState.Battery), so under a battery model the
	// controller learns to rotate load toward charged devices instead
	// of re-draining the same cohort. Zero — the default — leaves the
	// published reward untouched; without a battery model the term is
	// constant across devices and the advantage baseline cancels it.
	FairnessWeight float64
	// SharedTables keys Q-tables by device performance category
	// instead of device identity (§4 "Scalability", Fig 15): faster
	// reward convergence at a small prediction-accuracy cost.
	SharedTables bool
	// Buckets discretize the continuous state features; zero value
	// selects Table 1 defaults.
	Buckets *Buckets
	// Seed drives exploration and tie-breaking.
	Seed uint64
}

// DefaultOptions returns the paper's hyperparameters.
func DefaultOptions(seed uint64) Options {
	return Options{
		Epsilon:      qlearn.DefaultEpsilon,
		LearningRate: qlearn.DefaultLearningRate,
		Discount:     qlearn.DefaultDiscount,
		Alpha:        0.05,
		Beta:         2.0,
		Seed:         seed,
	}
}

// Controller is the AutoFL policy. It implements sim.FeedbackPolicy.
//
// The decision hot path is allocation-free in steady state: states are
// packed qlearn.StateKeys (StateCoder), Q-tables are dense slices
// (qlearn.Dense), and every per-round structure — state keys, the
// device ranking, the selection list, the pending (S, A, R) record —
// lives in controller-owned buffers reused across rounds.
type Controller struct {
	opts    Options
	buckets Buckets
	coder   StateCoder
	explore *rng.Stream

	// slots holds each Q-learning agent with its value prior, indexed
	// by device ID, or by performance category with SharedTables. A
	// slot with a nil table has not been used yet.
	slots []agentSlot

	// Pending round bookkeeping: one round's (S, A) pairs held until
	// the next round's observation provides (S', A') for the Algorithm
	// 1 update. Parallel slices in selection order, reused across
	// rounds.
	pendIdx     []int // selected device indices
	pendKey     []qlearn.StateKey
	pendAct     []int8 // action indices
	pendReward  []float64
	havePending bool
	pendReady   bool // reward computed

	// tiePriority breaks Q-value ties between devices. It is random —
	// avoiding the biased selection §4.2 warns about — but drawn once
	// per controller, so equally-valued devices keep a consistent
	// order: the learned cohort stays stable round over round, which
	// is what lets FedAvg converge on its union data distribution
	// under heavy non-IID populations. Drawn lazily on first use,
	// indexed by device.
	tiePriority []float64
	tieDrawn    []bool

	// Reference energies anchor the Eq (7) energy terms to a unitless
	// scale; initialized from the first observed round.
	refGlobalEnergy float64
	refLocalEnergy  float64

	// stallStreak counts consecutive rounds without accuracy
	// improvement. Eq (7)'s hard stalled branch applies only once the
	// streak passes stallPatience: a single noisy round must not
	// collapse the learned ranking (which would churn the cohort and
	// prevent the stable selection FedAvg needs under non-IID data),
	// while a genuine plateau still triggers the shake-up the branch
	// exists for.
	stallStreak int

	rewardTrace []float64

	// Reusable round buffers (sized to the fleet on first Select; the
	// ranking holds the top K only).
	keys    []qlearn.StateKey
	ranked  []ranked
	selBuf  []sim.Selection
	permBuf []int

	// Decision bookkeeping for prediction-accuracy analysis (Fig 12).
	lastExplored bool
}

// New builds an AutoFL controller.
func New(opts Options) *Controller {
	if opts.Epsilon == 0 && opts.LearningRate == 0 && opts.Discount == 0 {
		opts = DefaultOptions(opts.Seed)
	}
	b := DefaultBuckets()
	if opts.Buckets != nil {
		b = *opts.Buckets
	}
	return &Controller{
		opts:    opts,
		buckets: b,
		coder:   NewStateCoder(b),
		explore: rng.New(opts.Seed ^ 0xa07f1),
	}
}

// agentSlot is one Q-learning agent: its Q-table, its exploration
// stream, and its value prior.
type agentSlot struct {
	table   *qlearn.Dense
	explore *rng.Stream
	// value is an exponential moving average of the slot's rewards,
	// used as the initialization prior for its Q-table rows:
	// device-constant traits (data quality, hardware efficiency)
	// generalize across the runtime-variance states, instead of a
	// punished device looking neutral again the moment its co-runner
	// bucket flips.
	value float64
}

// Name implements sim.Policy.
func (c *Controller) Name() string { return "AutoFL" }

// RewardTrace returns the mean per-round reward history (Fig 15).
func (c *Controller) RewardTrace() []float64 { return c.rewardTrace }

// Explored reports whether the most recent Select was an exploration
// round.
func (c *Controller) Explored() bool { return c.lastExplored }

// MemoryBytes estimates the controller's Q-table footprint (§6.4).
func (c *Controller) MemoryBytes() int {
	total := 0
	for _, s := range c.slots {
		if s.table != nil {
			total += s.table.MemoryBytes()
		}
	}
	return total
}

// agentFor returns the Q-learning agent for a device, creating it on
// first use. With SharedTables, devices of the same performance
// category share one agent. The pointer is valid until the next
// agentFor call, which may grow c.slots.
func (c *Controller) agentFor(ds *sim.DeviceState) *agentSlot {
	key := c.slotIndex(ds)
	if key >= len(c.slots) {
		c.slots = append(c.slots, make([]agentSlot, key+1-len(c.slots))...)
	}
	s := &c.slots[key]
	if s.table == nil {
		// Informed prior: the FL protocol reports each device's
		// data-class count to the server (paper footnote 3), and class
		// coverage is the single strongest predictor of a device's
		// usefulness under data heterogeneity (§3.3). Seeding the
		// value prior with it gives the ranking a sensible starting
		// order that reward feedback then corrects for energy,
		// interference and network behaviour. The scale matches a
		// typical improving-round reward.
		s.value = 0.5 * ds.Data.ClassFraction
		// Fork order is part of every simulated result: table init
		// first, exploration second.
		s.table = qlearn.NewDense(numActions, c.explore.Fork())
		s.explore = c.explore.Fork()
		// Index on every call: growing c.slots moves the slot.
		s.table.Init = func() float64 { return c.slots[key].value }
	}
	return s
}

// slotIndex returns the index of the device's agent slot.
func (c *Controller) slotIndex(ds *sim.DeviceState) int {
	if c.opts.SharedTables {
		return int(ds.Device.Category())
	}
	return ds.Device.ID
}

// ensureFleet sizes the reusable per-device buffers.
func (c *Controller) ensureFleet(n int) {
	if cap(c.keys) < n {
		c.keys = make([]qlearn.StateKey, n)
		c.permBuf = make([]int, n)
		tp := make([]float64, n)
		copy(tp, c.tiePriority)
		td := make([]bool, n)
		copy(td, c.tieDrawn)
		c.tiePriority, c.tieDrawn = tp, td
	}
	c.keys = c.keys[:n]
	c.permBuf = c.permBuf[:n]
	c.tiePriority = c.tiePriority[:n]
	c.tieDrawn = c.tieDrawn[:n]
}

// stage records one selected device's (S, A) pair for the next round's
// value update.
func (c *Controller) stage(idx int, key qlearn.StateKey, act int) {
	c.pendIdx = append(c.pendIdx, idx)
	c.pendKey = append(c.pendKey, key)
	c.pendAct = append(c.pendAct, int8(act))
}

// Select implements Algorithm 1's decision step: with probability ε
// pick K random participants and random actions; otherwise rank
// devices by Q(S_global, S_local, A) and take the top K with their
// argmax actions. It also completes the previous round's value update,
// for which this round's states provide (S', A').
//
// The returned slice is a controller-owned buffer, valid until the
// next Select call.
func (c *Controller) Select(ctx *sim.RoundContext) []sim.Selection {
	n := len(ctx.Devices)
	c.ensureFleet(n)

	global := c.coder.GlobalKey(ctx.Workload, ctx.Params)
	for i := range ctx.Devices {
		c.keys[i] = c.coder.Key(global, &ctx.Devices[i])
	}

	c.completePendingUpdate(ctx)

	c.pendIdx = c.pendIdx[:0]
	c.pendKey = c.pendKey[:0]
	c.pendAct = c.pendAct[:0]
	c.pendReward = c.pendReward[:0]
	c.havePending = true
	c.pendReady = false
	selections := c.selBuf[:0]

	c.lastExplored = c.explore.Bool(c.opts.Epsilon)
	if c.lastExplored {
		// Exploration: uniform random participants and actions.
		k := ctx.Params.K
		if k > n {
			k = n
		}
		c.explore.PermInto(c.permBuf)
		for _, i := range c.permBuf[:k] {
			action := c.agentFor(&ctx.Devices[i]).explore.IntN(numActions)
			target, step := decodeAction(action, ctx.Devices[i].Device.Spec)
			selections = append(selections, sim.Selection{Index: i, Target: target, Step: step})
			c.stage(i, c.keys[i], action)
		}
		c.selBuf = selections
		return selections
	}

	// Exploitation: rank all devices by their best Q-value, keeping
	// only the top K. Touch pins each state's row materialization to
	// the decision step, so pure reads elsewhere never perturb the
	// init stream.
	k := min(ctx.Params.K, n)
	if cap(c.ranked) < k {
		c.ranked = make([]ranked, 0, k)
	}
	top := c.ranked[:0]
	for i := range ctx.Devices {
		table := c.agentFor(&ctx.Devices[i]).table
		action, value := table.BestAt(table.Touch(c.keys[i]))
		top = insertTopK(top, k, ranked{idx: i, value: value, tie: c.tieFor(i), action: int8(action)})
	}

	for _, r := range top {
		target, step := decodeAction(int(r.action), ctx.Devices[r.idx].Device.Spec)
		selections = append(selections, sim.Selection{Index: r.idx, Target: target, Step: step})
		c.stage(r.idx, c.keys[r.idx], int(r.action))
	}
	c.selBuf = selections
	return selections
}

// ranked is one device's standing in the exploitation ranking.
type ranked struct {
	idx    int
	value  float64
	tie    float64
	action int8
}

// tieFor returns the device's stable random tie-break priority,
// drawing it on first use.
func (c *Controller) tieFor(idx int) float64 {
	if !c.tieDrawn[idx] {
		c.tiePriority[idx] = c.explore.Float64()
		c.tieDrawn[idx] = true
	}
	return c.tiePriority[idx]
}

// before reports whether a ranks strictly ahead of b: descending by
// value, then by tie priority.
func (a ranked) before(b ranked) bool {
	if a.value != b.value {
		return a.value > b.value
	}
	return a.tie > b.tie
}

// insertTopK adds r to top, a buffer of at most k entries ordered by
// before, and returns the buffer. An entry that ties with one already
// held goes after it, so feeding a ranking in order leaves top equal to
// the first k entries of its stable sort — at O(k) per entry that
// makes the cut, O(1) for the rest.
func insertTopK(top []ranked, k int, r ranked) []ranked {
	if len(top) == k {
		if k == 0 || !r.before(top[k-1]) {
			return top
		}
		top = top[:k-1]
	}
	j := len(top)
	top = append(top, r)
	for ; j > 0 && r.before(top[j-1]); j-- {
		top[j] = top[j-1]
	}
	top[j] = r
	return top
}

// Feedback implements the measurement step: compute the Eq (5)–(7)
// reward for every participant and stage it; the Q update completes at
// the next Select when (S', A') is known.
func (c *Controller) Feedback(ctx *sim.RoundContext, res *sim.RoundResult) {
	if !c.havePending {
		return
	}
	if c.refGlobalEnergy == 0 {
		// Anchor the energy scale to the first observed round.
		c.refGlobalEnergy = res.EnergyJ
		n := 0
		for i := range res.Devices {
			if res.Devices[i].Selected {
				n++
			}
		}
		if n > 0 {
			c.refLocalEnergy = res.ParticipantEnergyJ / float64(n)
		}
		if c.refGlobalEnergy == 0 {
			c.refGlobalEnergy = 1
		}
		if c.refLocalEnergy == 0 {
			c.refLocalEnergy = 1
		}
	}

	accuracy := res.Accuracy * 100
	deltaAcc := (res.Accuracy - res.PrevAccuracy) * 100
	globalTerm := res.EnergyJ / c.refGlobalEnergy

	if deltaAcc <= 0 {
		c.stallStreak++
	} else {
		c.stallStreak = 0
	}
	// stallPatience is the hysteresis on Eq (7)'s stalled branch: see
	// the stallStreak field comment.
	const stallPatience = 3
	plateaued := c.stallStreak >= stallPatience

	c.pendReward = c.pendReward[:0]
	sum, n := 0.0, 0
	for _, idx := range c.pendIdx {
		var r float64
		switch {
		case res.Devices[idx].UpdateFraction == 0:
			// The device missed the straggler deadline: its action
			// contributed nothing to accuracy, so it takes the Eq (7)
			// stalled branch individually.
			r = accuracy - 100
		case deltaAcc <= 0 && plateaued:
			// Eq (7), stalled branch: distance from perfect accuracy,
			// strongly discouraging the actions that produced a
			// sustained plateau. The punishment is skewed by class
			// coverage — concentrated-data devices are the likeliest
			// cause of the drift plateau — so repeated sweeps leave
			// the Q-ranking ordered by coverage and the next cohort
			// is the one that can escape it.
			skew := 1 + 0.5*(1-ctx.Devices[idx].Data.ClassFraction)
			r = (accuracy - 100) * skew
		default:
			local := res.Devices[idx].EnergyJ / c.refLocalEnergy
			// The improvement credit is attributed per device, scaled
			// by its reported class coverage: the FL protocol already
			// ships each device's data-class count to the server
			// (paper footnote 3), and a device holding most classes
			// contributed more to an unbiased aggregate than a
			// single-class one. This is what lets the Q-tables
			// separate high- from low-coverage devices instead of
			// waiting for the (weak) round-composition covariance.
			credit := 0.25 + 0.75*ctx.Devices[idx].Data.ClassFraction
			r = -globalTerm - local + c.opts.Alpha*accuracy + c.opts.Beta*deltaAcc*credit
			if c.opts.FairnessWeight != 0 {
				// Energy-fairness extension: credit charge headroom.
				// Only the per-device differences survive the advantage
				// baseline below, so this steers *which* devices are
				// picked, not the overall reward level.
				r += c.opts.FairnessWeight * ctx.Devices[idx].Battery
			}
		}
		c.pendReward = append(c.pendReward, r)
		sum += r
		n++
	}
	c.pendReady = true
	if n > 0 {
		c.rewardTrace = append(c.rewardTrace, sum/float64(n))
	}

	// Center the stored rewards on the round mean (an advantage
	// baseline): the terms shared by every participant — global
	// energy, absolute accuracy, the improvement level — cancel, so
	// the Q-ranking is driven purely by per-device differentiation
	// (energy draw, drop penalties, class-coverage credit). Without
	// the baseline, merely having participated in a good round lifts a
	// device above everyone idle, and selection degenerates into
	// incumbency.
	if n > 0 {
		mean := sum / float64(n)
		const valueEMA = 0.05
		for j, idx := range c.pendIdx {
			c.pendReward[j] -= mean
			s := &c.slots[c.slotIndex(&ctx.Devices[idx])]
			// The prior EMA moves slowly: single noisy rounds must
			// not reshuffle the device ranking.
			s.value = (1-valueEMA)*s.value + valueEMA*c.pendReward[j]
		}
	}
}

// completePendingUpdate applies the Algorithm 1 update for the
// previous round using this round's states as S' and the greedy
// actions as A'. S' is touched before S: that order decides which
// first-visit row draws its init values first.
func (c *Controller) completePendingUpdate(ctx *sim.RoundContext) {
	if !c.havePending || !c.pendReady {
		return
	}
	for j, idx := range c.pendIdx {
		table := c.agentFor(&ctx.Devices[idx]).table
		rowNext := table.Touch(c.keys[idx])
		aNext, _ := table.BestAt(rowNext)
		rowS := table.Touch(c.pendKey[j])
		table.UpdateAt(rowS, int(c.pendAct[j]), c.pendReward[j],
			rowNext, aNext, c.opts.LearningRate, c.opts.Discount)
	}
	c.havePending = false
	c.pendReady = false
}

// Compile-time interface checks.
var (
	_ sim.Policy         = (*Controller)(nil)
	_ sim.FeedbackPolicy = (*Controller)(nil)
)
