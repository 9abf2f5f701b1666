package main

import "autofl/internal/sim"

// tracedPolicy wraps a selection policy so that every Select and
// Feedback call is recorded as a span under the current round's step
// span. The engine discovers FeedbackPolicy, TraitsPolicy and the
// reward trace by type assertion, so wrapPolicy returns a value with
// exactly the optional methods the wrapped policy has: hiding Traits
// would turn FedNova and FEDL into plain FedAvg, and hiding Feedback
// would stop AutoFL from learning.
type tracedPolicy struct {
	p  sim.Policy
	tr *tracer
	// step is the span of the round being stepped; the caller sets it
	// before each Run.Step.
	step int32
}

func (w *tracedPolicy) Name() string { return w.p.Name() }

func (w *tracedPolicy) Select(ctx *sim.RoundContext) []sim.Selection {
	i := w.tr.begin("policy.select", int64(ctx.Round), w.step)
	sels := w.p.Select(ctx)
	w.tr.end(i, int64(len(sels)))
	return sels
}

// The optional-interface halves, each forwarding to the wrapped policy.
type (
	feedbackHalf struct{ w *tracedPolicy }
	traitsHalf   struct{ w *tracedPolicy }
	rewardsHalf  struct{ w *tracedPolicy }
)

func (h feedbackHalf) Feedback(ctx *sim.RoundContext, res *sim.RoundResult) {
	i := h.w.tr.begin("policy.feedback", int64(ctx.Round), h.w.step)
	h.w.p.(sim.FeedbackPolicy).Feedback(ctx, res)
	h.w.tr.end(i, 0)
}

func (h traitsHalf) Traits() sim.AggregationTraits { return h.w.p.(sim.TraitsPolicy).Traits() }

func (h rewardsHalf) RewardTrace() []float64 {
	return h.w.p.(interface{ RewardTrace() []float64 }).RewardTrace()
}

// wrapPolicy returns the traced form of p and its tracedPolicy core,
// whose step field the caller advances.
func wrapPolicy(p sim.Policy, tr *tracer) (sim.Policy, *tracedPolicy) {
	w := &tracedPolicy{p: p, tr: tr, step: -1}
	_, fb := p.(sim.FeedbackPolicy)
	_, tt := p.(sim.TraitsPolicy)
	_, rt := p.(interface{ RewardTrace() []float64 })
	f, t, r := feedbackHalf{w}, traitsHalf{w}, rewardsHalf{w}
	switch {
	case fb && tt && rt:
		return struct {
			*tracedPolicy
			feedbackHalf
			traitsHalf
			rewardsHalf
		}{w, f, t, r}, w
	case fb && tt:
		return struct {
			*tracedPolicy
			feedbackHalf
			traitsHalf
		}{w, f, t}, w
	case fb && rt:
		return struct {
			*tracedPolicy
			feedbackHalf
			rewardsHalf
		}{w, f, r}, w
	case tt && rt:
		return struct {
			*tracedPolicy
			traitsHalf
			rewardsHalf
		}{w, t, r}, w
	case fb:
		return struct {
			*tracedPolicy
			feedbackHalf
		}{w, f}, w
	case tt:
		return struct {
			*tracedPolicy
			traitsHalf
		}{w, t}, w
	case rt:
		return struct {
			*tracedPolicy
			rewardsHalf
		}{w, r}, w
	}
	return w, w
}
