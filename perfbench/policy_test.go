package main

import (
	"slices"
	"testing"

	"autofl/internal/core"
	"autofl/internal/policy"
	"autofl/internal/sim"
)

// fake is a policy whose optional interfaces are attached by the
// embedding halves below, so every combination can be built.
type (
	fake         struct{ feedbacks int }
	fakeFeedback struct{ f *fake }
	fakeTraits   struct{}
	fakeRewards  struct{}
)

func (f *fake) Name() string { return "fake" }

func (f *fake) Select(*sim.RoundContext) []sim.Selection { return []sim.Selection{{Index: 1}} }

func (h fakeFeedback) Feedback(*sim.RoundContext, *sim.RoundResult) { h.f.feedbacks++ }

func (fakeTraits) Traits() sim.AggregationTraits {
	return sim.AggregationTraits{DivergenceDamping: 0.5}
}

func (fakeRewards) RewardTrace() []float64 { return []float64{0.25} }

// optional reports which of the engine's optional interfaces p has.
func optional(p sim.Policy) [3]bool {
	_, fb := p.(sim.FeedbackPolicy)
	_, tt := p.(sim.TraitsPolicy)
	_, rt := p.(interface{ RewardTrace() []float64 })
	return [3]bool{fb, tt, rt}
}

func TestWrapPolicyForwardsExactlyTheWrappedInterfaces(t *testing.T) {
	f := &fake{}
	fb, tt, rt := fakeFeedback{f}, fakeTraits{}, fakeRewards{}
	all := []sim.Policy{
		f,
		struct {
			*fake
			fakeFeedback
		}{f, fb},
		struct {
			*fake
			fakeTraits
		}{f, tt},
		struct {
			*fake
			fakeRewards
		}{f, rt},
		struct {
			*fake
			fakeFeedback
			fakeTraits
		}{f, fb, tt},
		struct {
			*fake
			fakeFeedback
			fakeRewards
		}{f, fb, rt},
		struct {
			*fake
			fakeTraits
			fakeRewards
		}{f, tt, rt},
		struct {
			*fake
			fakeFeedback
			fakeTraits
			fakeRewards
		}{f, fb, tt, rt},
	}
	seen := map[[3]bool]bool{}
	for _, p := range all {
		want := optional(p)
		seen[want] = true
		tr := newTracer(16)
		w, tp := wrapPolicy(p, tr)
		if got := optional(w); got != want {
			t.Errorf("wrapped %v exposes %v", want, got)
			continue
		}
		tp.step = tr.begin("step", 3, -1)
		ctx := &sim.RoundContext{Round: 3}
		if sels := w.Select(ctx); len(sels) != 1 || sels[0].Index != 1 {
			t.Errorf("%v: Select returned %v", want, sels)
		}
		before := f.feedbacks
		if fp, ok := w.(sim.FeedbackPolicy); ok {
			fp.Feedback(ctx, &sim.RoundResult{})
			if f.feedbacks != before+1 {
				t.Errorf("%v: Feedback not forwarded", want)
			}
		}
		if t2, ok := w.(sim.TraitsPolicy); ok && t2.Traits().DivergenceDamping != 0.5 {
			t.Errorf("%v: Traits not forwarded", want)
		}
		if rp, ok := w.(interface{ RewardTrace() []float64 }); ok && !slices.Equal(rp.RewardTrace(), []float64{0.25}) {
			t.Errorf("%v: RewardTrace not forwarded", want)
		}
		if w.Name() != "fake" {
			t.Errorf("%v: Name = %q", want, w.Name())
		}
		tr.end(tp.step, 0)
		for _, s := range tr.recorded()[1:] {
			if s.Parent != 0 || s.Op != 3 {
				t.Errorf("%v: span %+v not under the step span", want, s)
			}
		}
	}
	if len(seen) != 8 {
		t.Fatalf("covered %d of 8 interface combinations", len(seen))
	}
}

func TestWrapPolicyKeepsTheRepositoryPolicies(t *testing.T) {
	for _, p := range []sim.Policy{
		policy.NewRandom(1),
		policy.NewBatteryWeighted(1),
		policy.NewFedNova(1), // TraitsPolicy: partial updates
		policy.NewFEDL(1),    // TraitsPolicy: divergence damping
		core.New(core.DefaultOptions(1)),
	} {
		w, _ := wrapPolicy(p, newTracer(1))
		if got, want := optional(w), optional(p); got != want {
			t.Errorf("%s: wrapped exposes %v, policy has %v", p.Name(), got, want)
		}
	}
	if got := optional(core.New(core.DefaultOptions(1))); got != [3]bool{true, false, true} {
		t.Fatalf("the AutoFL controller's interfaces changed to %v; update this test", got)
	}
}
