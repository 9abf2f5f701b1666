// Package qlearn implements the tabular Q-learning machinery behind
// AutoFL (§4.2, Algorithm 1): a lookup-table value function over
// packed states and integer action indices (Dense), and the SARSA-style
// update rule
//
//	Q(S,A) ← Q(S,A) + γ [ R + µ·Q(S',A') − Q(S,A) ]
//
// where γ is the learning rate and µ the discount factor (the paper's
// notation; note γ is *not* the discount here). The paper selects
// γ = 0.9 and µ = 0.1 by sensitivity analysis (§5.3); those are the
// defaults. Epsilon-greedy exploration is the caller's: it owns the
// exploration stream and the action ordering.
package qlearn

// Default hyperparameters from the paper's sensitivity study (§5.3)
// and epsilon from footnote 6.
const (
	DefaultLearningRate = 0.9
	DefaultDiscount     = 0.1
	DefaultEpsilon      = 0.1
)
