// Package core implements AutoFL itself — the paper's contribution: a
// per-device Q-learning controller that, for every FL aggregation
// round, selects the K participant devices and each participant's
// execution target (CPU/GPU + DVFS level), maximizing energy
// efficiency subject to the accuracy requirement (§4).
//
// The controller plugs into the round engine as a sim.FeedbackPolicy:
// Select observes the Table 1 state features and ranks devices by
// their Q-values (Algorithm 1), Feedback computes the Eq (5)–(7)
// reward from the measured round and updates the Q-tables.
package core

import (
	"autofl/internal/dbscan"
	"autofl/internal/network"
	"autofl/internal/qlearn"
	"autofl/internal/sim"
	"autofl/internal/workload"
)

// Buckets holds the discretization boundaries for the continuous state
// features of Table 1. The defaults reproduce the table; the DBSCAN
// calibration pipeline (Calibrate*) can re-derive them from observed
// feature samples, which is how the paper obtained them.
type Buckets struct {
	// CoCPU and CoMem are boundaries over co-runner utilization in
	// [0, 1]. A zero observation is always the dedicated "none"
	// bucket, per Table 1.
	CoCPU []float64
	CoMem []float64
	// NetworkMbps separates "bad" from "regular" bandwidth.
	NetworkMbps []float64
	// DataFraction buckets the fraction of data classes present.
	DataFraction []float64
	// Staleness buckets the device's last applied-update staleness
	// (sim.DeviceState.Staleness) in the asynchronous aggregation
	// regimes. Nil collapses the feature to a single bucket — hand-built
	// Buckets keep their pre-async state space, and every synchronous
	// observation (staleness 0) lands in bucket 0 either way.
	Staleness []float64
	// Battery buckets the device's state of charge in [0, 1]
	// (sim.DeviceState.Battery) when a battery model is attached. Nil —
	// the default — collapses the feature to a single bucket, keeping
	// the pre-battery state space; battery-less runs observe charge 0
	// and land in bucket 0 either way.
	Battery []float64
}

// DefaultBuckets returns the Table 1 thresholds. S_Data carries one
// extra boundary (0.55) over the published table: Table 1's buckets
// were DBSCAN-derived from the paper's population, and re-running the
// same derivation on Dirichlet(0.1) populations (where most devices
// hold 2–5 of the classes) splits the wide "medium" band — without it
// the controller cannot rank partially-covered devices, which Fig 11's
// Non-IID(100%) result depends on.
func DefaultBuckets() Buckets {
	return Buckets{
		CoCPU:        []float64{0.25, 0.75},
		CoMem:        []float64{0.25, 0.75},
		NetworkMbps:  []float64{network.RegularBandwidthMbps},
		DataFraction: []float64{0.25, 0.55, 1.0},
		// fresh | 1 version | 2–3 versions | ancient. In sync runs
		// every device sits in bucket 0, so the extra digit never
		// splits a synchronous state.
		Staleness: []float64{1, 2, 4},
	}
}

// CalibrateCoUtilization derives co-runner utilization boundaries from
// a sample of observations using DBSCAN, the procedure §4.1 describes
// for converting continuous features into Q-table states.
func CalibrateCoUtilization(samples []float64) []float64 {
	b := dbscan.Discretize(samples, 0.02, 5)
	if len(b) == 0 {
		return DefaultBuckets().CoCPU
	}
	return b
}

// Layer-count boundaries of Table 1 (NN-related features), extended
// with a leading boundary at 1 so that architectures *without* a layer
// kind occupy a dedicated "none" bucket — Table 1's small-bucket floor
// would otherwise merge a pure-recurrent model with a pure-conv one.
var (
	convBoundaries = []float64{1, 10, 20, 40}
	fcBoundaries   = []float64{1, 10}
	rcBoundaries   = []float64{1, 5, 10}
	bBoundaries    = []float64{8, 32}
	eBoundaries    = []float64{5, 10}
	kBoundaries    = []float64{10, 50}
)

// bucketWithNone reserves bucket 0 for exact-zero observations ("none"
// in Table 1) and shifts the boundary buckets up by one.
func bucketWithNone(v float64, boundaries []float64) int {
	if v == 0 {
		return 0
	}
	return 1 + dbscan.Bucket(v, boundaries)
}

// StateCoder packs the Table 1 feature buckets into a single
// qlearn.StateKey using a mixed-radix encoding: each feature
// contributes one digit whose radix is its bucket count (static per
// run, since bucket boundaries are fixed at calibration time), so a
// state compares, hashes, and copies as one machine word.
//
// The encoding is injective: every digit is strictly below its radix
// (dbscan.Bucket returns at most len(boundaries), bucketWithNone at
// most len(boundaries)+1), so distinct bucket combinations map to
// distinct keys. TestStateCoderInjective enumerates the full cross
// product to pin this.
//
// The per-device methods (Key, LocalKey, GlobalKey) take pointer
// receivers: the controller calls them once per device per round, and
// a value receiver would copy the whole layout on every call.
type StateCoder struct {
	buckets Buckets
	// Global-feature radices (fixed package-level boundaries).
	nConv, nFC, nRC, nB, nE, nK uint64
	// Local-feature radices (derived from the Buckets in use).
	nU, nM, nN, nD, nS, nY uint64
	// localSpace is the number of distinct local states; the full key
	// is global*localSpace + local.
	localSpace uint64
}

// NewStateCoder derives the packing layout for a bucket configuration.
func NewStateCoder(b Buckets) StateCoder {
	c := StateCoder{
		buckets: b,
		nConv:   uint64(dbscan.NumBuckets(convBoundaries)),
		nFC:     uint64(dbscan.NumBuckets(fcBoundaries)),
		nRC:     uint64(dbscan.NumBuckets(rcBoundaries)),
		nB:      uint64(dbscan.NumBuckets(bBoundaries)),
		nE:      uint64(dbscan.NumBuckets(eBoundaries)),
		nK:      uint64(dbscan.NumBuckets(kBoundaries)),
		// bucketWithNone reserves one extra bucket for exact zero.
		nU: uint64(dbscan.NumBuckets(b.CoCPU)) + 1,
		nM: uint64(dbscan.NumBuckets(b.CoMem)) + 1,
		nN: uint64(dbscan.NumBuckets(b.NetworkMbps)),
		nD: uint64(dbscan.NumBuckets(b.DataFraction)),
		nS: uint64(dbscan.NumBuckets(b.Staleness)),
		nY: uint64(dbscan.NumBuckets(b.Battery)),
	}
	c.localSpace = c.nU * c.nM * c.nN * c.nD * c.nS * c.nY
	return c
}

// GlobalKey packs the round-invariant state: NN layer mix (S_CONV,
// S_FC, S_RC) and global parameters (S_B, S_E, S_K).
func (c *StateCoder) GlobalKey(w *workload.Model, p workload.GlobalParams) qlearn.StateKey {
	conv, fc, rc := w.CountLayers()
	k := uint64(dbscan.Bucket(float64(conv), convBoundaries))
	k = k*c.nFC + uint64(dbscan.Bucket(float64(fc), fcBoundaries))
	k = k*c.nRC + uint64(dbscan.Bucket(float64(rc), rcBoundaries))
	k = k*c.nB + uint64(dbscan.Bucket(float64(p.B), bBoundaries))
	k = k*c.nE + uint64(dbscan.Bucket(float64(p.E), eBoundaries))
	k = k*c.nK + uint64(dbscan.Bucket(float64(p.K), kBoundaries))
	return qlearn.StateKey(k)
}

// LocalKey packs one device's runtime-variance and data state:
// S_Co_CPU, S_Co_MEM, S_Network, S_Data, and the extensions S_Stale
// (last applied-update staleness; always bucket 0 in synchronous runs)
// and S_Batt (state of charge; always bucket 0 without a battery
// model).
func (c *StateCoder) LocalKey(ds *sim.DeviceState) qlearn.StateKey {
	k := uint64(bucketWithNone(ds.Load.CPUUtil, c.buckets.CoCPU))
	k = k*c.nM + uint64(bucketWithNone(ds.Load.MemUtil, c.buckets.CoMem))
	k = k*c.nN + uint64(dbscan.Bucket(ds.BandwidthMbps, c.buckets.NetworkMbps))
	k = k*c.nD + uint64(dbscan.Bucket(ds.Data.ClassFraction, c.buckets.DataFraction))
	k = k*c.nS + uint64(dbscan.Bucket(float64(ds.Staleness), c.buckets.Staleness))
	k = k*c.nY + uint64(dbscan.Bucket(ds.Battery, c.buckets.Battery))
	return qlearn.StateKey(k)
}

// Key joins a packed global key with a device's packed local state —
// the Q(S_global, S_local, A) lookup key of Algorithm 1.
func (c *StateCoder) Key(global qlearn.StateKey, ds *sim.DeviceState) qlearn.StateKey {
	return qlearn.StateKey(uint64(global)*c.localSpace) + c.LocalKey(ds)
}
