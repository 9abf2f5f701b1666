package core

import (
	"fmt"
	"strings"

	"autofl/internal/dbscan"
	"autofl/internal/qlearn"
	"autofl/internal/sim"
	"autofl/internal/workload"
)

// This file keeps the string state keys ("c…|f…|r…|b…|e…|k…" global,
// "u…|m…|n…|d…|s…|y…" local) that the packed StateCoder replaced. They
// are the reference the TestStateCoder* tests check the packing
// against: two states share a packed key exactly when they share the
// string key.

// GlobalStateKey encodes the round-invariant state: NN layer mix
// (S_CONV, S_FC, S_RC) and global parameters (S_B, S_E, S_K).
func GlobalStateKey(w *workload.Model, p workload.GlobalParams) string {
	conv, fc, rc := w.CountLayers()
	return strings.Join([]string{
		fmt.Sprintf("c%d", dbscan.Bucket(float64(conv), convBoundaries)),
		fmt.Sprintf("f%d", dbscan.Bucket(float64(fc), fcBoundaries)),
		fmt.Sprintf("r%d", dbscan.Bucket(float64(rc), rcBoundaries)),
		fmt.Sprintf("b%d", dbscan.Bucket(float64(p.B), bBoundaries)),
		fmt.Sprintf("e%d", dbscan.Bucket(float64(p.E), eBoundaries)),
		fmt.Sprintf("k%d", dbscan.Bucket(float64(p.K), kBoundaries)),
	}, "|")
}

// LocalStateKey encodes one device's runtime-variance and data state:
// S_Co_CPU, S_Co_MEM, S_Network, S_Data, S_Stale and S_Batt.
func (b Buckets) LocalStateKey(ds *sim.DeviceState) string {
	return strings.Join([]string{
		fmt.Sprintf("u%d", bucketWithNone(ds.Load.CPUUtil, b.CoCPU)),
		fmt.Sprintf("m%d", bucketWithNone(ds.Load.MemUtil, b.CoMem)),
		fmt.Sprintf("n%d", dbscan.Bucket(ds.BandwidthMbps, b.NetworkMbps)),
		fmt.Sprintf("d%d", dbscan.Bucket(ds.Data.ClassFraction, b.DataFraction)),
		fmt.Sprintf("s%d", dbscan.Bucket(float64(ds.Staleness), b.Staleness)),
		fmt.Sprintf("y%d", dbscan.Bucket(ds.Battery, b.Battery)),
	}, "|")
}

// StateKey joins the global and local state.
func StateKey(global, local string) string { return global + "|" + local }

// StateSpace returns the total number of encodable (global, local)
// states.
func (c StateCoder) StateSpace() uint64 {
	return c.nConv * c.nFC * c.nRC * c.nB * c.nE * c.nK * c.localSpace
}

// Format renders a packed key in the string-key layout by peeling the
// mixed-radix digits back off.
func (c StateCoder) Format(k qlearn.StateKey) string {
	v := uint64(k)
	radices := [12]uint64{c.nConv, c.nFC, c.nRC, c.nB, c.nE, c.nK, c.nU, c.nM, c.nN, c.nD, c.nS, c.nY}
	parts := make([]string, len(radices))
	for i := len(radices) - 1; i >= 0; i-- {
		parts[i] = fmt.Sprintf("%c%d", "cfrbekumndsy"[i], v%radices[i])
		v /= radices[i]
	}
	return strings.Join(parts, "|")
}
