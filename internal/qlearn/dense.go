package qlearn

import (
	"autofl/internal/rng"
)

// StateKey is a packed integer state: every Table 1 feature bucket
// occupies one digit of a mixed-radix encoding (see internal/core's
// StateCoder). A StateKey compares, hashes, and copies as a single
// machine word, which is what lets the dense table's hot path run
// without allocating.
type StateKey uint64

// Dense is a slice-backed Q-table over packed StateKeys: a compact
// interner maps each *visited* state to a dense row number, and all
// action values live in one flat []float64 indexed by
// row*numActions+action. Steady-state reads and updates are
// allocation-free.
//
// Rows are created only by Touch, which also hands out the row handle
// that BestAt and UpdateAt take; reads never create a row or draw from
// the init stream.
type Dense struct {
	numActions int
	index      map[StateKey]int32 // visited-state interner: state → row
	values     []float64          // row-major action values
	initRng    *rng.Stream

	// Init, when set, supplies the base value for lazily-created rows
	// (a small random jitter is still added per entry for
	// tie-breaking). AutoFL uses it to seed fresh state rows with a
	// per-device value prior, so that device-constant knowledge (for
	// example, its data quality) generalizes to runtime-variance
	// states the device has not been observed in yet.
	Init func() float64
}

// NewDense creates a dense Q-table over numActions actions. The rng
// stream drives random initialization of lazily-created rows: one
// Float64 per action, in action order, matching Algorithm 1's
// "initialize Q with random values" without allocating the full state
// cross product up front.
func NewDense(numActions int, s *rng.Stream) *Dense {
	if numActions <= 0 {
		panic("qlearn: NewDense requires at least one action")
	}
	return &Dense{
		numActions: numActions,
		index:      make(map[StateKey]int32),
		initRng:    s,
	}
}

// base returns the prior value for entries of not-yet-created rows.
func (t *Dense) base() float64 {
	if t.Init != nil {
		return t.Init()
	}
	return 0
}

// Touch materializes the row for s (drawing its random initialization
// now) and returns its row handle. Decision paths call it to pin
// exactly when a state's init values are drawn; the returned handle
// feeds the *At accessors without a second interner lookup.
func (t *Dense) Touch(s StateKey) int32 {
	if row, ok := t.index[s]; ok {
		return row
	}
	row := int32(len(t.values) / t.numActions)
	base := t.base()
	for i := 0; i < t.numActions; i++ {
		// Small random init breaks ties during early exploration.
		t.values = append(t.values, base+t.initRng.Float64()*1e-3)
	}
	t.index[s] = row
	return row
}

// BestAt returns the argmax action index and value of a materialized
// row: a linear scan over the row's contiguous values, no allocation,
// no sort. Ties break to the lowest action index, so the caller's
// action ordering decides them.
func (t *Dense) BestAt(row int32) (int, float64) {
	off := int(row) * t.numActions
	best, bestV := 0, t.values[off]
	for a := 1; a < t.numActions; a++ {
		if v := t.values[off+a]; v > bestV {
			best, bestV = a, v
		}
	}
	return best, bestV
}

// UpdateAt applies the Algorithm 1 value update for the transition
// (row, a) → (rowNext, aNext) with the given reward, through row
// handles from Touch.
func (t *Dense) UpdateAt(row int32, a int, reward float64, rowNext int32, aNext int, learningRate, discount float64) {
	i := int(row)*t.numActions + a
	cur := t.values[i]
	target := reward + discount*t.values[int(rowNext)*t.numActions+aNext]
	t.values[i] = cur + learningRate*(target-cur)
}

// MemoryBytes estimates the table's resident size for the §6.4
// footprint analysis: the flat value array (8 bytes per entry, counted
// at capacity since append over-allocates) plus the interner map
// (12 bytes of key+value per entry plus Go map bucket overhead,
// ~48 bytes per entry in total) and the struct itself.
func (t *Dense) MemoryBytes() int {
	return cap(t.values)*8 + len(t.index)*48 + 96
}
