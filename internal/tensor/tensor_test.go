package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMatMul(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("MatMul[%d] = %v, want %v", i, c.Data[i], v)
		}
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("shape mismatch should panic")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

func TestMatMulATMatchesExplicitTranspose(t *testing.T) {
	a := FromSlice(3, 2, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	got := MatMulAT(a, b) // aᵀ·b: 2x2
	at := FromSlice(2, 3, []float64{1, 3, 5, 2, 4, 6})
	want := MatMul(at, b)
	for i := range want.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > 1e-12 {
			t.Fatalf("MatMulAT[%d] = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestMatMulBTMatchesExplicitTranspose(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(4, 3, []float64{1, 0, 1, 0, 1, 0, 2, 2, 2, 1, 1, 1})
	got := MatMulBT(a, b) // a·bᵀ: 2x4
	bt := FromSlice(3, 4, []float64{1, 0, 2, 1, 0, 1, 2, 1, 1, 0, 2, 1})
	want := MatMul(a, bt)
	for i := range want.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > 1e-12 {
			t.Fatalf("MatMulBT[%d] = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestAtSetRow(t *testing.T) {
	m := New(2, 2)
	m.Set(1, 0, 5)
	if m.At(1, 0) != 5 {
		t.Error("At/Set roundtrip failed")
	}
	row := m.Row(1)
	row[1] = 7
	if m.At(1, 1) != 7 {
		t.Error("Row must be a shared view")
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := FromSlice(1, 2, []float64{1, 2})
	c := m.Clone()
	c.Data[0] = 99
	if m.Data[0] != 1 {
		t.Error("Clone must copy storage")
	}
}

func TestAddRowAndColSums(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 1, 1, 2, 2, 2})
	m.AddRow([]float64{10, 20, 30})
	if m.At(0, 2) != 31 || m.At(1, 0) != 12 {
		t.Errorf("AddRow result wrong: %v", m.Data)
	}
	sums := m.ColSums()
	if sums[0] != 23 || sums[1] != 43 || sums[2] != 63 {
		t.Errorf("ColSums = %v", sums)
	}
}

func TestAddScaled(t *testing.T) {
	m := FromSlice(1, 3, []float64{2, 4, 6})
	m.AddScaled(FromSlice(1, 3, []float64{1, 1, 1}), -1)
	if m.Data[0] != 1 || m.Data[1] != 3 || m.Data[2] != 5 {
		t.Errorf("AddScaled = %v", m.Data)
	}
}

func TestFromSlicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FromSlice with wrong length should panic")
		}
	}()
	FromSlice(2, 2, []float64{1})
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ, exercised through the fused transpose
// multiplies.
func TestTransposeIdentityProperty(t *testing.T) {
	f := func(seed uint8) bool {
		n := int(seed)%4 + 1
		a := New(n, n+1)
		b := New(n+1, n)
		for i := range a.Data {
			a.Data[i] = float64((int(seed)+i*7)%11) - 5
		}
		for i := range b.Data {
			b.Data[i] = float64((int(seed)+i*3)%13) - 6
		}
		ab := MatMul(a, b) // n×n
		// (A·B)[i][j] must equal MatMulBT(A, Bᵀ-as-rows)[i][j]; check
		// via MatMulAT on transposed inputs instead: Bᵀ·Aᵀ == (A·B)ᵀ.
		bt := New(b.Cols, b.Rows)
		for i := 0; i < b.Rows; i++ {
			for j := 0; j < b.Cols; j++ {
				bt.Set(j, i, b.At(i, j))
			}
		}
		at := New(a.Cols, a.Rows)
		for i := 0; i < a.Rows; i++ {
			for j := 0; j < a.Cols; j++ {
				at.Set(j, i, a.At(i, j))
			}
		}
		btat := MatMul(bt, at)
		for i := 0; i < ab.Rows; i++ {
			for j := 0; j < ab.Cols; j++ {
				if math.Abs(ab.At(i, j)-btat.At(j, i)) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
