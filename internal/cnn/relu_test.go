package cnn

import (
	"math"
	"testing"
)

// TestReLUMatchesBranchy pins the branch-free inference ReLU to the
// branchy oracle bit for bit: every sign/exponent edge pattern (each
// exponent with the smallest, largest and a middle mantissa, both
// signs), then a stride over all 2³² bit patterns (every 13th; every
// 97th under -race).
func TestReLUMatchesBranchy(t *testing.T) {
	const chunk = 1 << 12
	var r ReLU
	x := NewTensor(1, 1, chunk)
	row := make([]uint32, 0, chunk)
	var checked int
	flush := func() {
		x.Data = x.Data[:len(row)]
		for i, b := range row {
			x.Data[i] = math.Float32frombits(b)
		}
		x.W = len(row)
		out := r.Forward(x, false)
		for i, b := range row {
			want := branchyReLU(math.Float32frombits(b))
			if got := out.Data[i]; math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("input %#08x: ReLU = %#08x, branchy = %#08x",
					b, math.Float32bits(got), math.Float32bits(want))
			}
		}
		checked += len(row)
		row = row[:0]
	}
	add := func(b uint32) {
		row = append(row, b)
		if len(row) == chunk {
			flush()
		}
	}
	for sign := uint32(0); sign <= 1; sign++ {
		for exp := uint32(0); exp <= 0xff; exp++ {
			for _, mant := range []uint32{0, 1, 0x400000, 0x7fffff} {
				add(sign<<31 | exp<<23 | mant)
			}
		}
	}
	step := uint64(13)
	if raceEnabled {
		step = 97
	}
	for b := uint64(0); b <= math.MaxUint32; b += step {
		add(uint32(b))
	}
	flush()
	t.Logf("checked %d inputs", checked)
}
