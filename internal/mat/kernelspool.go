// Scalar max-pool row kernel, isolated like kernels.go so the CI
// bce-guard step can assert `go build -gcflags=-d=ssa/check_bce` reports
// nothing for this file.
package mat

import "math"

// maxPool2Row pools the windows whose rows are r0 and r1 into dst:
// dst[j] is the (r0[2j], r0[2j+1], r1[2j], r1[2j+1]) scan of MaxPool2.
// The loop advances both row slices, the shape the prove pass needs to
// discharge every access.
func maxPool2Row(dst, r0, r1 []float32, seed float32, seeded bool) {
	for j := range dst {
		if len(r0) < 2 || len(r1) < 2 {
			panic("mat: maxPool2Row rows shorter than 2·len(dst)")
		}
		best := r0[0]
		if seeded {
			best = maxGT(best, seed)
		}
		best = maxGT(r0[1], best)
		best = maxGT(r1[0], best)
		dst[j] = maxGT(r1[1], best)
		r0, r1 = r0[2:], r1[2:]
	}
}

// maxGT returns v > best ? v : best — what MAXSS computes, NaN and ±0
// included — by selecting bits under a mask the comparison sets without
// a branch (a conditional move).
func maxGT(v, best float32) float32 {
	var mask uint32
	if v > best {
		mask = ^uint32(0)
	}
	return math.Float32frombits(math.Float32bits(v)&mask | math.Float32bits(best)&^mask)
}
