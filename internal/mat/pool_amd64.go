//go:build amd64

package mat

// maxPool2RowAVX pools n windows (n a multiple of 8) of the rows at r0
// and r1 into dst, as maxPool2Row does. Implemented in pool_amd64.s;
// only called when hasAVX2 is true.
//
//go:noescape
func maxPool2RowAVX(dst, r0, r1 *float32, n int, seed float32, seeded bool)
