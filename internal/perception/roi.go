package perception

import "fmt"

// ROI is a region of interest on the ground plane, expressed in the
// vehicle frame as a trapezoid: a forward-distance range and lateral
// bounds (positive left) at the near and far edge. Ground-frame ROIs are
// resolution independent; Corners projects them into image pixels.
//
// The five ROIs mirror Table II: ROI 1 is the straight-ahead window;
// ROI 2/3 are coarse/fine windows for right turns and ROI 4/5 for left
// turns. The "fine" variants reach further (so sparse dotted dashes still
// contribute enough candidate pixels) and follow the curve's inside edge
// more tightly, which is exactly the fine-grained switching the paper's
// case 3 needs for turns with dotted markings (Sec. IV-C).
type ROI struct {
	ID                  int
	NearDist, FarDist   float64 // meters ahead
	NearLeft, NearRight float64 // lateral bounds at NearDist (left > right)
	FarLeft, FarRight   float64 // lateral bounds at FarDist
}

// ROIs lists the five perception knobs (our analog of Table II's ROI
// rows). Lateral bounds are meters, positive left of the vehicle axis.
// The turn ROIs cover the full approach-plus-curve manifold of the
// test-circuit corners: the inside edge keeps the straight-road markings
// (the classifier fires while the turn is still ahead), while the outside
// edge follows the maximum lane-center shift, shift(d) = d^2/(2 R) with
// R = world.TurnRadius, once the vehicle is in the arc.
var ROIs = []ROI{
	{ID: 1, NearDist: 4, FarDist: 18, NearLeft: 2.1, NearRight: -2.1, FarLeft: 2.1, FarRight: -2.1},
	{ID: 2, NearDist: 4, FarDist: 11, NearLeft: 2.2, NearRight: -2.9, FarLeft: 2.2, FarRight: -4.8},
	{ID: 3, NearDist: 4, FarDist: 13, NearLeft: 2.2, NearRight: -3.0, FarLeft: 2.2, FarRight: -6.0},
	{ID: 4, NearDist: 4, FarDist: 11, NearLeft: 2.9, NearRight: -2.2, FarLeft: 4.8, FarRight: -2.2},
	{ID: 5, NearDist: 4, FarDist: 13, NearLeft: 3.0, NearRight: -2.2, FarLeft: 6.0, FarRight: -2.2},
}

// ROIByID returns the ROI with the given 1-based ID.
func ROIByID(id int) (ROI, bool) {
	for _, r := range ROIs {
		if r.ID == id {
			return r, true
		}
	}
	return ROI{}, false
}

// LatAt returns the ROI's left/right lateral bounds at forward distance
// d: linear interpolation between the near and far edges.
func (r ROI) LatAt(d float64) (left, right float64) {
	t := (d - r.NearDist) / (r.FarDist - r.NearDist)
	left = r.NearLeft + t*(r.FarLeft-r.NearLeft)
	right = r.NearRight + t*(r.FarRight-r.NearRight)
	return left, right
}

func (r ROI) String() string {
	return fmt.Sprintf("ROI %d : d[%.1f, %.1f]m lat near[%.1f, %.1f] far[%.1f, %.1f]",
		r.ID, r.NearDist, r.FarDist, r.NearRight, r.NearLeft, r.FarRight, r.FarLeft)
}

// Corners projects the ROI's four corners into image coordinates using
// the calibrated geometry, ordered far-left, far-right, near-left,
// near-right — the four source points of the paper's perspective
// transform (Table II reports these in pixels for each ROI).
func (r ROI) Corners(g Geometry) (pts [4][2]float64) {
	fl, fr := r.LatAt(r.FarDist)
	nl, nr := r.LatAt(r.NearDist)
	order := [4][2]float64{
		{r.FarDist, fl},
		{r.FarDist, fr},
		{r.NearDist, nl},
		{r.NearDist, nr},
	}
	for i, dl := range order {
		u, v, _ := g.GroundToImage(dl[0], dl[1])
		pts[i] = [2]float64{u, v}
	}
	return pts
}
