// Package control implements the paper's discrete-time control stage Tc:
// sampled-data discretization of the lateral dynamics with a constant
// sensor-to-actuation delay tau in (0, h], delay-augmented LQR gain design
// [14]-[16], an output observer (only yL is measured by perception), and
// the common-quadratic-Lyapunov-function check that guarantees stability
// while switching between situation-specific controllers (Sec. III-D).
package control

import (
	"errors"
	"fmt"
	"math"

	"hsas/internal/mat"
	"hsas/internal/vehicle"
)

// XavierRuntimeMs is the paper's profiled control-task runtime on the
// NVIDIA AGX Xavier (Table II: 2.5 us).
const XavierRuntimeMs = 0.0025

// Design is an annotated control design: a controller is designed for a
// sampling period h and worst-case sensor-to-actuation delay tau (Sec. II).
type Design struct {
	SpeedKmph float64
	H         float64 // sampling period, seconds
	Tau       float64 // sensor-to-actuation delay, seconds (0 < Tau <= H)

	// Augmented discrete-time model z = [x; u_prev].
	Phi, Gamma *mat.Mat // z[k+1] = Phi z[k] + Gamma u[k]
	C          *mat.Mat // yL = C z
	K          *mat.Mat // state feedback u = -K z
	L          *mat.Mat // observer gain
	Kff        float64  // curvature feedforward gain
}

// LQR weights: the quality-of-control metric is MAE of yL, so yL
// dominates the state cost; the heading error keeps the loop damped.
var (
	weightYL  = 18.0
	weightEps = 6.0
	weightU   = 160.0
)

// NewDesign discretizes the vision-based lateral dynamics at the given
// speed for (h, tau) and computes LQR and observer gains.
//
// The delay model follows Franklin et al. [14]: with tau in (0, h], the
// input applied during [k h + tau, (k+1) h + tau) is u[k], so
//
//	x[k+1] = Phi x[k] + Gamma0 u[k] + Gamma1 u[k-1]
//
// and the state is augmented with u[k-1].
func NewDesign(p vehicle.Params, speedKmph, h, tau, lookAhead float64) (*Design, error) {
	if h <= 0 || tau <= 0 || tau > h+1e-9 {
		return nil, fmt.Errorf("control: invalid timing h=%v tau=%v (need 0 < tau <= h)", h, tau)
	}
	vx := vehicle.Kmph(speedKmph)
	a, b, _, _ := vehicle.Linearize(p, vx, lookAhead)
	n := a.Rows

	// Phi = e^(A h); Gamma over [0, h-tau) applies u[k], the tail applies
	// u[k-1]:  Gamma1 = e^(A(h-tau)) * Int_0^tau e^(As) ds B,
	//          Gamma0 = Int_0^(h-tau) e^(As) ds B.
	phi, _ := mat.IntegralExpm(a, b, h)
	var gamma0, gamma1 *mat.Mat
	if h-tau < 1e-12 {
		// Full-period delay: all of the interval applies u[k-1].
		_, gFull := mat.IntegralExpm(a, b, h)
		gamma0 = mat.New(n, 1)
		gamma1 = gFull
	} else {
		e0, g0 := mat.IntegralExpm(a, b, h-tau)
		_, gTau := mat.IntegralExpm(a, b, tau)
		gamma0 = g0
		gamma1 = mat.Mul(e0, gTau)
	}

	// Augment with the previous input: z = [x; u_prev].
	nz := n + 1
	phiZ := mat.New(nz, nz)
	phiZ.SetSub(0, 0, phi)
	phiZ.SetSub(0, n, gamma1)
	gammaZ := mat.New(nz, 1)
	gammaZ.SetSub(0, 0, gamma0)
	gammaZ.Set(n, 0, 1)

	cz := mat.New(1, nz)
	cz.Set(0, vehicle.NumStates-2, 1) // yL is state index 2

	// State cost: yL^2 * wYL + epsL^2 * wEps (+ tiny regularization).
	q := mat.New(nz, nz)
	q.Set(2, 2, weightYL)
	q.Set(3, 3, weightEps)
	for i := 0; i < nz; i++ {
		q.Set(i, i, q.At(i, i)+1e-4)
	}
	r := mat.FromRows([][]float64{{weightU}})

	k, err := mat.LQRGain(phiZ, gammaZ, q, r)
	if err != nil {
		return nil, fmt.Errorf("control: LQR design failed: %w", err)
	}

	// Observer gain via the dual problem (Kalman-style weights).
	qo := mat.Identity(nz)
	qo.Set(2, 2, 30) // trust the yL channel
	ro := mat.FromRows([][]float64{{0.05}})
	ko, err := mat.LQRGain(phiZ.T(), cz.T(), qo, ro)
	if err != nil {
		return nil, fmt.Errorf("control: observer design failed: %w", err)
	}

	d := &Design{
		SpeedKmph: speedKmph,
		H:         h,
		Tau:       tau,
		Phi:       phiZ,
		Gamma:     gammaZ,
		C:         cz,
		K:         k,
		L:         ko.T(),
	}
	d.Kff = feedforwardGain(p, vx)
	return d, nil
}

// feedforwardGain returns the steady-state steering angle per unit road
// curvature (Ackermann plus understeer gradient), used to remove the bias
// LQR alone leaves on constant-curvature segments.
func feedforwardGain(p vehicle.Params, vx float64) float64 {
	l := p.Lf + p.Lr
	kus := p.Mass * (p.Lr*p.Cr - p.Lf*p.Cf) / (l * p.Cf * p.Cr) // understeer gradient
	return l + kus*vx*vx
}

// ClosedLoop returns the closed-loop matrix Phi - Gamma K.
func (d *Design) ClosedLoop() *mat.Mat {
	return mat.Sub(d.Phi, mat.Mul(d.Gamma, d.K))
}

// Controller is the runtime LQR controller with its observer state.
type Controller struct {
	D     *Design
	zHat  *mat.Mat
	uPrev float64
}

// NewController returns a controller with zeroed observer state.
func NewController(d *Design) *Controller {
	return &Controller{D: d, zHat: mat.New(d.Phi.Rows, 1)}
}

// CopyStateFrom transfers the observer estimate from another controller
// (used for bumpless situation switches; designs share the state layout).
func (c *Controller) CopyStateFrom(o *Controller) {
	if o == nil {
		return
	}
	copy(c.zHat.Data, o.zHat.Data)
	c.uPrev = o.uPrev
}

// Step consumes one yL measurement and the road curvature estimate and
// returns the steering command u[k]. It updates the observer with the
// measurement, computes u = -K z_hat + ff, then predicts forward.
func (c *Controller) Step(yL, curvature float64) float64 {
	d := c.D
	// Measurement update: z_hat += L (y - C z_hat).
	innov := yL - mat.Mul(d.C, c.zHat).At(0, 0)
	c.zHat = mat.Add(c.zHat, mat.Scale(innov, d.L))

	u := -mat.Mul(d.K, c.zHat).At(0, 0) + d.Kff*curvature

	// Time update with the applied input.
	c.zHat = mat.Add(mat.Mul(d.Phi, c.zHat), mat.Scale(u, d.Gamma))
	c.uPrev = u
	return u
}

// Coast handles a perception dropout: it holds the previous command and
// advances the observer by pure prediction (no measurement update).
func (c *Controller) Coast() float64 {
	u := c.uPrev
	c.zHat = mat.Add(mat.Mul(c.D.Phi, c.zHat), mat.Scale(u, c.D.Gamma))
	return u
}

// ErrNoCQLF is returned when the CQLF search does not prove stability of
// the switched system.
var ErrNoCQLF = errors.New("control: no common quadratic Lyapunov function found")

// FindCQLF searches for a common quadratic Lyapunov function P > 0 with
// Ai' P Ai - P < 0 for every closed-loop matrix, proving arbitrary-
// switching stability between situation-specific controllers [15], [16].
// It runs a projected subgradient descent on
//
//	f(P) = max_i lambda_max(Ai' P Ai - P + eps I)
//
// over unit-trace symmetric P and returns the certificate when f < 0.
func FindCQLF(mats []*mat.Mat) (*mat.Mat, error) {
	if len(mats) == 0 {
		return nil, errors.New("control: FindCQLF needs at least one matrix")
	}
	n := mats[0].Rows
	for _, m := range mats {
		if m.Rows != n || m.Cols != n {
			return nil, errors.New("control: FindCQLF dimension mismatch")
		}
		if mat.SpectralRadius(m) >= 1 {
			return nil, fmt.Errorf("control: mode unstable (rho=%.4f): %w", mat.SpectralRadius(m), ErrNoCQLF)
		}
	}

	// Warm start: average of the individual Lyapunov solutions.
	p := mat.New(n, n)
	for _, m := range mats {
		pi, err := mat.Dlyap(m, mat.Identity(n))
		if err != nil {
			return nil, fmt.Errorf("control: Dlyap failed: %w", err)
		}
		p = mat.Add(p, pi)
	}
	p = mat.Scale(1/trace(p), p)

	const eps = 1e-9
	step := 0.5
	for iter := 0; iter < 400; iter++ {
		worstVal := math.Inf(-1)
		var worstGrad *mat.Mat
		for _, m := range mats {
			diff := mat.Sub(mat.Mul3(m.T(), p, m), p)
			val, vec := mat.MaxEigSym(diff)
			if val > worstVal {
				worstVal = val
				// d lambda_max / dP = (A v)(A v)' - v v'.
				av := mat.Mul(m, vec)
				worstGrad = mat.Sub(mat.Mul(av, av.T()), mat.Mul(vec, vec.T()))
			}
		}
		if worstVal < -eps {
			if ok := verifyCQLF(p, mats); ok {
				return p, nil
			}
		}
		p = mat.Sub(p, mat.Scale(step/float64(iter+1), worstGrad))
		p = projectPSD(p)
	}
	if verifyCQLF(p, mats) {
		return p, nil
	}
	return nil, ErrNoCQLF
}

// verifyCQLF checks P > 0 and Ai' P Ai - P < 0 strictly for all modes.
func verifyCQLF(p *mat.Mat, mats []*mat.Mat) bool {
	if !mat.IsPositiveDefinite(p) {
		return false
	}
	for _, m := range mats {
		diff := mat.Sub(mat.Mul3(m.T(), p, m), p)
		if val, _ := mat.MaxEigSym(diff); val >= 0 {
			return false
		}
	}
	return true
}

// projectPSD projects a symmetric matrix onto the unit-trace PSD cone
// (with a small diagonal floor to stay in the interior).
func projectPSD(p *mat.Mat) *mat.Mat {
	n := p.Rows
	vals, vecs := mat.EigSym(p)
	out := mat.New(n, n)
	for i := 0; i < n; i++ {
		v := vals[i]
		if v < 1e-8 {
			v = 1e-8
		}
		col := vecs.Slice(0, n, i, i+1)
		out = mat.Add(out, mat.Scale(v, mat.Mul(col, col.T())))
	}
	return mat.Scale(1/trace(out), out)
}

func trace(m *mat.Mat) float64 {
	var t float64
	for i := 0; i < m.Rows; i++ {
		t += m.At(i, i)
	}
	return t
}
