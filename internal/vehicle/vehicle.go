// Package vehicle models the controlled plant of the paper's LKAS: the
// BMW X5 simulated in Webots, here replaced by (a) the linearized
// vision-based lateral dynamics of Kosecka et al. [13] used for the LQR
// design, and (b) a nonlinear single-track (bicycle) model with linear
// tires and a first-order steering actuator [18] integrated by the
// closed-loop simulator.
package vehicle

import (
	"math"

	"hsas/internal/mat"
)

// Params are the single-track model parameters. Defaults approximate the
// BMW X5 model the paper drives in Webots.
type Params struct {
	Mass      float64 // kg
	Izz       float64 // yaw inertia, kg m^2
	Lf        float64 // CoG to front axle, m
	Lr        float64 // CoG to rear axle, m
	Cf        float64 // front axle cornering stiffness, N/rad
	Cr        float64 // rear axle cornering stiffness, N/rad
	MaxSteer  float64 // steering angle saturation, rad
	SteerRate float64 // steering rate limit, rad/s
	SteerLag  float64 // first-order actuator time constant, s
	Mu        float64 // tire-road friction coefficient
}

// BMWX5 returns the plant parameters used in all experiments.
func BMWX5() Params {
	return Params{
		Mass:      2045,
		Izz:       5663,
		Lf:        1.33,
		Lr:        1.81,
		Cf:        155000,
		Cr:        165000,
		MaxSteer:  0.50,
		SteerRate: 0.80,
		SteerLag:  0.06,
		Mu:        0.65,
	}
}

// NumStates is the order of the linearized vision-based lateral model:
// [vy, r, yL, epsL] — lateral velocity, yaw rate, lateral deviation at the
// look-ahead distance, and heading error against the road tangent.
const NumStates = 4

// Linearize returns the continuous-time vision-based lateral dynamics
// (A, B, Bd) at constant longitudinal speed vx (m/s) and look-ahead LL:
//
//	x' = A x + B delta_f + Bd * kappa_road
//	yL  = C x
//
// Sign conventions match internal/perception: yL is the lateral position
// of the lane center at the look-ahead in the vehicle frame, positive
// left; positive steering turns left.
func Linearize(p Params, vx, lookAhead float64) (a, b, bd, c *mat.Mat) {
	cf, cr, m, iz := p.Cf, p.Cr, p.Mass, p.Izz
	lf, lr := p.Lf, p.Lr
	a = mat.FromRows([][]float64{
		{-(cf + cr) / (m * vx), (cr*lr-cf*lf)/(m*vx) - vx, 0, 0},
		{(cr*lr - cf*lf) / (iz * vx), -(cf*lf*lf + cr*lr*lr) / (iz * vx), 0, 0},
		{-1, -lookAhead, 0, vx},
		{0, -1, 0, 0},
	})
	b = mat.ColVec(cf/m, cf*lf/iz, 0, 0)
	bd = mat.ColVec(0, 0, 0, vx)
	c = mat.FromRows([][]float64{{0, 0, 1, 0}})
	return a, b, bd, c
}

// State is the nonlinear plant state integrated by the simulator.
type State struct {
	X, Y, Psi float64 // world pose
	Vy        float64 // body-frame lateral velocity
	R         float64 // yaw rate
	Steer     float64 // actual steering angle after actuator dynamics
}

// Plant integrates the nonlinear single-track model.
type Plant struct {
	P  Params
	Vx float64 // constant longitudinal speed, m/s
	St State

	steerCmd float64 // commanded steering angle
}

// NewPlant returns a plant at the given pose and speed.
func NewPlant(p Params, vx float64, st State) *Plant {
	return &Plant{P: p, Vx: vx, St: st}
}

// Command sets the steering angle command (rad, positive left). The
// actuator model (lag + rate limit + saturation) shapes the actual angle.
func (pl *Plant) Command(delta float64) {
	pl.steerCmd = clamp(delta, -pl.P.MaxSteer, pl.P.MaxSteer)
}

// Step advances the plant by dt seconds using RK4 for the lateral
// dynamics and explicit actuator integration.
func (pl *Plant) Step(dt float64) {
	// Actuator: first-order lag toward the command with a rate limit.
	want := (pl.steerCmd - pl.St.Steer) / pl.P.SteerLag
	want = clamp(want, -pl.P.SteerRate, pl.P.SteerRate)
	pl.St.Steer = clamp(pl.St.Steer+want*dt, -pl.P.MaxSteer, pl.P.MaxSteer)

	s := pl.St
	k1 := pl.deriv(s)
	k2 := pl.deriv(eulerAdd(s, k1, dt/2))
	k3 := pl.deriv(eulerAdd(s, k2, dt/2))
	k4 := pl.deriv(eulerAdd(s, k3, dt))
	pl.St.X += dt / 6 * (k1[0] + 2*k2[0] + 2*k3[0] + k4[0])
	pl.St.Y += dt / 6 * (k1[1] + 2*k2[1] + 2*k3[1] + k4[1])
	pl.St.Psi += dt / 6 * (k1[2] + 2*k2[2] + 2*k3[2] + k4[2])
	pl.St.Vy += dt / 6 * (k1[3] + 2*k2[3] + 2*k3[3] + k4[3])
	pl.St.R += dt / 6 * (k1[4] + 2*k2[4] + 2*k3[4] + k4[4])
}

// deriv returns [dX, dY, dPsi, dVy, dR] for the frozen steering angle.
func (pl *Plant) deriv(s State) [5]float64 {
	p, vx := pl.P, pl.Vx
	// Linear tires saturated at the friction circle per axle: the grip
	// limit is what makes the situation-specific speed knob matter on
	// tight turns (50 km/h exceeds it, 30 km/h does not).
	alphaF := (s.Vy+p.Lf*s.R)/vx - s.Steer
	alphaR := (s.Vy - p.Lr*s.R) / vx
	const g = 9.81
	l := p.Lf + p.Lr
	fyfMax := p.Mu * p.Mass * g * p.Lr / l
	fyrMax := p.Mu * p.Mass * g * p.Lf / l
	fyf := clamp(-p.Cf*alphaF, -fyfMax, fyfMax)
	fyr := clamp(-p.Cr*alphaR, -fyrMax, fyrMax)
	return [5]float64{
		vx*math.Cos(s.Psi) - s.Vy*math.Sin(s.Psi),
		vx*math.Sin(s.Psi) + s.Vy*math.Cos(s.Psi),
		s.R,
		(fyf*math.Cos(s.Steer)+fyr)/p.Mass - vx*s.R,
		(p.Lf*fyf*math.Cos(s.Steer) - p.Lr*fyr) / p.Izz,
	}
}

func eulerAdd(s State, d [5]float64, dt float64) State {
	return State{
		X:     s.X + d[0]*dt,
		Y:     s.Y + d[1]*dt,
		Psi:   s.Psi + d[2]*dt,
		Vy:    s.Vy + d[3]*dt,
		R:     s.R + d[4]*dt,
		Steer: s.Steer,
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Kmph converts km/h to m/s.
func Kmph(v float64) float64 { return v / 3.6 }
