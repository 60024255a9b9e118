package control

import (
	"fmt"

	"hsas/internal/mat"
	"hsas/internal/vehicle"
)

// LQG implements the paper's named future-work extension (Sec. IV-C):
// "modeling the sensor noise in a linear-quadratic gaussian (LQG)
// controller". The perception stage's yL measurement carries situation-
// dependent noise (dotted markings, night scenes); an LQG design replaces
// the generic output observer of Design with a steady-state Kalman filter
// tuned to that noise level, so noisy situations filter harder and clean
// situations track faster.

// NoiseModel characterizes the sensing noise of one situation.
type NoiseModel struct {
	// MeasurementVar is the variance of the yL measurement (m^2). The
	// characterization can estimate it from the detection residuals of a
	// situation's sweep runs.
	MeasurementVar float64
	// ProcessVar scales the process noise on the lateral states
	// (unmodeled road curvature and tire variation).
	ProcessVar float64
}

// NewLQGDesign builds a Design whose observer gain is the steady-state
// Kalman gain for the given noise model instead of the generic dual-LQR
// observer. The regulator gain is unchanged (certainty equivalence).
func NewLQGDesign(p vehicle.Params, speedKmph, h, tau, lookAhead float64, noise NoiseModel) (*Design, error) {
	d, err := NewDesign(p, speedKmph, h, tau, lookAhead)
	if err != nil {
		return nil, err
	}
	if noise.MeasurementVar <= 0 || noise.ProcessVar <= 0 {
		return nil, fmt.Errorf("control: noise variances must be positive, got %+v", noise)
	}

	// Steady-state error covariance via the dual Riccati equation:
	//   Sigma = A Sigma A' - A Sigma C'(C Sigma C' + R)^-1 C Sigma A' + Q.
	// Controller.Step applies the measurement update before predicting
	// (filter form), so the gain is the FILTER gain
	//   Lf = Sigma C' (C Sigma C' + R)^-1,
	// not the predictor gain A Sigma C'(...)^-1 the dual LQR would give.
	n := d.Phi.Rows
	q := mat.Scale(noise.ProcessVar, mat.Identity(n))
	// The lateral-velocity and yaw-rate states absorb most model error.
	q.Set(0, 0, noise.ProcessVar*10)
	q.Set(1, 1, noise.ProcessVar*10)
	r := mat.FromRows([][]float64{{noise.MeasurementVar}})

	sigma, err := mat.Dare(d.Phi.T(), d.C.T(), q, r)
	if err != nil {
		return nil, fmt.Errorf("control: Kalman design failed: %w", err)
	}
	sc := mat.Mul(sigma, d.C.T())     // n×1
	s := mat.Add(mat.Mul(d.C, sc), r) // 1×1 innovation covariance
	d.L = mat.Scale(1/s.At(0, 0), sc) // filter gain
	return d, nil
}
