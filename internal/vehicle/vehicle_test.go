package vehicle

import (
	"math"
	"testing"
)

func TestKmph(t *testing.T) {
	if Kmph(36) != 10 {
		t.Fatalf("Kmph(36) = %v", Kmph(36))
	}
}

func TestLinearizeDims(t *testing.T) {
	a, b, bd, c := Linearize(BMWX5(), Kmph(50), 5.5)
	if a.Rows != NumStates || a.Cols != NumStates {
		t.Fatalf("A is %dx%d", a.Rows, a.Cols)
	}
	if b.Rows != NumStates || b.Cols != 1 || bd.Rows != NumStates || c.Cols != NumStates {
		t.Fatal("B/Bd/C dims wrong")
	}
}

func TestLinearizeSigns(t *testing.T) {
	a, b, _, _ := Linearize(BMWX5(), Kmph(50), 5.5)
	// Steering left must produce positive lateral acceleration and yaw.
	if b.At(0, 0) <= 0 || b.At(1, 0) <= 0 {
		t.Fatalf("B signs wrong: %v", b)
	}
	// Lateral damping terms must be negative (stable vy, r subsystem).
	if a.At(0, 0) >= 0 || a.At(1, 1) >= 0 {
		t.Fatalf("damping signs wrong:\n%v", a)
	}
	// yL dynamics: vy enters negatively, epsL positively (scaled by vx).
	if a.At(2, 0) != -1 || a.At(2, 3) <= 0 {
		t.Fatalf("yL row wrong:\n%v", a)
	}
}

func TestPlantStraightLineNoSteer(t *testing.T) {
	pl := NewPlant(BMWX5(), Kmph(50), State{})
	for i := 0; i < 400; i++ {
		pl.Step(0.005)
	}
	st := pl.St
	// 2 seconds at 13.9 m/s: x ~ 27.8 m, no lateral motion.
	if math.Abs(st.X-Kmph(50)*2) > 0.01 {
		t.Fatalf("x = %v, want %v", st.X, Kmph(50)*2)
	}
	if math.Abs(st.Y) > 1e-9 || math.Abs(st.Psi) > 1e-9 {
		t.Fatalf("vehicle drifted with zero steering: y=%v psi=%v", st.Y, st.Psi)
	}
}

func TestPlantTurnsLeftOnPositiveSteer(t *testing.T) {
	pl := NewPlant(BMWX5(), Kmph(30), State{})
	pl.Command(0.05)
	for i := 0; i < 600; i++ {
		pl.Step(0.005)
	}
	if pl.St.Y <= 0.5 || pl.St.Psi <= 0.01 {
		t.Fatalf("positive steer did not turn left: y=%v psi=%v", pl.St.Y, pl.St.Psi)
	}
}

func TestPlantSteadyStateYawRateMatchesBicycle(t *testing.T) {
	// Steady-state yaw rate r = vx * delta / (L + Kus vx^2).
	p := BMWX5()
	vx := Kmph(50)
	delta := 0.03
	pl := NewPlant(p, vx, State{})
	pl.Command(delta)
	for i := 0; i < 2000; i++ {
		pl.Step(0.005)
	}
	l := p.Lf + p.Lr
	kus := p.Mass * (p.Lr*p.Cr - p.Lf*p.Cf) / (l * p.Cf * p.Cr)
	want := vx * delta / (l + kus*vx*vx)
	if math.Abs(pl.St.R-want) > 0.02*math.Abs(want) {
		t.Fatalf("steady yaw rate = %v, want %v", pl.St.R, want)
	}
}

func TestActuatorSaturation(t *testing.T) {
	pl := NewPlant(BMWX5(), Kmph(30), State{})
	pl.Command(10) // far beyond MaxSteer
	if pl.steerCmd != pl.P.MaxSteer {
		t.Fatalf("command not saturated: %v", pl.steerCmd)
	}
	for i := 0; i < 10000; i++ {
		pl.Step(0.005)
	}
	if pl.St.Steer > pl.P.MaxSteer+1e-9 {
		t.Fatalf("steering exceeded saturation: %v", pl.St.Steer)
	}
}

func TestActuatorRateLimit(t *testing.T) {
	pl := NewPlant(BMWX5(), Kmph(30), State{})
	pl.Command(0.5)
	pl.Step(0.005)
	// One 5 ms step at SteerRate limit moves at most SteerRate*dt.
	if pl.St.Steer > pl.P.SteerRate*0.005+1e-12 {
		t.Fatalf("steering moved faster than the rate limit: %v", pl.St.Steer)
	}
}

func TestActuatorLagConverges(t *testing.T) {
	pl := NewPlant(BMWX5(), Kmph(30), State{})
	pl.Command(0.1)
	for i := 0; i < 1000; i++ {
		pl.Step(0.005)
	}
	if math.Abs(pl.St.Steer-0.1) > 1e-3 {
		t.Fatalf("actuator did not converge to command: %v", pl.St.Steer)
	}
}

func TestRK4EnergyBounded(t *testing.T) {
	// With zero input the lateral states decay; nothing should blow up.
	pl := NewPlant(BMWX5(), Kmph(50), State{Vy: 1, R: 0.2})
	for i := 0; i < 1000; i++ {
		pl.Step(0.005)
		if math.IsNaN(pl.St.Vy) || math.Abs(pl.St.Vy) > 10 {
			t.Fatalf("vy diverged at step %d: %v", i, pl.St.Vy)
		}
	}
	if math.Abs(pl.St.Vy) > 1e-3 || math.Abs(pl.St.R) > 1e-3 {
		t.Fatalf("lateral states did not decay: vy=%v r=%v", pl.St.Vy, pl.St.R)
	}
}
