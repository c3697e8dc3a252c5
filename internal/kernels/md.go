package kernels

import (
	"math"

	"parc751/internal/pyjama"
	"parc751/internal/xrand"
)

// Vec3 is a 3-component vector.
type Vec3 struct{ X, Y, Z float64 }

// Add returns a + b.
func (a Vec3) Add(b Vec3) Vec3 { return Vec3{a.X + b.X, a.Y + b.Y, a.Z + b.Z} }

// Sub returns a - b.
func (a Vec3) Sub(b Vec3) Vec3 { return Vec3{a.X - b.X, a.Y - b.Y, a.Z - b.Z} }

// Scale returns a scaled by s.
func (a Vec3) Scale(s float64) Vec3 { return Vec3{a.X * s, a.Y * s, a.Z * s} }

// Norm2 returns the squared Euclidean norm.
func (a Vec3) Norm2() float64 { return a.X*a.X + a.Y*a.Y + a.Z*a.Z }

// MDSystem is a Lennard-Jones particle system integrated with velocity
// Verlet — the molecular-dynamics kernel (modelled on the classic "md"
// OpenMP benchmark the students were given in C).
type MDSystem struct {
	Pos, Vel, Force []Vec3
	Mass            float64
	Dt              float64
	Eps, Sigma      float64 // Lennard-Jones parameters
	MinDist2        float64 // softening floor to keep the potential finite
}

// NewMDSystem places n particles pseudo-randomly in a box of the given
// side with small random velocities.
func NewMDSystem(seed uint64, n int, box float64) *MDSystem {
	r := xrand.New(seed)
	s := &MDSystem{
		Pos:      make([]Vec3, n),
		Vel:      make([]Vec3, n),
		Force:    make([]Vec3, n),
		Mass:     1,
		Dt:       1e-4,
		Eps:      1,
		Sigma:    1,
		MinDist2: 0.25,
	}
	for i := range s.Pos {
		s.Pos[i] = Vec3{r.Float64() * box, r.Float64() * box, r.Float64() * box}
		s.Vel[i] = Vec3{r.NormFloat64() * 0.01, r.NormFloat64() * 0.01, r.NormFloat64() * 0.01}
	}
	return s
}

// N returns the particle count.
func (s *MDSystem) N() int { return len(s.Pos) }

// forceOn computes the total Lennard-Jones force on particle i from all
// other particles, iterating j in index order so the floating-point sum is
// deterministic for any parallel decomposition over i.
func (s *MDSystem) forceOn(i int) Vec3 {
	var f Vec3
	sigma2 := s.Sigma * s.Sigma
	for j := range s.Pos {
		if j == i {
			continue
		}
		d := s.Pos[i].Sub(s.Pos[j])
		r2 := d.Norm2()
		if r2 < s.MinDist2 {
			r2 = s.MinDist2
		}
		sr2 := sigma2 / r2
		sr6 := sr2 * sr2 * sr2
		// F = 24 eps (2 sr^12 - sr^6) / r^2 * d
		mag := 24 * s.Eps * (2*sr6*sr6 - sr6) / r2
		f = f.Add(d.Scale(mag))
	}
	return f
}

// ComputeForcesSequential fills s.Force from the current positions.
func (s *MDSystem) ComputeForcesSequential() {
	for i := range s.Force {
		s.Force[i] = s.forceOn(i)
	}
}

// ComputeForcesParallel is the Pyjama parallelisation: the O(n²) force
// loop workshared over i with schedule(auto) — the runtime calibrates a
// prefix of the loop and picks static blocks (uniform cost, as here) or
// dynamic claiming with a computed chunk (when cutoff skew dominates).
func (s *MDSystem) ComputeForcesParallel(nthreads int) {
	pyjama.ParallelFor(nthreads, len(s.Force), pyjama.Auto(), func(i int) {
		s.Force[i] = s.forceOn(i)
	})
}

// Step advances the system one velocity-Verlet step, computing forces with
// forces (either of the ComputeForces variants wrapped by the caller).
func (s *MDSystem) Step(forces func()) {
	dt, m := s.Dt, s.Mass
	// Half-kick + drift using current forces.
	for i := range s.Pos {
		s.Vel[i] = s.Vel[i].Add(s.Force[i].Scale(dt / (2 * m)))
		s.Pos[i] = s.Pos[i].Add(s.Vel[i].Scale(dt))
	}
	forces()
	// Second half-kick with the new forces.
	for i := range s.Vel {
		s.Vel[i] = s.Vel[i].Add(s.Force[i].Scale(dt / (2 * m)))
	}
}

// KineticEnergy returns the total kinetic energy.
func (s *MDSystem) KineticEnergy() float64 {
	e := 0.0
	for i := range s.Vel {
		e += 0.5 * s.Mass * s.Vel[i].Norm2()
	}
	return e
}

// PotentialEnergy returns the total Lennard-Jones potential energy.
func (s *MDSystem) PotentialEnergy() float64 {
	e := 0.0
	sigma2 := s.Sigma * s.Sigma
	for i := 0; i < len(s.Pos); i++ {
		for j := i + 1; j < len(s.Pos); j++ {
			r2 := s.Pos[i].Sub(s.Pos[j]).Norm2()
			if r2 < s.MinDist2 {
				r2 = s.MinDist2
			}
			sr2 := sigma2 / r2
			sr6 := sr2 * sr2 * sr2
			e += 4 * s.Eps * (sr6*sr6 - sr6)
		}
	}
	return e
}

// TotalEnergy returns kinetic plus potential energy.
func (s *MDSystem) TotalEnergy() float64 { return s.KineticEnergy() + s.PotentialEnergy() }

// Clone deep-copies the system so sequential and parallel runs can start
// from identical state.
func (s *MDSystem) Clone() *MDSystem {
	c := *s
	c.Pos = append([]Vec3(nil), s.Pos...)
	c.Vel = append([]Vec3(nil), s.Vel...)
	c.Force = append([]Vec3(nil), s.Force...)
	return &c
}

// MaxDeviation returns the largest component-wise position difference
// between two systems — the equality metric for parallel-vs-sequential.
//
//parcvet:ignore unused reference equality metric the MD tests compare parallel and sequential runs with
func MaxDeviation(a, b *MDSystem) float64 {
	m := 0.0
	for i := range a.Pos {
		d := a.Pos[i].Sub(b.Pos[i])
		m = math.Max(m, math.Max(math.Abs(d.X), math.Max(math.Abs(d.Y), math.Abs(d.Z))))
	}
	return m
}
