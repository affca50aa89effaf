package geom

import (
	"fmt"
	"math"
)

// Cone is the space–time cone C_beta of the paper (Section 2): the
// region above the pair of lines t = beta*x for x >= 0 and t = -beta*x
// for x < 0. Robots of a proportional schedule zig-zag inside the cone,
// reversing direction exactly on its boundary.
//
// Beta must be strictly greater than 1; at beta = 1 the boundary has
// unit slope and a robot bouncing between the walls would need infinite
// speed to make progress.
type Cone struct {
	beta float64
}

// NewCone returns the cone C_beta. It returns an error unless beta > 1.
func NewCone(beta float64) (Cone, error) {
	if !(beta > 1) || math.IsInf(beta, 1) {
		return Cone{}, fmt.Errorf("geom: cone requires finite beta > 1, got %g", beta)
	}
	return Cone{beta: beta}, nil
}

// MustCone is NewCone for statically known parameters; it panics on an
// invalid beta. Intended for tests and package-internal constants.
func MustCone(beta float64) Cone {
	c, err := NewCone(beta)
	if err != nil {
		panic(err)
	}
	return c
}

// Beta returns the cone's slope parameter.
func (c Cone) Beta() float64 { return c.beta }

// ExpansionFactor returns kappa = (beta+1)/(beta-1), the geometric
// growth factor of consecutive turning points of a single robot
// zig-zagging in the cone (Lemma 1).
func (c Cone) ExpansionFactor() float64 {
	return (c.beta + 1) / (c.beta - 1)
}

// BoundaryTime returns the time at which the cone boundary sits above
// position x, i.e. beta*|x|.
func (c Cone) BoundaryTime(x float64) float64 {
	return c.beta * math.Abs(x)
}

// BoundaryPoint returns the boundary point above position x.
func (c Cone) BoundaryPoint(x float64) Point {
	return Point{X: x, T: c.BoundaryTime(x)}
}

// Contains reports whether point p lies inside the cone or on its
// boundary, within tol (a point may fall a few ulps outside after
// closed-form computation).
func (c Cone) Contains(p Point, tol float64) bool {
	return p.T >= c.BoundaryTime(p.X)-tol
}

// OnBoundary reports whether p lies on the cone boundary within tol.
func (c Cone) OnBoundary(p Point, tol float64) bool {
	return math.Abs(p.T-c.BoundaryTime(p.X)) <= tol*math.Max(1, math.Abs(p.T))
}

// PrevTurn inverts Lemma 1's turn map: it returns the boundary point
// from which a robot crossing the cone at unit speed would have departed
// to arrive at boundary point p.
func (c Cone) PrevTurn(p Point) Point {
	k := c.ExpansionFactor()
	px := -p.X / k
	return Point{X: px, T: c.beta * math.Abs(px)}
}
